"""Rank of the algebra of generic elements over its trace field.

For a finite-dimensional trace algebra with basis u_1..u_d and ell generic
elements g_i = sum_j g_{i,j} u_j, the span over the fraction field G of the
trace ring of all monomials in the g_i is computed word by word, certifying
every decision:

* a monomial is independent when a random specialization shows it is
  independent even over the full rational function field (sound, since a
  G-relation is in particular a rational-function relation);
* once d monomials are independent and the trace Gram matrix of the basis
  is nonsingular at a specialization point, every remaining monomial is
  dependent: its unique rational-function coordinates solve the Gram system,
  so they lie in G (Cramer over the trace ring);
* otherwise we search for a homogeneous relation t_0 * v = sum t_i * b_i
  with coefficients in graded pieces of the trace ring, solving a sampled
  linear system and verifying candidate relations exactly; a verified
  relation is the dependence certificate;
* a monomial with no certificate either way is counted independent and
  flagged in the report.

Once every one-letter extension of the accepted monomials is dependent, the
accepted span is multiplicatively closed, hence is the whole generic-element
algebra, and the rank has provably stabilized.  Hitting the word-length cap
first yields an explicit inconclusive report, never a silent answer.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import product

from . import linalg
from .findim import Subspace, TraceAlgebra
from .freetrace import least_rotation
from .mpoly import MPoly


def generic_element_name(i: int, j: int) -> str:
    return f"g{i}_{j}"


@dataclass
class GenericRankReport:
    rank: int
    stabilized: bool
    word_length_cap: int
    max_length_used: int
    basis_words: list
    unverified_words: list = field(default_factory=list)
    dependent_words: list = field(default_factory=list)
    rank_by_length: dict = field(default_factory=dict)
    nondegenerate_shortcut: bool = False

    @property
    def status(self) -> str:
        return "stabilized" if self.stabilized else "inconclusive"

    @property
    def fully_certified(self) -> bool:
        return self.stabilized and not self.unverified_words


# a relation for a word of length e is searched in degrees e .. e + this slack
RELATION_DEGREE_SLACK = 2


class _RankEngine:
    def __init__(self, algebra: TraceAlgebra, ell: int, seed: int):
        self.a = algebra
        self.ell = ell
        self.rng = random.Random(seed)
        d = algebra.dim
        self.generic_symbolic = {
            i: tuple(MPoly.var(generic_element_name(i, j)) for j in range(d))
            for i in range(1, ell + 1)
        }
        self.symbolic_words = {(): tuple(MPoly.const(c) for c in algebra.unit)}
        self.symbolic_traces = {}
        self.trace_piece_cache = {}
        self.points = []            # per point: letter -> generic element as int vector
        self.point_words = []       # per point: word -> exact vector
        self.point_traces = []      # per point: multiset -> exact rational
        for _ in range(4):
            self._add_point()

    # -- specialization points -------------------------------------------------
    def _add_point(self):
        d = self.a.dim
        self.points.append({i: tuple(self.rng.randint(-9, 9) for _ in range(d))
                            for i in range(1, self.ell + 1)})
        self.point_words.append({(): self.a.unit})
        self.point_traces.append({})

    def word_at(self, w, p: int):
        return self.a.word_value(w, self.points[p], self.point_words[p])

    def trace_at(self, cyc, p: int):
        return self.a.trace_of(self.word_at(cyc, p))

    def multiset_at(self, multiset, p: int):
        cache = self.point_traces[p]
        got = cache.get(multiset)
        if got is None:
            got = 1
            for w in multiset:
                got *= self.trace_at(w, p)
            cache[multiset] = got
        return got

    # -- symbolic values (only used to verify candidate relations) -------------
    def symbolic_word(self, w):
        return self.a.word_value(w, self.generic_symbolic, self.symbolic_words)

    def symbolic_trace(self, cyc) -> MPoly:
        got = self.symbolic_traces.get(cyc)
        if got is None:
            got = self.symbolic_traces[cyc] = self.a.trace_of(self.symbolic_word(cyc))
        return got

    # -- trace-ring graded pieces ----------------------------------------------
    def cyclic_words(self, h: int):
        return sorted({least_rotation(w)
                       for w in product(range(1, self.ell + 1), repeat=h)})

    def trace_piece(self, e: int):
        """Multisets of cyclic words of total length e, spanning the degree-e
        graded piece of the trace ring; degree 0 is the constant 1."""
        got = self.trace_piece_cache.get(e)
        if got is not None:
            return got
        if e == 0:
            out = [()]
        else:
            out = []
            words = []
            for h in range(1, e + 1):
                words.extend(self.cyclic_words(h))
            words.sort(key=lambda w: (len(w), w))

            def rec(start, remaining, chosen):
                if remaining == 0:
                    out.append(tuple(chosen))
                    return
                for idx in range(start, len(words)):
                    w = words[idx]
                    if len(w) > remaining:
                        break
                    rec(idx, remaining - len(w), chosen + [w])

            rec(0, e, [])
        self.trace_piece_cache[e] = out
        return out

    # -- certificates ------------------------------------------------------------
    def independent_by_specialization(self, basis_words, w) -> bool:
        for p in range(len(self.points)):
            span = Subspace.from_vectors(self.a.dim, [self.word_at(b, p) for b in basis_words])
            if span.dim == len(basis_words) and not span.contains(self.word_at(w, p)):
                return True
        return False

    def full_rank_nondegenerate(self, basis_words) -> bool:
        """True if the basis spans the whole algebra over the function field
        and its trace Gram matrix is nonsingular (certified at a point)."""
        d = self.a.dim
        if len(basis_words) != d:
            return False
        for p in range(len(self.points)):
            vecs = [self.word_at(b, p) for b in basis_words]
            if linalg.rank([list(v) for v in vecs]) != d:
                continue
            if linalg.rank(self.a.gram_matrix(vecs)) == d:
                return True
        return False

    def find_relation(self, basis_words, w):
        """Verified relation t_0 * v(w) = sum t_i * v(b_i) with t_0 != 0 in the
        trace ring, searched degree by degree, or None."""
        e = len(w)
        for extra in range(RELATION_DEGREE_SLACK + 1):
            degree = e + extra
            blocks = [(w, +1, self.trace_piece(degree - e))]
            for b in basis_words:
                if degree - len(b) >= 0:
                    blocks.append((b, -1, self.trace_piece(degree - len(b))))
            if not blocks[0][2]:
                continue
            relation = self._solve_block_system(blocks)
            if relation is not None:
                return relation
        return None

    def _solve_block_system(self, blocks):
        d = self.a.dim
        unknown_index = [(bi, ti)
                         for bi, (_w, _s, piece) in enumerate(blocks)
                         for ti in range(len(piece))]
        n_unknowns = len(unknown_index)
        if n_unknowns == 0:
            return None
        n_points = max(4, (n_unknowns + d - 1) // d + 2)
        previous_dim = None
        for _round in range(6):
            while len(self.points) < n_points:
                self._add_point()
            rows = []
            for p in range(n_points):
                cols = []
                for word, sign, piece in blocks:
                    wv = self.word_at(word, p)
                    for multiset in piece:
                        tv = sign * self.multiset_at(multiset, p)
                        cols.append(tuple(tv * x for x in wv))
                for coord in range(d):
                    rows.append([c[coord] for c in cols])
            null = linalg.nullspace(rows)
            if not null:
                return None
            if previous_dim is not None and len(null) == previous_dim:
                checked = 0
                for vec in null:
                    t0_cols = [vec[u] for u, (bi, _t) in enumerate(unknown_index)
                               if bi == 0]
                    if all(c == 0 for c in t0_cols):
                        continue
                    relation = self._verify_relation(blocks, vec, unknown_index)
                    if relation is not None:
                        return relation
                    checked += 1
                    if checked >= 8:
                        break
                if checked:
                    return None
            previous_dim = len(null)
            n_points += 3
        return None

    def _verify_relation(self, blocks, vec, unknown_index):
        """Exact check of a sampled candidate; returns its nonzero part or None."""
        d = self.a.dim
        t0 = []
        total = [{} for _ in range(d)]
        parts = []
        for u, (bi, ti) in enumerate(unknown_index):
            c = vec[u]
            if c == 0:
                continue
            word, sign, piece = blocks[bi]
            multiset = piece[ti]
            value = MPoly.const(c)
            for cw in multiset:
                value = value * self.symbolic_trace(cw)
            if bi == 0:
                t0.append(value)
            for out, entry in zip(total, self.symbolic_word(word)):
                MPoly.add_product(out, value, entry, sign)
            parts.append((word, sign, multiset, c))
        if not MPoly.sum(t0):
            return None
        if not any(total):
            return parts
        return None


def generic_algebra_rank(algebra: TraceAlgebra, ell: int, degree_cap: int = None,
                         seed: int = 0) -> GenericRankReport:
    """Dimension over the trace fraction field of the generic-element algebra.

    Explores monomials in the ell generic elements breadth-first, certifying
    independence or dependence per monomial, until the accepted span is
    multiplicatively closed (stabilized) or the word-length cap is hit
    (reported as inconclusive).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if degree_cap is None:
        degree_cap = 2 * algebra.dim * algebra.dim
    if degree_cap < algebra.dim:
        raise ValueError("degree_cap must be at least the algebra dimension")
    engine = _RankEngine(algebra, ell, seed)

    report = GenericRankReport(rank=0, stabilized=True, word_length_cap=degree_cap,
                               max_length_used=0, basis_words=[])
    accepted = []
    shortcut = False
    queue = deque([()])
    while queue:
        if not shortcut and len(accepted) == algebra.dim and \
                engine.full_rank_nondegenerate(accepted):
            # everything still queued is a rational-function combination of the
            # basis, and the nonsingular Gram matrix pulls the coefficients
            # into the trace field
            shortcut = True
            report.nondegenerate_shortcut = True
            break
        w = queue.popleft()
        if len(w) > degree_cap:
            report.stabilized = False
            break
        report.max_length_used = max(report.max_length_used, len(w))
        if engine.independent_by_specialization(accepted, w):
            accepted.append(w)
            report.basis_words.append(w)
        elif engine.find_relation(accepted, w) is not None:
            report.dependent_words.append(w)
            report.rank_by_length[len(w)] = len(accepted)
            continue
        else:
            accepted.append(w)
            report.basis_words.append(w)
            report.unverified_words.append(w)
        report.rank_by_length[len(w)] = len(accepted)
        for letter in range(1, ell + 1):
            queue.append(w + (letter,))
    report.rank = len(accepted)
    return report
