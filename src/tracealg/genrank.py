"""Rank of the algebra of generic elements over its trace field.

For a finite-dimensional trace algebra with basis u_1..u_d and ell generic
elements g_i = sum_j g_{i,j} u_j, the span over the fraction field G of the
trace ring of all monomials in the g_i is computed word by word, certifying
every decision:

* a monomial is independent when a random specialization shows it is
  independent even over the full rational function field (sound, since a
  G-relation is in particular a rational-function relation); the seed
  draws these specialization points and nothing else;
* once d monomials are independent and the trace Gram matrix of the basis
  is nonsingular, every remaining monomial is dependent: its unique
  rational-function coordinates solve the Gram system of the monomials
  (V G V^T, nonsingular with G once V has rank d at a specialization point),
  so they lie in G (Cramer over the trace ring);
* otherwise we search for a homogeneous relation t_0 * v = sum t_i * b_i
  with coefficients in graded pieces of the trace ring: the relations of
  one degree are the null space of one exact linear system in their
  rational coefficients, read off the symbolic words and traces, so a null
  vector with t_0 != 0 is a relation that holds by construction and is the
  dependence certificate;
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
from math import prod

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
        d = algebra.dim
        rng = random.Random(seed)
        # the specialization points: per point, letter -> generic element as int vector
        self.points = [{i: tuple(rng.randint(-9, 9) for _ in range(d))
                        for i in range(1, ell + 1)} for _ in range(4)]
        self.point_words = [{(): algebra.unit} for _ in self.points]  # word -> exact vector
        self.generic_symbolic = {
            i: tuple(MPoly.var(generic_element_name(i, j)) for j in range(d))
            for i in range(1, ell + 1)
        }
        self.symbolic_words = {(): tuple(MPoly.const(c) for c in algebra.unit)}
        self.symbolic_traces = {}
        self.trace_piece_cache = {}
        self.nondegenerate = linalg.rank(algebra.gram) == d

    def word_at(self, w, p: int):
        return self.a.word_value(w, self.points[p], self.point_words[p])

    # -- symbolic values: the columns of the relation systems ----------------
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
        """The degree-e graded piece of the trace ring, spanned by the
        products T_u of the traces in the multisets u of cyclic words of total
        length e: a list of (u, T_u).  Degree 0 is the empty multiset, T = 1."""
        got = self.trace_piece_cache.get(e)
        if got is not None:
            return got
        words = [w for h in range(1, e + 1) for w in self.cyclic_words(h)]
        multisets = []

        def rec(start, remaining, chosen):
            if remaining == 0:
                multisets.append(tuple(chosen))
                return
            for idx in range(start, len(words)):
                w = words[idx]
                if len(w) > remaining:
                    break
                rec(idx, remaining - len(w), chosen + [w])

        rec(0, e, [])
        one = MPoly.const(1)
        out = self.trace_piece_cache[e] = [
            (u, prod(map(self.symbolic_trace, u), start=one)) for u in multisets]
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
        (certified at a point) and the trace Gram matrix G of the algebra's
        basis is nonsingular: the words' Gram matrix V G V^T at that point
        then is too."""
        d = self.a.dim
        if len(basis_words) != d or not self.nondegenerate:
            return False
        return any(linalg.rank([list(self.word_at(b, p)) for b in basis_words]) == d
                   for p in range(len(self.points)))

    def find_relation(self, basis_words, w):
        """Relation t_0 * v(w) = sum t_i * v(b_i) with t_0 != 0 in the trace
        ring, as its nonzero (word, sign, multiset, coefficient) terms, or None.

        In each degree the relations are the null space of one exact system:
        one unknown per column sign * T_u * v(word), over the words w and b_i
        and the multisets u of their graded pieces, and one row per
        (coordinate, monomial) that occurs.  t_0 = sum c_u * T_u over the
        columns of w is linear on that null space, so it is nonzero on some
        relation exactly when it is nonzero on a basis vector."""
        e = len(w)
        words = [(w, 1)] + [(b, -1) for b in basis_words]
        for degree in range(e, e + RELATION_DEGREE_SLACK + 1):
            terms = [(word, sign, u, t) for word, sign in words if len(word) <= degree
                     for u, t in self.trace_piece(degree - len(word))]
            rows = {}
            for col, (word, sign, _u, t) in enumerate(terms):
                for coord, x in enumerate(self.symbolic_word(word)):
                    for key, c in (sign * t * x).terms.items():
                        rows.setdefault((coord, key), [0] * len(terms))[col] = c
            t_w = [t for _u, t in self.trace_piece(degree - e)]
            for vec in linalg.nullspace(list(rows.values())):
                if MPoly.sum(zip(vec, t_w)):
                    return [(word, sign, u, c)
                            for c, (word, sign, u, _t) in zip(vec, terms) if c]
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
    queue = deque([()])
    while queue:
        if len(accepted) == algebra.dim and engine.full_rank_nondegenerate(accepted):
            # everything still queued is a rational-function combination of the
            # basis, and the nonsingular Gram matrix pulls the coefficients
            # into the trace field
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
