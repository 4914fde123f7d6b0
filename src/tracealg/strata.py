"""Combinatorics of the stratification of matrix-tuple quotient varieties.

A stratum type is a multiset of (block size m, weight a) pairs with
sum m*a = n; it records the isomorphism type of the block-diagonal algebra
generated by a tuple lying on a closed orbit, together with the embedding
multiplicities.  One type lies below another in the closure order iff a
nonnegative-integer embedding matrix exists (closure_leq searches for one);
the covering relations are exactly the one-step moves of
maximal_degenerations, which split a block or merge two equal-size blocks
(the proof is in stratification_poset).  Dimensions come from closed
formulas in n, the block data and the number of tuple coordinates ell.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate


@dataclass(frozen=True)
class StratumType:
    """Canonical multiset of (m, a) pairs, sorted, with n = sum m*a."""

    pairs: tuple

    @classmethod
    def of(cls, pairs) -> "StratumType":
        pairs = tuple(sorted((int(m), int(a)) for m, a in pairs))
        if not pairs or any(m < 1 or a < 1 for m, a in pairs):
            raise ValueError("pairs must be positive (size, weight) entries")
        return cls(pairs)

    @property
    def n(self) -> int:
        return sum(m * a for m, a in self.pairs)

    @property
    def block_count(self) -> int:
        return len(self.pairs)

    def label(self) -> str:
        return "+".join(f"{m}/{a}" for m, a in self.pairs)

    def __str__(self):
        return self.label()


def enumerate_types(n: int):
    """All stratum types with the given n, in canonical order: the walk picks
    pairs in sorted order and no type is a proper prefix of another (each
    sums to n), so it emits sorted pair tuples in lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")

    pairs = sorted((m, a) for m in range(1, n + 1) for a in range(1, n + 1)
                   if m * a <= n)

    out = []

    def rec(start, remaining, chosen):
        if remaining == 0:
            out.append(StratumType(chosen))
            return
        for idx in range(start, len(pairs)):
            m, a = pairs[idx]
            if m * a <= remaining:
                rec(idx, remaining - m * a, chosen + ((m, a),))

    rec(0, n, ())
    return out


@dataclass(frozen=True)
class StratumDims:
    sheet_dim: int
    stratum_dim: int
    stabilizer_dim: int                # dim of the unit group of the centralizer
    projective_stabilizer_dim: int     # the same after killing scalars


def stratum_dims(s: StratumType, ell: int) -> StratumDims:
    """Dimension data of the stratum of type s for ell-tuples.

    sheet_dim counts the tuples themselves, stratum_dim their image in the
    quotient; both need ell >= 2.
    """
    if ell <= 1:
        raise ValueError("dimension formulas require ell >= 2")
    n = s.n
    sum_m2 = sum(m * m for m, _ in s.pairs)
    sum_a2 = sum(a * a for _, a in s.pairs)
    k = s.block_count
    return StratumDims(
        sheet_dim=n * n + (ell - 1) * sum_m2 - sum_a2 + k,
        stratum_dim=(ell - 1) * sum_m2 + k,
        stabilizer_dim=sum_a2,
        projective_stabilizer_dim=sum_a2 - 1,
    )


def _size_partition(s: StratumType) -> list:
    """The partition of n with block size m repeated a times, largest first."""
    return sorted((m for m, a in s.pairs for _ in range(a)), reverse=True)


@lru_cache(maxsize=None)
def closure_leq(lower: StratumType, upper: StratumType) -> bool:
    """True iff the lower stratum lies in the closure of the upper one.

    Decided by searching for a nonnegative-integer matrix r with
    sum_j r[i][j] * m'_j = m_i for every block i of upper and
    a'_j = sum_i a_i * r[i][j] for every block j of lower: the embedding
    multiplicities of the lower block algebra inside the upper one.

    Such an r refines the size partition of upper into that of lower, and
    refinement implies dominance, so a pair whose lower size partition is
    not dominated by the upper one is rejected before any search.  The
    search fills r row by row, heaviest upper block first (its row is the
    most constrained), and records each state (row i, lower weights still
    to cover) it has failed from, so no state is explored twice.
    """
    if lower.n != upper.n:
        raise ValueError(f"stratum types have mismatched n: {lower.n} vs {upper.n}")
    if any(u < l for u, l in zip(accumulate(_size_partition(upper)),
                                 accumulate(_size_partition(lower)))):
        return False
    up = sorted(upper.pairs, key=lambda p: -p[1])
    sizes = [m for m, _ in lower.pairs]
    room = [a for _, a in lower.pairs]   # room[j]: weight of lower block j left to cover
    dead = set()

    def search(i):
        if i == len(up) - 1:
            # the last row must be room / a_i; it sums to m_i since both sides total n
            return all(r % up[i][1] == 0 for r in room)
        state = (i, tuple(room))
        if state in dead:
            return False
        if fill(i, 0, up[i][0]):
            return True
        dead.add(state)
        return False

    def fill(i, j, remaining):
        # choose r[i][j], r[i][j+1], ... with sum_j' r[i][j'] * m'_j' = remaining
        if j == len(sizes):
            return remaining == 0 and search(i + 1)
        a_i, size = up[i][1], sizes[j]
        for count in range(min(remaining // size, room[j] // a_i) + 1):
            room[j] -= a_i * count
            found = fill(i, j + 1, remaining - count * size)
            room[j] += a_i * count
            if found:
                return True
        return False

    return search(0)


def _moves(pairs: tuple, ell: int) -> dict:
    """maximal_degenerations on sorted pairs, as {target pairs: codim}; blocks
    of equal size, the only ones that merge, are neighbours in the pairs."""
    found = {}
    for i, (m, a) in enumerate(pairs):
        rest = pairs[:i] + pairs[i + 1:]
        for p in range(1, m // 2 + 1):
            q = m - p
            found[tuple(sorted(rest + ((p, a), (q, a))))] = (ell - 1) * 2 * p * q - 1
        for j in range(i + 1, len(pairs)):
            if pairs[j][0] != m:
                break
            merged = rest[:j - 1] + rest[j:] + ((m, a + pairs[j][1]),)
            found[tuple(sorted(merged))] = (ell - 1) * m * m + 1
    return found


def maximal_degenerations(s: StratumType, ell: int):
    """One-step degenerations: split one block or merge two equal-size blocks.

    Returns canonicalized (type, codimension) pairs, duplicates merged; the
    codimension of a split of (m, a) into (p, a), (q, a) is (ell-1)*2pq - 1,
    that of merging (m, a1), (m, a2) into (m, a1 + a2) is (ell-1)*m^2 + 1.
    """
    if ell <= 1:
        raise ValueError("degeneration codimensions require ell >= 2")
    moves = _moves(tuple(sorted(s.pairs)), ell)   # a type built directly may be unsorted
    return [(StratumType(t), codim) for t, codim in sorted(moves.items())]


@dataclass
class CoverEdge:
    lower: StratumType
    upper: StratumType
    codim: int
    flagged: bool  # codimension-1 exception


@dataclass
class StrataPoset:
    n: int
    ell: int
    nodes: list
    covers: list = field(default_factory=list)

    @property
    def flagged_edges(self):
        return [e for e in self.covers if e.flagged]

    def _labels(self) -> dict:
        """Each node's label, built once for its node and all its covers."""
        return {s: s.label() for s in self.nodes}

    def to_dot(self) -> str:
        labels = self._labels()
        lines = ["digraph strata {", "  rankdir=BT;"]
        for s in self.nodes:
            dims = stratum_dims(s, self.ell)
            lines.append(f'  "{labels[s]}" [label="{labels[s]}\\ndim {dims.stratum_dim}"];')
        for e in self.covers:
            style = ' [label="1", color=red, fontcolor=red]' if e.flagged \
                else f' [label="{e.codim}"]'
            lines.append(f'  "{labels[e.lower]}" -> "{labels[e.upper]}"{style};')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        labels = self._labels()
        return json.dumps({
            "n": self.n,
            "ell": self.ell,
            "nodes": [
                {
                    "type": labels[s],
                    "pairs": list(list(p) for p in s.pairs),
                    "stratum_dim": d.stratum_dim,
                    "sheet_dim": d.sheet_dim,
                    "stabilizer_dim": d.stabilizer_dim,
                }
                for s in self.nodes
                for d in [stratum_dims(s, self.ell)]
            ],
            "covers": [
                {"lower": labels[e.lower], "upper": labels[e.upper],
                 "codim": e.codim, "codim1_exception": e.flagged}
                for e in self.covers
            ],
        }, indent=2)


def _is_two_split(lower: StratumType, upper: StratumType) -> bool:
    """True iff lower is upper with one (2, a) block split into (1, a), (1, a)."""
    for idx, (m, a) in enumerate(upper.pairs):
        if m != 2:
            continue
        rest = list(upper.pairs[:idx]) + list(upper.pairs[idx + 1:])
        if StratumType.of(rest + [(1, a), (1, a)]) == lower:
            return True
    return False


def stratification_poset(n: int, ell: int) -> StrataPoset:
    """Closure poset of all stratum types for the given n and ell.

    The covering relations are exactly the moves of maximal_degenerations:
    t is covered by s iff t is s with one block split, or with two
    equal-size blocks merged.  Two facts prove it.

    1. Every relation is a chain of moves.  Take an embedding matrix r for
       t <= s (see closure_leq).  Split each block (m_i, a_i) of s, one
       binary split at a time, into r[i][j] pieces of size m'_j, each of
       weight a_i.  Then, for each block j of t, merge its pieces: they all
       have size m'_j, and their weights sum to a'_j >= 1.
    2. No move factors through a third type.  A split adds a parts (the
       sum of the weights a), adds one block and keeps sum a^2 m.  A merge
       of (m, a1), (m, a2) keeps sum a, removes one block and raises
       sum a^2 m by 2 a1 a2 m > 0.  So a chain of moves that ends at the
       target of a merge has no split and, counting blocks, exactly one
       merge; a chain that ends at the target of a split has no merge and
       exactly one split.

    By 1, a cover of s is reached from s by a chain of moves, and the first
    move of that chain can only be the cover itself; by 2, every move is a
    cover.  Covering edges carry the dimension drop; every codimension-1
    edge is checked to be the one known exception (ell = 2 and a 2x2 block
    splitting into two lines) and flagged.
    """
    if n < 1 or ell < 2:
        raise ValueError("need n >= 1 and ell >= 2")
    nodes = enumerate_types(n)
    table = {s.pairs: (s, stratum_dims(s, ell).stratum_dim) for s in nodes}
    covers = []   # built in (upper, lower) order: nodes and targets are sorted
    for s, s_dim in table.values():
        for t_pairs in sorted(_moves(s.pairs, ell)):
            t, t_dim = table[t_pairs]
            drop = s_dim - t_dim
            flagged = drop == 1
            if flagged and not (ell == 2 and _is_two_split(t, s)):
                raise AssertionError(
                    f"unexpected codimension-1 covering {t} < {s} at ell={ell}")
            covers.append(CoverEdge(lower=t, upper=s, codim=drop, flagged=flagged))
    return StrataPoset(n=n, ell=ell, nodes=nodes, covers=covers)
