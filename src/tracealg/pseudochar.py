"""Pseudocharacters of finite groups.

A candidate degree-n central function passes when t(1) = n, t is constant on
products both ways round, and the (n+1)-fold alternating trace sum vanishes
on every tuple of group elements.  Passing tables induce a trace on the
group algebra whose quotient by the trace-form kernel is an algebra with
trace of degree n.

The alternating sum T_k(x_1..x_k) is the sum over S_k of the sign times the
product of t over the cycle products.  ``multilinear_trace_sum`` evaluates it
term by term, k! terms per tuple.  The scan instead uses the
pseudo-representation recursion of Taylor (1991) and Chenevier (2014),

    T_0 = 1,  T_{k+1}(x_1..x_{k+1}) = t(x_{k+1}) T_k(x_1..x_k)
                                      - sum_i T_k(x_1,..,x_i x_{k+1},..,x_k),

which splits S_{k+1} by whether k+1 is fixed or follows i in its cycle.
Each cycle product starts at its least index, which is k+1 only when k+1 is
fixed, so the recursion holds for every table on ordered tuples.

For a class function T_k is symmetric in its arguments, and every term of
the recursion on a multiset of size k+1 is a value on a multiset of size k.
The exhaustive scan of a class function therefore fills T_k level by level,
k = 1..n+1, each level in ``combinations_with_replacement`` order and keyed
by an integer code of the multiset (``_level_trace_sums``): every level is
needed in full, and one level is all the next one reads.  A sampled scan
reaches only a few multisets of each level, and a table that fails axiom 2
is not symmetric, so both evaluate each tuple depth-first
(``_recursive_trace_sum``), with a memo keyed on sorted multisets or on the
ordered tuples as given.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .chident import permutation_cycles
from .findim import (TraceAlgebra, ch_degree, make_algebra, quotient_algebra,
                     trace_kernel)
from .sparse import exact


class GroupValidationError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table on indices 0..order-1."""

    order: int
    table: tuple
    identity: int

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        row = self.table[a]
        for b in range(self.order):
            if row[b] == self.identity:
                return b
        raise GroupValidationError(f"element {a} has no inverse")

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mult(x, a)
            k += 1
        return k

    def exponent(self) -> int:
        from math import lcm
        return lcm(*[self.element_order(a) for a in range(self.order)])


def make_group(table, identity=None) -> FiniteGroup:
    """Validated group from a multiplication table.

    Checks the Latin square property, the identity law and associativity
    exhaustively.
    """
    g = len(table)
    table = tuple(tuple(int(x) for x in row) for row in table)
    for i, row in enumerate(table):
        if sorted(row) != list(range(g)):
            raise GroupValidationError(f"row {i} is not a permutation")
    for j in range(g):
        col = [table[i][j] for i in range(g)]
        if sorted(col) != list(range(g)):
            raise GroupValidationError(f"column {j} is not a permutation")
    if identity is None:
        identity = next((e for e in range(g)
                         if all(table[e][x] == x and table[x][e] == x for x in range(g))),
                        None)
        if identity is None:
            raise GroupValidationError("no identity element")
    else:
        if any(table[identity][x] != x or table[x][identity] != x for x in range(g)):
            raise GroupValidationError(f"element {identity} is not an identity")
    for a in range(g):
        for b in range(g):
            ab = table[a][b]
            for c in range(g):
                if table[ab][c] != table[a][table[b][c]]:
                    raise GroupValidationError(
                        f"associativity fails on ({a}, {b}, {c})")
    return FiniteGroup(order=g, table=table, identity=identity)


# -- group constructors -------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    return make_group([[(i + j) % n for j in range(n)] for i in range(n)])


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    idx = lambda a, b: a * n2 + b
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(g1.mult(a1, a2), g2.mult(b1, b2))
    return make_group(table)


def dihedral_group(k: int) -> FiniteGroup:
    """Symmetries of the k-gon, order 2k; elements (r^i, r^i s)."""
    n = 2 * k

    def mult(a, b):
        ia, sa = a % k, a // k
        ib, sb = b % k, b // k
        if sa == 0:
            return ((ia + ib) % k) + k * sb
        return ((ia - ib) % k) + k * (1 - sb)

    return make_group([[mult(a, b) for b in range(n)] for a in range(n)])


def symmetric_group_3() -> FiniteGroup:
    return dihedral_group(3)


def quaternion_group() -> FiniteGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = {n: (-1 if n.startswith("-") else 1) for n in names}
    base = {n: n.lstrip("-") for n in names}
    mul_base = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    table = []
    for a in names:
        row = []
        for b in names:
            s, base_prod = mul_base[(base[a], base[b])]
            s *= sign[a] * sign[b]
            row.append(names.index(base_prod if s == 1 else "-" + base_prod))
        table.append(row)
    return make_group(table)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


# -- pseudocharacter checking ----------------------------------------------------

@dataclass(frozen=True)
class PseudoCharTable:
    group: FiniteGroup
    degree: int
    values: tuple  # Fraction or Cyc per element


@dataclass
class PseudoCheckReport:
    passed: bool
    degree: int
    axiom1_ok: bool
    axiom2_ok: bool
    axiom3_ok: bool
    axiom1_witness: object = None
    axiom2_witness: object = None   # (a, b) with t(ab) != t(ba)
    axiom3_witness: object = None   # least tuple where T_{n+1} != 0
    exhaustive: bool = True
    tuples_checked: int = 0
    memo_states: int = 0            # T_k values the scan stored, T_0 included


def multilinear_trace_sum(group: FiniteGroup, values, elements) -> object:
    """T_k evaluated through the table: sum over S_k of sign times the product
    of t(cycle products)."""
    total = None
    for sign, cycles in permutation_cycles(len(elements)):
        term = Fraction(sign)
        for cyc in cycles:
            prod = elements[cyc[0] - 1]
            for idx in cyc[1:]:
                prod = group.mult(prod, elements[idx - 1])
            term = term * values[prod]
        total = term if total is None else total + term
    return total


def _recursive_trace_sum(group: FiniteGroup, values, elements, memo: dict,
                         class_function: bool):
    """T_k on ``elements`` by the recursion; equals ``multilinear_trace_sum``.

    ``memo`` maps tuples to T_k values and is filled as a side effect; pass
    the same dict, with the same ``class_function``, to share work between
    calls on the same table.  For a class function ``values`` the keys are
    sorted tuples and equal elements are expanded once, with their
    multiplicity; otherwise the keys are the tuples in the order given.  The
    recursion runs on an explicit stack, so its depth is not bounded by
    Python's recursion limit.
    """
    table = group.table
    memo.setdefault((), 1)
    top = tuple(sorted(elements)) if class_function else tuple(elements)
    stack = [(top, None)]
    while stack:
        key, merged = stack.pop()
        if merged is None:
            if key in memo:
                continue
            if len(key) == 1:
                memo[key] = values[key[0]]
                continue
            # T(key) = t(x) T(rest) - sum_i T(rest with rest[i] replaced by
            # rest[i] x)
            rest, x = key[:-1], key[-1]
            merged = []
            for i, y in enumerate(rest):
                if not class_function:
                    merged.append((1, rest[:i] + (table[y][x],) + rest[i + 1:]))
                elif not (i and rest[i - 1] == y):
                    # equal elements of a sorted rest give equal terms
                    child = tuple(sorted(rest[:i] + rest[i + 1:] + (table[y][x],)))
                    merged.append((rest.count(y), child))
            stack.append((key, merged))
            stack.extend((child, None) for child in [rest] + [c for _, c in merged]
                         if child not in memo)
        else:
            value = values[key[-1]] * memo[key[:-1]]
            for count, child in merged:
                # no multiplication by 1, which costs a full product on Cyc
                value -= memo[child] if count == 1 else count * memo[child]
            memo[key] = value
    return memo[top]


def _level_trace_sums(group: FiniteGroup, values, size: int):
    """Yield ``(rest, x, T_size(rest + (x,)))`` for every multiset of
    ``size`` elements, in ``combinations_with_replacement`` order.

    ``values`` must be a class function.  The levels k = 1..size are filled
    in turn, each multiset written as ``rest + (x,)`` with x >= max(rest).
    By symmetry the recursion's terms for it are T_{k-1}(rest) and, for each
    distinct y in rest with its count, T_{k-1} of rest with one y replaced
    by yx.  A level's values are keyed by the code sum count(e) (size+1)^e,
    so the code of rest with y replaced by yx is code(rest) - W[y] +
    W[yx]; the multisets extending one rest are consecutive, and its
    distinct elements, counts and code are read once for all of them.
    """
    order, table = group.order, group.table
    weight = [(size + 1) ** e for e in range(order)]
    product_weight = [[weight[z] for z in row] for row in table]  # W[yx]
    level, memo = [((), 0)], {0: 1}
    for k in range(1, size + 1):
        top = k == size
        next_level, next_memo = [], {}
        for rest, code in level:
            t_rest = memo[code]
            terms = [(rest.count(y), code - weight[y], product_weight[y])
                     for y in dict.fromkeys(rest)]
            for x in range(rest[-1] if rest else 0, order):
                value = values[x] * t_rest
                for count, base, row in terms:
                    child = memo[base + row[x]]
                    # no multiplication by 1, which costs a full product on Cyc
                    value -= child if count == 1 else count * child
                if top:
                    yield rest, x, value
                else:
                    next_memo[code + weight[x]] = value
                    next_level.append((rest + (x,), code + weight[x]))
        level, memo = next_level, next_memo


def check_pseudocharacter(p: PseudoCharTable, max_exhaustive: int = 300000,
                          sample_size: int = 20000, seed: int = 0) -> PseudoCheckReport:
    """Verify the three degree-n axioms, reporting first witnesses.

    The tuple axiom is checked exhaustively whenever the number of basis
    multisets fits the budget (the sum is symmetric and multilinear, so
    multisets decide all tuples), in lexicographic order so that the witness
    is the least one; larger inputs fall back to a clearly labeled random
    sample.  The scan stops at the first multiset where T_{n+1} is nonzero.

    When axiom 2 holds and the scan is exhaustive, T_{n+1} comes from
    ``_level_trace_sums``, which fills every level below the top before it
    reaches the first multiset of size n+1; ``memo_states`` counts those
    levels, the empty multiset included, and the top multisets scanned, so
    a pass has C(order + n + 1, n + 1).  Otherwise T_{n+1} comes from
    ``_recursive_trace_sum`` with one memo for the whole scan, and
    ``memo_states`` counts the T_k values it stored: a sample reaches only
    a few multisets of each level, and when axiom 2 fails a sorted key would
    be unsound, so that memo is keyed on the tuples as given.  Both equal
    ``multilinear_trace_sum`` on every table they accept, so the verdicts,
    counts and witnesses are those of the permutation sum.
    """
    g, n, values = p.group, p.degree, p.values
    if n < 0:
        raise ValueError(f"pseudocharacter degree must be >= 0, got {n}")
    report = PseudoCheckReport(passed=False, degree=n,
                               axiom1_ok=True, axiom2_ok=True, axiom3_ok=True)

    if values[g.identity] != n:
        report.axiom1_ok = False
        report.axiom1_witness = values[g.identity]

    for a in range(g.order):
        for b in range(a + 1, g.order):
            ab, ba = g.mult(a, b), g.mult(b, a)
            if ab != ba and values[ab] != values[ba]:
                report.axiom2_ok = False
                report.axiom2_witness = (a, b)
                break
        if not report.axiom2_ok:
            break

    # integral values as int: the recursion's sums then avoid Fraction
    values = [exact(v) if isinstance(v, (int, Fraction)) else v for v in values]
    report.exhaustive = comb(g.order + n, n + 1) <= max_exhaustive
    if report.exhaustive and report.axiom2_ok:
        for rest, x, value in _level_trace_sums(g, values, n + 1):
            report.tuples_checked += 1
            if value != 0:
                report.axiom3_ok = False
                report.axiom3_witness = rest + (x,)
                break
        report.memo_states = comb(g.order + n, n) + report.tuples_checked
    else:
        if report.exhaustive:
            candidates = combinations_with_replacement(range(g.order), n + 1)
        else:
            rng = random.Random(seed)
            candidates = (tuple(sorted(rng.randrange(g.order) for _ in range(n + 1)))
                          for _ in range(sample_size))
        memo = {}
        for elems in candidates:
            report.tuples_checked += 1
            if _recursive_trace_sum(g, values, elems, memo, report.axiom2_ok) != 0:
                report.axiom3_ok = False
                report.axiom3_witness = elems
                break
        report.memo_states = len(memo)

    report.passed = report.axiom1_ok and report.axiom2_ok and report.axiom3_ok
    return report


# -- the induced trace algebra -----------------------------------------------------

def group_algebra(p: PseudoCharTable) -> TraceAlgebra:
    """Q[G] with basis the group elements and trace from the table values."""
    g = p.group
    values = []
    for v in p.values:
        if isinstance(v, Fraction):
            values.append(v)
        else:
            r = v.as_rational()
            if r is None:
                raise ValueError(
                    "group-algebra construction needs rational trace values")
            values.append(r)
    mul = [[[(g.mult(a, b), 1)] for b in range(g.order)] for a in range(g.order)]
    unit = [Fraction(1) if a == g.identity else Fraction(0) for a in range(g.order)]
    return make_algebra(mul, unit, values,
                        labels=tuple(f"g{a}" for a in range(g.order)), validate=False)


def pseudochar_kernel(p: PseudoCharTable):
    """Kernel of the induced trace form on Q[G] and the quotient algebra.

    Requires the table to pass check_pseudocharacter; the quotient is
    asserted to have trace degree equal to the table degree.
    """
    report = check_pseudocharacter(p)
    if not report.passed:
        raise ValueError(f"not a pseudocharacter: {report}")
    algebra = group_algebra(p)
    kernel = trace_kernel(algebra)
    if kernel.dim == algebra.dim:
        raise ValueError("trace is identically zero; quotient undefined")
    quotient, _ = quotient_algebra(algebra, kernel)
    degree = ch_degree(quotient, p.degree)
    if degree != p.degree:
        raise AssertionError(
            f"quotient is not a degree-{p.degree} trace algebra (got {degree})")
    return kernel, quotient
