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

For a class function T_k is symmetric in its arguments, and every term of
the recursion on a multiset of size k+1 is a value on a multiset of size k.
The scan therefore fills T_k level by level, k = 1..n+1, each level in
``combinations_with_replacement`` order and keyed by an integer code of the
multiset (``_level_trace_sums``): every level is needed in full, and one
level is all the next one reads.  It is the only scan, and ``SCAN_MAX_WORK``
bounds it before it fills any level.  It runs on ints: Cyc and Fraction
values are first mapped into Z/M (see ``check_pseudocharacter``).

A table with t(ab) != t(ba) for some a, b fails axiom 2 and is not scanned.
Its T_k is not symmetric, and a cycle product's value depends on the index
it starts from: ``multilinear_trace_sum`` starts each at its least index,
which is a convention, not an invariant of the table.  Taylor's definition
presumes t(ab) = t(ba), so the tuple axiom has no meaning there.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .chident import permutation_cycles
from .cyclotomic import residue_images
from .findim import (TraceAlgebra, ch_degree, make_algebra, quotient_algebra,
                     trace_kernel)


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
    exhaustive: bool = True         # every multiset is scanned; always True
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


def _level_trace_sums(group: FiniteGroup, values, size: int, modulus=None):
    """Yield ``(rest, x, T_size(rest + (x,)))`` for every multiset of
    ``size`` elements, in ``combinations_with_replacement`` order.

    The sums are taken in the ring of ``values``; with a ``modulus`` the
    values are ints and every T_k is reduced modulo it once it is summed.

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
                    value -= count * memo[base + row[x]]
                if modulus:
                    value %= modulus
                if top:
                    yield rest, x, value
                else:
                    next_memo[code + weight[x]] = value
                    next_level.append((rest + (x,), code + weight[x]))
        level, memo = next_level, next_memo


# A pass of the scan fills C(order + n + 1, n + 1) memo states, and each
# costs time growing with n, so the scan is refused when that count times
# n + 1 is above the bound.  Passes measured (Python 3.11.7, 2 cores); C12's
# table is scanned on its images in Z/M, the others in Z (the Cyc values of
# the C3 table are integral rationals):
#
#   table                               memo states   times n+1   time
#   D6, sum of its characters, n = 8         293930     2645370   0.51-0.61 s
#   C12, 8 linear characters (Cyc), n = 8    293930     2645370   0.86-1.10 s
#   C3, 20 times the regular (Cyc), n = 60    41664     2541504   0.16-0.22 s
#   C1, n = 1500                               1502     2254502   0.04 s
#
# D6 at n = 9 (646646 states, 6466460) is refused, and so is C2 at n = 770
# (298378 states, 230049438), where a pass takes 6.5 s.
SCAN_MAX_WORK = 3_000_000


def check_pseudocharacter(p: PseudoCharTable) -> PseudoCheckReport:
    """Verify the three degree-n axioms, reporting first witnesses.

    When axiom 2 holds, the tuple axiom is checked on every multiset of n+1
    elements (T_{n+1} is symmetric and multilinear, so multisets decide all
    tuples) in ``combinations_with_replacement`` order, so that the witness
    is the least one, and the scan stops at the first multiset where
    T_{n+1} is nonzero.  ``_level_trace_sums`` fills every level below the
    top before it reaches the first multiset of size n+1; ``memo_states``
    counts those levels, the empty multiset included, and the top multisets
    scanned, so a pass has C(order + n + 1, n + 1).  The verdict, counts
    and witness are those of the permutation sum ``multilinear_trace_sum``,
    and ``exhaustive`` is always True.

    The scan computes in plain ints: an integral rational table as it is,
    any other through ``cyclotomic.residue_images``, which maps the values
    into Z/M by one ring homomorphism and tests each T_{n+1}, a polynomial
    of degree n+1 with (n+1)! terms of sign +-1, against 0 exactly.
    ``ValueError`` when Cyc values of two moduli meet, before any level is
    filled.

    Before any level is filled, the check raises ``ValueError`` naming the
    count when C(order + n + 1, n + 1) times n + 1 is above
    ``SCAN_MAX_WORK``.  When axiom 2 fails nothing is scanned or refused
    (see the module docstring): ``axiom3_ok`` stays True, read as "no
    violation evaluated", ``axiom3_witness`` is None, and ``tuples_checked``
    and ``memo_states`` are 0.
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

    if report.axiom2_ok:
        states = comb(g.order + n + 1, n + 1)
        if states * (n + 1) > SCAN_MAX_WORK:
            raise ValueError(
                f"the degree-{n} scan over {g.order} elements would fill {states} memo "
                f"states, and {states} x {n + 1} = {states * (n + 1)} is above the "
                f"bound {SCAN_MAX_WORK}")
        images, modulus, psi = residue_images(values, n + 1, factorial(n + 1))
        for rest, x, value in _level_trace_sums(g, images, n + 1, modulus):
            report.tuples_checked += 1
            # a zero residue is a zero T_{n+1}; any other is tested by psi
            if value and (modulus is None or value * psi % modulus):
                report.axiom3_ok = False
                report.axiom3_witness = rest + (x,)
                break
        report.memo_states = comb(g.order + n, n) + report.tuples_checked

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

    Requires the table to pass check_pseudocharacter, whose ValueError
    above ``SCAN_MAX_WORK`` it passes on; the quotient is asserted to have
    trace degree equal to the table degree.
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
