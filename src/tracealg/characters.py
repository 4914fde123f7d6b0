"""Brute-force character tables of small finite groups.

Linear characters are enumerated directly (through the commutator quotient
when the group is nonabelian) as exponent maps G -> Z/m: a candidate is a
homomorphism when its exponents add mod m on every pair, so the check is
integer addition, and the values are read from one table of the m-th roots
of unity.  Higher-degree irreducibles are obtained by inducing linear
characters of abelian subgroups and keeping those of norm 1.  Every group of
order < 24 is monomial, so this recovers the full table for everything in
scope.  The search stops as soon as the distinct characters found number the
conjugacy classes with degree square sum |G|; an abelian group is complete
after its linear characters and never searches its subgroups.  Completeness
is checked before returning.

All values are exact elements of Q(zeta_m), m the group exponent; rational
values are returned as Fraction.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cyclotomic import Cyc
from .pseudochar import FiniteGroup, make_group


def conjugacy_classes(g: FiniteGroup):
    seen = [False] * g.order
    classes = []
    for a in range(g.order):
        if seen[a]:
            continue
        orbit = set()
        for x in range(g.order):
            orbit.add(g.mult(g.mult(x, a), g.inverse(x)))
        for e in orbit:
            seen[e] = True
        classes.append(tuple(sorted(orbit)))
    return classes


def subgroup_closure(g: FiniteGroup, generators):
    elems = {g.identity}
    frontier = set(generators) - elems
    elems |= frontier
    while frontier:
        new = set()
        for a in frontier:
            for b in list(elems):
                for c in (g.mult(a, b), g.mult(b, a)):
                    if c not in elems:
                        new.add(c)
        elems |= new
        frontier = new
    return frozenset(elems)


def abelian_subgroups(g: FiniteGroup):
    """All subgroups generated by one element or a commuting pair."""
    out = {subgroup_closure(g, [g.identity])}
    for a in range(g.order):
        out.add(subgroup_closure(g, [a]))
        for b in range(a + 1, g.order):
            if g.mult(a, b) == g.mult(b, a):
                sub = subgroup_closure(g, [a, b])
                if _is_abelian_subset(g, sub):
                    out.add(sub)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _is_abelian_subset(g: FiniteGroup, elems) -> bool:
    elems = list(elems)
    return all(g.mult(a, b) == g.mult(b, a) for a in elems for b in elems)


def commutator_subgroup(g: FiniteGroup):
    gens = set()
    for a in range(g.order):
        for b in range(g.order):
            gens.add(g.mult(g.mult(a, b), g.inverse(g.mult(b, a))))
    return subgroup_closure(g, gens)


def quotient_group(g: FiniteGroup, normal):
    """(quotient group, element -> coset index).  normal must be normal."""
    normal = frozenset(normal)
    coset_of = {}
    reps = []
    for a in range(g.order):
        if a in coset_of:
            continue
        coset = frozenset(g.mult(a, h) for h in normal)
        idx = len(reps)
        reps.append(min(coset))
        for e in coset:
            if e in coset_of:
                raise ValueError("subgroup is not normal: cosets overlap")
            coset_of[e] = idx
    table = [[coset_of[g.mult(reps[i], reps[j])] for j in range(len(reps))]
             for i in range(len(reps))]
    return make_group(table), coset_of


def _sub_table(g: FiniteGroup, elems):
    """A subgroup as its own FiniteGroup plus the index-into-parent list."""
    order = sorted(elems)
    pos = {e: i for i, e in enumerate(order)}
    table = [[pos[g.mult(a, b)] for b in order] for a in order]
    return make_group(table), order


def _generating_sequence(g: FiniteGroup):
    gens = []
    span = subgroup_closure(g, [g.identity])
    for a in range(g.order):
        if a not in span:
            gens.append(a)
            span = subgroup_closure(g, gens)
            if len(span) == g.order:
                break
    return gens


def linear_characters_abelian(g: FiniteGroup, m: int):
    """All homomorphisms of an abelian group into the m-th roots of unity.

    Each candidate is an exponent map e: G -> Z/m, sending generator i of a
    generating sequence to a multiple of m/o_i (o_i its order) and spread
    along the group by e(x gen) = e(x) + e(gen).  It is a homomorphism when
    e(ab) = e(a) + e(b) mod m on every pair, which is exact because zeta^i =
    zeta^j iff i = j mod m; the values zeta^e(a) are then read from one
    table of the m roots.
    """
    gens = _generating_sequence(g)
    orders = [g.element_order(a) for a in gens]
    steps = [(gen, m // o) for gen, o in zip(gens, orders)]
    table = g.table
    pairs = [(a, b, table[a][b]) for a in range(g.order) for b in range(g.order)]
    maps = set()
    for powers in product(*[range(o) for o in orders]):
        exps = {g.identity: 0}
        frontier = [g.identity]
        while frontier:
            new = []
            for x in frontier:
                for (gen, step), p in zip(steps, powers):
                    y = table[x][gen]
                    if y not in exps:
                        exps[y] = (exps[x] + step * p) % m
                        new.append(y)
            frontier = new
        if len(exps) != g.order:
            continue
        e = tuple(exps[a] for a in range(g.order))
        if all(e[ab] == (e[a] + e[b]) % m for a, b, ab in pairs):
            maps.add(e)
    roots = [Cyc.root(m, k) for k in range(m)]
    chars = [tuple(roots[k] for k in e) for e in maps]
    # distinct homomorphisms of an abelian group number exactly |G|
    uniq = sorted(chars, key=lambda c: [x.coeffs for x in c])
    if len(uniq) != g.order:
        raise AssertionError(
            f"found {len(uniq)} linear characters of an abelian group of order {g.order}")
    return uniq


def linear_characters(g: FiniteGroup, m: int):
    derived = commutator_subgroup(g)
    if len(derived) == 1:
        return linear_characters_abelian(g, m)
    quotient, coset_of = quotient_group(g, derived)
    lifted = []
    for chi in linear_characters_abelian(quotient, m):
        lifted.append(tuple(chi[coset_of[a]] for a in range(g.order)))
    return lifted


def induced_character(g: FiniteGroup, sub_elems, sub_values, m: int):
    """Character of g induced from a character of the subgroup."""
    value_of = dict(zip(sorted(sub_elems), sub_values))
    h = len(sub_elems)
    table = g.table
    inverses = [g.inverse(x) for x in range(g.order)]
    out = []
    for a in range(g.order):
        total = Cyc.rational(m, 0)
        for x, x_inv in enumerate(inverses):
            conj = table[table[x_inv][a]][x]
            if conj in value_of:
                total = total + value_of[conj]
        out.append(total / h)
    return tuple(out)


def inner_product(g: FiniteGroup, chi, psi):
    """(1/|G|) sum chi(a) psi(a^{-1}), exact."""
    total = None
    for a in range(g.order):
        term = chi[a] * psi[g.inverse(a)]
        total = term if total is None else total + term
    return total / g.order


def _irreducible_candidates(g: FiniteGroup, m: int):
    """Irreducible characters, possibly repeated: the linear ones, then the
    induced characters of norm 1, subgroup by subgroup.  A generator, so a
    caller that stops early skips the subgroup search and the induction."""
    yield from linear_characters(g, m)
    one = Cyc.rational(m, 1)
    for sub in abelian_subgroups(g):
        if len(sub) == g.order or len(sub) == 1:
            continue
        sub_group, order = _sub_table(g, sub)
        for lam in linear_characters_abelian(sub_group, m):
            chi = induced_character(g, sub, lam, m)
            if inner_product(g, chi, chi) == one:
                yield chi


def character_table(g: FiniteGroup):
    """All irreducible characters, as tuples of Fraction / Cyc values.

    Candidates are taken until the distinct ones number the conjugacy
    classes with degree square sum |G|: the table is then complete, and an
    abelian group stops right after its linear characters.
    """
    m = g.exponent()
    n_classes = len(conjugacy_classes(g))
    uniq = []
    seen = set()
    degree_square_sum = 0
    for chi in _irreducible_candidates(g, m):
        key = tuple(v.coeffs for v in chi)
        if key not in seen:
            seen.add(key)
            uniq.append(chi)
            degree_square_sum += chi[g.identity].as_rational() ** 2
            if degree_square_sum == g.order and len(uniq) == n_classes:
                break
    if degree_square_sum != g.order or len(uniq) != n_classes:
        raise AssertionError(
            f"character table incomplete: {len(uniq)} characters, "
            f"degree square sum {degree_square_sum}, order {g.order}")
    out = []
    for chi in uniq:
        rationals = [v.as_rational() for v in chi]
        if all(r is not None for r in rationals):
            out.append(tuple(rationals))
        else:
            out.append(chi)
    out.sort(key=_char_sort_key)
    return out


def _char_sort_key(chi):
    def val_key(v):
        if isinstance(v, Fraction):
            return (0, (v,))
        return (1, v.coeffs)
    return (val_key(chi[0]),) + tuple(val_key(v) for v in chi[1:])
