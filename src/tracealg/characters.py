"""Brute-force character tables of small finite groups.

Linear characters are enumerated directly (through the commutator quotient
when the group is nonabelian) as exponent maps G -> Z/m: a candidate is a
homomorphism when its exponents add mod m on every pair, so the check is
integer addition, and the values are read from one table of the m-th roots
of unity.  Higher-degree irreducibles are obtained by inducing linear
characters of abelian subgroups, largest subgroup first, and keeping those
of norm 1.  Every group of order < 24 is monomial, so this recovers the full
table for everything in scope.  The search stops as soon as the distinct
characters found number the conjugacy classes with degree square sum |G|; an
abelian group is complete after its linear characters and never searches its
subgroups, and D_n, Q8 and S3 finish inside their index-2 abelian subgroup.
Completeness is checked before returning.

The search works on conjugacy classes, read from one conjugation walk per
table: a character induced from H is computed once per class a as
|G| / (|H| |cl(a)|) times the sum of the subgroup character over H meet
cl(a), in one pass over H, and its norm is the sum over classes of
|cl(c)| chi(c) chi(c^-1) / |G|.  Only the characters kept are spread back
over the elements.

All values are exact elements of Q(zeta_m), m the group exponent; rational
values are returned as Fraction.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .cyclotomic import Cyc
from .pseudochar import FiniteGroup, make_group


class _ClassWalk(NamedTuple):
    """One conjugation walk of a group: the class index of each element, the
    classes (each a sorted tuple, ordered by least element) and the class of
    each class's inverses."""
    class_of: list
    classes: list
    inverse_class: list


def _inverse_table(g: FiniteGroup):
    return [row.index(g.identity) for row in g.table]


def _class_walk(g: FiniteGroup) -> _ClassWalk:
    table = g.table
    inverses = _inverse_table(g)
    class_of = [None] * g.order
    classes = []
    for a in range(g.order):
        if class_of[a] is not None:
            continue
        orbit = {table[table[x][a]][x_inv] for x, x_inv in enumerate(inverses)}
        for e in orbit:
            class_of[e] = len(classes)
        classes.append(tuple(sorted(orbit)))
    inverse_class = [class_of[inverses[cls[0]]] for cls in classes]
    return _ClassWalk(class_of, classes, inverse_class)


def conjugacy_classes(g: FiniteGroup):
    return _class_walk(g).classes


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
    """All subgroups generated by one element or a commuting pair.

    Two commuting elements generate the abelian group <a><b>, so a pair's
    subgroup is the product set of the two cyclic ones, and a pair with one
    element in the other's cyclic group adds nothing."""
    table = g.table
    cyclic = [subgroup_closure(g, [a]) for a in range(g.order)]
    out = set(cyclic)
    for a in range(g.order):
        for b in range(a + 1, g.order):
            if table[a][b] == table[b][a] and b not in cyclic[a] and a not in cyclic[b]:
                out.add(frozenset(table[x][y] for x in cyclic[a] for y in cyclic[b]))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def commutator_subgroup(g: FiniteGroup):
    table = g.table
    inverses = _inverse_table(g)
    gens = {table[table[a][b]][inverses[table[b][a]]]
            for a in range(g.order) for b in range(g.order)}
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
    """Generators of g, each the element outside the span of those before it
    whose powers meet the span least, then of largest order, then least: the
    prod o_i candidates of ``linear_characters_abelian`` are |G| times those
    meets, so |G| for a cyclic group, whatever its labels."""
    def rank(a):
        powers = [a]
        while powers[-1] != g.identity:
            powers.append(g.table[powers[-1]][a])
        return sum(x in span for x in powers), -len(powers), a

    gens, span = [], {g.identity}
    while len(span) < g.order:
        gens.append(min((a for a in range(g.order) if a not in span), key=rank))
        span = subgroup_closure(g, gens)
    return gens


def linear_characters_abelian(g: FiniteGroup, m: int):
    """All homomorphisms of an abelian group into the m-th roots of unity.

    Each candidate is an exponent map e: G -> Z/m, sending generator i of a
    generating sequence to a multiple of m/o_i (o_i its order) and spread
    along the group by e(x gen) = e(x) + e(gen).  It is a homomorphism when
    e(x gen) = e(x) + e(gen) mod m for every element x and generator gen:
    every b is a word in the generators, so induction on its length gives
    e(ab) = e(a) + e(b) on every pair.  The test is exact because zeta^i =
    zeta^j iff i = j mod m; the values zeta^e(a) are then read from one
    table of the m roots.
    """
    gens = _generating_sequence(g)
    orders = [g.element_order(a) for a in gens]
    steps = [(gen, m // o) for gen, o in zip(gens, orders)]
    table = g.table
    moves = [(x, gen, table[x][gen]) for x in range(g.order) for gen in gens]
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
        if all(e[y] == (e[x] + e[gen]) % m for x, gen, y in moves):
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


def induced_character(g: FiniteGroup, walk: _ClassWalk, sub_elems, sub_values, m: int):
    """Class values of the character of g induced from a character of a
    subgroup H, its values listed in H's sorted order: on class c,
    |G| / (|H| |cl(c)|) times the sum of the values on H meet cl(c)."""
    sums = [Cyc.rational(m, 0)] * len(walk.classes)
    for x, value in zip(sorted(sub_elems), sub_values):
        c = walk.class_of[x]
        sums[c] = sums[c] + value
    h = len(sub_elems)
    return tuple(total * Fraction(g.order, h * len(cls))
                 for total, cls in zip(sums, walk.classes))


def _spread(walk: _ClassWalk, class_values):
    """A class function's values on the elements."""
    return tuple(class_values[c] for c in walk.class_of)


def inner_product(g: FiniteGroup, chi, psi):
    """(1/|G|) sum chi(a) psi(a^{-1}), exact."""
    total = None
    for a, a_inv in enumerate(_inverse_table(g)):
        term = chi[a] * psi[a_inv]
        total = term if total is None else total + term
    return total / g.order


def _irreducible_candidates(g: FiniteGroup, walk: _ClassWalk, m: int):
    """The distinct irreducible characters found, as class values: the
    linear ones, then the induced characters of norm 1, largest abelian
    subgroup first.  A candidate whose class values were already tested is
    skipped.  A generator, so a caller that stops early skips the rest of
    the subgroup search and the induction."""
    tested = set()

    def untested(chi):
        key = tuple(v.coeffs for v in chi)
        if key in tested:
            return False
        tested.add(key)
        return True

    for chi in linear_characters(g, m):
        chi = tuple(chi[cls[0]] for cls in walk.classes)
        if untested(chi):
            yield chi
    for sub in reversed(abelian_subgroups(g)):
        if len(sub) == g.order or len(sub) == 1:
            continue
        for lam in linear_characters_abelian(_sub_table(g, sub)[0], m):
            chi = induced_character(g, walk, sub, lam, m)
            if not untested(chi):
                continue
            # norm 1: the sum over classes of |cl(c)| chi(c) chi(c^-1) is |G|
            norm = sum(len(cls) * value * chi[c_inv] for cls, value, c_inv
                       in zip(walk.classes, chi, walk.inverse_class))
            if norm == g.order:
                yield chi


def character_table(g: FiniteGroup):
    """All irreducible characters, as tuples of Fraction / Cyc values.

    Candidates are taken until they number the conjugacy classes with
    degree square sum |G|: the table is then complete, and an abelian group
    stops right after its linear characters.  Raises ``ValueError`` for a
    group with an irreducible character that no abelian subgroup induces
    from a linear one (S_4 is one): it lies outside the method.
    """
    m = g.exponent()
    walk = _class_walk(g)
    n_classes = len(walk.classes)
    identity_class = walk.class_of[g.identity]
    uniq = []
    degree_square_sum = 0
    for chi in _irreducible_candidates(g, walk, m):
        uniq.append(chi)
        degree_square_sum += chi[identity_class].as_rational() ** 2
        if degree_square_sum == g.order and len(uniq) == n_classes:
            break
    if degree_square_sum != g.order or len(uniq) != n_classes:
        raise ValueError(
            f"character table incomplete: {len(uniq)} characters, "
            f"degree square sum {degree_square_sum}, order {g.order}: some "
            "irreducible characters are not induced from linear characters "
            "of abelian subgroups")
    out = []
    for chi in uniq:
        rationals = [v.as_rational() for v in chi]
        if all(r is not None for r in rationals):
            chi = rationals
        out.append(_spread(walk, chi))
    out.sort(key=_char_sort_key)
    return out


def _char_sort_key(chi):
    def val_key(v):
        if isinstance(v, Fraction):
            return (0, (v,))
        return (1, v.coeffs)
    return (val_key(chi[0]),) + tuple(val_key(v) for v in chi[1:])
