"""Pseudocharacter axioms, kernels and brute-force character tables."""
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tracealg import characters, pseudochar
from tracealg.characters import (_char_sort_key, _class_walk, _generating_sequence,
                                 _spread, _sub_table, abelian_subgroups,
                                 character_table, commutator_subgroup,
                                 conjugacy_classes, induced_character,
                                 inner_product, linear_characters_abelian,
                                 quotient_group)
from tracealg.chident import permutation_cycles
from tracealg.cyclotomic import Cyc, residue_images
from tracealg.findim import ch_degree, quotient_algebra, trace_kernel
from tracealg.pseudochar import (SCAN_MAX_WORK, FiniteGroup, GroupValidationError,
                                 PseudoCharTable, PseudoCheckReport,
                                 _level_trace_sums, check_pseudocharacter,
                                 cyclic_group, dihedral_group, direct_product,
                                 group_algebra, klein_four_group, make_group,
                                 multilinear_trace_sum, pseudochar_kernel,
                                 quaternion_group, symmetric_group_3)
from tracealg.sparse import exact


def all_groups_up_to_8():
    return {
        "C1": cyclic_group(1), "C2": cyclic_group(2), "C3": cyclic_group(3),
        "C4": cyclic_group(4), "V4": klein_four_group(), "C5": cyclic_group(5),
        "C6": cyclic_group(6), "S3": symmetric_group_3(), "C7": cyclic_group(7),
        "C8": cyclic_group(8),
        "C4xC2": direct_product(cyclic_group(4), cyclic_group(2)),
        "C2^3": direct_product(klein_four_group(), cyclic_group(2)),
        "D4": dihedral_group(4), "Q8": quaternion_group(),
    }


def char_degree(group, chi):
    v = chi[group.identity]
    return int(v if isinstance(v, Fraction) else v.as_rational())


class TestGroupValidation:
    def test_latin_square_violation(self):
        with pytest.raises(GroupValidationError, match="permutation"):
            make_group([[0, 0], [1, 1]])

    def test_missing_identity(self):
        with pytest.raises(GroupValidationError, match="identity"):
            make_group([[1, 0], [0, 1]], identity=0)

    def test_associativity_violation(self):
        # a Latin square with two-sided identity that is not a group
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupValidationError, match="associativity"):
            make_group(table)

    def test_quaternion_group_is_a_group(self):
        q8 = quaternion_group()
        assert q8.order == 8
        assert sorted(q8.element_order(a) for a in range(8)) == \
            [1, 2, 4, 4, 4, 4, 4, 4]


class TestCheckPseudocharacter:
    def test_c2_regular_passes(self):
        p = PseudoCharTable(cyclic_group(2), 2, (Fraction(2), Fraction(0)))
        report = check_pseudocharacter(p)
        assert report.passed and report.exhaustive

    def test_s3_two_dimensional_character_passes(self):
        s3 = symmetric_group_3()
        chi = next(c for c in character_table(s3) if char_degree(s3, c) == 2)
        report = check_pseudocharacter(PseudoCharTable(s3, 2, tuple(chi)))
        assert report.passed

    def test_c2_wrong_value_fails_axiom3_with_witness(self):
        p = PseudoCharTable(cyclic_group(2), 2, (Fraction(2), Fraction(1)))
        report = check_pseudocharacter(p)
        assert not report.passed
        assert report.axiom1_ok and report.axiom2_ok and not report.axiom3_ok
        assert report.axiom3_witness is not None
        g, values = p.group, p.values
        assert multilinear_trace_sum(g, values, report.axiom3_witness) != 0

    def test_wrong_degree_fails_axiom1(self):
        p = PseudoCharTable(cyclic_group(2), 3, (Fraction(2), Fraction(0)))
        report = check_pseudocharacter(p)
        assert not report.axiom1_ok

    def test_noncentral_function_fails_axiom2(self):
        s3 = symmetric_group_3()
        values = [Fraction(2)] + [Fraction(0)] * 5
        values[1] = Fraction(5)  # a single rotation gets a different value
        report = check_pseudocharacter(PseudoCharTable(s3, 2, tuple(values)))
        assert not report.axiom2_ok and report.axiom2_witness == (3, 4)
        # the tuple axiom is not evaluated on a table that is not central
        assert report.axiom3_ok and report.axiom3_witness is None
        assert report.tuples_checked == report.memo_states == 0

    @pytest.mark.parametrize("group, n, states", [
        (dihedral_group(6), 9, comb(22, 10)),          # 646646 memo states
        (cyclic_group(2), 770, comb(773, 2)),          # 298378
        (cyclic_group(2), 10 ** 6, comb(10 ** 6 + 3, 2)),
    ])
    def test_over_the_bound_is_refused_before_any_level(self, monkeypatch, group, n,
                                                          states):
        def no_scan(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(pseudochar, "_level_trace_sums", no_scan)
        assert states * (n + 1) > SCAN_MAX_WORK
        p = PseudoCharTable(group, n, (Fraction(n),) * group.order)
        message = f"would fill {states} memo states, .* is above the bound {SCAN_MAX_WORK}$"
        with pytest.raises(ValueError, match=message):
            check_pseudocharacter(p)
        with pytest.raises(ValueError, match=message):
            pseudochar_kernel(p)


class TestFrobeniusProperty:
    def test_every_character_of_every_group_up_to_8_passes(self):
        for name, group in all_groups_up_to_8().items():
            for chi in character_table(group):
                n = char_degree(group, chi)
                report = check_pseudocharacter(PseudoCharTable(group, n, tuple(chi)))
                assert report.passed, (name, chi)

    def test_order_12_spot_checks(self):
        for group in (dihedral_group(6), direct_product(symmetric_group_3(),
                                                        cyclic_group(2))):
            for chi in character_table(group):
                n = char_degree(group, chi)
                report = check_pseudocharacter(PseudoCharTable(group, n, tuple(chi)))
                assert report.passed

    def test_single_value_perturbations_fail(self):
        for name, group in all_groups_up_to_8().items():
            for chi in character_table(group):
                n = char_degree(group, chi)
                if not all(isinstance(v, Fraction) for v in chi):
                    continue
                for k in range(group.order):
                    values = list(chi)
                    values[k] = values[k] + 1
                    report = check_pseudocharacter(
                        PseudoCharTable(group, n, tuple(values)))
                    assert not report.passed, (name, chi, k)

    def test_higher_multilinear_sums_also_vanish(self):
        # once the degree-(n+1) sum vanishes so do all higher ones
        c2 = cyclic_group(2)
        values = (Fraction(2), Fraction(0))
        for j in (3, 4, 5):
            for elems in _all_tuples(2, j):
                assert multilinear_trace_sum(c2, values, elems) == 0
        s3 = symmetric_group_3()
        chi = next(c for c in character_table(s3) if char_degree(s3, c) == 2)
        for j in (4, 5):
            for elems in _all_tuples(6, j):
                assert multilinear_trace_sum(s3, tuple(chi), elems) == 0


def _all_tuples(order, length):
    return combinations_with_replacement(range(order), length)


# -- the recursion against the permutation sum --------------------------------

ORACLE_GROUPS = {
    "C3": cyclic_group(3), "C4": cyclic_group(4), "C5": cyclic_group(5),
    "S3": symmetric_group_3(), "D4": dihedral_group(4),
    "Q8": quaternion_group(), "D6": dihedral_group(6),
}


@lru_cache(maxsize=None)
def _character_rows(name):
    return tuple(character_table(ORACLE_GROUPS[name]))


@st.composite
def class_functions_and_tuples(draw):
    """A group, an integer combination of its characters (Cyc-valued on C3,
    C4 and C5), a size k from 1 to 5 and a few tuples of k elements."""
    name = draw(st.sampled_from(sorted(ORACLE_GROUPS)))
    group, rows = ORACLE_GROUPS[name], _character_rows(name)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    values = tuple(sum((c * row[e] for c, row in zip(coeffs, rows)), Fraction(0))
                   for e in range(group.order))
    size = draw(st.integers(1, 5))
    tuples = draw(st.lists(st.lists(st.integers(0, group.order - 1), min_size=size,
                                    max_size=size), min_size=1, max_size=3))
    return group, values, size, [tuple(t) for t in tuples]


@settings(max_examples=300, deadline=None)
@given(class_functions_and_tuples())
def test_level_walk_matches_permutation_sum(case):
    group, values, size, tuples = case
    level = {rest + (x,): value for rest, x, value in _level_trace_sums(group, values, size)}
    for elements in tuples:  # T_k of a class function is symmetric
        assert level[tuple(sorted(elements))] == multilinear_trace_sum(group, values, elements)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# mixed operands: ints, integral Fractions and proper fractions
scalars = st.one_of(st.integers(-5, 5), st.integers(-5, 5).map(Fraction), rationals)
coefficient_lists = st.lists(scalars, max_size=24)


def _exact_normal_form(coeffs):
    """Every coefficient an int when integral and a Fraction otherwise."""
    return all(type(c) is int if Fraction(c).denominator == 1 else type(c) is Fraction
               for c in coeffs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.lists(scalars, max_size=6),
       st.lists(scalars, max_size=6), scalars)
def test_cyc_rational_comparison_and_subtraction(m, a, b, r):
    x, y = Cyc(m, a), Cyc(m, b)
    assert (x == r) == (x.coeffs == Cyc.rational(m, r).coeffs)
    assert Cyc.rational(m, r) == r and Cyc.rational(m, r) + x - x == r
    assert Cyc.rational(m, r).as_rational() == r
    assert type(Cyc.rational(m, r).as_rational()) is Fraction
    assert (x - y).coeffs == (x + (-y)).coeffs
    assert (x - r).coeffs == (x + Cyc.rational(m, -r)).coeffs
    assert x * r == r * x == x * Cyc.rational(m, r)
    assert (x == x * 1) and (x * 0 == 0) and (x + r == r + x)
    if r:
        assert x / r == x * Cyc.rational(m, 1 / Fraction(r))
        assert (x / r) * r == x


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8, 12]), coefficient_lists, coefficient_lists, scalars)
def test_cyc_linear_ops_match_the_reducing_constructor(m, a, b, r):
    x, y = Cyc(m, a), Cyc(m, b)
    assert _exact_normal_form(x.coeffs) and _exact_normal_form(y.coeffs)
    rc = Cyc.rational(m, r).coeffs
    raw_product = [sum((x.coeffs[i] * y.coeffs[k - i] for i in range(len(x.coeffs))
                        if 0 <= k - i < len(y.coeffs)), Fraction(0))
                   for k in range(2 * len(x.coeffs))]
    # sums and differences skip the normalization: they compare and hash equal
    sums = [
        (x + y, [p + q for p, q in zip(x.coeffs, y.coeffs)]),
        (x - y, [p - q for p, q in zip(x.coeffs, y.coeffs)]),
        (-x, [-p for p in x.coeffs]),
        (x + r, [p + q for p, q in zip(x.coeffs, rc)]),
        (r - x, [q - p for p, q in zip(x.coeffs, rc)]),
    ]
    # products and rational scalings are stored in the exact normal form
    normalized = [(x * y, raw_product), (x * r, [p * r for p in x.coeffs]),
                  (r * x, [p * r for p in x.coeffs])]
    if r:
        normalized.append((x / r, [p / Fraction(r) for p in x.coeffs]))
    for got, raw in sums + normalized:
        want = Cyc(m, raw)
        assert got.m == m and got.coeffs == want.coeffs
        assert _exact_normal_form(want.coeffs)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    for got, _ in normalized:
        assert _exact_normal_form(got.coeffs)


def test_cyc_repr_and_hash_read_the_coefficients_as_fractions():
    z = Cyc.root(12, 1)
    assert z.coeffs == (0, 1, 0, 0) and all(type(c) is int for c in z.coeffs)
    assert repr(z) == "Cyc(m=12, [Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)])"
    assert hash(z) == hash((12, tuple(Fraction(c) for c in z.coeffs)))
    assert repr(Cyc.rational(12, 3)) == "Cyc(3)" and repr(z / 2) == \
        "Cyc(m=12, [Fraction(0, 1), Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)])"
    # a sum of halves is an integral Fraction, equal and hash-equal to the int
    half = z / 2
    assert (half + half) == z and hash(half + half) == hash(z)


@lru_cache(maxsize=None)
def _collected_permutation_sums(group, size):
    """Each tuple of ``combinations_with_replacement`` order with the terms of
    its permutation sum collected: (summed sign, sorted cycle products)."""
    perms = list(permutation_cycles(size))
    out = []
    for elems in combinations_with_replacement(range(group.order), size):
        terms = Counter()
        for sign, cycles in perms:
            products = []
            for cyc in cycles:
                prod = elems[cyc[0] - 1]
                for idx in cyc[1:]:
                    prod = group.mult(prod, elems[idx - 1])
                products.append(prod)
            terms[tuple(sorted(products))] += sign
        out.append((elems, [(sign, products) for products, sign in terms.items() if sign]))
    return out


def _permutation_sums(group, values, size):
    """``multilinear_trace_sum`` on every tuple of ``combinations_with_replacement``
    order, from the collected terms, each product of values taken once."""
    values = [exact(v) if isinstance(v, Fraction) else v for v in values]
    products = {}
    for elems, terms in _collected_permutation_sums(group, size):
        total = 0
        for sign, cycle_products in terms:
            prod = products.get(cycle_products)
            if prod is None:
                prod = 1
                for z in cycle_products:
                    prod = prod * values[z]
                products[cycle_products] = prod
            total = total + sign * prod
        yield elems, total


def test_collected_permutation_sums_match_multilinear_trace_sum():
    rng = random.Random(3)
    for group in (symmetric_group_3(), dihedral_group(4), quaternion_group()):
        values = [rng.randint(-3, 3) for _ in range(group.order)]  # not a class function
        for size in range(5):
            for elems, total in _permutation_sums(group, values, size):
                assert total == multilinear_trace_sum(group, values, elems), elems


def _reference_report(p, sums=_permutation_sums):
    """The scan as a plain permutation sum over every multiset in order; a
    table that fails axiom 2 is not scanned.  ``sums(group, values, size)``
    yields each multiset with its T_size, tested against 0 in the ring of
    the values; ``memo_states`` counts the levels below the top, the empty
    multiset included, and the top multisets scanned."""
    g, n, values = p.group, p.degree, p.values
    report = PseudoCheckReport(passed=False, degree=n, axiom1_ok=True,
                               axiom2_ok=True, axiom3_ok=True)
    if values[g.identity] != n:
        report.axiom1_ok, report.axiom1_witness = False, values[g.identity]
    report.axiom2_witness = next(
        ((a, b) for a in range(g.order) for b in range(a + 1, g.order)
         if values[g.mult(a, b)] != values[g.mult(b, a)]), None)
    report.axiom2_ok = report.axiom2_witness is None
    if report.axiom2_ok:
        for elems, total in sums(g, values, n + 1):
            report.tuples_checked += 1
            if total != 0:
                report.axiom3_ok, report.axiom3_witness = False, elems
                break
        report.memo_states = comb(g.order + n, n) + report.tuples_checked
    report.passed = report.axiom1_ok and report.axiom2_ok and report.axiom3_ok
    return report


def _ring_sums(group, values, size):
    """``_level_trace_sums`` on the values as given, Cyc or Fraction."""
    for rest, x, value in _level_trace_sums(group, values, size):
        yield rest + (x,), value


def _characters_and_perturbations(group):
    """Every character, then each of its single-value perturbations by 1."""
    for chi in character_table(group):
        n = char_degree(group, chi)
        yield PseudoCharTable(group, n, tuple(chi))
        for k in range(group.order):
            values = list(chi)
            values[k] += 1
            yield PseudoCharTable(group, n, tuple(values))


def _class_functions_up_to_degree_4(group):
    """Each character plus j times the trivial one, up to degree 4, and each
    of those with a central value raised by 1, which fails axiom 1 or 3."""
    central = [z for z in range(group.order)
               if all(group.mult(z, a) == group.mult(a, z) for a in range(group.order))]
    for chi in character_table(group):
        for n in range(char_degree(group, chi), 5):
            values = tuple(v + n - char_degree(group, chi) for v in chi)
            yield PseudoCharTable(group, n, values)
            for z in central:
                yield PseudoCharTable(group, n, values[:z] + (values[z] + 1,) + values[z + 1:])


class TestRecursiveScan:
    def test_reports_equal_the_permutation_scan(self):
        for name, group in all_groups_up_to_8().items():
            for p in chain(_characters_and_perturbations(group),
                           _class_functions_up_to_degree_4(group)):
                report = check_pseudocharacter(p)
                assert report == _reference_report(p), (name, p.values)
                if not report.axiom2_ok:  # not scanned
                    assert report.tuples_checked == report.memo_states == 0, (name, p.values)
                    continue
                # every scan goes through the memo
                assert report.tuples_checked and report.memo_states > 0, (name, p.values)
                if report.passed:  # every multiset of size <= n+1, the empty one included
                    assert report.memo_states == comb(group.order + p.degree + 1,
                                                      p.degree + 1), (name, p.values)

    def test_int_values_match_fractions(self):
        for name, group in all_groups_up_to_8().items():
            for p in _characters_and_perturbations(group):
                if not all(isinstance(v, Fraction) for v in p.values):
                    continue
                ints = replace(p, values=tuple(int(v) for v in p.values))
                assert check_pseudocharacter(ints) == check_pseudocharacter(p), (name, p.values)

    def test_level_walk_values_equal_the_permutation_sum(self):
        for group in (dihedral_group(4), quaternion_group(), symmetric_group_3()):
            for values in chain.from_iterable((chi, [v + 1 for v in chi])
                                              for chi in character_table(group)):
                for k in (1, 2, 3):  # every level of a degree-2 scan
                    got = [(rest + (x,), value)
                           for rest, x, value in _level_trace_sums(group, values, k)]
                    assert [elems for elems, _ in got] == \
                        list(combinations_with_replacement(range(group.order), k))
                    for elems, value in got:
                        assert value == multilinear_trace_sum(group, values, elems), elems

    def test_degree_0(self):
        report = check_pseudocharacter(PseudoCharTable(dihedral_group(6), 0, (0,) * 12))
        assert report.passed and report.tuples_checked == 12 and report.memo_states == 13

    def test_d6_degree_4_memo_states(self):
        # every multiset of at most 5 of the 12 elements, the empty one included
        d6 = dihedral_group(6)
        report = check_pseudocharacter(PseudoCharTable(d6, 4, (Fraction(4),) * 12))
        assert report.passed and report.tuples_checked == 4368
        assert report.memo_states == 6188

    def test_degree_past_the_recursion_limit(self):
        # on the trivial group T_{k+1} = (t(1) - k) T_k, one state per size;
        # 1502 states times 1501 is under SCAN_MAX_WORK
        c1 = cyclic_group(1)
        report = check_pseudocharacter(PseudoCharTable(c1, 1500, (1500,)))
        assert report.passed and report.memo_states == 1502
        report = check_pseudocharacter(PseudoCharTable(c1, 1500, (1501,)))
        assert not report.axiom1_ok and report.axiom3_witness == (0,) * 1501


# -- the scan in Z/M against the scan in the ring of the values ----------------

DIFFERENTIAL_GROUPS = dict(
    ORACLE_GROUPS, C6=cyclic_group(6), D5=dihedral_group(5), C12=cyclic_group(12),
    C4xC2=direct_product(cyclic_group(4), cyclic_group(2)))


@lru_cache(maxsize=None)
def _differential_rows(name):
    return tuple(character_table(DIFFERENTIAL_GROUPS[name]))


@st.composite
def combinations_of_characters(draw):
    """A table on one of ``DIFFERENTIAL_GROUPS``: an integer combination of
    its characters divided by 1, 2, 3, 5 or 6, perhaps with one value
    shifted by zeta (a root of unity of the group's exponent) or by 1/2, and
    a degree 0..3, t(1) when that is one of them and the draw asks for it."""
    name = draw(st.sampled_from(sorted(DIFFERENTIAL_GROUPS)))
    g, rows = DIFFERENTIAL_GROUPS[name], _differential_rows(name)
    coeffs = draw(st.lists(st.sampled_from((0, 0, 0, 1, 1, 2, -1)),
                           min_size=len(rows), max_size=len(rows)))
    q = draw(st.sampled_from((1, 2, 3, 5, 6)))
    values = [sum((c * row[e] for c, row in zip(coeffs, rows)), Fraction(0)) / q
              for e in range(g.order)]
    shift = draw(st.sampled_from((None, "zeta", "half")))
    if shift is not None:
        k = draw(st.integers(0, g.order - 1))
        values[k] += Cyc.root(g.exponent()) if shift == "zeta" else Fraction(1, 2)
    n = draw(st.integers(0, 3))
    if draw(st.booleans()):
        n = next((k for k in range(4) if values[g.identity] == k), n)
    return PseudoCharTable(g, n, tuple(values))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(combinations_of_characters())
def test_the_scan_in_z_mod_m_matches_the_ring_scan(p):
    """The whole report, counts and least witness included, is the one that
    the level walk gives on the Cyc or Fraction values themselves, each top
    value tested against 0, and the one the permutation sum gives."""
    report = check_pseudocharacter(p)
    assert report == _reference_report(p, _ring_sums), p.values
    assert report == _reference_report(p), p.values


def test_an_integral_fraction_coefficient_reads_as_its_numerator():
    """A sum of halves leaves integral Fraction coefficients in a Cyc; they
    map like the ints they equal."""
    c4 = cyclic_group(4)
    z = Cyc.root(4)
    chi = (1, z, -1, -z)
    whole = z / 2 + z / 2
    assert whole == z and type(whole.coeffs[1]) is Fraction
    for n in (1, 2):
        p = PseudoCharTable(c4, n, chi)
        halves = PseudoCharTable(c4, n, (1, whole, -1, -z))
        assert check_pseudocharacter(halves) == check_pseudocharacter(p) == \
            _reference_report(p)
    assert residue_images(halves.values, 3, 6) == residue_images(chi, 3, 6)


@pytest.mark.parametrize("n", [0, 2])
def test_mixed_moduli_are_refused_before_any_level(monkeypatch, n):
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(pseudochar, "_level_trace_sums", no_scan)
    z = Cyc.root(4)
    p = PseudoCharTable(cyclic_group(4), n, (Cyc.rational(3, n), z, -1, -z))
    with pytest.raises(ValueError, match="^mixed cyclotomic moduli$"):
        check_pseudocharacter(p)


def test_the_scan_runs_no_cyc_or_fraction_arithmetic(monkeypatch):
    """During a check, the level walk multiplies, adds and subtracts ints
    only: no Cyc or Fraction operator runs, on Cyc-valued characters and on
    their rational multiples alike."""
    calls = Counter()

    def counted(cls, name):
        op = getattr(cls, name)

        def wrapper(*args):
            calls[cls.__name__, name] += 1
            return op(*args)
        monkeypatch.setattr(cls, name, wrapper)

    tables = []
    for name in ("C12", "D5", "C4xC2"):
        g = DIFFERENTIAL_GROUPS[name]
        for chi in _differential_rows(name):
            n = char_degree(g, chi)
            tables += [PseudoCharTable(g, n, tuple(chi)),
                       PseudoCharTable(g, 2 * n, tuple(v / 2 for v in chi)),
                       PseudoCharTable(g, n, chi[:1] + tuple(v + 1 for v in chi[1:]))]
    for cls in (Cyc, Fraction):
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
            counted(cls, name)
    reports = [check_pseudocharacter(p) for p in tables]
    assert not calls, calls
    assert sum(r.passed for r in reports) == len(tables) // 3
    # the wrappers see the ring scan's products
    p = next(p for p in tables if any(isinstance(v, Cyc) for v in p.values))
    list(_level_trace_sums(p.group, p.values, 2))
    assert calls["Cyc", "__mul__"] > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from((3, 4, 5, 12)), st.lists(st.lists(scalars, max_size=8), min_size=2,
                                                 max_size=4), scalars)
def test_residue_images_test_zero_on_polynomials_in_the_values(m, coefficient_lists, r):
    """The lift of a value by its power-basis coefficients is not
    multiplicative, but the zero test is exact on every integer polynomial
    in the values within the declared degree and weight: sums and products
    of images are the images of the sums and products up to what psi
    kills, and nothing else is killed."""
    xs = [Cyc(m, cs) for cs in coefficient_lists]
    a, b = xs[0], xs[1]
    values = xs + [a * b, a + b, a * r, r]
    images, modulus, psi = residue_images(values, 3, 4)
    if modulus is None:  # every value an integral rational: exact in Z
        modulus, psi = 0, 1
    ia, ib, iab, isum, iar, ir = images[0], images[1], *images[-4:]

    def zero(image):
        return image * psi % modulus == 0 if modulus else image == 0

    assert zero(ia * ib - iab) and zero(ia + ib - isum) and zero(ia * ir - iar)
    for value, image in zip(xs, images):  # degree 1, weight 1
        assert zero(image) == (value == 0)
    assert zero(ia * ib * ia - ia * ia * ib)
    assert zero(ia * ib * ib - ia * ia * ib) == (a * b * (b - a) == 0)


def test_rational_integral_values_take_the_plain_int_path():
    images, modulus, psi = residue_images(
        (3, Fraction(4), Fraction(-2, 1), Cyc.rational(5, 7)), 6, 720)
    assert images == [3, 4, -2, 7] and all(type(v) is int for v in images)
    assert (modulus, psi) == (None, None)
    with pytest.raises(TypeError, match="not an exact scalar"):
        residue_images((1, 0.5), 2, 2)


class TestPseudocharKernel:
    def test_c2_regular(self):
        p = PseudoCharTable(cyclic_group(2), 2, (Fraction(2), Fraction(0)))
        kernel, quotient = pseudochar_kernel(p)
        assert kernel.dim == 0
        assert quotient.dim == 2
        assert ch_degree(quotient, 2) == 2

    def test_s3_two_dimensional(self):
        s3 = symmetric_group_3()
        chi = next(c for c in character_table(s3) if char_degree(s3, c) == 2)
        kernel, quotient = pseudochar_kernel(PseudoCharTable(s3, 2, tuple(chi)))
        assert quotient.dim == 4
        assert ch_degree(quotient, 2) == 2

    def test_trivial_character_gives_augmentation_ideal(self):
        for group in (cyclic_group(3), symmetric_group_3()):
            p = PseudoCharTable(group, 1, tuple([Fraction(1)] * group.order))
            kernel, quotient = pseudochar_kernel(p)
            assert kernel.dim == group.order - 1
            assert quotient.dim == 1

    def test_failing_table_is_rejected(self):
        p = PseudoCharTable(cyclic_group(2), 2, (Fraction(2), Fraction(1)))
        with pytest.raises(ValueError, match="not a pseudocharacter"):
            pseudochar_kernel(p)

    def test_irreducible_characters_saturate_the_dimension_bound(self):
        for name, group in all_groups_up_to_8().items():
            for chi in character_table(group):
                if not all(isinstance(v, Fraction) for v in chi):
                    continue
                n = char_degree(group, chi)
                p = PseudoCharTable(group, n, tuple(chi))
                kernel, quotient = pseudochar_kernel(p)
                assert trace_kernel(quotient).is_zero()
                assert quotient.dim <= n * n
                assert quotient.dim == n * n  # irreducible characters

    def test_sum_of_two_characters(self):
        # a reducible sum passes and its quotient is the block-diagonal model
        s3 = symmetric_group_3()
        table = character_table(s3)
        triv = next(c for c in table if all(v == 1 for v in c))
        chi2 = next(c for c in table if char_degree(s3, c) == 2)
        values = tuple(a + b for a, b in zip(triv, chi2))
        p = PseudoCharTable(s3, 3, values)
        assert check_pseudocharacter(p).passed
        kernel, quotient = pseudochar_kernel(p)
        assert quotient.dim == 5  # M2 + Q
        assert ch_degree(quotient, 3) == 3


# -- the paper's comparison: the scan against the Cayley-Hamilton quotient ------

def _class_functions_on_the_first_four_classes():
    """Every class function of C2, C3, S3, Q8, V4, D4, D5 and D6 with values
    -1..2 on its first four conjugacy classes and 0 on the others, whose
    value t(1) = n on the identity's class is a degree 1..3 (so n is 1 or
    2): 712 rational tables."""
    groups = (cyclic_group(2), cyclic_group(3), symmetric_group_3(), quaternion_group(),
              klein_four_group(), dihedral_group(4), dihedral_group(5), dihedral_group(6))
    for g in groups:
        classes = conjugacy_classes(g)
        assert g.identity in classes[0]
        for class_values in product(range(-1, 3), repeat=min(4, len(classes))):
            n = class_values[0]
            if not 1 <= n <= 3:
                continue
            values = [Fraction(0)] * g.order
            for cls, v in zip(classes, class_values):
                for a in cls:
                    values[a] = Fraction(v)
            yield PseudoCharTable(g, n, tuple(values))


def test_scan_verdict_matches_the_cayley_hamilton_quotient():
    """A class function t is a degree-n pseudocharacter exactly when
    Q[G]/ker t, with the induced trace, satisfies the degree-n
    Cayley-Hamilton identity: the level-walk scan and ``ch_degree`` of the
    quotient give the same verdict on every table of the family."""
    passed = 0
    tables = list(_class_functions_on_the_first_four_classes())
    for p in tables:
        algebra = group_algebra(p)
        quotient, _ = quotient_algebra(algebra, trace_kernel(algebra))
        scan = check_pseudocharacter(p).passed
        assert scan == (ch_degree(quotient, p.degree) == p.degree), (p.group.order, p.values)
        passed += scan
    assert (len(tables), passed) == (712, 30)


class TestCharacterTables:
    def test_counts_match_conjugacy_classes(self):
        for name, group in all_groups_up_to_8().items():
            table = character_table(group)
            assert len(table) == len(conjugacy_classes(group)), name

    def test_s3_table(self):
        s3 = symmetric_group_3()
        degrees = sorted(char_degree(s3, chi) for chi in character_table(s3))
        assert degrees == [1, 1, 2]

    def test_orthonormality(self):
        s3 = symmetric_group_3()
        m = s3.exponent()
        table = [[v if isinstance(v, Cyc) else Cyc.rational(m, v) for v in chi]
                 for chi in character_table(s3)]
        for i, chi in enumerate(table):
            for j, psi in enumerate(table):
                value = inner_product(s3, chi, psi)
                assert value == (1 if i == j else 0)

    def test_cyclotomic_values_on_c3(self):
        c3 = cyclic_group(3)
        table = character_table(c3)
        nonrational = [chi for chi in table
                       if any(isinstance(v, Cyc) for v in chi)]
        assert len(nonrational) == 2


# -- the character table against the Cyc-product oracle -------------------------

def _reference_linear_characters_abelian(g, m):
    """Linear characters as the products of Cyc roots, each checked on
    every pair: the routine the exponent maps replaced."""
    gens = _generating_sequence(g)
    if not gens:
        return [tuple([Cyc.rational(m, 1)] * g.order)]
    orders = [g.element_order(a) for a in gens]
    chars = []
    for powers in product(*[range(o) for o in orders]):
        values = {g.identity: Cyc.rational(m, 1)}
        frontier = [g.identity]
        while frontier:
            new = []
            for x in frontier:
                for gen, o, p in zip(gens, orders, powers):
                    y = g.mult(x, gen)
                    if y not in values:
                        values[y] = values[x] * Cyc.root(m, (m // o) * p)
                        new.append(y)
            frontier = new
        if len(values) != g.order:
            continue
        vals = tuple(values[a] for a in range(g.order))
        if all(vals[g.mult(a, b)] == vals[a] * vals[b]
               for a in range(g.order) for b in range(g.order)):
            chars.append(vals)
    return sorted(set(chars), key=lambda c: [x.coeffs for x in c])


def reference_induced_character(g, sub_elems, sub_values, m):
    """Character of g induced from a character of the subgroup, element by
    element: (1/|H|) sum over x in G of the value at x^-1 a x."""
    value_of = dict(zip(sorted(sub_elems), sub_values))
    h = len(sub_elems)
    table = g.table
    inverses = [table[x].index(g.identity) for x in range(g.order)]
    out = []
    for a in range(g.order):
        total = Cyc.rational(m, 0)
        for x, x_inv in enumerate(inverses):
            conj = table[table[x_inv][a]][x]
            if conj in value_of:
                total = total + value_of[conj]
        out.append(total / h)
    return tuple(out)


def _reference_character_table(g):
    """Every induced character of every abelian subgroup, with no early
    stop, from the oracle's linear characters."""
    m = g.exponent()
    derived = commutator_subgroup(g)
    if len(derived) == 1:
        chars = _reference_linear_characters_abelian(g, m)
    else:
        quotient, coset_of = quotient_group(g, derived)
        chars = [tuple(chi[coset_of[a]] for a in range(g.order))
                 for chi in _reference_linear_characters_abelian(quotient, m)]
    for sub in abelian_subgroups(g):
        if 1 < len(sub) < g.order:
            for lam in _reference_linear_characters_abelian(_sub_table(g, sub)[0], m):
                chi = reference_induced_character(g, sub, lam, m)
                if inner_product(g, chi, chi) == Cyc.rational(m, 1):
                    chars.append(chi)
    uniq = {tuple(v.coeffs for v in chi): chi for chi in chars}.values()
    out = [tuple(v.as_rational() for v in chi)
           if all(v.as_rational() is not None for v in chi) else chi for chi in uniq]
    return sorted(out, key=_char_sort_key)


SESSION_GROUPS = {
    "C2": cyclic_group(2), "C3": cyclic_group(3), "C4": cyclic_group(4),
    "V4": klein_four_group(), "C5": cyclic_group(5), "S3": symmetric_group_3(),
    "C6": cyclic_group(6), "D4": dihedral_group(4), "Q8": quaternion_group(),
    "C4xC2": direct_product(cyclic_group(4), cyclic_group(2)),
    "D5": dihedral_group(5), "D6": dihedral_group(6), "C12": cyclic_group(12),
}


def _relabeling(g, seed):
    """(perm, g with each element a renamed perm[a]), perm seeded."""
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[perm[a]][perm[b]] = perm[g.mult(a, b)]
    return perm, make_group(table)


def _session_groups_and_relabelings():
    for name, g in SESSION_GROUPS.items():
        yield name, g
        for seed in range(3):
            yield f"{name}/relabel{seed}", _relabeling(g, seed)[1]


def _same_values(got, want):
    return repr(got) == repr(want) and \
        [tuple(map(hash, chi)) for chi in got] == [tuple(map(hash, chi)) for chi in want]


class TestCharacterTableOracle:
    def test_exponent_maps_match_the_cyc_products(self):
        # every abelian group the table reads: the group or its abelianization,
        # and each abelian subgroup it induces from
        for name, g in _session_groups_and_relabelings():
            m = g.exponent()
            derived = commutator_subgroup(g)
            targets = [g if len(derived) == 1 else quotient_group(g, derived)[0]]
            targets += [_sub_table(g, sub)[0] for sub in abelian_subgroups(g)]
            for h in targets:
                got = linear_characters_abelian(h, m)
                assert len(got) == h.order, name
                assert _same_values(got, _reference_linear_characters_abelian(h, m)), name

    def test_table_matches_the_reference_without_early_stop(self):
        for name, g in _session_groups_and_relabelings():
            got = character_table(g)
            assert _same_values(got, _reference_character_table(g)), name
            assert all(type(v) is Fraction for chi in got for v in chi
                       if not isinstance(v, Cyc)), name

    @pytest.mark.parametrize("name, induces", [("C12", False), ("C4xC2", False),
                                               ("S3", True)])
    def test_abelian_tables_stop_after_the_linear_characters(self, monkeypatch,
                                                             name, induces):
        calls = Counter()

        def counting(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapper

        for fn in (abelian_subgroups, induced_character):
            monkeypatch.setattr(characters, fn.__name__, counting(fn))
        table = character_table(SESSION_GROUPS[name])
        assert len(table) == len(conjugacy_classes(SESSION_GROUPS[name]))
        if induces:  # the counting reaches the calls of a nonabelian table
            assert calls["abelian_subgroups"] == 1 and calls["induced_character"] > 0
        else:
            assert not calls, dict(calls)

    @pytest.mark.parametrize("name", sorted(SESSION_GROUPS))
    def test_relabelings_give_the_same_table_from_few_candidates(self, name):
        # the generating sequence tried up to 216 exponent maps on a relabeled
        # C12, where 12 suffice; the table never depended on it
        g = SESSION_GROUPS[name]
        want = {tuple(map(repr, chi)) for chi in character_table(g)}
        for seed in range(10, 40):
            perm, h = _relabeling(g, seed)
            got = {tuple(repr(chi[perm[a]]) for a in range(g.order))
                   for chi in character_table(h)}
            assert got == want, seed
            if len(commutator_subgroup(h)) == 1:
                gens = _generating_sequence(h)
                candidates = 1
                for a in gens:
                    candidates *= h.element_order(a)
                assert candidates == h.order, (seed, gens)
                if h.exponent() == h.order:     # cyclic
                    assert len(gens) == 1, (seed, gens)

    def test_class_induction_matches_the_element_sum(self):
        # every linear character of every abelian subgroup, induced class by
        # class and spread to the elements, against the element-wise sum
        for name, g in _session_groups_and_relabelings():
            m = g.exponent()
            walk = _class_walk(g)
            for sub in abelian_subgroups(g):
                for lam in linear_characters_abelian(_sub_table(g, sub)[0], m):
                    got = _spread(walk, induced_character(g, walk, sub, lam, m))
                    want = reference_induced_character(g, sub, lam, m)
                    assert _same_values([got], [want]), (name, sorted(sub), lam)

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "D5", "D6"])
    def test_nonabelian_tables_induce_from_the_largest_subgroups_first(
            self, monkeypatch, name):
        calls = Counter()
        real = induced_character

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(characters, "induced_character", counting)
        bound = max(len(sub) for sub in abelian_subgroups(SESSION_GROUPS[name])
                    if len(sub) < SESSION_GROUPS[name].order)
        for label, g in _session_groups_and_relabelings():
            if label.split("/")[0] == name:
                calls.clear()
                table = character_table(g)
                assert len(table) == len(conjugacy_classes(g)), label
                assert 0 < calls[name] <= bound, (label, calls[name], bound)
