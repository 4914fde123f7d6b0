"""Structure-constant trace algebras: validation, kernels, trace degrees."""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from tracealg.characters import character_table
from tracealg.chident import ch_multilinear
from tracealg.findim import (AlgebraValidationError, Subspace, TraceAlgebra,
                             WeightedType, ch_degree, ch_identity_failure,
                             check_ideal,
                             dual_numbers, make_algebra,
                             quotient_algebra, radical_kernel, recover_weights,
                             rescale_trace, trace_kernel, weighted_semisimple)
from tracealg import linalg
from tracealg.pseudochar import (PseudoCharTable, dihedral_group, group_algebra,
                                 quaternion_group, symmetric_group_3)
from tracealg.strata import enumerate_types


def zero_subspace(ambient: int) -> Subspace:
    """The zero subspace of Q^ambient: a Subspace with no rows."""
    return Subspace(ambient, ())


def m2_structure(trace_vector):
    """M2 with basis e11, e12, e21, e22 and a prescribed trace vector."""
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    mul = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                mul[i][j][idx[(a, d)]] = 1
    return make_algebra(mul, unit=[1, 0, 0, 1], trace_vector=trace_vector,
                        labels=("e11", "e12", "e21", "e22"))


def upper_triangular(t11, t22):
    """2x2 upper triangular matrices, basis e11, e12, e22, with t(e11) and
    t(e22) prescribed; t(ab) = t(ba) forces t(e12) = 0."""
    mul = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],   # e11 * (e11, e12, e22)
        [[0, 0, 0], [0, 0, 0], [0, 1, 0]],   # e12 * ...
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],   # e22 * ...
    ]
    return make_algebra(mul, unit=[1, 0, 1], trace_vector=[t11, 0, t22],
                        labels=("e11", "e12", "e22"))


# F[eps]/(eps^2) with t(1) = 2 and t(eps) = 1: the degree-2 identity fails
STRANGE = make_algebra([[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                       unit=[1, 0], trace_vector=[2, 1])


class TestMakeAlgebra:
    def test_m2_with_matrix_trace(self):
        a = m2_structure([1, 0, 0, 1])
        assert a.dim == 4 and a.trace_of_unit == 2

    def test_nonassociative_table_is_rejected_with_witness(self):
        # (u1 u1) u1 = u2 u1 = 0 but u1 (u1 u1) = u1 u2 = 1
        mul = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ]
        with pytest.raises(AlgebraValidationError, match="associativity") as err:
            make_algebra(mul, unit=[1, 0, 0], trace_vector=[0, 0, 0])
        assert err.value.witness == (1, 1, 1)
        assert str(err.value) == "associativity fails on (u1, u1, u1)"

    def test_trace_symmetry_rejected_with_witness_pair(self):
        with pytest.raises(AlgebraValidationError) as err:
            m2_structure([1, 1, 0, 1])  # t(e12) = 1 breaks t(ab) = t(ba)
        assert "trace symmetry" in str(err.value)
        assert err.value.witness is not None

    def test_unit_law_failure(self):
        mul = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(AlgebraValidationError, match="unit"):
            make_algebra(mul, unit=[1, 0], trace_vector=[0, 0])


class TestWeightedSemisimple:
    def test_m2_block(self):
        a = weighted_semisimple([(2, 1)])
        assert a.dim == 4 and a.trace_of_unit == 2

    def test_two_lines_with_weights(self):
        a = weighted_semisimple([(1, 1), (1, 2)])
        assert a.dim == 2
        assert a.trace_of((Fraction(1), Fraction(0))) == 1
        assert a.trace_of((Fraction(0), Fraction(1))) == 2

    def test_block_sum(self):
        a = weighted_semisimple([(2, 1), (1, 3)])
        assert a.trace_of_unit == 5

    def test_gram_is_nondegenerate_up_to_n5(self):
        for n in range(1, 6):
            for stype in enumerate_types(n):
                a = weighted_semisimple(stype.pairs)
                kernel = trace_kernel(a)
                assert kernel.is_zero(), stype


class TestTraceKernel:
    def test_dual_numbers(self):
        k = trace_kernel(dual_numbers())
        assert k.rows == ((Fraction(0), Fraction(1)),)
        assert all(type(x) is int for x in k.rows[0])

    def test_m2_reduced_trace(self):
        assert trace_kernel(weighted_semisimple([(2, 1)])).is_zero()

    def test_zero_trace_gives_everything(self):
        a = make_algebra([[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                         unit=[1, 0], trace_vector=[0, 0])
        assert trace_kernel(a) == Subspace.whole(2)

    def test_quotient_by_kernel_is_nondegenerate(self):
        for a in (dual_numbers(), dual_numbers(trace_of_unit=3),
                  weighted_semisimple([(1, 1), (1, 2)])):
            k = trace_kernel(a)
            if k.dim == a.dim:
                continue
            quotient, _ = quotient_algebra(a, k)
            assert trace_kernel(quotient).is_zero()


class TestRadicalKernel:
    def test_zero_ideal(self):
        dn = dual_numbers()
        assert radical_kernel(dn, zero_subspace(2)) == trace_kernel(dn)

    def test_line_summand_of_m2_plus_line(self):
        a = weighted_semisimple([(1, 1), (2, 1)])
        line = Subspace.from_vectors(5, [a.basis_vector(0)])
        assert radical_kernel(a, line) == line

    def test_whole_algebra(self):
        dn = dual_numbers()
        assert radical_kernel(dn, Subspace.whole(2)) == Subspace.whole(2)

    def test_non_ideal_is_rejected_with_witness(self):
        a = weighted_semisimple([(2, 1)])
        not_ideal = Subspace.from_vectors(4, [a.basis_vector(1)])  # span(e12)
        with pytest.raises(AlgebraValidationError, match="ideal") as err:
            radical_kernel(a, not_ideal)
        # the message prints the row as Fractions, as it did before the rows
        # held ints
        assert str(err.value) == (
            "not a two-sided ideal: right multiplication by e0_10 leaves the subspace "
            "at (Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))")
        assert err.value.witness == ((0, 1, 0, 0), 2, "right")


class TestChDegree:
    def test_m2(self):
        assert ch_degree(weighted_semisimple([(2, 1)]), 4) == 2

    def test_weighted_lines(self):
        assert ch_degree(weighted_semisimple([(1, 1), (1, 2)]), 4) == 3

    def test_dual_numbers(self):
        assert ch_degree(dual_numbers(), 4) == 2

    def test_strange_trace_has_no_degree(self):
        strange = make_algebra([[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                               unit=[1, 0], trace_vector=[0, 1])
        diagnostics = []
        assert ch_degree(strange, 4, diagnostics=diagnostics) is None
        assert any("t(1)" in line for line in diagnostics)

    def test_failure_witness_is_least_tuple(self):
        witness = ch_identity_failure(STRANGE, 2)
        assert witness is not None

    @pytest.mark.parametrize("n", [0, -1])
    def test_identity_of_degree_below_one_is_rejected(self, n):
        with pytest.raises(ValueError, match="positive"):
            ch_identity_failure(STRANGE, n)

    def test_degree_1500_line(self):
        # the recursion holds one multiset per size here; the permutation
        # sum would have 1501! terms
        line = rescale_trace(weighted_semisimple([(1, 1)]), 1500)
        assert ch_degree(line, 1500) == 1500

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weighted_semisimple_has_degree_n(self, n):
        for stype in enumerate_types(n):
            a = weighted_semisimple(stype.pairs)
            assert ch_degree(a, n) == n, stype

    def test_small_degree_four_types(self):
        for pairs in ([(1, 4)], [(2, 2)], [(1, 1), (1, 3)]):
            a = weighted_semisimple(pairs)
            assert ch_degree(a, 4) == 4


class TestRecoverWeights:
    def test_two_lines(self):
        wt = recover_weights(weighted_semisimple([(1, 1), (1, 2)]))
        assert wt == WeightedType((1, 1), (1, 2))

    def test_m2_plus_line_doubled(self):
        wt = recover_weights(weighted_semisimple([(2, 1), (1, 2)]))
        assert wt.pairs() == ((1, 2), (2, 1))
        assert wt.n == 4

    def test_half_trace_is_rejected(self):
        a = make_algebra([[[1]]], unit=[1], trace_vector=[Fraction(1, 2)],
                         blocks=[(1, (0,))])
        with pytest.raises(AlgebraValidationError, match="not n-CH"):
            recover_weights(a)

    def test_block_without_a_unit_is_rejected(self):
        # in Q[C2] = span(1, g), g·(x g) = x·1 is never g: the equation at
        # the g coordinate reads 0 = 1
        c2 = make_algebra([[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                          unit=[1, 0], trace_vector=[2, 0])
        with pytest.raises(AlgebraValidationError, match="block has no unit"):
            recover_weights(c2, blocks=[(1, (1,))])

    def test_roundtrip_up_to_n5(self):
        for n in range(1, 6):
            for stype in enumerate_types(n):
                a = weighted_semisimple(stype.pairs)
                wt = recover_weights(a)
                assert wt.pairs() == stype.pairs


class TestRescaleTrace:
    def test_doubled_m2_has_degree_four(self):
        doubled = rescale_trace(weighted_semisimple([(2, 1)]), 2)
        assert ch_degree(doubled, 5) == 4

    def test_scale_one_is_identity(self):
        a = weighted_semisimple([(2, 1)])
        assert rescale_trace(a, 1) == a

    def test_line_tripled(self):
        tripled = rescale_trace(weighted_semisimple([(1, 1)]), 3)
        assert ch_degree(tripled, 4) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rescale_trace(dual_numbers(), 0)


def element_is_nilpotent(a, x):
    """Smallest k <= dim with x^k = 0, or None.

    The algebra is unital, so x^k = L^k(1) for L the left multiplication
    by x, and x^k = 0 exactly when L^k = 0.  A nilpotent operator on a
    space of dimension dim has L^dim = 0, so no index exceeds dim.
    """
    power = x
    for k in range(1, a.dim + 1):
        if not any(power):
            return k
        power = a.multiply(power, x)
    return None


def ideal_dot_product(a, left: Subspace, right: Subspace) -> Subspace:
    """I . J = IJ + A t(IJ): the product closed up under trace."""
    products = [a.multiply(x, y) for x in left.rows for y in right.rows]
    span = Subspace.from_vectors(a.dim, products) if products else zero_subspace(a.dim)
    if any(a.trace_of(p) != 0 for p in products):
        span = span + Subspace.whole(a.dim)
    return span


class TestKernelNilpotency:
    def algebras(self):
        return [
            (dual_numbers(), 2),
            (weighted_semisimple([(1, 1), (1, 2)]), 3),
            (weighted_semisimple([(2, 1)]), 2),
        ]

    def test_kernel_elements_are_nilpotent(self):
        for a, _n in self.algebras():
            k = trace_kernel(a)
            for row in k.rows:
                power = element_is_nilpotent(a, row)
                assert power is not None and power <= a.dim

    def test_iterated_kernel_power_vanishes(self):
        for a, n in self.algebras():
            k = trace_kernel(a)
            current = k
            steps = 0
            while not current.is_zero() and steps < n * n:
                current = ideal_dot_product(a, current, k)
                steps += 1
            assert current.is_zero()
            assert steps <= n * n

    def test_dimension_bound_for_nondegenerate(self):
        # dim <= n^2 whenever the kernel vanishes and the degree is n
        cases = [
            (weighted_semisimple([(2, 1)]), 2),
            (weighted_semisimple([(1, 1), (1, 2)]), 3),
            (weighted_semisimple([(1, 2)]), 2),
            (weighted_semisimple([(1, 1)]), 1),
        ]
        for a, n in cases:
            assert trace_kernel(a).is_zero()
            assert ch_degree(a, n) == n
            assert a.dim <= n * n

    def test_radical_detected_by_kernel(self):
        # for the dual numbers the kernel is exactly the nil radical
        dn = dual_numbers()
        k = trace_kernel(dn)
        assert k.rows == ((Fraction(0), Fraction(1)),)
        assert element_is_nilpotent(dn, k.rows[0]) == 2

    def test_kernel_of_upper_triangulars_is_the_radical(self):
        # 2x2 upper triangular matrices with the matrix trace: the kernel of
        # the trace form is the span of the strictly upper part
        a = upper_triangular(1, 1)
        k = trace_kernel(a)
        assert k.rows == ((Fraction(0), Fraction(1), Fraction(0)),)
        assert element_is_nilpotent(a, k.rows[0]) == 2

    def test_nilpotency_index_in_m3(self):
        # e12 + e23 squares to e13 and cubes to 0; e11 is idempotent
        a = weighted_semisimple([(3, 1)])
        x = [0] * 9
        x[1] = x[5] = 1
        assert element_is_nilpotent(a, x) == 3
        assert element_is_nilpotent(a, a.basis_vector(0)) is None


# -- the recursion against the evaluated permutation sum ------------------------

def evaluate_on_algebra(p, a, assignment):
    """Reference evaluator: the trace polynomial p, term by term, with its
    variables sent to algebra elements; tr(1) evaluates to t(1)."""
    cache = {(): a.unit}
    total = [Fraction(0)] * a.dim
    for (w, traces), c in p.terms.items():
        scalar = c
        for t in traces:
            scalar *= a.trace_of(a.word_value(t, assignment, cache))
            if scalar == 0:
                break
        if scalar == 0:
            continue
        wv = a.word_value(w, assignment, cache)
        for k in range(a.dim):
            total[k] += scalar * wv[k]
    return tuple(total)


def first_failure_by_evaluation(a, n):
    """The least basis multiset on which ch_multilinear(n) is nonzero."""
    poly = ch_multilinear(n)
    for combo in combinations_with_replacement(range(a.dim), n):
        assignment = {i + 1: a.basis_vector(b) for i, b in enumerate(combo)}
        if any(evaluate_on_algebra(poly, a, assignment)):
            return combo
    return None


@lru_cache(maxsize=None)
def _group_and_characters(name):
    group = {"S3": symmetric_group_3, "Q8": quaternion_group,
             "D4": lambda: dihedral_group(4)}[name]()
    return group, character_table(group)


def group_trace_algebra(name, picks, quotient):
    """Q[G] traced by a sum of rational irreducible characters, optionally
    divided by the kernel of its trace form."""
    group, table = _group_and_characters(name)
    values = tuple(sum(table[i % len(table)][g] for i in picks)
                   for g in range(group.order))
    a = group_algebra(PseudoCharTable(group, int(values[group.identity]), values))
    return quotient_algebra(a, trace_kernel(a))[0] if quotient else a


SMALL_TYPES = [t.pairs for n in (1, 2, 3) for t in enumerate_types(n)]

oracle_algebras = st.one_of(
    st.builds(lambda pairs, factor: rescale_trace(weighted_semisimple(pairs), factor),
              st.sampled_from(SMALL_TYPES), st.integers(1, 2)),
    st.builds(dual_numbers, st.integers(-1, 4), st.integers(-2, 2)),
    st.builds(upper_triangular, st.integers(-1, 3), st.integers(-1, 3)),
    st.just(STRANGE),
    st.builds(group_trace_algebra, st.sampled_from(["S3", "Q8"]),
              st.lists(st.integers(0, 4), min_size=1, max_size=2), st.booleans()),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(oracle_algebras, st.integers(1, 3))
def test_recursion_matches_the_evaluated_identity(a, n):
    assert ch_identity_failure(a, n) == first_failure_by_evaluation(a, n)


# -- check_ideal against products with one-hot basis vectors ---------------------

def reference_check_ideal(a, space):
    """The ideal test through the general product with each basis vector."""
    for row in space.rows:
        for i in range(a.dim):
            b = a.basis_vector(i)
            if not space.contains(a.multiply(row, b)):
                return (row, i, "right")
            if not space.contains(a.multiply(b, row)):
                return (row, i, "left")
    return None


class TestCheckIdeal:
    def test_one_sided_ideals_of_m2_name_the_failing_side(self):
        a = m2_structure([1, 0, 0, 1])
        first_column = Subspace.from_vectors(4, [a.basis_vector(0), a.basis_vector(2)])
        first_row = Subspace.from_vectors(4, [a.basis_vector(0), a.basis_vector(1)])
        # e11 e12 = e12 leaves the column space; e21 e11 = e21 the row space
        assert check_ideal(a, first_column) == (first_column.rows[0], 1, "right")
        assert check_ideal(a, first_row) == (first_row.rows[0], 2, "left")
        upper = upper_triangular(1, 1)
        assert check_ideal(upper, trace_kernel(upper)) is None


def basis_product(a, x, i, side):
    """x·u_i when side is "right", u_i·x when it is "left": the general
    product with a one-hot vector."""
    b = a.basis_vector(i)
    return a.multiply(x, b) if side == "right" else a.multiply(b, x)


def accumulated_product(a, y, x, i, side, scale=1):
    """y + scale·(x·u_i or u_i·x) through ``add_basis_product``, as a dense
    tuple; the sparse sum must hold no zero."""
    terms = {j: c for j, c in enumerate(y) if c}
    a.add_basis_product(terms, enumerate(x), i, side, scale)
    assert all(terms.values())
    return tuple(terms.get(k, 0) for k in range(a.dim))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(oracle_algebras, st.data())
def test_basis_product_matches_the_one_hot_product(a, data):
    x = data.draw(st.lists(st.integers(-3, 3), min_size=a.dim, max_size=a.dim))
    y = data.draw(st.lists(st.integers(-3, 3), min_size=a.dim, max_size=a.dim))
    scale = data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    zero = [0] * a.dim
    for i in range(a.dim):
        for side in ("right", "left"):
            product = basis_product(a, x, i, side)
            assert accumulated_product(a, zero, x, i, side) == product
            assert accumulated_product(a, y, x, i, side, scale) == tuple(
                c + scale * p for c, p in zip(y, product))


@pytest.mark.parametrize("a", [dual_numbers(), weighted_semisimple([(1, 1), (2, 2)]),
                               upper_triangular(1, 1), m2_structure([1, 0, 0, 1])])
def test_integral_coordinates_give_int_results(a):
    x = tuple(range(1, a.dim + 1))
    y = tuple(range(a.dim, 0, -1))
    values = [*a.multiply(x, y), a.trace_of(x), a.trace_of_unit]
    for i in range(a.dim):
        for side in ("right", "left"):
            terms = {}
            a.add_basis_product(terms, enumerate(x), i, side)
            values.extend(terms.values())
    assert all(type(v) is int for v in values)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(oracle_algebras, st.data())
def test_check_ideal_matches_the_one_hot_products(a, data):
    vectors = data.draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=a.dim, max_size=a.dim), max_size=3))
    for space in (Subspace.from_vectors(a.dim, vectors), trace_kernel(a)):
        assert check_ideal(a, space) == reference_check_ideal(a, space)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(oracle_algebras)
def test_gram_and_product_table_match_the_one_hot_products(a):
    e = [a.basis_vector(i) for i in range(a.dim)]
    table = a.product_table(range(a.dim))
    for i in range(a.dim):
        for j in range(a.dim):
            assert table[i][j] == a.multiply(e[i], e[j])
            assert a.gram[i][j] == a.trace_of(a.multiply(e[i], e[j]))
    some = [a.dim - 1, 0]
    assert a.product_table(some) == [[table[i][j] for j in some] for i in some]


# -- validation against the dense one-hot products --------------------------------

def reference_validate(a):
    """The validation through dense products with one-hot basis vectors: the
    unit law, then every triple, then every pair, in basis order."""
    basis = [a.basis_vector(i) for i in range(a.dim)]
    table = [[basis_product(a, basis[i], j, "right") for j in range(a.dim)]
             for i in range(a.dim)]
    for i in range(a.dim):
        if (basis_product(a, a.unit, i, "right") != basis[i]
                or basis_product(a, a.unit, i, "left") != basis[i]):
            raise AlgebraValidationError(
                f"unit law fails on basis element {a.labels[i]}", witness=(i,))
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                left = basis_product(a, table[i][j], k, "right")
                right = basis_product(a, table[j][k], i, "left")
                if left != right:
                    raise AlgebraValidationError(
                        "associativity fails on "
                        f"({a.labels[i]}, {a.labels[j]}, {a.labels[k]})",
                        witness=(i, j, k))
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            tij = a.trace_of(table[i][j])
            tji = a.trace_of(table[j][i])
            if tij != tji:
                raise AlgebraValidationError(
                    f"trace symmetry fails: t({a.labels[i]}*{a.labels[j]}) = {tij} "
                    f"but t({a.labels[j]}*{a.labels[i]}) = {tji}",
                    witness=(i, j))


def validation_outcome(check):
    """(message, witness) of the AlgebraValidationError check() raises, or None."""
    try:
        check()
    except AlgebraValidationError as err:
        return str(err), err.witness
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(oracle_algebras, st.sampled_from(["none", "mul", "unit", "trace"]), st.data())
def test_validation_matches_the_dense_reference(a, kind, data):
    d = a.dim
    e = [a.basis_vector(i) for i in range(d)]
    mul = [[list(a.multiply(e[i], e[j])) for j in range(d)] for i in range(d)]
    unit, trace = list(a.unit), list(a.trace_vector)
    i, j, k = (data.draw(st.integers(0, d - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from([-1, 1, 2, Fraction(1, 2)]))
    if kind == "mul":
        mul[i][j][k] += delta
    elif kind == "unit":
        unit[i] += delta
    elif kind == "trace":
        trace[i] += delta
    perturbed = make_algebra(mul, unit, trace, labels=a.labels, validate=False)
    expected = validation_outcome(lambda: reference_validate(perturbed))
    if kind == "none":
        assert expected is None
    assert validation_outcome(
        lambda: make_algebra(mul, unit, trace, labels=a.labels)) == expected


# -- the CH recursion against the dense recursion ---------------------------------

def reference_ch_identity_failure(a, n):
    """The recursion on dense values: each trace t(P u_j) and each left
    product u_i P through a product with a basis element."""
    layer = {(): a.unit}
    for k in range(1, n + 1):
        previous, layer = layer, {}
        for s in combinations_with_replacement(range(a.dim), k):
            t = a.trace_of(basis_product(a, previous[s[:-1]], s[-1], "right"))
            value = [t * c for c in a.unit]
            for pos, i in enumerate(s):
                if pos and s[pos - 1] == i:
                    continue
                m = s.count(i)
                for q, c in enumerate(basis_product(a, previous[s[:pos] + s[pos + 1:]], i, "left")):
                    if c:
                        value[q] -= m * c
            if k < n:
                layer[s] = tuple(value)
            elif any(value):
                return s
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(oracle_algebras,
                 st.builds(group_trace_algebra, st.just("D4"),
                           st.lists(st.integers(0, 4), min_size=1, max_size=2), st.booleans())),
       st.integers(1, 4))
def test_recursion_matches_the_dense_recursion(a, n):
    assert ch_identity_failure(a, n) == reference_ch_identity_failure(a, n)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
@pytest.mark.parametrize("quotient", [False, True], ids=["group", "quotient"])
def test_recursion_matches_the_dense_recursion_on_group_algebras(name, quotient):
    characters = len(_group_and_characters(name)[1])
    algebras = [STRANGE, upper_triangular(1, 1), upper_triangular(2, -1)]
    algebras += [group_trace_algebra(name, [i], quotient) for i in range(characters)]
    for a in algebras:
        for n in range(1, 5):
            assert ch_identity_failure(a, n) == reference_ch_identity_failure(a, n), (a.labels, n)


# -- the stored normal form of subspaces --------------------------------------------

_row_entries = st.sampled_from([0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.lists(_row_entries, min_size=d, max_size=d), max_size=4))))
def test_subspace_rows_are_int_where_integral(case):
    d, vectors = case
    space = Subspace.from_vectors(d, vectors)
    fraction_rows = tuple(tuple(r) for r in linalg.rref(vectors)[0])
    assert space.rows == fraction_rows
    assert hash(space.rows) == hash(fraction_rows)
    assert space == Subspace(d, fraction_rows)
    assert hash(space) == hash(Subspace(d, fraction_rows))
    for row, fraction_row in zip(space.rows, fraction_rows):
        for x, f in zip(row, fraction_row):
            assert type(x) is (int if f.denominator == 1 else Fraction)
