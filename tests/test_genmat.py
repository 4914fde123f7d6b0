"""Evaluation on matrices, identity checking, diagonal models."""
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tracealg import linalg
from tracealg.chident import (ch_multilinear, ch_poly, character_column,
                              permutation_cycles, t_multilinear)
from tracealg.freetrace import TracePoly, formal_trace, parse_trace_poly, x
from tracealg import genmat
from tracealg.genmat import (_bezout_matrix, _monic_coefficients,
                             diagonal_model, discriminant_relation, entry_name, evaluate,
                             generic_discriminant, generic_matrix,
                             is_trace_identity, random_counterexample,
                             rational_matrix, repeated_root_coordinates)
from tracealg.mpoly import MPoly, PolyMatrix, determinant

from mpoly_helpers import matrix_product, matrix_trace, scalar_matrix, substitute


def reference_evaluate(p: TracePoly, assignment, n: int) -> PolyMatrix:
    """The oracle evaluator, term by term: each term's traces multiplied one
    by one, and the product added into every entry of its word's value."""
    identity = scalar_matrix(1, n)
    prefixes = {}

    def word_value(w):
        value, longer = identity, prefixes
        for letter in w:
            node = longer.get(letter)
            if node is None:
                node = longer[letter] = (matrix_product(value, assignment[letter]), {})
            value, longer = node
        return value

    total = [[{} for _ in range(n)] for _ in range(n)]
    for (w, traces), c in p.terms.items():
        scalar = MPoly.const(c)
        for t in traces:
            scalar = scalar * (matrix_trace(word_value(t)) if t else n)
        for out_row, row in zip(total, word_value(w).rows):
            for out, entry in zip(out_row, row):
                MPoly.add_product(out, entry, scalar)
    return PolyMatrix([[MPoly(out) for out in out_row] for out_row in total])


def all_generic_verdict(p: TracePoly, n: int) -> bool:
    """The oracle: p evaluated term by term with a full generic matrix for
    every variable."""
    return reference_evaluate(
        p, {i: generic_matrix(i, n) for i in p.variables()}, n).is_zero()


def generic_diagonal_matrix(i: int, n: int) -> PolyMatrix:
    """The diagonal matrix of the diagonal indeterminates of variable i."""
    return PolyMatrix([[MPoly.var(entry_name(i, h, h)) if h == k else 0
                        for k in range(1, n + 1)] for h in range(1, n + 1)])


def generic_assignment(p: TracePoly, n: int) -> dict:
    """The oracle of the matrices ``is_trace_identity`` folds p on, as
    PolyMatrix values in sorted variable order: a generic diagonal matrix
    for the variable with the most occurrences in p (the smallest index
    among ties), a full generic matrix for every other."""
    assignment = {i: generic_matrix(i, n) for i in sorted(p.variables())}
    if assignment:
        occurrences = Counter(letter for w, traces in p.terms
                              for word in (w, *traces) for letter in word)
        diagonal = min(assignment, key=lambda i: (-occurrences[i], i))
        assignment[diagonal] = generic_diagonal_matrix(diagonal, n)
    return assignment


class TestGenericMatrix:
    def test_one_by_one(self):
        m = generic_matrix(1, 1)
        assert m.rows[0][0] == MPoly.var("xi1_1_1")

    def test_trace_is_diagonal_sum(self):
        m = generic_matrix(1, 2)
        assert matrix_trace(m) == MPoly.var("xi1_1_1") + MPoly.var("xi1_2_2")

    def test_product_entry(self):
        a, b = generic_matrix(1, 2), generic_matrix(2, 2)
        v = lambda name: MPoly.var(name)
        expected = v("xi1_1_1") * v("xi2_1_1") + v("xi1_1_2") * v("xi2_2_1")
        assert matrix_product(a, b).rows[0][0] == expected


class TestEvaluate:
    def test_trace_of_identity_matrix(self):
        eye = rational_matrix(linalg.identity(3))
        out = evaluate(formal_trace(x(1)), {1: eye}, 3)
        assert out == scalar_matrix(3, 3)

    def test_ch2_vanishes_on_generic_2x2(self):
        assert evaluate(ch_poly(2), {1: generic_matrix(1, 2)}, 2).is_zero()

    def test_commuting_diagonals(self):
        d1 = rational_matrix([[1, 0], [0, 2]])
        d2 = rational_matrix([[5, 0], [0, -3]])
        p = x(1) * x(2) - x(2) * x(1)
        assert evaluate(p, {1: d1, 2: d2}, 2).is_zero()

    def test_trace_of_one_is_the_size(self):
        t1 = formal_trace(TracePoly.one())
        out = evaluate(t1, {}, 4)
        assert out == scalar_matrix(4, 4)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            evaluate(x(1), {1: rational_matrix([[1]])}, 2)

    def test_unassigned_variable(self):
        with pytest.raises(ValueError, match="x1"):
            evaluate(x(1), {}, 2)

    def test_multiplicative_and_trace_soundness(self):
        rng = random.Random(7)

        def rand_poly():
            p = TracePoly.zero()
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
                term = TracePoly.scalar(rng.randint(-3, 3)) * TracePoly.word(word)
                if rng.random() < 0.5:
                    tw = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
                    term = term * formal_trace(TracePoly.word(tw))
                p = p + term
            return p

        for n in (2, 3):
            mats = {i: rational_matrix([[rng.randint(-2, 2) for _ in range(n)]
                                        for _ in range(n)]) for i in (1, 2)}
            for _ in range(5):
                p, q = rand_poly(), rand_poly()
                assert evaluate(p * q, mats, n) == \
                    matrix_product(evaluate(p, mats, n), evaluate(q, mats, n))
                traced = evaluate(formal_trace(p), mats, n)
                trace = matrix_trace(evaluate(p, mats, n)).constant_value()
                assert traced == scalar_matrix(trace, n)


class TestIsTraceIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ch_n_on_size_n(self, n):
        assert is_trace_identity(ch_poly(n), n)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 4)])
    def test_ch_n_fails_one_size_up(self, n, m):
        assert not is_trace_identity(ch_poly(n), m)
        witness = random_counterexample(ch_poly(n), m, trials=20, seed=0)
        assert witness is not None
        assert not evaluate(ch_poly(n), witness, m).is_zero()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ch_n_holds_below(self, m):
        # the degree-n identity also vanishes on smaller matrices
        for n in range(m, 5):
            assert is_trace_identity(ch_poly(n), m)

    @pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
    def test_fundamental_trace_identity_table(self, n, m):
        # T_{m+1} is an identity of size-n matrices iff n <= m
        holds = is_trace_identity(t_multilinear(m + 1), n)
        assert holds == (n <= m)

    def test_cyclic_trace_identity(self):
        p = formal_trace(TracePoly.word([1, 2])) - formal_trace(TracePoly.word([2, 1]))
        assert random_counterexample(p, 4, trials=10, seed=3) is None
        assert is_trace_identity(p, 4)

    @pytest.mark.parametrize("n,holds", [(3, True), (4, False)])
    def test_rational_multiple_keeps_the_verdict(self, n, holds):
        # denominators are cleared before evaluating; the verdict must not move
        assert is_trace_identity(Fraction(1, 6) * ch_poly(3), n) is holds

    @pytest.mark.parametrize("p,n,holds", [
        (t_multilinear(5), 4, True),
        (ch_multilinear(4), 5, False),
    ], ids=["T5@4", "chm4@5"])
    def test_heavy_verdicts(self, p, n, holds):
        assert is_trace_identity(p, n) is holds

    def test_long_word_needs_no_recursion(self):
        # one prefix per letter, found by a loop rather than by recursion
        p = TracePoly.word([1] * 5000)
        assert not is_trace_identity(p, 1)
        assert evaluate(p, {1: rational_matrix([[1]])}, 1) == rational_matrix([[1]])

    def test_many_trace_factors_need_no_recursion(self):
        # one trie node per trace factor, folded by a loop
        p = TracePoly.trace_symbol([1]) ** 3000
        assert not is_trace_identity(p, 1)
        out = evaluate(p, {1: generic_matrix(1, 1)}, 1)
        assert out == PolyMatrix([[MPoly.var("xi1_1_1", 3000)]])
        assert evaluate(p, {1: rational_matrix([[-1]])}, 1) == rational_matrix([[1]])


# -- keys private to one fold, packed as wide as the input needs ------------------

# D * E at 2^w - 1 and at 2^w, with D the largest term degree and E the
# largest exponent in an entry: the field width w = bit_length(D * E) is
# tight at the first and grows by one at the second
WIDTH_EDGES = [1, 3, 4, 7, 8, 15, 16]


def _carry_partner(d):
    """x1^d - x1^(d - 2^v) * x2 with 2^v <= d < 2^(v+1): the two terms share
    a key if x1's field is v bits wide and x2's comes next, so a field one
    bit too narrow cancels them, at size 1, into a false identity."""
    v = d.bit_length() - 1
    return TracePoly.word([1] * d) - TracePoly.word([1] * (d - 2 ** v) + [2])


def _power_matrix(e, n):
    """An n x n matrix of distinct variables, each diagonal one raised to
    the power e, and the first diagonal entry also times w_extra^e."""
    rows = [[MPoly.var(f"w{h}_{k}", e if h == k else 1) for k in range(n)]
            for h in range(n)]
    rows[0][0] = rows[0][0] * MPoly.var("w_extra", e)
    return PolyMatrix(rows)


class TestLocalKeys:
    @pytest.mark.parametrize("d", WIDTH_EDGES)
    def test_a_carry_would_cancel_into_a_false_identity(self, d):
        for p in (_carry_partner(d), _carry_partner(d).substitute({1: x(2), 2: x(1)})):
            assert is_trace_identity(p, 1) is all_generic_verdict(p, 1) is False

    @pytest.mark.parametrize("d", WIDTH_EDGES)
    def test_generic_fields_at_the_width_edges(self, d):
        # w - tr(w) has degree d and is an identity at size 1 only
        p = ch_poly(1).substitute({1: TracePoly.word([1] * (d - d // 2) + [2] * (d // 2))})
        for n in (1, 2):
            assert is_trace_identity(p, n) is all_generic_verdict(p, n) is (n == 1)
            for q in (p, _carry_partner(d)):
                assignment = generic_assignment(q, n)
                assert evaluate(q, assignment, n) == reference_evaluate(q, assignment, n)

    @pytest.mark.parametrize("d,e", [(d, e) for e in (1, 2, 3, 4, 5) for d in range(1, 17)
                                     if d * e in WIDTH_EDGES])
    def test_entries_with_exponents_above_one(self, d, e):
        for n in (1, 2):
            assignment = {1: _power_matrix(e, n), 2: generic_matrix(2, n)}
            for p in (TracePoly.word([1] * d),
                      _carry_partner(d),
                      formal_trace(TracePoly.word([1] * (d - 1))) * x(2) + x(1) * x(2)):
                assert evaluate(p, assignment, n) == reference_evaluate(p, assignment, n)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_one_matrix_shared_by_two_letters(self, d):
        # both letters read the same entries, so an exponent counts the
        # letters of both: the width must come from the whole degree
        for n in (1, 2):
            for m in (generic_matrix(1, n), _power_matrix(2, n)):
                for p in (TracePoly.word([1] * d + [2] * d),
                          TracePoly.word([1] * d + [2] * d) - TracePoly.word([2] * d + [1] * d),
                          formal_trace(TracePoly.word([1] * d)) * TracePoly.word([2] * d)):
                    got = evaluate(p, {1: m, 2: m}, n)
                    assert got == reference_evaluate(p, {1: m, 2: m}, n)
                    assert got == evaluate(p.substitute({1: x(1), 2: x(1)}), {1: m}, n)


class TestExponentRefusal:
    def test_a_long_term_is_refused_before_any_fold(self):
        p = TracePoly.word([1] * 2 ** 15 + [2])
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="2\\^15"):
            is_trace_identity(p, 2)
        assert time.perf_counter() - start < 1.0

    def test_occurrences_count_the_word_and_the_trace_words(self):
        p = TracePoly.word([1] * 2 ** 14) * formal_trace(TracePoly.word([1] * 2 ** 14))
        with pytest.raises(OverflowError, match="2\\^15"):
            is_trace_identity(p, 1)

    def test_one_below_the_bound_is_decided(self):
        assert is_trace_identity(TracePoly.word([1] * (2 ** 15 - 1)), 1) is False

    def test_evaluate_refuses_a_result_exponent_at_the_bound(self):
        half = PolyMatrix([[MPoly.var("x", 2 ** 14)]])
        assert evaluate(x(1), {1: half}, 1) == half
        with pytest.raises(OverflowError, match="2\\^15"):
            evaluate(x(1) * x(1), {1: half}, 1)
        with pytest.raises(OverflowError, match="2\\^15"):
            evaluate(TracePoly.word([1] * 2 ** 15), {1: generic_matrix(1, 1)}, 1)


def _standard_polynomial(k):
    out = TracePoly.zero()
    for perm in permutations(range(1, k + 1)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        out = out + (-1) ** inversions * TracePoly.word(perm)
    return out


def _known_verdict_cases():
    """CH_n, T_k, the multilinear CH_n, s_4 and Hall's polynomial at the
    sizes of their known verdicts, up to T_5 at 4, as (polynomial, size)."""
    hall = parse_trace_poly("(x1*x2 - x2*x1)^2*x3 - x3*(x1*x2 - x2*x1)^2")
    cases = ([(f"ch{n}@{m}", ch_poly(n), m) for n in range(1, 5) for m in range(1, n + 2)]
             + [(f"T{k}@{n}", t_multilinear(k), n) for k in range(2, 6)
                for n in range(1, min(k, 4) + 1)]
             + [(f"chm{n}@{m}", ch_multilinear(n), m) for n in range(2, 5)
                for m in (n, n + 1) if (n, m) != (4, 5)]
             + [(f"s4@{m}", _standard_polynomial(4), m) for m in (2, 3)]
             + [(f"hall@{m}", hall, m) for m in (2, 3)])
    return [pytest.param(p, n, id=label) for label, p, n in cases]


@pytest.mark.parametrize("p,n", _known_verdict_cases())
def test_the_factored_evaluation_equals_the_term_sum(p, n):
    assignment = generic_assignment(p, n)
    assert evaluate(p, assignment, n) == reference_evaluate(p, assignment, n)


# -- integer trials against the MPoly-constant oracle ----------------------------

def reference_random_counterexample(p: TracePoly, n: int, trials: int, seed: int):
    """The oracle trial loop: the seeded draws of ``random_counterexample``,
    each trial's matrices as MPoly constants (``rational_matrix``), and p,
    its denominators kept, evaluated term by term (``reference_evaluate``)."""
    rng = random.Random(seed)
    variables = sorted(p.variables())
    for _ in range(trials):
        assignment = {
            i: rational_matrix([[rng.randint(-3, 3)
                                 for _ in range(n)] for _ in range(n)])
            for i in variables
        }
        if not reference_evaluate(p, assignment, n).is_zero():
            return assignment
    return None


def _verify_bases():
    """The bases of the verify benchmark, each at its largest identity size
    and one size up, where it is not an identity, as (polynomial, size,
    holds)."""
    hall = parse_trace_poly("(x1*x2 - x2*x1)^2*x3 - x3*(x1*x2 - x2*x1)^2")
    bases = ([(f"ch{n}", ch_poly(n), n) for n in range(1, 5)]
             + [(f"T{k}", t_multilinear(k), k - 1) for k in range(2, 6)]
             + [(f"chm{n}", ch_multilinear(n), n) for n in range(2, 5)]
             + [("s4", _standard_polynomial(4), 2), ("hall", hall, 2)])
    return [pytest.param(p, m, m == n, id=f"{label}@{m}")
            for label, p, n in bases for m in (n, n + 1)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p,n,holds", _verify_bases())
def test_integer_trials_return_the_oracle_witness(p, n, holds, seed):
    for q in (p, Fraction(5, 13) * p):
        found = random_counterexample(q, n, trials=3, seed=seed)
        assert found == reference_random_counterexample(q, n, 3, seed)
        assert (found is None) == holds


# -- one diagonal matrix against the all-generic oracle --------------------------

letters = st.integers(1, 3)
words = st.lists(letters, max_size=3).map(tuple)
short_words = st.lists(letters, max_size=2).map(tuple)
coefficients = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 6))
# a trace word may be empty: tr(1), which evaluates to the matrix size
trace_monomials = st.builds(TracePoly.monomial, words, st.lists(words, max_size=2))
short_monomials = st.builds(TracePoly.monomial, short_words,
                            st.lists(short_words, max_size=1))


@st.composite
def trace_polynomials(draw, n):
    """A random sum of monomials, plus sometimes a structured part times a
    random monomial: an identity of size n (CH_n at a word, or tr(uv) -
    tr(vu)), so that both verdicts are drawn, or the commutator uv - vu,
    which vanishes where u and v commute."""
    p = TracePoly.zero()
    for _ in range(draw(st.integers(0, 3))):
        p = p + draw(coefficients) * draw(trace_monomials)
    if draw(st.booleans()):
        u, v = draw(short_words), draw(short_words)
        part = draw(st.sampled_from([
            ch_poly(n).substitute({1: TracePoly.word(u)}),
            formal_trace(TracePoly.word(u + v)) - formal_trace(TracePoly.word(v + u)),
            TracePoly.word(u + v) - TracePoly.word(v + u),
        ]))
        p = p + draw(coefficients) * part * draw(short_monomials)
    return p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), trace_polynomials(n))))
def test_diagonal_reduction_matches_the_all_generic_oracle(case):
    n, p = case
    assert is_trace_identity(p, n) is all_generic_verdict(p, n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), trace_polynomials(n))))
def test_generic_rows_are_the_packed_oracle_assignment(case):
    # the oracle dict is in sorted variable order, so _pack numbers its
    # fields as _generic_rows does, and the rows must match key for key
    n, p = case
    expected = genmat._pack(generic_assignment(p, n), genmat._degree(p))[0]
    assert genmat._generic_rows(p, n) == expected


# -- the factored evaluator against the term-by-term oracle -----------------------

long_words = st.lists(letters, max_size=4).map(tuple)   # letters repeat
entries = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


@st.composite
def assignments(draw, p, n):
    """Matrices for the variables of p (and one more), all full generic,
    one diagonal as in ``is_trace_identity``, every one diagonal, or
    constant with int or Fraction entries."""
    variables = p.variables() | {draw(letters)}
    kind = draw(st.sampled_from(["generic", "one diagonal", "all diagonal", "constant"]))
    if kind == "generic":
        return {i: generic_matrix(i, n) for i in variables}
    if kind == "one diagonal":
        return {**{i: generic_matrix(i, n) for i in variables}, **generic_assignment(p, n)}
    if kind == "all diagonal":
        return {i: generic_diagonal_matrix(i, n) for i in variables}
    return {i: rational_matrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                             min_size=n, max_size=n)))
            for i in variables}


@st.composite
def evaluation_cases(draw):
    """A size, a polynomial and an assignment.  The polynomial mixes int and
    Fraction coefficients, long words with repeated letters, tr(1) and
    terms that cancel on matrices (see ``trace_polynomials``); sometimes it
    is replaced by its formal trace, a pure-trace polynomial."""
    n = draw(st.integers(1, 3))
    p = draw(trace_polynomials(n))
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.one_of(st.integers(-3, 3), coefficients))
        p = p + c * TracePoly.monomial(draw(long_words), draw(st.lists(short_words, max_size=2)))
    if draw(st.booleans()):
        p = formal_trace(p)
    return n, p, draw(assignments(p, n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(evaluation_cases())
def test_evaluate_matches_the_term_by_term_oracle(case):
    n, p, assignment = case
    assert evaluate(p, assignment, n) == reference_evaluate(p, assignment, n)


# -- the number ring against the specialized generic evaluation -------------------

def specialized_generic_evaluation(p: TracePoly, point, n: int) -> PolyMatrix:
    """p on full generic matrices for the variables of ``point``, each entry
    then evaluated at the point's numbers by ``substitute``."""
    generic = evaluate(p, {i: generic_matrix(i, n) for i in point}, n)
    values = {entry_name(i, h, k): value for i, rows in point.items()
              for h, row in enumerate(rows, 1) for k, value in enumerate(row, 1)}
    return PolyMatrix([[substitute(e, values).constant_value() for e in row]
                       for row in generic.rows])


@st.composite
def constant_cases(draw):
    """A size, a polynomial and a point: int or Fraction entries for the
    variables of p and one more, some matrices zero.  The polynomial (see
    ``trace_polynomials``) sometimes gets a scalar term, a tr(1) term and a
    term of the empty word times a trace."""
    n = draw(st.integers(1, 3))
    p = draw(trace_polynomials(n))
    for extra in (TracePoly.one(), formal_trace(TracePoly.one()),
                  TracePoly.monomial((), [draw(words)])):
        if draw(st.booleans()):
            p = p + draw(coefficients) * extra
    matrices = st.one_of(st.just([[0] * n for _ in range(n)]),
                         st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
    return n, p, {i: draw(matrices) for i in p.variables() | {draw(letters)}}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(constant_cases())
def test_constant_matrices_agree_with_the_specialized_generic_evaluation(case):
    n, p, point = case
    numbers = PolyMatrix(genmat._fold(genmat._term_trie(p), point, n, genmat._Numbers))
    assert numbers == specialized_generic_evaluation(p, point, n)


class TestOneDiagonalMatrix:
    def test_diagonal_matrix(self):
        d = generic_diagonal_matrix(2, 2)
        assert d.rows[0] == (MPoly.var("xi2_1_1"), MPoly.zero())
        assert matrix_trace(d) == matrix_trace(generic_matrix(2, 2))

    @pytest.mark.parametrize("p", [
        x(1) * x(2) - x(2) * x(1),
        formal_trace(TracePoly.word([1, 2, 3])) - formal_trace(TracePoly.word([1, 3, 2])),
    ], ids=["commutator", "trace-of-three"])
    def test_two_diagonal_matrices_would_pass_a_non_identity(self, p):
        # both vanish once x1 and x2 are both diagonal; only one may be
        d = {i: generic_diagonal_matrix(i, 2) for i in (1, 2)}
        d[3] = generic_matrix(3, 2)
        assert evaluate(p, {i: d[i] for i in p.variables()}, 2).is_zero()
        assert not is_trace_identity(p, 2)
        assert not all_generic_verdict(p, 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_most_frequent_variable_after_the_first(self, n):
        # x2 occurs most, so x2 is the diagonal one
        w = TracePoly.word([1, 2, 2])
        assert is_trace_identity(ch_poly(n).substitute({1: w}), n)
        assert not is_trace_identity(ch_poly(n).substitute({1: w + x(1)}), n + 1)

    def test_large_power_of_one_variable(self):
        # diagonal, x^2000 is two scalar powers; the full generic power
        # ran out of memory
        assert not is_trace_identity(TracePoly.word([1] * 2000), 2)


class TestDiagonalModel:
    def test_two_distinct_eigenvalues_no_relation(self):
        model = diagonal_model((1, 1))
        e1 = MPoly.var("x1") + MPoly.var("x2")
        e2 = MPoly.var("x1") * MPoly.var("x2")
        assert model.charpoly_coeffs == (e1, e2)

    def test_one_two_model_identities(self):
        # construction itself verifies the closed-form identities
        model = diagonal_model((1, 2))
        u, v = MPoly.var("x1"), MPoly.var("x2")
        a, b, c = model.charpoly_coeffs
        assert a == u + 2 * v
        assert b == 2 * u * v + v * v
        assert c == u * v * v

    def test_matrix_satisfies_characteristic_polynomial(self):
        model = diagonal_model((1, 2))
        X = model.matrix
        X2 = matrix_product(X, X)
        X3 = matrix_product(X2, X)
        a, b, c = model.charpoly_coeffs
        # X^3 - a X^2 + b X - c I, entry by entry
        value = PolyMatrix([[x3 - a * x2 + b * x - (c if i == j else 0)
                             for j, (x3, x2, x) in enumerate(zip(*rows))]
                            for i, rows in enumerate(zip(X3.rows, X2.rows, X.rows))])
        assert value.is_zero()


class TestDiscriminantRelation:
    def test_cubic_discriminant(self):
        expected = (18 * MPoly.var("a1") * MPoly.var("a2") * MPoly.var("a3")
                    - 4 * MPoly.var("a1") ** 3 * MPoly.var("a3")
                    + MPoly.var("a1") ** 2 * MPoly.var("a2") ** 2
                    - 4 * MPoly.var("a2") ** 3
                    - 27 * MPoly.var("a3") ** 2)
        assert discriminant_relation((1, 2)) == expected

    def test_double_root(self):
        assert discriminant_relation((2,)) == \
            MPoly.var("a1") ** 2 - 4 * MPoly.var("a2")

    def test_all_distinct_is_an_error(self):
        with pytest.raises(ValueError, match="no forced relation"):
            discriminant_relation((1, 1, 1))

    def test_quartic_candidate_with_mixed_weights_is_not_a_relation(self):
        # a circulated degree-4 candidate whose first term has weight 4,
        # not 6; the oracle rejects it
        a, b, c = MPoly.var("a1"), MPoly.var("a2"), MPoly.var("a3")
        candidate = (3 * a ** 2 * b - 162 * a * b * c + 243 * c ** 2
                     - 12 * a ** 2 * b ** 2 + 18 * a ** 3 * c + 36 * b ** 3)
        model = diagonal_model((1, 2))
        subs = {f"a{j}": model.charpoly_coeffs[j - 1] for j in (1, 2, 3)}
        assert not substitute(candidate, subs).is_zero()

    @pytest.mark.parametrize("mults", [
        (2,), (1, 2), (3,), (1, 1, 2), (2, 2), (1, 3), (4,), (2, 3), (1, 4),
        (1, 1, 3), (1, 2, 2), (1, 1, 1, 2), (5,)])
    def test_relation_vanishes_on_the_eigenvalues(self, mults):
        # the oracle: the x-substitution of the diagonal model
        model = diagonal_model(mults)
        subs = {f"a{j}": a for j, a in enumerate(model.charpoly_coeffs, start=1)}
        assert substitute(discriminant_relation(mults), subs).is_zero()

    @pytest.mark.parametrize("mults", [(2,), (1, 2), (3,), (1, 1, 2), (1, 3), (1, 1, 3),
                                       (1, 1, 1, 2)])
    def test_repeated_root_coordinates_decide_like_the_eigenvalues(self, mults):
        # with one repeated eigenvalue the two substitutions are equivalent:
        # each candidate vanishes under both or under neither
        n = sum(mults)
        model = diagonal_model(mults)
        coords = repeated_root_coordinates(n, max(mults))
        a = [MPoly.var(f"a{j}") for j in range(1, n + 1)]
        # (n - 1) a1^2 - 2n a2 vanishes iff all eigenvalues are equal
        candidates = [generic_discriminant(n), a[0], a[-1] * a[0] - 2 * a[-1],
                      generic_discriminant(n) * (a[0] + 1),
                      generic_discriminant(n) + a[-1] ** 2,
                      (n - 1) * a[0] ** 2 - 2 * n * a[1]]
        for candidate in candidates:
            by_x = substitute(
                candidate, {f"a{j}": c for j, c in enumerate(model.charpoly_coeffs, start=1)})
            by_f = substitute(
                candidate, {f"a{j}": c for j, c in enumerate(coords, start=1)})
            assert by_x.is_zero() == by_f.is_zero(), candidate

    def test_repeated_root_coordinates_of_one_double_root(self):
        # (1 + f1 t)(1 + y t)^2
        f, y = MPoly.var("f1"), MPoly.var("y")
        assert repeated_root_coordinates(3, 2) == (f + 2 * y, 2 * f * y + y * y, f * y * y)

    def test_discriminant_nonvanishing_for_distinct_eigenvalues(self):
        disc = generic_discriminant(3)
        model = diagonal_model((1, 1, 1))
        subs = {f"a{j}": model.charpoly_coeffs[j - 1] for j in (1, 2, 3)}
        assert not substitute(disc, subs).is_zero()

    def test_a_simple_root_fails_the_kernel_certificate(self, monkeypatch):
        # coordinates of (1 + f_1 t + ... + f_{n-1} t^{n-1})(1 + y t): y is a
        # root of h but not of h', so (1, y, ..., y^(n-1)) is no kernel vector
        simple = repeated_root_coordinates
        monkeypatch.setattr(genmat, "repeated_root_coordinates", lambda n, m: simple(n, 1))
        for mults in [(2,), (1, 2), (2, 2), (1, 1, 3)]:
            with pytest.raises(AssertionError, match="not a kernel vector"):
                discriminant_relation(mults)


def reference_resultant(p_coeffs, q_coeffs) -> MPoly:
    """The oracle: the resultant of two univariate polynomials as the
    determinant of their Sylvester matrix.  Coefficient lists are highest
    degree first, entries MPoly or scalars."""
    p = [PolyMatrix._entry(x) for x in p_coeffs]
    q = [PolyMatrix._entry(x) for x in q_coeffs]
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    rows = []
    for i in range(dq):
        rows.append([MPoly.zero()] * i + p + [MPoly.zero()] * (n - i - dp - 1))
    for i in range(dp):
        rows.append([MPoly.zero()] * i + q + [MPoly.zero()] * (n - i - dq - 1))
    return determinant(rows)


def fraction_determinant(rows) -> Fraction:
    """The oracle determinant: Gaussian elimination over Fraction, one sign
    flip per row swap."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n, det = len(mat), Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, n):
            f = mat[i][c] / mat[c][c]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def _constant_rows(rows):
    return [[e.constant_value() for e in row] for row in rows]


class TestBezoutDiscriminant:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_signed_sylvester_resultant(self, n):
        # h = t^n - a1 t^(n-1) + a2 t^(n-2) - ..., highest degree first
        h = [MPoly.one()] + [(-1) ** j * MPoly.var(f"a{j}") for j in range(1, n + 1)]
        hp = [(n - i) * h[i] for i in range(n)]
        expected = ((-1) ** (n * (n - 1) // 2) * reference_resultant(h, hp)).primitive()
        assert generic_discriminant(n) == expected

    @pytest.mark.parametrize("n", range(2, 6))
    def test_rows_are_the_bezoutian_coefficients(self, n):
        # (x - y) * sum B[i][j] x^i y^j == h(x) h'(y) - h(y) h'(x)
        a = [MPoly.var(f"a{j}") for j in range(1, n + 1)]
        h = _monic_coefficients(a)
        g = [(i + 1) * h[i + 1] for i in range(n)]
        X, Y = MPoly.var("x"), MPoly.var("y")

        def at(coeffs, t):
            return MPoly.sum(c * t ** i for i, c in enumerate(coeffs))

        rows = _bezout_matrix(h)
        bezoutian = MPoly.sum(e * X ** i * Y ** j
                              for i, row in enumerate(rows) for j, e in enumerate(row))
        assert (X - Y) * bezoutian == at(h, X) * at(g, Y) - at(h, Y) * at(g, X)
        assert all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))


class TestDeterminantOracle:
    """The kernel certificate of ``discriminant_relation`` trusts
    ``determinant``; these compare it with Fraction elimination."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_integer_matrices(self, n):
        rng = random.Random(n)
        for trial in range(40):
            span = 1 if trial % 2 else 5   # entries in -1..1 are often singular
            rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 3 and n > 1:   # a row that is a sum of two others
                rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % (n - 1)])]
            det = determinant(rows).constant_value()
            assert det == fraction_determinant(rows), rows
            assert (linalg.rank(rows) < n) == (det == 0), rows

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bezout_matrices_at_integer_points(self, n):
        rng = random.Random(100 + n)
        disc = generic_discriminant(n)
        for trial in range(12):
            if trial % 3 == 2:
                # a double root r: h = (t - r)^2 * (monic of degree n - 2)
                r = rng.randint(-3, 3)
                low = [rng.randint(-3, 3) for _ in range(n - 2)] + [1]
                h = [0] * (n + 1)
                for i, c in enumerate(low):
                    for j, d in enumerate((r * r, -2 * r, 1)):
                        h[i + j] += c * d
                a = [h[n - j] * (-1) ** j for j in range(1, n + 1)]
            else:
                a = [rng.randint(-4, 4) for _ in range(n)]
            rows = _constant_rows(_bezout_matrix(_monic_coefficients(
                [MPoly.const(x) for x in a])))
            det = determinant(rows).constant_value()
            assert det == fraction_determinant(rows), a
            assert (linalg.rank(rows) < n) == (det == 0), a
            if trial % 3 == 2:
                assert det == 0, a
            point = {f"a{j}": x for j, x in enumerate(a, start=1)}
            assert substitute(disc, point).constant_value() == det, a


# -- central multilinear identities: characters of S_M against the fold -----------

def fold_verdict(p: TracePoly, n: int) -> bool:
    """The generic-matrix certificate alone: ``is_trace_identity``'s fold,
    with no route through the characters of S_M."""
    p = genmat._integral(p)
    rows = genmat._pack(generic_assignment(p, n), genmat._degree(p))[0]
    return not any(map(any, genmat._fold(genmat._term_trie(p), rows, n, genmat._TermDicts)))


def fold_is_cheap(p: TracePoly, n: int) -> bool:
    # T5 at size 5 and the multilinear CH_4 at size 5 sit at the edge, about
    # 65 and 22 ms; T6 at size 3 is past it, about 80 ms
    return len(p.terms) * n * n <= 3000


def routed(p: TracePoly) -> bool:
    return genmat._class_weights(genmat._integral(p)) is not None


def group_element(p: TracePoly) -> tuple:
    """(M, {permutation of range(M): coefficient}) for a multilinear p, the
    variables sorted onto 0..m-1 and a word w read as the cycle w y through
    a fresh point y = m when some term has a word part."""
    variables = sorted(p.variables())
    point = {v: i for i, v in enumerate(variables)}
    paired = any(w for w, _ in p.terms)
    size = len(variables) + paired
    element = {}
    for (w, traces), c in p.terms.items():
        cycles = [[point[v] for v in t] for t in traces]
        if paired:
            cycles.append([point[v] for v in w] + [size - 1])
        perm = [None] * size
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                perm[a] = b
        element[tuple(perm)] = element.get(tuple(perm), 0) + c
    return size, element


def _cycle_count(perm) -> int:
    seen, count = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return count


def acts_as_zero(p: TracePoly, n: int) -> bool:
    """The theory verdict of a multilinear p at size n, with explicit
    permutations: a = sum c_sigma sigma acts as zero on (Q^n)^(tensor M)
    iff t(a rho) = 0 for every rho in S_M, where t(sigma) = n^(cycles of
    sigma) is the trace of sigma there, since the trace form of the image
    of Q[S_M] (a semisimple algebra) is nondegenerate."""
    size, element = group_element(p)
    return not any(
        sum(c * n ** _cycle_count([sigma[r] for r in rho]) for sigma, c in element.items())
        for rho in permutations(range(size)))


def class_function(coefficient, m: int, paired: bool) -> TracePoly:
    """sum over S_M of coefficient(cycle type) T_sigma, M = m + paired; when
    paired, the cycle through M, rotated to end at M and cut there, is the
    word, so that p's pairing with x_M is the class function."""
    size = m + paired
    terms = {}
    for _, cycles in permutation_cycles(size):
        c = coefficient(tuple(sorted(map(len, cycles))))
        if not c:
            continue
        if paired:
            at = next(i for i, cyc in enumerate(cycles) if size in cyc)
            cyc = cycles[at]
            pos = cyc.index(size)
            word, rest = cyc[pos + 1:] + cyc[:pos], cycles[:at] + cycles[at + 1:]
        else:
            word, rest = (), cycles
        terms[(word, tuple(sorted(rest, key=len)))] = c
    return TracePoly(terms)


def relabeled(p: TracePoly, seed: int) -> TracePoly:
    """An injective relabeling of p's variables and a rational multiple of
    it, both drawn from the seed."""
    rng = random.Random(seed)
    old = sorted(p.variables())
    new = rng.sample(range(1, len(old) + 3), len(old))
    scale = Fraction(rng.choice((-1, 1)) * rng.choice((1, 3, 5)), rng.choice((1, 2, 7)))
    return scale * p._relabel(dict(zip(old, new)))


def _partitions(m):
    """Every partition of m: the shapes of the degrees chi^lambda(1), all
    positive (``tests/test_chident.py`` checks the column)."""
    return list(character_column((1,) * m, m))


MULTILINEAR_BASES = ([(f"T{k}", t_multilinear(k), k, lambda n, k=k: n <= k - 1)
                      for k in range(2, 7)]
                     + [(f"chm{n}", ch_multilinear(n), n, lambda m, n=n: m <= n)
                        for n in range(1, 5)])


@pytest.mark.parametrize("p,m,theory", [pytest.param(p, m, theory, id=label)
                                        for label, p, m, theory in MULTILINEAR_BASES])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_the_character_route_agrees_with_the_fold_and_theory(p, m, theory, seed):
    if seed is not None:
        p = relabeled(p, seed)
    assert routed(p)
    for n in range(1, m + 2):
        verdict = is_trace_identity(p, n)
        assert verdict is theory(n), n
        if fold_is_cheap(p, n):
            assert fold_verdict(p, n) is verdict, n


@pytest.mark.parametrize("seed", range(40))
def test_random_class_functions_agree_with_the_tensor_trace(seed):
    """Central elements of Q[S_M] with int and Fraction coefficients, some of
    them zero, pure trace (M = m <= 5) or paired (M = m + 1 <= 5): either
    one coefficient per class, or, at odd seeds, a combination of the
    characters of the partitions of M with more than r rows, r drawn, which
    is an identity up to size r at least."""
    rng = random.Random(seed)
    paired = rng.random() < 0.5
    m = rng.randint(1, 4 if paired else 5)
    size = m + paired
    values = (0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2))
    chosen = {}
    if seed % 2:
        rows = rng.randint(0, size - 1)
        weights = {shape: rng.choice(values) for shape in _partitions(size)
                   if len(shape) > rows}

        def coefficient(k):
            column = character_column(k, size)
            return sum(a * column.get(shape, 0) for shape, a in weights.items())
    else:
        def coefficient(k):
            return chosen.setdefault(k, rng.choice(values))
    p = relabeled(class_function(coefficient, m, paired), seed)
    if not p.terms:
        return
    assert routed(p)
    for n in range(1, m + 2):
        verdict = is_trace_identity(p, n)
        assert verdict is acts_as_zero(p, n), (n, chosen)
        if fold_is_cheap(p, n):
            assert fold_verdict(p, n) is verdict, (n, chosen)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("paired", [False, True])
def test_class_sums_are_identities_exactly_below_their_rows(m, paired):
    """sum over sigma of chi^lambda(sigma) T_sigma acts on (Q^n)^(tensor M)
    through the isotypic part of lambda, which is there iff lambda has at
    most n rows: an identity exactly for n < rows(lambda)."""
    size = m + paired
    if size > 6:
        return
    columns = {tuple(sorted(k)): character_column(k, size) for k in _partitions(size)}
    for shape in _partitions(size):
        p = class_function(lambda k: columns[k].get(shape, 0), m, paired)
        assert routed(p)
        for n in range(1, size + 1):
            verdict = is_trace_identity(p, n)
            assert verdict is (n < len(shape)), (shape, n)
            if fold_is_cheap(p, n):
                assert fold_verdict(p, n) is verdict, (shape, n)


class TestOnlyCentralMultilinearInputsTakeTheCharacterRoute:
    @pytest.mark.parametrize("p", [
        _standard_polynomial(4),
        parse_trace_poly("(x1*x2 - x2*x1)^2*x3 - x3*(x1*x2 - x2*x1)^2"),
        ch_poly(2), ch_poly(3),
        t_multilinear(3) * formal_trace(TracePoly.one()),
        formal_trace(x(1)) - formal_trace(x(2)),
        TracePoly.zero(),
    ], ids=["s4", "hall", "ch2", "ch3", "T3*tr(1)", "tr(x1)-tr(x2)", "zero"])
    def test_the_rest_goes_to_the_fold(self, p):
        assert not routed(p)

    def test_a_missing_permutation_or_a_second_coefficient_is_not_central(self):
        t3 = t_multilinear(3)
        key = next(k for k in t3.terms if len(k[1]) == 1)     # a 3-cycle
        assert not routed(TracePoly({k: c for k, c in t3.terms.items() if k != key}))
        assert not routed(t3 + TracePoly({key: 1}))
        assert not routed(t3 + TracePoly({key: -2}))

    def test_s4_is_decided_by_the_fold(self, monkeypatch):
        """tr(s4 x5) holds every 5-cycle, with the signs of S_4: not central."""
        s4 = _standard_polynomial(4)

        def no_route(weights, n):
            raise AssertionError("s4 took the character route")
        monkeypatch.setattr(genmat, "_central_identity", no_route)
        assert is_trace_identity(s4, 2) and not is_trace_identity(s4, 3)

    @pytest.mark.parametrize("label,p,m,theory", MULTILINEAR_BASES,
                             ids=[b[0] for b in MULTILINEAR_BASES])
    def test_the_bases_never_reach_the_fold(self, monkeypatch, label, p, m, theory):
        def no_fold(*args):
            raise AssertionError(f"{label} reached the fold")
        monkeypatch.setattr(genmat, "_fold", no_fold)
        assert [is_trace_identity(p, n) for n in range(1, m + 2)] == \
            [theory(n) for n in range(1, m + 2)]

    def test_a_size_below_one_is_refused_on_both_routes(self):
        for p in (t_multilinear(3), ch_poly(2)):
            with pytest.raises(ValueError, match="size must be >= 1"):
                is_trace_identity(p, 0)


def test_t7_at_size_3_stays_small():
    """The fold's tracemalloc peak here was 155 MiB; the characters of S_7
    need a few."""
    p = t_multilinear(7)
    tracemalloc.start()
    try:
        assert is_trace_identity(p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak


def test_t7_at_size_6_is_an_identity():
    # a size the fold cannot reach: T7 vanishes on n x n matrices iff n <= 6
    assert is_trace_identity(t_multilinear(7), 6)
    assert not is_trace_identity(t_multilinear(7), 7)
