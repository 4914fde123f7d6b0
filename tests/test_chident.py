"""Characteristic coefficients, the degree-n identity, multilinear forms."""
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest

from hypothesis import given, settings, strategies as st

from tracealg.characters import character_table, inner_product
from tracealg.chident import (ch_multilinear, ch_poly, character_column, class_size,
                              permutation_cycles, polarize, restitute, sigma,
                              t_multilinear)
from tracealg.findim import trace_kernel
from tracealg.freetrace import TracePoly, formal_trace, parse_trace_poly, x
from tracealg.genmat import evaluate, is_trace_identity, rational_matrix
from tracealg.mpoly import MPoly
from tracealg.pseudochar import (PseudoCharTable, group_algebra, make_group,
                                 symmetric_group_3)

from mpoly_helpers import substitute


def eval_symmetric(values):
    """Independent oracle: numeric power sums and elementary symmetric
    functions of an explicit list of rationals."""
    k = len(values)
    psi = {j: sum(v ** j for v in values) for j in range(1, k + 1)}
    e = {}
    coeffs = [Fraction(1)]
    for v in values:
        coeffs.append(Fraction(0))
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] += coeffs[i - 1] * v
    for i in range(1, k + 1):
        e[i] = coeffs[i]
    return psi, e


def _psi(j: int) -> MPoly:
    return MPoly.var(f"psi{j}")


@lru_cache(maxsize=None)
def elementary_from_powersums(k: int) -> MPoly:
    """The oracle: e_k as a commutative polynomial in the power sums
    psi_1..psi_k, by Newton's recursion
    (m+1) e_{m+1} = (-1)^m psi_{m+1} + sum_{i=1}^m (-1)^{i-1} psi_i e_{m+1-i}."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    if k == 1:
        return _psi(1)
    m = k - 1
    terms = dict((Fraction((-1) ** m, m + 1) * _psi(m + 1)).terms)
    for i in range(1, m + 1):
        MPoly.add_product(terms, _psi(i), elementary_from_powersums(m + 1 - i),
                          Fraction((-1) ** (i - 1), m + 1))
    return MPoly(terms)


def powersums_to_traces(e: MPoly) -> TracePoly:
    """An MPoly in psi_1, psi_2, .. with each psi_j read as tr(x^j)."""
    return TracePoly.sum(
        (c, TracePoly.monomial((), [(1,) * int(name[3:]) for name, exp in MPoly.decode(key)
                                    for _ in range(exp)]))
        for key, c in e.terms.items())


class TestNewtonRecursion:
    def test_first_values(self):
        psi1 = MPoly.var("psi1")
        psi2 = MPoly.var("psi2")
        psi3 = MPoly.var("psi3")
        assert elementary_from_powersums(1) == psi1
        assert elementary_from_powersums(2) == \
            Fraction(1, 2) * (psi1 * psi1 - psi2)
        assert elementary_from_powersums(3) == \
            Fraction(1, 6) * (psi1 ** 3 - 3 * psi1 * psi2 + 2 * psi3)
        assert sigma(1) == parse_trace_poly("tr(x)")
        assert sigma(2) == parse_trace_poly("1/2*tr(x)^2 - 1/2*tr(x^2)")
        assert sigma(3) == parse_trace_poly("1/6*tr(x)^3 - 1/2*tr(x^2)*tr(x) + 1/3*tr(x^3)")

    @pytest.mark.parametrize("k", range(1, 7))
    def test_against_numeric_oracle(self, k):
        rng = random.Random(k)
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]
        psi, e = eval_symmetric(values)
        point = {f"psi{j}": psi[j] for j in range(1, k + 1)}
        assert substitute(elementary_from_powersums(k), point).constant_value() == e[k]
        diagonal = rational_matrix([[v if h == j else 0 for j in range(k)]
                                    for h, v in enumerate(values)])
        scalar = rational_matrix([[e[k] if h == j else 0 for j in range(k)] for h in range(k)])
        assert evaluate(sigma(k), {1: diagonal}, k) == scalar

    @pytest.mark.parametrize("k", range(1, 13))
    def test_sigma_is_the_commutative_recursion_read_in_traces(self, k):
        assert sigma(k) == powersums_to_traces(elementary_from_powersums(k))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            elementary_from_powersums(0)
        with pytest.raises(ValueError):
            sigma(0)


class TestSigma:
    def test_sigma1_is_the_trace(self):
        assert sigma(1) == formal_trace(x(1))

    def test_sigma2(self):
        tr = lambda w: formal_trace(TracePoly.word(w))
        assert sigma(2) == Fraction(1, 2) * (tr([1]) * tr([1]) - tr([1, 1]))

    def test_sigma3(self):
        tr = lambda w: formal_trace(TracePoly.word(w))
        expected = (Fraction(1, 6) * tr([1]) ** 3
                    - Fraction(1, 2) * tr([1, 1]) * tr([1])
                    + Fraction(1, 3) * tr([1, 1, 1]))
        assert sigma(3) == expected


class TestChPoly:
    def test_degree_one(self):
        assert ch_poly(1) == x(1) - formal_trace(x(1))

    def test_degree_two(self):
        expected = parse_trace_poly("x^2 - tr(x)*x + 1/2*tr(x)^2 - 1/2*tr(x^2)")
        assert ch_poly(2) == expected

    def test_degree_three_display(self):
        expected = parse_trace_poly(
            "x^3 - tr(x)*x^2 + 1/2*tr(x)^2*x - 1/2*tr(x^2)*x"
            " - 1/3*tr(x^3) - 1/6*tr(x)^3 + 1/2*tr(x^2)*tr(x)")
        assert ch_poly(3) == expected


class TestTSigma:
    def test_identity_permutation(self):
        assert TracePoly.monomial((), ((1,), (2,))) == formal_trace(x(1)) * formal_trace(x(2))

    def test_transposition(self):
        assert TracePoly.monomial((), ((1, 2),)) == formal_trace(TracePoly.word([1, 2]))

    def test_three_cycle(self):
        assert TracePoly.monomial((), ((1, 2, 3),)) == formal_trace(TracePoly.word([1, 2, 3]))


class TestTMultilinear:
    def test_k1(self):
        assert t_multilinear(1) == formal_trace(x(1))

    def test_k2(self):
        tr = lambda w: formal_trace(TracePoly.word(w))
        assert t_multilinear(2) == tr([1]) * tr([2]) - tr([1, 2])

    def test_restitution_gives_factorial_sigma(self):
        for k in range(1, 5):
            rest = restitute(t_multilinear(k))
            factorial = 1
            for i in range(2, k + 1):
                factorial *= i
            assert rest == factorial * sigma(k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_symmetric_under_variable_permutations(self, k):
        base = t_multilinear(k)
        for images in permutations(range(1, k + 1)):
            mapping = {i + 1: x(images[i]) for i in range(k)}
            assert base.substitute(mapping) == base


class TestChMultilinear:
    def test_n1_matches_ch_poly(self):
        assert ch_multilinear(1) == ch_poly(1)

    def test_n2_printed_form(self):
        expected = parse_trace_poly(
            "x1*x2 + x2*x1 - tr(x1)*x2 - tr(x2)*x1 - tr(x1*x2) + tr(x1)*tr(x2)")
        assert ch_multilinear(2) == expected

    def test_coefficients_are_stored_as_int(self):
        for p in (ch_multilinear(4), t_multilinear(4)):
            assert all(type(c) is int for c in p.terms.values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_restitution(self, n):
        factorial = 1
        for i in range(2, n + 1):
            factorial *= i
        assert restitute(ch_multilinear(n)) == factorial * ch_poly(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_multilinearity_in_each_slot(self, n):
        p = ch_multilinear(n)
        for i in range(1, n + 1):
            mapping = {j: x(j) for j in range(1, n + 1)}
            mapping[i] = TracePoly.scalar(Fraction(5, 3)) * x(i)
            assert p.substitute(mapping) == Fraction(5, 3) * p

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetric(self, n):
        base = ch_multilinear(n)
        swap = {i: x(i) for i in range(1, n + 1)}
        swap[1], swap[2] = x(2), x(1)
        assert base.substitute(swap) == base


class TestPolarize:
    def test_square(self):
        assert polarize(x(1) * x(1)) == \
            TracePoly.word([1, 2]) + TracePoly.word([2, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_polarize_ch_equals_multilinear(self, n):
        assert polarize(ch_poly(n)) == ch_multilinear(n)

    def test_polarize_sigma2_is_t2(self):
        assert polarize(sigma(2)) == t_multilinear(2)

    def test_degree_two_polarization_by_differences(self):
        # CH_2(x1 + x2) - CH_2(x1) - CH_2(x2) is the multilinear form
        ch2 = ch_poly(2)
        diff = (ch2.substitute({1: x(1) + x(2)})
                - ch2.substitute({1: x(1)})
                - ch2.substitute({1: x(2)}))
        assert diff == ch_multilinear(2)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError, match="homogeneous"):
            polarize(x(1) + x(1) * x(1))

    def test_rejects_multivariable(self):
        with pytest.raises(ValueError, match="single variable"):
            polarize(x(1) * x(2))


class TestFormalIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trace_of_ch_times_fresh_variable(self, n):
        lhs = formal_trace(ch_multilinear(n) * x(n + 1))
        assert lhs == Fraction((-1) ** n) * t_multilinear(n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_recursion_for_t(self, n):
        lhs = t_multilinear(n + 1)
        tn = t_multilinear(n)
        rhs = tn * formal_trace(x(n + 1))
        for i in range(1, n + 1):
            mapping = {j: x(j) for j in range(1, n + 1)}
            mapping[i] = x(i) * x(n + 1)
            rhs = rhs - tn.substitute(mapping)
        assert lhs == rhs


# -- the one-term-per-permutation constructions, kept as oracles --------------

@dataclass(frozen=True)
class PermCycles:
    """A permutation of {1..size} stored as disjoint cycles covering {1..size}."""

    size: int
    cycles: tuple

    @property
    def sign(self) -> int:
        return (-1) ** (self.size - len(self.cycles))


def t_sigma(perm: PermCycles) -> TracePoly:
    """T_sigma: one trace symbol per cycle of the permutation."""
    return TracePoly.monomial((), perm.cycles)


def from_one_line(images) -> PermCycles:
    """The permutation with images[i] the image of i+1, in cycle form."""
    n = len(images)
    remaining = set(range(1, n + 1))
    cycles = []
    while remaining:
        start = min(remaining)
        cyc = [start]
        remaining.discard(start)
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            remaining.discard(nxt)
            nxt = images[nxt - 1]
        cycles.append(tuple(cyc))
    return PermCycles(n, tuple(cycles))


def psi_sigma_term(perm: PermCycles, n: int) -> TracePoly:
    """The word-times-traces monomial of one permutation of S_{n+1}."""
    word = ()
    traces = []
    for cyc in perm.cycles:
        if n + 1 in cyc:
            pos = cyc.index(n + 1)
            word = cyc[pos + 1:] + cyc[:pos]
        else:
            traces.append(cyc)
    return TracePoly.monomial(word, traces)


def relabelings(w, traces, k: int):
    """The term w * prod tr(t) with its k letter occurrences relabeled by
    each permutation of x_1..x_k, in reading order."""
    for images in permutations(range(1, k + 1)):
        pos = len(w)
        trace_words = []
        for t in traces:
            trace_words.append(images[pos:pos + len(t)])
            pos += len(t)
        yield TracePoly.monomial(images[:len(w)], trace_words)


def oracle_t_multilinear(k):
    perms = (from_one_line(images) for images in permutations(range(1, k + 1)))
    return TracePoly.sum((perm.sign, t_sigma(perm)) for perm in perms)


def oracle_ch_multilinear(n):
    perms = (from_one_line(images) for images in permutations(range(1, n + 2)))
    return TracePoly.sum(((-1) ** n * perm.sign, psi_sigma_term(perm, n)) for perm in perms)


def oracle_polarize(p):
    (k,) = p.term_degrees()
    return TracePoly.sum((c, monomial) for (w, traces), c in p.terms.items()
                         for monomial in relabelings(w, traces, k))


class TestAgainstTheOneTermOracles:
    @pytest.mark.parametrize("k", range(7))
    def test_cycle_walk_lists_every_permutation_once(self, k):
        walked = list(permutation_cycles(k))
        expected = {(p.sign, p.cycles) for p in map(from_one_line, permutations(range(1, k + 1)))}
        assert len(walked) == len(expected) and set(walked) == expected
        for _, cycles in walked:
            assert all(cyc[0] == min(cyc) for cyc in cycles)
            assert [cyc[0] for cyc in cycles] == sorted(cyc[0] for cyc in cycles)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_cycle_walk_comes_in_blocks_by_where_k_goes(self, k):
        # block 0 has k fixed, block e has k right after e; each block lists
        # the permutations of {1..k-1} in the walk's order
        walked = [cycles for _, cycles in permutation_cycles(k)]
        smaller = [cycles for _, cycles in permutation_cycles(k - 1)]
        size = len(smaller)
        for e in range(k):
            for cycles, base in zip(walked[e * size:(e + 1) * size], smaller):
                (host,) = [cyc for cyc in cycles if k in cyc]
                assert host == (k,) if e == 0 else host[host.index(k) - 1] == e
                dropped = tuple(tuple(v for v in cyc if v != k) for cyc in cycles)
                assert tuple(cyc for cyc in dropped if cyc) == base

    def test_t_multilinear_sums_to_zero_after_each_block(self):
        # T_4 vanishes on 2x2 matrices, so each block of T_5 does too
        blocks = list(permutation_cycles(5))
        for start in range(0, 120, 24):
            block = TracePoly.sum((sign, t_sigma(PermCycles(5, cycles)))
                                  for sign, cycles in blocks[start:start + 24])
            assert block and is_trace_identity(block, 2)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_t_multilinear(self, k):
        got = t_multilinear(k)
        assert got.terms == oracle_t_multilinear(k).terms
        assert all(type(c) is int for c in got.terms.values())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ch_multilinear(self, n):
        got = ch_multilinear(n)
        assert got.terms == oracle_ch_multilinear(n).terms
        assert all(type(c) is int for c in got.terms.values())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_polarize_ch_poly(self, n):
        assert polarize(ch_poly(n)).terms == oracle_polarize(ch_poly(n)).terms

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_polarize_homogeneous_one_variable(self, data):
        # terms x^a * tr(x^l_1)...tr(x^l_m) of one degree k, tr(1) among them
        k = data.draw(st.integers(1, 5))
        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            lengths = []
            while data.draw(st.booleans()) and len(lengths) < 3:
                lengths.append(data.draw(st.integers(0, k - sum(lengths))))
            c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
            terms.append((c, TracePoly.monomial((1,) * (k - sum(lengths)),
                                                [(1,) * l for l in lengths])))
        p = TracePoly.sum(terms)
        if p:
            assert polarize(p).terms == oracle_polarize(p).terms


# -- characters of S_m by Murnaghan-Nakayama ----------------------------------------

def _partitions(m, largest=None):
    largest = m if largest is None else largest
    if m == 0:
        return [()]
    return [(first, *rest) for first in range(min(m, largest), 0, -1)
            for rest in _partitions(m - first, first)]


def _cycle_type(perm) -> tuple:
    seen, lengths = set(), []
    for start in range(len(perm)):
        length = 0
        while start not in seen:
            seen.add(start)
            start = perm[start]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _symmetric_group(m):
    """S_m from its permutation table, with each element's permutation."""
    perms = list(permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(m))] for b in perms] for a in perms]
    return make_group(table), perms


def _table_by_cycle_type(m, types):
    """The rows chi^lambda(element) over the elements of the given cycle
    types, one row per partition lambda of m, as a sorted list."""
    columns = {k: character_column(k, m) for k in set(types)}
    return sorted(tuple(Fraction(columns[k].get(shape, 0)) for k in types)
                  for shape in _partitions(m))


class TestCharacterColumn:
    def test_s3_matches_the_brute_force_table(self):
        g = symmetric_group_3()
        # in S_3 the element order is the cycle type: 1, 2 or 3
        types = [{1: (1, 1, 1), 2: (2, 1), 3: (3,)}[g.element_order(a)]
                 for a in range(g.order)]
        assert _table_by_cycle_type(3, types) == sorted(map(tuple, character_table(g)))

    def test_s4_rows_are_the_irreducible_characters(self):
        """``character_table`` stops short on S_4 (order 24): its 2- and
        3-dimensional characters are not induced from linear characters of
        abelian subgroups.  So the rows are checked on the permutation table
        with ``inner_product``: five rows of norm 1 and positive degree are
        five distinct irreducible characters, as many as the classes."""
        g, perms = _symmetric_group(4)
        rows = _table_by_cycle_type(4, [_cycle_type(p) for p in perms])
        assert len(rows) == len(_partitions(4)) == 5
        for i, chi in enumerate(rows):
            assert chi[0] > 0
            for j, psi in enumerate(rows):
                assert inner_product(g, chi, psi) == (i == j)

    def test_character_table_refuses_s4(self):
        g, _ = _symmetric_group(4)
        with pytest.raises(ValueError, match="not induced from linear characters"):
            character_table(g)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_degrees_and_column_orthogonality(self, m):
        """sum f_lambda^2 = m!, and the columns K, L are orthogonal with
        sum_lambda chi^lambda(K) chi^lambda(L) = [K = L] m! / |K|."""
        shapes = _partitions(m)
        columns = {k: character_column(k, m) for k in shapes}
        assert set(columns[(1,) * m]) == set(shapes)     # every degree is positive
        assert sum(f * f for f in columns[(1,) * m].values()) == factorial(m)
        assert sum(class_size(k) for k in shapes) == factorial(m)
        for k in shapes:
            for l in shapes:
                dot = sum(c * columns[l].get(shape, 0) for shape, c in columns[k].items())
                assert dot == (factorial(m) // class_size(k) if k == l else 0), (k, l)

    @pytest.mark.parametrize("m,rows", [(m, r) for m in range(1, 8) for r in range(1, m + 1)])
    def test_fewer_rows_cut_the_column(self, m, rows):
        for k in _partitions(m):
            full = character_column(k, m)
            assert character_column(k, rows) == {
                shape: c for shape, c in full.items() if len(shape) <= rows}

    def test_the_order_of_the_parts_does_not_matter(self):
        assert character_column((1, 3, 2), 6) == character_column((3, 2, 1), 6)

    @pytest.mark.parametrize("n,kernel", [(1, 23), (2, 10), (3, 1), (4, 0)])
    def test_the_tensor_trace_kernel_of_q_s4(self, n, kernel):
        """Q[S_4] traced by sigma -> n^(cycles of sigma), the character of
        (Q^n)^(tensor 4): its trace kernel is the sum of the blocks of the
        partitions with more than n rows, of dimension sum f_lambda^2 over
        them.  This is the comparison of the Cayley-Hamilton quotient with
        the representation it comes from."""
        g, perms = _symmetric_group(4)
        values = tuple(Fraction(n ** len(_cycle_type(p))) for p in perms)
        k = trace_kernel(group_algebra(PseudoCharTable(g, n ** 4, values)))
        degrees = character_column((1, 1, 1, 1), 4)
        assert k.dim == kernel == sum(f * f for shape, f in degrees.items() if len(shape) > n)
