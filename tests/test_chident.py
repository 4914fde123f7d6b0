"""Characteristic coefficients, the degree-n identity, multilinear forms."""
import random
from fractions import Fraction
from itertools import permutations

import pytest

from tracealg.chident import (PermCycles, ch_multilinear, ch_poly,
                              elementary_from_powersums, polarize, restitute,
                              sigma, t_multilinear, t_sigma)
from tracealg.freetrace import TracePoly, formal_trace, parse_trace_poly, x
from tracealg.mpoly import MPoly


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

    @pytest.mark.parametrize("k", range(1, 7))
    def test_against_numeric_oracle(self, k):
        rng = random.Random(k)
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]
        psi, e = eval_symmetric(values)
        point = {f"psi{j}": psi[j] for j in range(1, k + 1)}
        assert elementary_from_powersums(k).evaluate(point) == e[k]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            elementary_from_powersums(0)


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
        perm = PermCycles(2, ((1,), (2,)))
        assert t_sigma(perm) == formal_trace(x(1)) * formal_trace(x(2))

    def test_transposition(self):
        perm = PermCycles(2, ((1, 2),))
        assert t_sigma(perm) == formal_trace(TracePoly.word([1, 2]))

    def test_three_cycle(self):
        perm = PermCycles(3, ((1, 2, 3),))
        assert t_sigma(perm) == formal_trace(TracePoly.word([1, 2, 3]))

    def test_sign(self):
        assert PermCycles(3, ((1, 2, 3),)).sign == 1
        assert PermCycles(3, ((1, 2), (3,))).sign == -1
        assert PermCycles(1, ((1,),)).sign == 1


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
