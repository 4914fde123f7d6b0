"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are polynomials in zeta_m with Fraction coefficients, reduced
modulo the m-th cyclotomic polynomial.  Just enough ring structure for
character values: add, multiply, compare, divide by rationals.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of Phi_m, constant term first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # start from x^m - 1 and divide off Phi_d for proper divisors d
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d:
            continue
        phi_d = cyclotomic_polynomial(d)
        poly = _exact_div(poly, list(phi_d))
    return tuple(poly)


def _exact_div(num, den):
    """Quotient of integer polynomial division known to be exact."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("polynomial division is not exact")
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    if any(num):
        raise ArithmeticError("polynomial division leaves a remainder")
    return out


def _reduce(m: int, work: list) -> tuple:
    """The Fractions ``work`` reduced modulo Phi_m (monic), padded to its
    degree; ``work`` is overwritten."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    for i in range(len(work) - 1, deg - 1, -1):
        q = work[i]
        if q:
            for j, c in enumerate(phi):
                work[i - deg + j] -= q * c
    work = work[:deg]
    work += [Fraction(0)] * (deg - len(work))
    return tuple(work)


class Cyc:
    """An element of Q(zeta_m)."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        self.coeffs = _reduce(m, [Fraction(c) for c in coeffs])

    @classmethod
    def _reduced(cls, m: int, coeffs: tuple) -> "Cyc":
        """A Cyc from a tuple of Fractions already reduced modulo Phi_m.

        Sums, differences and negations of reduced elements are reduced, so
        they skip the re-wrapping and the reduction of the constructor;
        products reduce their own Fractions.
        """
        out = object.__new__(cls)
        out.m = m
        out.coeffs = coeffs
        return out

    @classmethod
    def rational(cls, m: int, value) -> "Cyc":
        return cls(m, [Fraction(value)])

    @classmethod
    def root(cls, m: int, power: int = 1) -> "Cyc":
        """zeta_m ** power."""
        power %= m
        return cls(m, [0] * power + [1])

    # -- coercion helpers -----------------------------------------------------
    def _lift(self, other):
        if isinstance(other, Cyc):
            if other.m != self.m:
                raise ValueError("mixed cyclotomic moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.rational(self.m, other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyc._reduced(self.m, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return Cyc._reduced(self.m, tuple([-a for a in self.coeffs]))

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyc._reduced(self.m, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        n = len(self.coeffs)
        out = [Fraction(0)] * (2 * n)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Cyc._reduced(self.m, _reduce(self.m, out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / Fraction(other)
            return Cyc(self.m, [a * inv for a in self.coeffs])
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational is its constant coefficient; no Cyc is built
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_rational(self):
        """The Fraction value if the element is rational, else None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def __repr__(self):
        if self.as_rational() is not None:
            return f"Cyc({self.coeffs[0]})"
        return f"Cyc(m={self.m}, {list(self.coeffs)})"
