"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are polynomials in zeta_m reduced modulo the m-th cyclotomic
polynomial Phi_m, with coefficients normalized by ``sparse.exact``: an
``int`` when integral, a ``Fraction`` otherwise.  Character values are sums
of roots of unity, so they lie in Z[zeta_m], and Phi_m is monic, so the
reduction of an integral element stays integral; a Fraction appears only
where a rational denominator enters (a division, a rational scalar).  Just
enough ring structure for character values: add, multiply, compare, divide
by rationals.  ``residue_images`` maps a table of such values into Z/M by
one ring homomorphism, for computations in plain ints.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .sparse import exact


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
    """The exact coefficients ``work`` reduced modulo Phi_m (monic), padded
    to its degree; ``work`` is overwritten."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    for i in range(len(work) - 1, deg - 1, -1):
        q = work[i]
        if q:
            for j, c in enumerate(phi):
                work[i - deg + j] -= q * c
    # a Fraction input may reduce to an integral Fraction, which exact maps
    # back to int
    return tuple([exact(c) for c in work[:deg]]) + (0,) * (deg - len(work))


class Cyc:
    """An element of Q(zeta_m).

    ``coeffs`` holds phi(m) coefficients in the basis 1, zeta, ...,
    zeta^(phi(m)-1).  Elements built by the constructor, by a product or by
    a rational scaling store each as ``exact`` leaves it; a sum of two
    non-integral coefficients may be an integral Fraction, which compares
    and hashes like the int.  ``repr`` prints the coefficients as Fractions.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        self.coeffs = _reduce(m, [exact(c) for c in coeffs])

    @classmethod
    def _reduced(cls, m: int, coeffs: tuple) -> "Cyc":
        """A Cyc from a tuple of coefficients already reduced modulo Phi_m.

        Sums, differences, negations and rational multiples of reduced
        elements are reduced, so they skip the normalization and the
        reduction of the constructor; products reduce their own sums.
        """
        out = object.__new__(cls)
        out.m = m
        out.coeffs = coeffs
        return out

    @classmethod
    def rational(cls, m: int, value) -> "Cyc":
        return cls(m, [value])

    @classmethod
    def root(cls, m: int, power: int = 1) -> "Cyc":
        """zeta_m ** power."""
        power %= m
        return cls(m, [0] * power + [1])

    # -- arithmetic, with Cyc, int or Fraction operands ------------------------
    def _check(self, other) -> None:
        if other.m != self.m:
            raise ValueError("mixed cyclotomic moduli")

    def _plus_rational(self, r) -> "Cyc":
        """self + r for an int or Fraction r: only the constant term moves."""
        return Cyc._reduced(self.m, (exact(self.coeffs[0] + r),) + self.coeffs[1:])

    def _scaled(self, r) -> "Cyc":
        """self * r for an int or Fraction r, coefficient by coefficient."""
        return Cyc._reduced(self.m, tuple([exact(a * r) if a else 0 for a in self.coeffs]))

    def __add__(self, other):
        if isinstance(other, Cyc):
            self._check(other)
            return Cyc._reduced(self.m, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))
        if isinstance(other, (int, Fraction)):
            return self._plus_rational(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Cyc._reduced(self.m, tuple([-a for a in self.coeffs]))

    def __sub__(self, other):
        if isinstance(other, Cyc):
            self._check(other)
            return Cyc._reduced(self.m, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))
        if isinstance(other, (int, Fraction)):
            return self._plus_rational(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other)
            return NotImplemented
        self._check(other)
        n = len(self.coeffs)
        out = [0] * (2 * n)
        b_items = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in b_items:
                    out[i + j] += a * b
        return Cyc._reduced(self.m, _reduce(self.m, out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Cyc):
            self._check(other)
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            # a rational is its constant coefficient; no Cyc is built
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        # an integral Fraction hashes like its int, so the normal form's
        # choice between them does not show
        return hash((self.m, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_rational(self):
        """The value as a Fraction if the element is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return Fraction(self.coeffs[0])

    def __repr__(self):
        r = self.as_rational()
        if r is not None:
            return f"Cyc({r})"
        return f"Cyc(m={self.m}, {[Fraction(c) for c in self.coeffs]})"


@lru_cache(maxsize=None)
def _cofactor(m: int) -> tuple:
    """Integer coefficients of Psi_m = (x^m - 1) / Phi_m, constant term first."""
    return tuple(_exact_div([-1] + [0] * (m - 1) + [1], cyclotomic_polynomial(m)))


def residue_images(values, degree: int, weight: int):
    """The exact scalars ``values`` mapped into Z/M by one ring homomorphism,
    with a multiplier that tests zero exactly.

    ``values`` are ints, Fractions and Cyc elements of one modulus m; m is
    taken as 1 when every value is rational.  Each value is lifted by its
    power-basis coefficients to R = Z[1/D][x]/(x^m - 1), D the common
    denominator of all the coefficients, and R is mapped to Z/M by x -> b,
    with b = D 2^B and M = b^m - 1.  This is a ring homomorphism: x^m - 1
    goes to M, and D is a unit, since M = -1 modulo every prime factor of D.

    Returns ``(images, M, psi)`` with psi the image of Psi_m = (x^m - 1) /
    Phi_m.  Let a be an integer polynomial of degree at most ``degree``
    whose coefficients have absolute values summing to at most ``weight``,
    L its value on the lifts, in R, and A its value on the images, in Z/M.
    The lift is not multiplicative, but R -> Q(zeta_m) is a ring map, so a
    on ``values`` is L modulo Phi_m: it is 0 exactly when L Psi_m = 0 in R.
    With W = max(D, the L1 norm of D v over the values v), D^degree L has
    integer coefficients of L1 norm at most weight W^degree, so
    D^degree L Psi_m has integer digits below 2^(B-1) <= b/2 in absolute
    value; B is chosen so.  A balanced base-b vector of m such digits maps
    to 0 mod M only when it is 0, and D is a unit mod M, so a is 0 exactly
    when A psi = 0 mod M.

    When every value is an integral rational, the images are the values as
    ints and M and psi are None: the caller computes in Z.  ``ValueError``
    when Cyc values of two moduli meet, ``TypeError`` on a value that is not
    an exact scalar.
    """
    # the common case, a rational table of integral values, in one pass
    ints = [v.numerator for v in values
            if isinstance(v, (int, Fraction)) and v.denominator == 1]
    if len(ints) == len(values):
        return ints, None, None
    moduli, coeffs = set(), []
    for v in values:
        if isinstance(v, Cyc):
            moduli.add(v.m)
            coeffs.append(v.coeffs)
        elif isinstance(v, (int, Fraction)):
            coeffs.append((v,))
        else:
            raise TypeError(f"not an exact scalar: {v!r}")
    if len(moduli) > 1:
        raise ValueError("mixed cyclotomic moduli")
    m = moduli.pop() if moduli else 1
    if m > 1 and all(not any(cs[1:]) for cs in coeffs):
        m, coeffs = 1, [cs[:1] for cs in coeffs]
    # a coefficient may be an integral Fraction (sums skip the normalization),
    # so each is read as numerator times D / denominator
    d = lcm(*{c.denominator for cs in coeffs for c in cs})
    if m == 1 and d == 1:
        return [cs[0].numerator for cs in coeffs], None, None
    scaled = [[c.numerator * (d // c.denominator) for c in cs] for cs in coeffs]
    w = max(d, *(sum(map(abs, cs)) for cs in scaled))
    psi = _cofactor(m)
    base = d << (2 * sum(map(abs, psi)) * weight * w ** degree).bit_length()
    modulus = base ** m - 1
    d_inv = pow(d, -1, modulus)
    powers = [base ** i for i in range(m)]
    images = [sum(c * p for c, p in zip(cs, powers)) * d_inv % modulus for cs in scaled]
    return images, modulus, sum(c * p for c, p in zip(psi, powers)) % modulus
