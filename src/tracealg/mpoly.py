"""Sparse multivariate polynomials over Q, and matrices of them.

Variables are plain strings; a monomial is a sorted tuple of (name, exponent)
pairs with positive exponents.  Coefficients are Fraction; zero coefficients
are never stored, so equality of dicts is equality of polynomials.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .sparse import SparsePoly

Monomial = tuple  # tuple[tuple[str, int], ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


class MPoly(SparsePoly):
    """Polynomial in named commuting variables with exact rational coefficients."""

    __slots__ = ()
    UNIT_KEY = ()
    key_mul = staticmethod(_mono_mul)

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c) -> "MPoly":
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MPoly":
        return cls({((name, exp),): Fraction(1)})

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        """The coefficient of the empty monomial if self is constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in m) for m in self.terms)

    def variables(self):
        out = set()
        for m in self.terms:
            for name, _ in m:
                out.add(name)
        return out

    # -- evaluation / substitution --------------------------------------
    def evaluate(self, point) -> Fraction:
        """Evaluate at a dict name -> Fraction; unmapped variables are an error."""
        total = Fraction(0)
        cache = {}
        for m, c in self.terms.items():
            v = c
            for name, e in m:
                key = (name, e)
                p = cache.get(key)
                if p is None:
                    p = Fraction(point[name]) ** e
                    cache[key] = p
                v *= p
            total += v
        return total

    def substitute(self, mapping) -> "MPoly":
        """Ring substitution name -> MPoly; unmapped variables stay themselves."""
        def image(m, c):
            acc = MPoly.const(c)
            for name, e in m:
                repl = mapping.get(name)
                if repl is None:
                    repl = MPoly.var(name)
                acc = acc * repl ** e
            return acc

        return MPoly.sum(image(m, c) for m, c in self.terms.items())

    def primitive(self) -> "MPoly":
        """Divide by the gcd of integer coefficients (sign preserved).

        Requires all coefficients to be integers times a common denominator;
        general rational input is first scaled integer.
        """
        if not self.terms:
            return self
        denom = 1
        for c in self.terms.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(int(c * denom)))
        scale = Fraction(denom, g)
        return MPoly({m: c * scale for m, c in self.terms.items()})

    # -- rendering -------------------------------------------------------
    @staticmethod
    def _mono_str(m: Monomial) -> str:
        parts = []
        for name, e in m:
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda m: (sum(e for _, e in m), m))
        chunks = []
        for m in keys:
            c = self.terms[m]
            mono = self._mono_str(m)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return f"MPoly({self})"


class PolyMatrix:
    """Square matrix with MPoly entries."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(self._entry(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.size = n
        self.rows = rows

    @staticmethod
    def _entry(x):
        if isinstance(x, MPoly):
            return x
        return MPoly.const(x)

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "PolyMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def scalar(cls, value, n: int) -> "PolyMatrix":
        return cls([[value if i == j else 0 for j in range(n)] for i in range(n)])

    def __add__(self, other):
        self._check(other)
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return PolyMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return PolyMatrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            self._check(other)
            n = self.size
            cols = list(zip(*other.rows))
            out = []
            for row in self.rows:
                out_row = []
                for col in cols:
                    entry = {}
                    for a, b in zip(row, col):
                        MPoly.add_product(entry, a, b)
                    out_row.append(MPoly(entry))
                out.append(out_row)
            return PolyMatrix(out)
        return PolyMatrix([[a * other for a in row] for row in self.rows])

    def __rmul__(self, other):
        return PolyMatrix([[other * a for a in row] for row in self.rows])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative matrix power")
        out = PolyMatrix.identity(self.size)
        for _ in range(n):
            out = out * self
        return out

    def _check(self, other):
        if not isinstance(other, PolyMatrix) or other.size != self.size:
            raise ValueError("size mismatch")

    def trace(self) -> MPoly:
        return MPoly.sum(self.rows[i][i] for i in range(self.size))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "PolyMatrix([" + ", ".join("[" + ", ".join(str(e) for e in row) + "]"
                                          for row in self.rows) + "])"


def determinant(rows) -> MPoly:
    """Determinant of a square array of MPoly via Laplace expansion.

    Memoized on column subsets; fine up to ~10x10, which covers every
    Sylvester matrix used here.
    """
    n = len(rows)
    rows = [[PolyMatrix._entry(x) for x in row] for row in rows]
    full = (1 << n) - 1
    memo = {}

    def minor(row: int, colmask: int) -> MPoly:
        if row == n:
            return MPoly.const(1)
        key = colmask
        got = memo.get(key)
        if got is not None:
            return got
        total = {}
        sign = 1
        for c in range(n):
            bit = 1 << c
            if not (colmask & bit):
                continue
            entry = rows[row][c]
            if entry.terms:
                MPoly.add_product(total, entry, minor(row + 1, colmask & ~bit), sign)
            sign = -sign
        got = memo[key] = MPoly(total)
        return got

    return minor(0, full)


def resultant(p_coeffs, q_coeffs) -> MPoly:
    """Resultant of two univariate polynomials given by coefficient lists.

    Coefficient lists are highest degree first, entries MPoly or scalars.
    """
    p = [PolyMatrix._entry(x) for x in p_coeffs]
    q = [PolyMatrix._entry(x) for x in q_coeffs]
    dp, dq = len(p) - 1, len(q) - 1
    if dp < 1 or dq < 0:
        raise ValueError("resultant needs deg p >= 1")
    n = dp + dq
    rows = []
    for i in range(dq):
        rows.append([MPoly.zero()] * i + p + [MPoly.zero()] * (n - i - dp - 1))
    for i in range(dp):
        rows.append([MPoly.zero()] * i + q + [MPoly.zero()] * (n - i - dq - 1))
    return determinant(rows)
