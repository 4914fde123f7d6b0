"""Sparse multivariate polynomials over Q, their determinants, and the
square-matrix container ``PolyMatrix`` that ``genmat`` returns them in.

Variables are plain strings.  Coefficients are ``int`` or ``Fraction``
(see ``sparse.exact``); zero coefficients are never stored, so equality of
dicts is equality of polynomials.

A monomial key is one ``int`` (Kronecker packing, as in the sparse
polynomial arithmetic of Monagan & Pearce): the exponent of a variable sits
in that variable's fixed 16-bit field, so the key of a product of monomials
is the sum of their keys.  The top bit of each field is a guard bit: every
exponent stays below ``EXPONENT_BOUND`` = 2^15, and a product that would
reach it raises ``OverflowError`` instead of carrying into the next field.
Fields are assigned to names in first-use order by an append-only table,
shared by the whole process (threads included) and never cleared, since
every live key is read against it.  Code outside this module reads a key
only through ``MPoly.decode``.

In a long-lived process the table grows with every name ever used, and so
does the width of a key.  So names are minted only where a commutative
polynomial is the answer: the discriminant, the diagonal model,
``genrank``'s generic elements and the matrices passed to
``genmat.evaluate``.  ``genmat``'s trace-polynomial fold never multiplies
in this packing: ``evaluate`` decodes its input matrices into keys private
to the call and comes back through ``MPoly.monomial`` (which keeps the 2^15
bound) for its result, and ``is_trace_identity`` builds its generic
matrices in such keys directly, with no name.
"""
from __future__ import annotations

import threading
from math import gcd, lcm

from .sparse import SparsePoly, exact, render_sum

FIELD_BITS = 16
EXPONENT_BOUND = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1

_NAMES = []       # field index -> variable name
_FIELDS = {}      # variable name -> field index
_guard = 0        # the guard bit of every field handed out so far
_assigning = threading.Lock()


def _shift(name: str) -> int:
    """The bit offset of ``name``'s field, assigning the next field on first use."""
    global _guard
    i = _FIELDS.get(name)
    if i is None:
        with _assigning:
            i = _FIELDS.get(name)
            if i is None:
                i = len(_NAMES)
                _NAMES.append(name)
                _guard |= 1 << (FIELD_BITS * i + FIELD_BITS - 1)
                _FIELDS[name] = i     # published last: its field is guarded by now
    return FIELD_BITS * i


def _overflow() -> OverflowError:
    return OverflowError(f"monomial exponent reached 2^{FIELD_BITS - 1} = {EXPONENT_BOUND}; "
                         f"packed monomials hold exponents below that bound")


def _key_mul(k1: int, k2: int) -> int:
    k = k1 + k2
    if k & _guard:
        raise _overflow()
    return k


def _decode(key: int) -> tuple:
    """The sorted (name, exponent) pairs of a packed key."""
    pairs = []
    while key:
        field = ((key & -key).bit_length() - 1) // FIELD_BITS   # lowest field in use
        shift = field * FIELD_BITS
        e = (key >> shift) & _FIELD_MASK
        pairs.append((_NAMES[field], e))
        key ^= e << shift
    pairs.sort()
    return tuple(pairs)


class MPoly(SparsePoly):
    """Polynomial in named commuting variables with exact rational coefficients."""

    __slots__ = ()
    UNIT_KEY = 0
    key_mul = staticmethod(_key_mul)
    decode = staticmethod(_decode)

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c) -> "MPoly":
        return cls({0: exact(c)})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MPoly":
        return cls.monomial(((name, exp),))

    @classmethod
    def monomial(cls, pairs, coeff=1) -> "MPoly":
        """coeff times the product of name^exp over the (name, exp) pairs."""
        key = 0
        for name, e in pairs:
            if e < 0:
                raise ValueError(f"negative exponent {e} of {name}")
            if e >= EXPONENT_BOUND:
                raise _overflow()
            key += e << _shift(name)
        if key & _guard:
            raise _overflow()
        return cls({key: exact(coeff)})

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        """The coefficient of the empty monomial if self is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        return None

    def primitive(self) -> "MPoly":
        """The same polynomial scaled to coprime int coefficients, sign kept."""
        if not self.terms:
            return self
        denom = lcm(*(c.denominator for c in self.terms.values()))
        ints = {k: int(c * denom) for k, c in self.terms.items()}
        g = gcd(*ints.values())
        return MPoly._wrap({k: c // g for k, c in ints.items()})

    # -- rendering -------------------------------------------------------
    @staticmethod
    def _mono_str(pairs) -> str:
        return "*".join(name if e == 1 else f"{name}^{e}" for name, e in pairs)

    def __str__(self):
        terms = sorted(((_decode(k), c) for k, c in self.terms.items()),
                       key=lambda t: (sum(e for _, e in t[0]), t[0]))
        return render_sum((self._mono_str(m), c) for m, c in terms)

    def __repr__(self):
        return f"MPoly({self})"


class PolyMatrix:
    """Square matrix with MPoly entries: a container of rows, with no
    arithmetic (``genmat`` multiplies matrices on lists of rows)."""

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

    Memoized on column subsets, so an n x n matrix has at most 2^n minors;
    fine up to ~10x10, which covers the n x n Bezout matrices of the
    discriminants (n <= 8 from the CLI).
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

