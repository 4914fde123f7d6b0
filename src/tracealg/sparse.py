"""Sparse exact arithmetic shared by TracePoly and MPoly.

A polynomial is a dict ``terms`` from hashable monomial keys to nonzero
exact coefficients, each an ``int`` or a ``Fraction``; no zero coefficient
is ever stored, so equality of polynomials is equality of dicts (an integral
Fraction equals, and hashes like, the same int).  Coefficients enter through
``exact``, which keeps integers as ``int``: integer arithmetic stays on the
fast path, and a Fraction appears only where a denominator does.  A multiple
by an ``int`` or ``Fraction`` is taken through ``exact`` as well, but a sum
or product of two polynomials is not: ``1/2*x + 1/2*x`` may still hold the
integral ``Fraction(1, 1)``.  The ring operations live here once, with
two accumulation primitives: ``sum`` and ``add_product`` build a sum in one
dict, where repeated ``+`` would copy the running total once per summand.
"""
from __future__ import annotations

from fractions import Fraction


def exact(c):
    """``c`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def render_sum(terms) -> str:
    """The sum of (monomial text, coefficient) pairs, in the given order, as
    ``c*m + m - c``: a coefficient of magnitude 1 is dropped before a
    monomial, and the empty monomial prints its coefficient; no terms is 0."""
    chunks = []
    for mono, c in terms:
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks) or "0"


def add_terms(out: dict, items, scale=1) -> None:
    """out += scale * c for each (key, c) pair of ``items``, dropping keys
    whose coefficient cancels."""
    get = out.get
    for k, c in items:
        if scale != 1:
            c = c * scale
        old = get(k)
        if old is None:
            out[k] = c
        else:
            c += old
            if c:
                out[k] = c
            else:
                del out[k]


class SparsePoly:
    """Base class: a subclass sets UNIT_KEY, the key of the monomial 1, and
    the static method key_mul(k1, k2), the key of a product of monomials.
    Values of two different subclasses never combine."""

    __slots__ = ("terms",)
    UNIT_KEY = None

    def __init__(self, terms=None):
        self.terms = {} if terms is None else {k: c for k, c in terms.items() if c != 0}

    @classmethod
    def _wrap(cls, terms: dict):
        """A polynomial owning ``terms``, which must hold no zero coefficient."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls.UNIT_KEY: 1})

    # -- accumulation ---------------------------------------------------
    @classmethod
    def sum(cls, parts):
        """The sum of ``parts`` in one pass; a part is a polynomial of this
        class or a ``(scale, polynomial)`` pair."""
        out = {}
        for part in parts:
            scale = 1
            if isinstance(part, tuple):
                scale, part = part
            if type(part) is not cls:
                raise TypeError(f"cannot add {type(part).__name__} to {cls.__name__}")
            if scale:
                add_terms(out, part.terms.items(), scale)
        return cls._wrap(out)

    @classmethod
    def add_product(cls, out: dict, a, b, scale=1) -> None:
        """out += scale * a * b, in place on the terms dict ``out``."""
        if not scale:
            return
        key_mul = cls.key_mul
        get = out.get
        b_items = b.terms.items()
        for k1, c1 in a.terms.items():
            if scale != 1:
                c1 = c1 * scale
            for k2, c2 in b_items:
                k = key_mul(k1, k2)
                c = c1 * c2
                old = get(k)
                if old is None:
                    out[k] = c
                else:
                    c += old
                    if c:
                        out[k] = c
                    else:
                        del out[k]

    # -- ring structure --------------------------------------------------
    def _coerce(self, other):
        if type(other) is type(self):
            return other
        if isinstance(other, (int, Fraction)):
            return type(self)({self.UNIT_KEY: exact(other)})
        return NotImplemented

    def _plus(self, other, scale):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        add_terms(out, other.terms.items(), scale)
        return self._wrap(out)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._wrap({})
            return self._wrap({k: exact(c * other) for k, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        self.add_product(out, self, other)
        return self._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)
