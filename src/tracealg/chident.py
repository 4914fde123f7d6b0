"""Characteristic-coefficient and Cayley-Hamilton trace polynomials.

Builds the formal coefficients sigma_i(x) from Newton's recursion between
power sums and elementary symmetric functions, the one-variable polynomial
CH_n(x), and the multilinear forms T_sigma, T_k and CH(x_1..x_n) obtained by
summing signed cycle products over symmetric groups.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .freetrace import TracePoly
from .mpoly import MPoly


def _psi(j: int) -> MPoly:
    return MPoly.var(f"psi{j}")


@lru_cache(maxsize=None)
def elementary_from_powersums(k: int) -> MPoly:
    """e_k as a polynomial in the power sums psi_1..psi_k.

    Newton's recursion: (m+1) e_{m+1} = (-1)^m psi_{m+1}
                                        + sum_{i=1}^m (-1)^{i-1} psi_i e_{m+1-i}.
    """
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


def _psi_monomial_to_traces(mono) -> TracePoly:
    traces = []
    for name, exp in mono:
        j = int(name[3:])
        traces.extend([(1,) * j] * exp)
    return TracePoly.monomial((), traces)


@lru_cache(maxsize=None)
def sigma(i: int) -> TracePoly:
    """sigma_i(x): the i-th characteristic coefficient as a pure trace polynomial."""
    if i <= 0:
        raise ValueError("i must be a positive integer")
    ek = elementary_from_powersums(i)
    return TracePoly.sum((c, _psi_monomial_to_traces(MPoly.decode(key)))
                         for key, c in ek.terms.items())


@lru_cache(maxsize=None)
def ch_poly(n: int) -> TracePoly:
    """CH_n(x) = x^n + sum_{i=1}^n (-1)^i sigma_i(x) x^{n-i}, in the variable x1."""
    if n <= 0:
        raise ValueError("n must be a positive integer")
    xw = TracePoly.variable(1)
    terms = dict((xw ** n).terms)
    for i in range(1, n + 1):
        TracePoly.add_product(terms, sigma(i), xw ** (n - i), (-1) ** i)
    return TracePoly(terms)


@dataclass(frozen=True)
class PermCycles:
    """A permutation of {1..size} stored as disjoint cycles covering {1..size}."""

    size: int
    cycles: tuple

    def __post_init__(self):
        seen = sorted(v for cyc in self.cycles for v in cyc)
        if seen != list(range(1, self.size + 1)):
            raise ValueError("cycles must partition {1..size}")

    @property
    def sign(self) -> int:
        return (-1) ** (self.size - len(self.cycles))

    @classmethod
    def from_one_line(cls, images) -> "PermCycles":
        """From one-line notation: images[i] is the image of i+1."""
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
        return cls(n, tuple(cycles))


def t_sigma(perm: PermCycles) -> TracePoly:
    """T_sigma: one trace symbol per cycle of the permutation."""
    return TracePoly.monomial((), perm.cycles)


@lru_cache(maxsize=None)
def t_multilinear(k: int) -> TracePoly:
    """T_k(x_1..x_k) = sum over S_k of sign(sigma) T_sigma."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    perms = (PermCycles.from_one_line(images) for images in permutations(range(1, k + 1)))
    return TracePoly.sum((perm.sign, t_sigma(perm)) for perm in perms)


def _psi_sigma_term(perm: PermCycles, n: int) -> TracePoly:
    """The word-times-traces monomial of one permutation of S_{n+1}.

    The cycle containing n+1 is rotated so that n+1 comes last and then
    dropped; it contributes the word factor, the other cycles trace symbols.
    """
    word = ()
    traces = []
    for cyc in perm.cycles:
        if n + 1 in cyc:
            pos = cyc.index(n + 1)
            word = cyc[pos + 1:] + cyc[:pos]
        else:
            traces.append(cyc)
    return TracePoly.monomial(word, traces)


@lru_cache(maxsize=None)
def ch_multilinear(n: int) -> TracePoly:
    """The multilinear Cayley-Hamilton polynomial CH(x_1..x_n)."""
    if n <= 0:
        raise ValueError("n must be a positive integer")
    perms = (PermCycles.from_one_line(images) for images in permutations(range(1, n + 2)))
    return TracePoly.sum(((-1) ** n * perm.sign, _psi_sigma_term(perm, n)) for perm in perms)


def polarize(p: TracePoly) -> TracePoly:
    """Full polarization of a homogeneous polynomial in x_1.

    The multilinear component of p(x_1 + ... + x_k), k the homogeneous
    degree: each term contributes one monomial per bijection between its k
    letter occurrences and x_1..x_k.  Restitution then recovers k! times the
    input.
    """
    if p.variables() - {1}:
        raise ValueError("polarize expects a polynomial in a single variable")
    degrees = p.term_degrees()
    if len(degrees) != 1:
        raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
    k = degrees.pop()
    if k == 0:
        raise ValueError("cannot polarize a constant")
    return TracePoly.sum((c, monomial)
                         for (w, traces), c in p.terms.items()
                         for monomial in _relabelings(w, traces, k))


def _relabelings(w, traces, k: int):
    """The term w * prod tr(t) with its k letter occurrences relabeled by
    each permutation of x_1..x_k, in reading order."""
    for images in permutations(range(1, k + 1)):
        pos = len(w)
        trace_words = []
        for t in traces:
            trace_words.append(images[pos:pos + len(t)])
            pos += len(t)
        yield TracePoly.monomial(images[:len(w)], trace_words)


def restitute(p: TracePoly) -> TracePoly:
    """Set every variable of p equal to x_1."""
    return p.substitute({v: TracePoly.variable(1) for v in p.variables()})
