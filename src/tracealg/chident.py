"""Characteristic-coefficient and Cayley-Hamilton trace polynomials.

Builds the formal coefficients sigma_i(x) from Newton's recursion between
power sums and elementary symmetric functions, the one-variable polynomial
CH_n(x), and the multilinear forms T_sigma, T_k and CH(x_1..x_n) obtained by
summing signed cycle products over symmetric groups, and the characters
of those groups (``class_size``, ``character_column``) by which
``genmat.is_trace_identity`` decides a central multilinear polynomial.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .freetrace import TracePoly, sort_traces


@lru_cache(maxsize=None)
def sigma(k: int) -> TracePoly:
    """sigma_k(x): the k-th characteristic coefficient as a pure trace
    polynomial in the power sums tr(x^i), by Newton's identities:
    k sigma_k = sum_{i=1}^k (-1)^(i-1) tr(x^i) sigma_{k-i}, sigma_0 = 1."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    terms = {}
    for i in range(1, k + 1):
        TracePoly.add_product(terms, TracePoly.trace_symbol((1,) * i),
                              sigma(k - i) if i < k else TracePoly.one(),
                              Fraction(-1 if i % 2 == 0 else 1, k))
    return TracePoly._wrap(terms)


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


def permutation_cycles(k: int):
    """Every permutation of {1..k} as ``(sign, cycles)``.

    The walk inserts m = 1..k into each permutation of {1..m-1}, either as
    the new cycle (m,) or right after one of its elements; every
    permutation of {1..m} arises once.  So each cycle is led by its least
    element, which makes it its own least rotation, and the cycles come in
    the order of their leaders.  The sign is (-1)^(k - number of cycles).

    The permutations of {1..m} come in m blocks: m fixed, then m after 1,
    after 2, .., after m-1, each block in the order of {1..m-1}.  Summed
    with signs, a block of T_m gives tr(x_m) T_{m-1} or
    -T_{m-1}(.., x_e x_m, ..), which vanish wherever T_{m-1} does, so a
    running sum of T_m taken in this order returns to zero after each block
    on matrices of size below m - 1.
    """
    level = [()]
    for m in range(1, k + 1):
        rows = [_insert(cycles, m) for cycles in level]
        level = [row[e] for e in range(m) for row in rows]
    for cycles in level:
        yield (-1 if (k - len(cycles)) & 1 else 1), cycles


def _insert(cycles, m: int) -> list:
    """``cycles`` with m added as a new cycle (entry 0) and right after each
    element e (entry e)."""
    row = [None] * m
    row[0] = cycles + ((m,),)
    for i, cyc in enumerate(cycles):
        head, tail = cycles[:i], cycles[i + 1:]
        for pos, e in enumerate(cyc, 1):
            row[e] = head + (cyc[:pos] + (m,) + cyc[pos:],) + tail
    return row


def class_size(cycle_type) -> int:
    """The number of permutations of {1..m} whose cycle lengths are
    ``cycle_type`` (m their sum): m! / z, with z the product over the
    lengths l of l^a a!, a the number of cycles of length l."""
    z = 1
    for length, count in Counter(cycle_type).items():
        z *= length ** count * factorial(count)
    return factorial(sum(cycle_type)) // z


def character_column(cycle_type, rows: int) -> dict:
    """chi^lambda(K) of S_m at the class K of cycle lengths ``cycle_type``,
    for every partition lambda of m = sum(K) with at most ``rows`` rows, as
    {lambda: value} with the zero values left out; lambda is the tuple of
    its parts, largest first.

    Murnaghan-Nakayama, read as p_K = sum over lambda of chi^lambda(K) s_lambda
    in r = min(rows, m) variables, where the s_lambda with more than r rows
    vanish and the others are independent.  A partition with at most r rows
    is a set of r beads on an abacus, bead i at lambda_i + r - i, given as
    the bits of an int.  Multiplying s_nu by the power sum p_k moves one bead
    k places up to an empty place, which adds a rim hook of length k, with
    the sign (-1)^(beads jumped).  So the walk starts at the empty
    partition, beads 0..r-1, and multiplies by one part of K at a time over
    a dict {beads: coefficient}; every partition it reaches has at most r
    rows.
    """
    r = min(rows, sum(cycle_type))
    states = {(1 << r) - 1: 1}
    for k in sorted(cycle_type, reverse=True):
        between = (1 << (k - 1)) - 1     # the k - 1 places a move jumps
        moved = {}
        for beads, c in states.items():
            for pos in range(beads.bit_length()):
                if beads >> pos & 1 and not beads >> (pos + k) & 1:
                    new = beads ^ (1 << pos) ^ (1 << (pos + k))
                    step = -c if (beads >> (pos + 1) & between).bit_count() & 1 else c
                    moved[new] = moved.get(new, 0) + step
        states = {beads: c for beads, c in moved.items() if c}
    column = {}
    for beads, c in states.items():
        places = [pos for pos in range(beads.bit_length()) if beads >> pos & 1]
        parts = [b - i for i, b in enumerate(places)]    # smallest first
        column[tuple(part for part in reversed(parts) if part)] = c
    return column


# The walk lists the cycles of a permutation in the order of their least
# elements, which are distinct, so among cycles of one length that is the
# lexicographic order: sorting by length alone gives the canonical order of
# trace symbols, (length, word).

@lru_cache(maxsize=None)
def t_multilinear(k: int) -> TracePoly:
    """T_k(x_1..x_k) = sum over S_k of sign(sigma) T_sigma.

    Distinct permutations have distinct cycle sets, so every key is
    written once.
    """
    if k <= 0:
        raise ValueError("k must be a positive integer")
    return TracePoly._wrap({((), tuple(sorted(cycles, key=len))): sign
                            for sign, cycles in permutation_cycles(k)})


@lru_cache(maxsize=None)
def ch_multilinear(n: int) -> TracePoly:
    """The multilinear Cayley-Hamilton polynomial CH(x_1..x_n).

    (-1)^n times the sum over S_{n+1} of the sign times one monomial per
    permutation: the cycle through n+1, rotated so that n+1 comes last and
    then dropped, is the word; every other cycle is a trace symbol.  Each
    permutation of S_{n+1} is one of S_n with n+1 fixed (the empty word,
    same sign) or put after one element of a cycle (that cycle, rotated,
    is the word, and the sign flips).  The word determines the cycle
    through n+1, so every key is written once.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")
    flip = -1 if n & 1 else 1
    terms = {}
    for sign, cycles in permutation_cycles(n):
        sign *= flip
        terms[((), tuple(sorted(cycles, key=len)))] = sign
        for i, cyc in enumerate(cycles):
            traces = tuple(sorted(cycles[:i] + cycles[i + 1:], key=len))
            for pos in range(len(cyc)):
                terms[(cyc[pos:] + cyc[:pos], traces)] = -sign
    return TracePoly._wrap(terms)


def polarize(p: TracePoly) -> TracePoly:
    """Full polarization of a homogeneous polynomial in x_1.

    The multilinear component of p(x_1 + ... + x_k), k the homogeneous
    degree: each term contributes one monomial per bijection between its k
    letter occurrences and x_1..x_k, in reading order.  Restitution then
    recovers k! times the input.
    """
    if p.variables() - {1}:
        raise ValueError("polarize expects a polynomial in a single variable")
    degrees = p.term_degrees()
    if len(degrees) != 1:
        raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
    k = degrees.pop()
    if k == 0:
        raise ValueError("cannot polarize a constant")
    # A term of p is fixed by its word length and trace lengths, which every
    # relabeling keeps, so each key gets its coefficient from one term only
    # and no sum cancels.  The relabeled letters are distinct, so a trace's
    # least rotation starts at its least letter.
    terms = {}
    get = terms.get
    for (w, traces), c in p.terms.items():
        spans = []
        pos = len(w)
        for t in traces:
            spans.append((pos, pos + len(t)))
            pos += len(t)
        for images in permutations(range(1, k + 1)):
            trace_words = []
            for start, end in spans:
                t = images[start:end]
                if end - start > 1:
                    low = t.index(min(t))
                    t = t[low:] + t[:low]
                trace_words.append(t)
            key = (images[:len(w)], sort_traces(trace_words))
            terms[key] = get(key, 0) + c
    return TracePoly._wrap(terms)


def restitute(p: TracePoly) -> TracePoly:
    """Set every variable of p equal to x_1."""
    return p._relabel(dict.fromkeys(p.variables(), 1))
