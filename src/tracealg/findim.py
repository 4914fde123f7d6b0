"""Finite-dimensional algebras with trace, given by structure constants.

An algebra is a basis u_1..u_d, sparse structure constants for u_i u_j, a
unit vector and a trace vector t(u_i).  Construction validates associativity,
the unit law and trace symmetry exhaustively and reports a witness on
failure.  Every product of two basis elements, the Gram matrix t(u_i u_j)
and the validation are read off the structure constants.  Subspaces are
kept in reduced row echelon form, with ``int`` entries where they are
integral, so equality is decidable and membership is a comparison with the
sum of the rows that a vector's pivot entries pick, in integer arithmetic
wherever the rows and the vector are integral.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

from . import linalg
from .sparse import add_terms, exact


class AlgebraValidationError(ValueError):
    """Structure-constant validation failure; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^d, canonical reduced-row-echelon basis.

    ``rows`` must be the canonical reduced row echelon form that
    ``from_vectors`` and ``whole`` build, () for the zero subspace: the rref
    rows with each entry normalized by ``sparse.exact``, so an integral
    entry is an ``int`` and any other a ``Fraction``.  The rows compare and
    hash equal to the ``Fraction`` rows of ``linalg.rref``.  Membership
    compares a vector with the sum of rows its pivot entries pick, and the
    quotient projection reduces a vector against the rows' pivots; both rely
    on this form.
    """

    ambient: int
    rows: tuple

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        ech, _ = linalg.rref(vectors)
        return cls(ambient, tuple(tuple(map(exact, r)) for r in ech))

    @classmethod
    def whole(cls, ambient: int) -> "Subspace":
        return cls.from_vectors(ambient, linalg.identity(ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _reducers(self) -> tuple:
        """(pivot, other nonzero (column, entry) pairs) for each row; the
        entry at the pivot is 1."""
        out = []
        for row in self.rows:
            entries = [(j, x) for j, x in enumerate(row) if x]
            out.append((entries[0][0], tuple(entries[1:])))
        return tuple(out)

    @property
    def pivots(self) -> tuple:
        return tuple(p for p, _ in self._reducers)

    def is_zero(self) -> bool:
        return not self.rows

    def _check_length(self, vector) -> None:
        if len(vector) != self.ambient:
            raise ValueError(f"vector of length {len(vector)} in ambient "
                             f"dimension {self.ambient}")

    def _residue(self, vector) -> list:
        """The vector minus v[p]·row for each row and its pivot p, in exact
        arithmetic: integral entries stay ``int``, as they are for the
        kernels of integral trace forms."""
        self._check_length(vector)
        v = [exact(x) for x in vector]
        for p, entries in self._reducers:
            f = v[p]
            if f:
                v[p] = 0
                for j, x in entries:
                    v[j] -= f * x
        return v

    def reduce(self, vector) -> list:
        """The residue of the vector against the rows, as a list of Fraction.

        The result is zero exactly when the vector lies in the subspace, and
        its entries off the pivots are the vector's image in the quotient.
        """
        return [x if type(x) is Fraction else Fraction(x) for x in self._residue(vector)]

    def contains(self, vector) -> bool:
        self._check_length(vector)
        return self._holds({j: x for j, x in enumerate(vector) if x})

    def _holds(self, terms: dict) -> bool:
        """Whether the vector with these nonzero coordinates lies in the
        subspace: whether it equals the sum over the pivots p of its entry
        at p times the row of p."""
        span = {}
        for p, entries in self._reducers:
            f = terms.get(p)
            if f:
                span[p] = f
                add_terms(span, entries, f)
        return span == terms

    def __add__(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient, self.rows + other.rows)

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(r) for r in self.rows)


@dataclass(frozen=True)
class WeightedType:
    """Block sizes m_i with positive integer trace weights a_i; n = sum a_i m_i."""

    sizes: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ValueError("sizes and weights must be nonempty lists of equal length")
        if any(m < 1 for m in self.sizes) or any(a < 1 for a in self.weights):
            raise ValueError("sizes and weights must be positive")
        pairs = sorted(zip(self.sizes, self.weights))
        object.__setattr__(self, "sizes", tuple(m for m, _ in pairs))
        object.__setattr__(self, "weights", tuple(a for _, a in pairs))

    @property
    def n(self) -> int:
        return sum(m * a for m, a in zip(self.sizes, self.weights))

    def pairs(self):
        return tuple(zip(self.sizes, self.weights))


@dataclass(frozen=True)
class TraceAlgebra:
    """Associative algebra with an F-valued trace.

    The structure constants, unit and trace are exact rationals stored
    through ``sparse.exact``, so integral ones are ``int``.  Elements are
    coordinate vectors; ``add_basis_product`` adds a multiple of a product
    with a basis element to a sparse sum, and ``multiply`` and
    ``word_value`` take any coordinates in ``Fraction``, ``int`` or
    ``MPoly`` (generic elements).  Products of two basis elements
    (``product_table``), the Gram matrix (``gram``) and ``validate`` read
    the structure constants directly.
    """

    dim: int
    labels: tuple
    mul: tuple        # mul[i][j] = tuple of (k, coeff): u_i u_j = sum coeff u_k
    unit: tuple
    trace_vector: tuple
    blocks: tuple = field(default=None, compare=False)  # optional ((m, idxs), ...)

    # -- element arithmetic (coordinate vectors) -----------------------------
    def multiply(self, x, y):
        """Product of coordinate vectors over any ring holding the rational
        structure constants: ``Fraction``, ``int`` or ``MPoly`` coordinates.
        The result starts from the zero of the inputs' own type, which each
        of these types builds when called with no argument."""
        out = [type(x[0])()] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.mul[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                xy = xi * yj
                for k, c in row[j]:
                    out[k] += xy * c
        return tuple(out)

    def add_basis_product(self, terms, items, i, side, scale=1):
        """terms += scale·x·u_i when side is "right", scale·u_i·x when it is
        "left", in place on the dict ``terms`` from coordinates to nonzero
        values, for the vector x given by its (j, x_j) pairs; read off
        column i or row i of the structure constants:
        (x u_i)_k = sum_j x_j c(j, i, k) and (u_i x)_k = sum_j x_j c(i, j, k)."""
        cells = [row[i] for row in self.mul] if side == "right" else self.mul[i]
        for j, xj in items:
            if xj:
                add_terms(terms, cells[j], xj * scale)

    def word_value(self, w, letters, cache):
        """The product letters[w[0]] ... letters[w[-1]], memoized on prefixes.

        ``letters`` is indexed by variable number; ``cache`` maps () to the
        unit in the letters' coordinate ring and collects every prefix.
        """
        got = cache.get(w)
        if got is None:
            got = self.multiply(self.word_value(w[:-1], letters, cache), letters[w[-1]])
            cache[w] = got
        return got

    def trace_of(self, x):
        return sum(xi * t for xi, t in zip(x, self.trace_vector) if xi)

    def basis_vector(self, i):
        return tuple(int(j == i) for j in range(self.dim))

    @property
    def trace_of_unit(self):
        return self.trace_of(self.unit)

    @cached_property
    def gram(self) -> tuple:
        """G[i][j] = t(u_i u_j), the trace form on the basis: the sum of
        c·t(u_k) over the structure constants u_i u_j = sum c u_k."""
        t = self.trace_vector
        return tuple(tuple(exact(sum(c * t[k] for k, c in cell)) for cell in row)
                     for row in self.mul)

    def product_table(self, idxs):
        """table[p][q] = u_i u_j for i = idxs[p] and j = idxs[q], as dense
        coordinate tuples read off the structure constants."""
        out = []
        for i in idxs:
            row = self.mul[i]
            cells = []
            for j in idxs:
                v = [0] * self.dim
                for k, c in row[j]:
                    v[k] += c
                cells.append(tuple(v))
            out.append(cells)
        return out

    def validate(self) -> None:
        """Raise AlgebraValidationError at the first failure of the unit law
        (in basis order), of associativity (triples in lexicographic order)
        or of trace symmetry (pairs i < j), each product a sparse dict
        summed off the structure constants."""
        mul, d, labels = self.mul, self.dim, self.labels
        unit = [(j, x) for j, x in enumerate(self.unit) if x]
        for i in range(d):
            right, left = {}, {}
            for j, x in unit:
                add_terms(right, mul[j][i], x)
                add_terms(left, mul[i][j], x)
            if right != {i: 1} or left != {i: 1}:
                raise AlgebraValidationError(
                    f"unit law fails on basis element {labels[i]}", witness=(i,))
        for i in range(d):
            row_i = mul[i]
            for j in range(d):
                ij, row_j = row_i[j], mul[j]
                for k in range(d):
                    left, right = {}, {}        # (u_i u_j) u_k and u_i (u_j u_k)
                    for m, c in ij:
                        add_terms(left, mul[m][k], c)
                    for m, c in row_j[k]:
                        add_terms(right, row_i[m], c)
                    if left != right:
                        raise AlgebraValidationError(
                            "associativity fails on "
                            f"({labels[i]}, {labels[j]}, {labels[k]})",
                            witness=(i, j, k))
        gram = self.gram
        for i in range(d):
            for j in range(i + 1, d):
                tij, tji = gram[i][j], gram[j][i]
                if tij != tji:
                    raise AlgebraValidationError(
                        f"trace symmetry fails: t({labels[i]}*{labels[j]}) = {tij} "
                        f"but t({labels[j]}*{labels[i]}) = {tji}",
                        witness=(i, j))


def make_algebra(mul, unit, trace_vector, labels=None, blocks=None,
                 validate: bool = True) -> TraceAlgebra:
    """Validated constructor from dense or sparse structure constants.

    mul[i][j] may be a dense coefficient list of length d or a sparse list of
    (k, coeff) pairs.  Raises AlgebraValidationError naming the offending
    basis triple or pair.
    """
    d = len(mul)
    if labels is None:
        labels = tuple(f"u{i}" for i in range(d))
    sparse = []
    for i in range(d):
        row = []
        for j in range(d):
            cell = mul[i][j]
            if cell and isinstance(cell[0], (list, tuple)) and len(cell[0]) == 2:
                entries = ((int(k), exact(c)) for k, c in cell)
            else:
                entries = enumerate(map(exact, cell))
            row.append(tuple((k, c) for k, c in entries if c))
        sparse.append(tuple(row))
    algebra = TraceAlgebra(
        dim=d,
        labels=tuple(labels),
        mul=tuple(sparse),
        unit=tuple(map(exact, unit)),
        trace_vector=tuple(map(exact, trace_vector)),
        blocks=tuple((m, tuple(idxs)) for m, idxs in blocks) if blocks else None,
    )
    if validate:
        algebra.validate()
    return algebra


def weighted_semisimple(wt) -> TraceAlgebra:
    """Block-diagonal sum of matrix algebras with weighted matrix traces.

    Basis elements are the matrix units of each block; the trace of a block
    element is its weight times the ordinary matrix trace, so t(1) = n.
    """
    if not isinstance(wt, WeightedType):
        wt = WeightedType(tuple(p[0] for p in wt), tuple(p[1] for p in wt))
    index = {}
    labels = []
    blocks = []
    pos = 0
    for b, (m, _a) in enumerate(wt.pairs()):
        idxs = []
        for r in range(m):
            for c in range(m):
                index[(b, r, c)] = pos
                labels.append(f"e{b}_{r}{c}")
                idxs.append(pos)
                pos += 1
        blocks.append((m, tuple(idxs)))
    d = pos
    mul = [[[] for _ in range(d)] for _ in range(d)]
    for b, (m, _a) in enumerate(wt.pairs()):
        for r in range(m):
            for c in range(m):
                for r2 in range(m):
                    for c2 in range(m):
                        if c == r2:
                            i, j = index[(b, r, c)], index[(b, r2, c2)]
                            mul[i][j] = [(index[(b, r, c2)], 1)]
    unit = [0] * d
    trace = [0] * d
    for b, (m, a) in enumerate(wt.pairs()):
        for r in range(m):
            unit[index[(b, r, r)]] = 1
            trace[index[(b, r, r)]] = a
    return make_algebra(mul, unit, trace, labels=labels, blocks=blocks, validate=False)


# -- kernels ------------------------------------------------------------------

def trace_kernel(a: TraceAlgebra) -> Subspace:
    """Radical of the bilinear form t(xy): null space of the Gram matrix.

    The result is checked to be a two-sided ideal closed under trace.
    """
    kernel = Subspace.from_vectors(a.dim, linalg.nullspace(a.gram))
    if any(a.trace_of(row) != 0 for row in kernel.rows):
        raise AssertionError("trace kernel is not trace-stable")
    if check_ideal(a, kernel) is not None:
        raise AssertionError("trace kernel is not a two-sided ideal")
    return kernel


def check_ideal(a: TraceAlgebra, space: Subspace):
    """Witness (vector, basis index, side) if space is not a two-sided ideal:
    side "right" means row·u_i leaves the space, "left" u_i·row."""
    for row in space.rows:
        items = [(j, x) for j, x in enumerate(row) if x]
        for i in range(a.dim):
            for side in ("right", "left"):
                product = {}
                a.add_basis_product(product, items, i, side)
                if not space._holds(product):
                    return (row, i, side)
    return None


def radical_kernel(a: TraceAlgebra, ideal: Subspace) -> Subspace:
    """Preimage of the trace kernel of A/I; always contains I.

    For a proper ideal the scalar multiples of 1 meet I trivially, so the
    preimage condition t(x y) * 1 in I collapses to t(x y) = 0, giving
    K(I) = K_A + I; the whole algebra maps to itself.
    """
    if ideal.ambient != a.dim:
        raise ValueError("ideal has wrong ambient dimension")
    witness = check_ideal(a, ideal)
    if witness is not None:
        vec, i, side = witness
        raise AlgebraValidationError(
            f"not a two-sided ideal: {side} multiplication by {a.labels[i]} "
            f"leaves the subspace at {tuple(map(Fraction, vec))}", witness=witness)
    if ideal.contains(a.unit):
        return Subspace.whole(a.dim)
    return trace_kernel(a) + ideal


def quotient_algebra(a: TraceAlgebra, ideal: Subspace):
    """Quotient by a trace-stable two-sided ideal, with the induced trace.

    Returns (quotient, project) where project maps coordinate vectors of a
    to quotient coordinates.  Requires t(ideal) = 0 so the induced trace is
    well defined.
    """
    witness = check_ideal(a, ideal)
    if witness is not None:
        raise AlgebraValidationError("not a two-sided ideal", witness=witness)
    for row in ideal.rows:
        if a.trace_of(row) != 0:
            raise AlgebraValidationError(
                "ideal is not trace-stable; quotient trace undefined", witness=row)
    if ideal.dim == a.dim:
        raise ValueError("cannot form the zero quotient as a unital algebra")

    pivots = set(ideal.pivots)
    free = [j for j in range(a.dim) if j not in pivots]

    def project(vec):
        v = ideal.reduce(vec)
        return tuple(v[j] for j in free)

    mul = [[[v[j] for j in free] for v in map(ideal._residue, row)]
           for row in a.product_table(free)]
    trace = [a.trace_vector[j] for j in free]
    quotient = make_algebra(mul, project(a.unit), trace,
                            labels=tuple(a.labels[j] for j in free), validate=False)
    return quotient, project


# -- Cayley-Hamilton degree ----------------------------------------------------

def ch_identity_failure(a: TraceAlgebra, n: int):
    """Least basis multiset where the multilinear degree-n identity fails.

    The identity is multilinear and symmetric, so testing basis multisets is
    equivalent to testing all basis tuples.  On a multiset S it equals
    (-1)^|S| P(S), by the pseudo-representation recursion (Procesi 1987;
    Chenevier 2014): P(()) = 1 and, with j the last element of S,

        P(S) = t(P(S - j) u_j) 1 - sum_{i in S} u_i P(S - i).

    P is built one multiset size at a time and kept as its nonzero (q, P_q)
    pairs, mostly none or few; equal elements of S give equal terms, so each
    distinct i is expanded once, times its multiplicity.  t(P u_j) is the
    dot product of P with column j of the Gram matrix.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    columns = tuple(zip(*a.gram))   # columns[j][q] = t(u_q u_j)
    unit = tuple((q, x) for q, x in enumerate(a.unit) if x)
    layer = {(): unit}
    for k in range(1, n + 1):
        previous, layer = layer, {}
        for s in combinations_with_replacement(range(a.dim), k):
            column = columns[s[-1]]
            t = sum(x * column[q] for q, x in previous[s[:-1]])
            value = {q: t * x for q, x in unit} if t else {}
            for pos, i in enumerate(s):
                if pos and s[pos - 1] == i:
                    continue
                rest = previous[s[:pos] + s[pos + 1:]]
                if rest:
                    a.add_basis_product(value, rest, i, "left", -s.count(i))
            if k < n:
                layer[s] = tuple(value.items())
            elif value:
                return s
    return None


def ch_degree_multisets(a: TraceAlgebra, n_max: int) -> int:
    """The most basis multisets ``ch_degree(a, n_max)`` builds.

    It tests only n = t(1), when that is an integer in 1..n_max, and
    ``ch_identity_failure`` builds the multisets of every size 1..n over the
    d basis elements: C(d + n, n) - 1 of them.
    """
    n = a.trace_of_unit
    if n != int(n) or not 1 <= n <= n_max:
        return 0
    return comb(a.dim + int(n), int(n)) - 1


def ch_degree(a: TraceAlgebra, n_max: int, diagnostics=None):
    """Least n <= n_max with t(1) = n and the degree-n identity holding.

    A list passed as diagnostics collects one line per rejected n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t1 = a.trace_of_unit
    for n in range(1, n_max + 1):
        if t1 != n:
            if diagnostics is not None:
                diagnostics.append(f"n={n}: t(1) = {t1} != {n}")
            continue
        witness = ch_identity_failure(a, n)
        if witness is None:
            return n
        if diagnostics is not None:
            labels = ", ".join(a.labels[b] for b in witness)
            diagnostics.append(f"n={n}: identity fails on ({labels})")
    return None


# -- weights ------------------------------------------------------------------

def recover_weights(a: TraceAlgebra, blocks=None) -> WeightedType:
    """Recover the trace weights of a split semisimple algebra.

    The block decomposition (list of (m, basis-index tuple)) must be supplied
    or carried by the algebra.  Solves t on block identities; non-integral or
    non-positive weights mean the trace fits no matrix-size normalization.
    """
    blocks = blocks if blocks is not None else a.blocks
    if blocks is None:
        raise ValueError("recover_weights needs the block decomposition")
    sizes = []
    weights = []
    for m, idxs in blocks:
        m = int(m)
        if m * m != len(idxs):
            raise ValueError(f"block of size {m} must have {m * m} basis indices")
        block_unit = _block_identity(a, m, idxs)
        t = a.trace_of(block_unit)
        weight = Fraction(t, m)
        if weight.denominator != 1 or weight <= 0:
            raise AlgebraValidationError(
                f"trace is not n-CH for any n: block weight {weight} "
                "is not a positive integer", witness=(m, t))
        sizes.append(m)
        weights.append(int(weight))
    wt = WeightedType(tuple(sizes), tuple(weights))
    if a.trace_of_unit != wt.n:
        raise AlgebraValidationError(
            f"weights sum to {wt.n} but t(1) = {a.trace_of_unit}")
    return wt


def _block_identity(a: TraceAlgebra, m: int, idxs):
    """Unit of the block subalgebra spanned by the given basis indices."""
    table = a.product_table(idxs)
    system = {}     # (row, rhs) of each distinct equation, in order
    for q, j in enumerate(idxs):
        bj = a.basis_vector(j)
        # e * u_j = u_j and u_j * e = u_j, with e supported on idxs: one
        # equation per coordinate, less those that read 0 = 0
        for products in ([row[q] for row in table], table[q]):
            for k in range(a.dim):
                row = tuple(p[k] for p in products)
                if bj[k] or any(row):
                    system[row, bj[k]] = None
    sol = linalg.solve([row for row, _ in system], [b for _, b in system])
    if sol is None:
        raise AlgebraValidationError("block has no unit: not a matrix block")
    e = [0] * a.dim
    for val, i in zip(sol, idxs):
        e[i] = val
    return tuple(e)


def rescale_trace(a: TraceAlgebra, factor: int) -> TraceAlgebra:
    """Same algebra with trace multiplied by a positive integer."""
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    return replace(a, trace_vector=tuple(factor * t for t in a.trace_vector))


# -- convenient small algebras ---------------------------------------------------

def dual_numbers(trace_of_unit=2, trace_of_eps=0) -> TraceAlgebra:
    """F[eps]/(eps^2) with a prescribed linear trace."""
    mul = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return make_algebra(mul, unit=[1, 0],
                        trace_vector=[trace_of_unit, trace_of_eps],
                        labels=("1", "eps"))
