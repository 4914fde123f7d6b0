"""Exact evaluation of trace polynomials on generic and concrete matrices.

Trace-identity checking is exact, with one of two certificates (see
``is_trace_identity``).  The general one is symbolic: a polynomial is an
identity of n x n matrices iff it vanishes on matrices of fresh commuting
indeterminates.  Trace polynomials commute with simultaneous conjugation,
so one of those matrices may be a generic diagonal one.  The other decides
a multilinear polynomial whose terms fill whole conjugacy classes of a
symmetric group with one coefficient each, by the characters of that group
(Procesi 1976, Razmyslov 1974), with no matrix formed.
``evaluate`` is the one evaluator, for generic and concrete matrices alike:
it folds a trie of the terms by Horner's rule, so sums cancel before they
are multiplied and a common factor is multiplied once (see ``evaluate``).
The fold runs over two entry rings, which differ only in the steps that
touch entries: term dicts in monomial keys private to the call
(``_TermDicts``), which ``evaluate`` and ``is_trace_identity`` use, and
plain ``int``/``Fraction`` numbers (``_Numbers``), which the integer
trials of ``random_counterexample`` use.  The private keys give each entry
variable a field of w = bit_length(D E) bits, D the largest term degree of
p and E the largest exponent in an entry; no monomial the fold forms has
an exponent above D E, so keys multiply by plain ``+`` with no carry and
no guard check, and they are only as wide as the input needs (``_pack``
for ``evaluate``'s MPoly matrices, ``_generic_rows`` for the identity check).
Random integer search is only an accelerator for finding counterexamples:
it clears the denominators of p and folds int entries, and a witness is
returned only when its exact evaluation is nonzero.

The discriminant of a one-variable diagonal model is the determinant of
the n x n Bezout matrix of its characteristic polynomial and that
polynomial's derivative.  Its vanishing on the model is certified by one
kernel vector of the same matrix built in elementary-symmetric coordinates,
where every eigenvalue but one of the most repeated enters only through
their elementary symmetric functions (see ``discriminant_relation``).
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import lcm
from operator import add, mul

from .chident import character_column, class_size
from .freetrace import TracePoly
from .mpoly import EXPONENT_BOUND, MPoly, PolyMatrix, determinant
from .sparse import add_terms


def entry_name(i: int, h: int, k: int) -> str:
    """Variable name of the (h,k) entry of the i-th generic matrix."""
    return f"xi{i}_{h}_{k}"


def generic_matrix(i: int, n: int) -> PolyMatrix:
    """The n x n matrix of fresh commuting indeterminates for variable i."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return PolyMatrix([[MPoly.var(entry_name(i, h, k)) for k in range(1, n + 1)]
                       for h in range(1, n + 1)])


def rational_matrix(rows) -> PolyMatrix:
    """A matrix of constants (ints or Fractions) as a PolyMatrix."""
    return PolyMatrix([[MPoly.const(x) for x in row] for row in rows])


def _add_product(out: dict, a: dict, b: dict) -> None:
    """out += a * b on term dicts in one call's packed keys (see ``_pack``),
    in place on out: a product's key is the plain sum of its factors' keys."""
    if len(a) > len(b):
        a, b = b, a     # the longer factor in the inner loop, set up once
    get = out.get
    b_items = b.items()
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
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


def _add_matrix_product(out: list, a: list, b: list) -> list:
    """out += A B on lists of rows of term dicts, in place on out."""
    for out_row, a_row in zip(out, a):
        for a_entry, b_row in zip(a_row, b):
            if a_entry:
                for acc, b_entry in zip(out_row, b_row):
                    if b_entry:
                        _add_product(acc, a_entry, b_entry)
    return out


class _TermDicts:
    """The polynomial entry ring of ``_fold``: a scalar or a matrix entry is
    a term dict from packed monomial keys private to the call (see
    ``_pack``) to int or Fraction coefficients, grown in place, and a
    matrix is a list of rows.  A product's key is the sum of its factors'
    keys, with no guard check: every field is wide enough.

    An entry ring gives ``_fold`` the zero and constant scalars, the
    identity matrix and the five steps that touch entries: the prefix
    product U X, the trace tr(U X), the trace edge acc + t s, the letter
    edge out + X (M + s I), and M + s I at the root.  A step may grow acc,
    out or M in place and returns the result; it never changes a matrix of
    the assignment or a prefix value.
    """

    @staticmethod
    def identity(n):
        return [[{0: 1} if h == k else {} for k in range(n)] for h in range(n)]

    @staticmethod
    def zero():
        return {}

    @staticmethod
    def constant(c):
        return {0: c}

    @staticmethod
    def product(u, x):
        return _add_matrix_product([[{} for _ in x] for _ in u], u, x)

    @staticmethod
    def trace_product(u, x):
        """tr(U X) as the sum of U[h][k] * X[k][h]; U X itself is never formed."""
        out = {}
        for u_row, x_col in zip(u, zip(*x)):
            for u_entry, x_entry in zip(u_row, x_col):
                if u_entry and x_entry:
                    _add_product(out, u_entry, x_entry)
        return out

    @staticmethod
    def add_trace_edge(acc, t, s):
        """acc + t s, in place on acc."""
        _add_product(acc, t, s)
        return acc

    @staticmethod
    def plus_scalar(m, s, n):
        """M + s I, in place on M when there is one."""
        if m is None:
            return [[dict(s) if h == k else {} for k in range(n)] for h in range(n)]
        if s:
            for h in range(n):
                add_terms(m[h][h], s.items())
        return m

    @staticmethod
    def add_letter_edge(out, x, m, s, n):
        """out + X (M + s I), in place on out when there is one."""
        if out is None:
            out = [[{} for _ in range(n)] for _ in range(n)]
        return _add_matrix_product(out, x, _TermDicts.plus_scalar(m, s, n))


class _Numbers:
    """The number entry ring of ``_fold`` (see ``_TermDicts``): a scalar or
    a matrix entry is an ``int`` or a ``Fraction``, and a matrix is a list
    of rows."""

    @staticmethod
    def identity(n):
        return [[int(h == k) for k in range(n)] for h in range(n)]

    @staticmethod
    def zero():
        return 0

    @staticmethod
    def constant(c):
        return c

    @staticmethod
    def product(u, x):
        cols = list(zip(*x))
        return [[sum(map(mul, row, col)) for col in cols] for row in u]

    @staticmethod
    def trace_product(u, x):
        """tr(U X) as the sum of U[h][k] * X[k][h]."""
        return sum(map(mul, chain.from_iterable(u), chain.from_iterable(zip(*x))))

    @staticmethod
    def add_trace_edge(acc, t, s):
        return acc + t * s

    @staticmethod
    def plus_scalar(m, s, n):
        if m is None:
            return [[s if h == k else 0 for k in range(n)] for h in range(n)]
        if s:
            for h in range(n):
                m[h][h] += s
        return m

    @staticmethod
    def add_letter_edge(out, x, m, s, n):
        product = _Numbers.product(x, _Numbers.plus_scalar(m, s, n))
        if out is None:
            return product
        return [list(map(add, a, b)) for a, b in zip(out, product)]


def _term_trie(p: TracePoly) -> tuple:
    """The term trie of p, as the lists (parent, edge, coefficient).

    Node 0 is the root; node i > 0 hangs from parent[i] by edge[i], a
    letter (int) or a trace word (tuple).  A term (w, traces) is the path of
    the letters of w and then the trace words, in key order, and its
    coefficient sits at the end of that path; coefficient[i] is 0 where no
    term ends.  Nodes are made after their parents.  The trie depends on p
    alone, so one trie serves every fold of p (see ``random_counterexample``).
    """
    children = {}   # (node, edge) -> child node
    parent, edge, coefficient = [None], [None], [0]
    for (w, traces), c in p.terms.items():
        node = 0
        for label in (*w, *traces):
            child = children.get((node, label))
            if child is None:
                child = children[node, label] = len(parent)
                parent.append(node)
                edge.append(label)
                coefficient.append(0)
            node = child
        coefficient[node] = c
    return parent, edge, coefficient


def _fold(trie: tuple, matrices, n: int, ring) -> list:
    """The rows of the polynomial whose ``_term_trie`` is ``trie`` at
    ``matrices``, in the entry ring ``ring`` (``_TermDicts`` or
    ``_Numbers``); see ``evaluate``."""
    identity = ring.identity(n)
    prefixes = {}   # a trie of evaluated prefixes: letter -> (value, longer prefixes)

    def word_value(w):
        """Walk the longest evaluated prefix of w, then extend it letter by letter."""
        value, longer = identity, prefixes
        for letter in w:
            node = longer.get(letter)
            if node is None:
                node = longer[letter] = (ring.product(value, matrices[letter]), {})
            value, longer = node
        return value

    parent, edge, coefficient = trie
    scalar = [ring.constant(c) if c else ring.zero() for c in coefficient]
    matrix = [None] * len(parent)             # node -> its matrix part
    trace_values = {(): ring.constant(n)}     # trace word -> its trace
    for node in range(len(parent) - 1, 0, -1):
        s, m, label, up = scalar[node], matrix[node], edge[node], parent[node]
        scalar[node] = matrix[node] = None
        if type(label) is tuple:
            # a trace edge: the node and everything below it are scalars
            if not s:
                continue
            t = trace_values.get(label)
            if t is None:
                t = trace_values[label] = ring.trace_product(word_value(label[:-1]),
                                                             matrices[label[-1]])
            scalar[up] = ring.add_trace_edge(scalar[up], t, s)
        elif m is not None or s:
            matrix[up] = ring.add_letter_edge(matrix[up], matrices[label], m, s, n)
    return ring.plus_scalar(matrix[0], scalar[0], n)


def _degree(p: TracePoly) -> int:
    """The largest number of letters in one term of p, those of its word and
    of its trace words together."""
    return max((len(w) + sum(map(len, traces)) for w, traces in p.terms), default=0)


def _pack(matrices, degree: int) -> tuple:
    """``evaluate``'s PolyMatrix values ``matrices`` as lists of rows of term
    dicts in keys private to one fold of a polynomial of ``degree``
    (``_degree``), returned as (rows by variable, field names, field width).

    The entry variables are numbered in order of first appearance, and
    variable j gets bits j w to j w + w - 1 of a plain ``int``, with
    w = max(1, bit_length(D E)), D the degree and E the largest exponent of
    a variable in an entry (1 for generic matrices, 0 for constants).
    Every monomial the fold forms is a product of entries along one term's
    path, at most D of them, so no exponent exceeds D E < 2^w: no field
    carries into the next, and keys multiply by plain ``+``.  The keys are
    as wide as the input needs, not as wide as ``mpoly``'s process-wide
    table of 16-bit fields.
    """
    decoded = {}    # mpoly key -> its (name, exponent) pairs
    for m in matrices.values():
        for row in m.rows:
            for entry in row:
                for key in entry.terms:
                    if key not in decoded:
                        decoded[key] = MPoly.decode(key)
    index = {}      # name -> field number
    top = 0
    for pairs in decoded.values():
        for name, e in pairs:
            index.setdefault(name, len(index))
            top = max(top, e)
    width = max(1, (degree * top).bit_length())
    local = {key: sum(e << (index[name] * width) for name, e in pairs)
             for key, pairs in decoded.items()}
    rows = {i: [[{local[k]: c for k, c in entry.terms.items()} for entry in row]
                for row in m.rows]
            for i, m in matrices.items()}
    return rows, list(index), width


def _unpack(rows, names: list, width: int) -> PolyMatrix:
    """Folded rows in the keys of ``_pack`` as a PolyMatrix: each monomial
    goes through ``MPoly.monomial``, which raises ``OverflowError`` on an
    exponent of 2^15 or more."""
    mask = (1 << width) - 1

    def term(key, c):
        pairs = []
        for name in names:
            if not key:
                break
            if key & mask:
                pairs.append((name, key & mask))
            key >>= width
        return MPoly.monomial(pairs, c)

    return PolyMatrix([[MPoly.sum(term(k, c) for k, c in entry.items())
                        for entry in row] for row in rows])


def evaluate(p: TracePoly, assignment, n: int) -> PolyMatrix:
    """Evaluate p with each variable mapped to an n x n PolyMatrix.

    Words evaluate by matrix product, trace symbols by the matrix trace,
    and the empty trace symbol tr(1) by the scalar n.

    The terms are read into one trie (``_term_trie``).  Every node stands
    for the sum over the terms below it of their coefficient times the rest
    of their path, and the trie is folded from the leaves up (Horner's
    rule):

    - a trace edge t adds tr(t) times the child's sum to its parent's
      scalar, since traces are scalars and commute with everything;
    - a letter edge a adds X_a times the child's sum (its matrix plus its
      scalar times I) to its parent's matrix, by distributivity.

    So the root's matrix plus its scalar times I is the sum of the terms.
    Sums cancel at inner nodes before they are multiplied, and a factor
    common to a subtree is multiplied once.  Each distinct tr(t) is
    computed once per call, as tr(U X) with U the value of t without its
    last letter, found in a trie of evaluated word prefixes, and X that
    letter's matrix.  Nodes are made after their parents, so the fold
    visits them in reverse order of creation, with no recursion.

    The matrices of p's variables are first packed into monomial keys
    private to the call, only as wide as p's degree and their exponents
    need (``_pack``), and the fold runs over term dicts in those keys
    (``_TermDicts``); the rows are unpacked into MPoly keys at the end,
    which raises ``OverflowError`` if an exponent of the result reaches
    2^15.  ``random_counterexample`` runs the same fold over plain ``int``
    entries (``_Numbers``).
    """
    for i, m in assignment.items():
        if m.size != n:
            raise ValueError(f"matrix for x{i} has size {m.size}, expected {n}")
    variables = sorted(p.variables())
    missing = [v for v in variables if v not in assignment]
    if missing:
        raise ValueError(f"variable x{missing[0]} has no matrix assigned")
    rows, names, width = _pack({i: assignment[i] for i in variables}, _degree(p))
    return _unpack(_fold(_term_trie(p), rows, n, _TermDicts), names, width)


def _integral(p: TracePoly) -> TracePoly:
    """p scaled by the lcm of its coefficient denominators: it vanishes
    exactly where p does, and its evaluations run over int.  Each scaled
    coefficient is formed in int arithmetic, with no Fraction product."""
    denom = lcm(*(c.denominator for c in p.terms.values()))
    return TracePoly._wrap({k: c.numerator * (denom // c.denominator)
                            for k, c in p.terms.items()})


def _refuse_long_terms(p: TracePoly) -> None:
    """Raise ``OverflowError`` if a term of p holds 2^15 or more occurrences
    of one variable: a stated bound of the identity check, not a limit of
    its keys, set at ``mpoly``'s bound on exponents, which ``evaluate``
    would meet on the generic value of such a term."""
    for w, traces in p.terms:
        if len(w) + sum(map(len, traces)) >= EXPONENT_BOUND:
            var, times = Counter(chain(w, *traces)).most_common(1)[0]
            if times >= EXPONENT_BOUND:
                raise OverflowError(
                    f"a term holds x{var} {times} times; the identity check takes "
                    f"terms with fewer than 2^15 = {EXPONENT_BOUND} occurrences of one variable")


def _class_weights(p: TracePoly):
    """p as a central element of Q[S_M], or None when it is not one (see
    ``is_trace_identity``): {K: c_K |K|} over the cycle types K present.

    Each term must read each of p's m variables exactly once and hold no
    tr(1).  A pure trace term is then the permutation of the variables
    whose cycles are its trace words (M = m); when some term has a word
    part, p is paired with a fresh variable y, tr(p y), and a term's word w
    becomes the trace word w y, the cycle through y (M = m + 1; a term with
    no word gets y as a fixed point).  Keys are canonical (each trace word
    its least rotation, the trace words sorted), so distinct terms are
    distinct permutations, and the class K of cycle lengths K is filled
    exactly when |K| terms have those cycle lengths.  p is central when
    every class present is filled, all with one coefficient.
    """
    m = len(p.variables())
    if not m:
        return None
    paired = any(w for w, _ in p.terms)
    classes = {}    # cycle type -> [coefficient, terms read]
    for (w, traces), c in p.terms.items():
        lengths = [len(t) for t in traces]
        if paired:
            lengths.append(len(w) + 1)
        if (sum(lengths) != (m + 1 if paired else m) or 0 in lengths
                or len(set(chain(w, *traces))) != m):
            return None
        cycle_type = tuple(sorted(lengths))
        entry = classes.get(cycle_type)
        if entry is None:
            classes[cycle_type] = [c, 1]
        elif entry[0] != c:
            return None
        else:
            entry[1] += 1
    weights = {}
    for cycle_type, (c, count) in classes.items():
        if count != class_size(cycle_type):
            return None
        weights[cycle_type] = c * count
    return weights


def _central_identity(weights: dict, n: int) -> bool:
    """Whether the central element of Q[S_M] with class weights
    {K: c_K |K|} (``_class_weights``) acts as zero on (Q^n)^(tensor M):
    sum over K of c_K |K| chi^lambda(K) = 0 for every partition lambda of M
    with at most n rows (``chident.character_column``)."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    totals = {}     # lambda -> sum over K of c_K |K| chi^lambda(K)
    for cycle_type, weight in weights.items():
        for shape, chi in character_column(cycle_type, n).items():
            totals[shape] = totals.get(shape, 0) + weight * chi
    return not any(totals.values())


def is_trace_identity(p: TracePoly, n: int) -> bool:
    """Exact check that p vanishes identically on n x n matrices.

    A term with 2^15 or more occurrences of one variable is refused with
    ``OverflowError`` before any fold, a stated bound (``_refuse_long_terms``).
    p is then scaled by the lcm of its coefficient denominators, which does
    not change whether it vanishes, so the arithmetic runs over int.  The
    verdict then carries one of two certificates, chosen by a property of p
    alone.

    Characters of S_M, for a central multilinear p (``_class_weights``):
    every term reads each of p's m variables once and has no tr(1), and the
    terms, read as permutations of M points (M = m, or m + 1 after pairing
    a polynomial with a word part with a fresh variable, which keeps the
    verdict because the trace form of M_n is nondegenerate), fill whole
    conjugacy classes K with one coefficient c_K each.  On M_n such a p is
    the trace of a = sum of c_K times the class sum of K acting on
    V^(tensor M), V = Q^n, composed with A_1 tensor .. tensor A_M, and those
    tensors span End(V^(tensor M)); so p vanishes iff a acts as zero
    (Procesi 1976; Razmyslov 1974).  By Schur-Weyl duality V^(tensor M)
    holds the irreducible S_lambda of S_M exactly for the partitions lambda
    of M with at most n rows, and central a acts on it as the scalar
    sum_K c_K |K| chi^lambda(K) / chi^lambda(1).  So p is an identity iff
    those sums vanish (``_central_identity``), at a cost set by M and not
    by n.

    Generic matrices, for every other p (non-central, not multilinear, or
    zero): the variable with the most occurrences in p (the smallest index
    among ties) gets a generic diagonal matrix D, every other variable a
    full generic matrix.  The check keeps its strength (Procesi 1976):
    p(g X g^-1) = g p(X) g^-1 for every invertible g, and matrices with
    distinct eigenvalues, each conjugate to a diagonal one, are
    Zariski-dense in M_n; so p vanishes on all of M_n^k iff
    p(D, X_2, ..., X_k) is the zero polynomial.  Only one
    matrix may be made diagonal: two diagonal matrices commute, and
    x1*x2 - x2*x1 would pass.  The generic matrices are built straight in
    keys private to the call (``_generic_rows``) and ``evaluate``'s fold
    runs on them; its rows are tested for zero as they are, so no MPoly or
    PolyMatrix is built.
    """
    _refuse_long_terms(p)
    p = _integral(p)
    weights = _class_weights(p)
    if weights is not None:
        return _central_identity(weights, n)
    return not any(map(any, _fold(_term_trie(p), _generic_rows(p, n), n, _TermDicts)))


def _generic_rows(p: TracePoly, n: int) -> dict:
    """The matrices ``is_trace_identity`` folds p on, as rows of term dicts
    in keys private to the call: a generic diagonal matrix for the variable
    with the most occurrences in p (the least among ties), a full generic
    matrix for every other.  Each entry is one indeterminate in its own field
    of w = max(1, bit_length(D)) bits, D = ``_degree(p)``, numbered variable
    by variable in increasing order, then row by row; no exponent of the
    fold exceeds D < 2^w, so keys multiply by plain ``+`` as in ``_pack``."""
    variables = sorted(p.variables())
    if variables and n < 1:
        raise ValueError("matrix size must be >= 1")
    occurrences = Counter(chain.from_iterable(chain(w, *traces) for w, traces in p.terms))
    diagonal = min(variables, key=lambda i: (-occurrences[i], i), default=None)
    width = max(1, _degree(p).bit_length())
    fields = count()
    return {i: [[{1 << next(fields) * width: 1} if i != diagonal or h == k else {}
                 for k in range(n)] for h in range(n)]
            for i in variables}


def random_counterexample(p: TracePoly, n: int, trials: int = 10, seed: int = 0):
    """Search for integer matrices, entries in [-3, 3], where p does not vanish.

    Each trial draws the entries of the variables' matrices from
    ``random.Random(seed)``, variable by variable in increasing order and
    row by row, and folds p, its denominators first cleared as in
    ``is_trace_identity``, over plain ``int`` entries: ``evaluate``'s fold
    in the number ring ``_Numbers``, on one term trie built once per call.
    Returns {variable: PolyMatrix} for the first trial with a nonzero exact
    evaluation, or None.
    Finding nothing proves nothing; use is_trace_identity for certainty.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = _integral(p)
    trie = _term_trie(p)
    rng = random.Random(seed)
    variables = sorted(p.variables())
    for _ in range(trials):
        rows = {i: [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                for i in variables}
        if any(map(any, _fold(trie, rows, n, _Numbers))):
            return {i: rational_matrix(r) for i, r in rows.items()}
    return None


# -- one-variable diagonal models ---------------------------------------------

@dataclass(frozen=True)
class DiagonalModel:
    """Diagonal matrix with variable x_i repeated a_i times, plus its
    characteristic coefficients alpha_1..alpha_n as polynomials in the x_i."""

    multiplicities: tuple
    size: int
    matrix: PolyMatrix
    charpoly_coeffs: tuple  # (alpha_1, ..., alpha_n), MPoly in x1..xp


def _times_linear_factors(coeffs: list, values) -> list:
    """The coefficients of c(t) * prod over v in values of (1 + v t).

    ``coeffs`` lists c(t) lowest degree first, in polynomials private to
    the caller: the list and its entries grow in place.  With c = 1,
    coefficient k is e_k(values), by the standard product recursion.
    """
    for v in values:
        coeffs.append(MPoly.zero())
        for j in range(len(coeffs) - 1, 0, -1):
            MPoly.add_product(coeffs[j].terms, coeffs[j - 1], v)
    return coeffs


def diagonal_model(multiplicities) -> DiagonalModel:
    """Build the one-variable diagonal model for the given multiplicities.

    For multiplicities (1, 2) the three closed-form identities relating the
    characteristic coefficients to the eigenvalues, and the scaled degree-2
    minimal polynomial, are verified symbolically on construction.
    """
    mults = tuple(int(a) for a in multiplicities)
    if not mults or any(a < 1 for a in mults):
        raise ValueError("multiplicities must be positive integers")
    n = sum(mults)
    eigenvalues = []
    for idx, a in enumerate(mults, start=1):
        eigenvalues.extend([MPoly.var(f"x{idx}")] * a)
    diag = [[eigenvalues[i] if i == j else MPoly.zero() for j in range(n)]
            for i in range(n)]
    coeffs = tuple(_times_linear_factors([MPoly.one()], eigenvalues)[1:])
    model = DiagonalModel(mults, n, PolyMatrix(diag), coeffs)
    if mults == (1, 2):
        _verify_two_eigenvalue_model(model)
    return model


def _verify_two_eigenvalue_model(model: DiagonalModel) -> None:
    u, v = MPoly.var("x1"), MPoly.var("x2")
    a, b, c = model.charpoly_coeffs
    d = u - v
    checks = [
        (a * a - 3 * b, d * d),
        (a * b - 9 * c, 2 * v * d * d),
        (9 * c + a ** 3 - 4 * a * b, u * d * d),
    ]
    for lhs, rhs in checks:
        if lhs != rhs:
            raise AssertionError(f"eigenvalue identity failed: {lhs} != {rhs}")
    # scaled minimal polynomial (a^2-3b)^2 (X-u)(X-v) kills every diagonal entry
    s = a * a - 3 * b
    for lam in (u, v):
        value = (s * lam - (9 * c + a ** 3 - 4 * a * b)) * \
                (s * lam - Fraction(1, 2) * (a * b - 9 * c))
        if not value.is_zero():
            raise AssertionError("scaled minimal polynomial does not vanish on the model")


def _bezout_matrix(h: list) -> list:
    """The n x n Bezout matrix of h and h', h listed lowest degree first.

    Entry (i, j) is the coefficient of x^i y^j in
    (h(x) h'(y) - h(y) h'(x)) / (x - y): with g = h', for p > q the term
    (h_p g_q - h_q g_p)(x^p y^q - x^q y^p) contributes x^q y^q times
    x^(p-q-1) + x^(p-q-2) y + ... + y^(p-q-1), one unit to each entry
    (q + r, p - 1 - r) with 0 <= r < p - q.  Each pair's coefficient is
    multiplied once and added to its p - q entries.
    """
    n = len(h) - 1
    g = [(i + 1) * h[i + 1] for i in range(n)] + [MPoly.zero()]
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for p in range(1, n + 1):
        for q in range(p):
            c = {}
            MPoly.add_product(c, h[p], g[q])
            MPoly.add_product(c, h[q], g[p], -1)
            if c:
                for r in range(p - q):
                    add_terms(rows[q + r][p - 1 - r], c.items())
    return [[MPoly._wrap(e) for e in row] for row in rows]


def _monic_coefficients(a: list) -> list:
    """t^n - a_1 t^(n-1) + a_2 t^(n-2) - ... lowest degree first."""
    n = len(a)
    return [a[n - 1 - i] if (n - i) % 2 == 0 else -a[n - 1 - i]
            for i in range(n)] + [MPoly.one()]


def generic_discriminant(n: int) -> MPoly:
    """Discriminant of t^n - a1 t^{n-1} + a2 t^{n-2} - ... in symbols a1..an.

    Computed as the determinant of the n x n Bezout matrix of the
    polynomial h and its t-derivative (``_bezout_matrix``).  Since h is
    monic of degree n and h' has degree n - 1, that determinant is
    (-1)^(n(n-1)/2) Res(h, h'), which is the discriminant; the tests check
    the sign against the Sylvester resultant for n = 2..7.  The
    determinant's Laplace memo has 2^n column subsets, against 2^(2n-1)
    for the (2n-1) x (2n-1) Sylvester matrix.
    """
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    a = [MPoly.var(f"a{j}") for j in range(1, n + 1)]
    return determinant(_bezout_matrix(_monic_coefficients(a))).primitive()


def repeated_root_coordinates(n: int, m: int) -> tuple:
    """a_1..a_n of a degree-n characteristic polynomial with an m-fold root.

    a_j is coefficient j of (1 + f_1 t + ... + f_{n-m} t^{n-m}) (1 + y t)^m
    in fresh symbols f_i and y.  The characteristic polynomial of the
    diagonal model with multiplicities (1, ..., 1, m) is this one at
    f_i = e_i(simple eigenvalues), and those e_i and the repeated eigenvalue
    are algebraically independent (fundamental theorem of symmetric
    polynomials); so a polynomial in a_1..a_n vanishes on these coordinates
    iff it vanishes on that model's.
    """
    first = [MPoly.one()] + [MPoly.var(f"f{i}") for i in range(1, n - m + 1)]
    return tuple(_times_linear_factors(first, [MPoly.var("y")] * m)[1:])


def discriminant_relation(multiplicities) -> MPoly:
    """A nonzero polynomial relation among the characteristic coefficients.

    The discriminant of the generic degree-n characteristic polynomial
    vanishes identically once some eigenvalue is repeated; the result is
    ``generic_discriminant(n)``, in the symbols a1..an, reduced to
    primitive integer-coefficient form.

    Its vanishing is certified before returning by one kernel vector, in
    ``repeated_root_coordinates(n, m)`` with m the largest multiplicity
    rather than in the eigenvalues.  There y is a root of h of multiplicity
    m >= 2, so h(y) = h'(y) = 0.  With B(c) the Bezout matrix built from
    those coordinates c, row i of B(c) (1, y, ..., y^(n-1)) is the x^i
    coefficient of (h(x) h'(y) - h(y) h'(x)) / (x - y), which is then zero;
    that product is checked to be zero exactly in Q[f, y].  The
    vector's first entry is 1 and Q[f, y] is an integral domain, so
    det B(c) = 0; the determinant is a polynomial in the entries, so
    det B(c) is the discriminant at c.  The model of any multiplicities with
    largest m is a specialization of those coordinates (f_i = e_i of the
    other eigenvalues, repeats included), so vanishing there certifies
    vanishing on the model.  The certificate trusts ``determinant``, which
    the tests compare with rational elimination.
    """
    mults = tuple(int(a) for a in multiplicities)
    if all(a == 1 for a in mults):
        raise ValueError("no forced relation: all multiplicities are 1")
    if any(a < 1 for a in mults):
        raise ValueError("multiplicities must be positive integers")
    n = sum(mults)
    coords = repeated_root_coordinates(n, max(mults))
    y = MPoly.var("y")
    powers = [y ** j for j in range(n)]
    for row in _bezout_matrix(_monic_coefficients(list(coords))):
        acc = {}
        for entry, power in zip(row, powers):
            if entry.terms:
                MPoly.add_product(acc, entry, power)
        if acc:
            raise AssertionError("(1, y, ..., y^(n-1)) is not a kernel vector of the "
                                 "Bezout matrix at the repeated-root coordinates")
    return generic_discriminant(n)
