"""Exact linear algebra over the rationals.

Small dense routines on lists of lists of rationals (``int``, ``Fraction``
or anything ``Fraction`` accepts); everything returns new lists of
``Fraction`` and never mutates its input.  Elimination is fraction-free:
each row is scaled to integers, Gauss-Jordan runs on ``int`` rows kept
primitive (divided by their content), and the pivots are divided out into
``Fraction`` once, at the end.  The canonical form is the reduced row
echelon form, so the output does not depend on how it was computed and
subspace equality is decidable by comparing rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _integer_row(row):
    """The row scaled by a positive rational to coprime integers."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*[x.denominator for x in row])
    row = [x.numerator * (den // x.denominator) for x in row]
    content = gcd(*row)
    return [x // content for x in row] if content > 1 else row


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns) with zero rows dropped.
    """
    mat = [_integer_row(row) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, len(mat)):
            if mat[i][c]:
                break
        else:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        prow = mat[r]
        p = prow[c]
        # rows r.. vanish left of column c, so the pivot row does too
        support = [j for j in range(c, ncols) if prow[j]]
        for i, row in enumerate(mat):
            a = row[c]
            if not a or i == r:
                continue
            g = gcd(a, p)
            scale, f = p // g, a // g
            if scale != 1:
                row = [x * scale for x in row]
            for j in support:
                row[j] -= f * prow[j]
            content = gcd(*row)
            mat[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    echelon = [[Fraction(x, row[c]) if x else _ZERO for x in row]
               for row, c in zip(mat, pivots)]
    return echelon, pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows):
    """Basis of the right null space, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -ech[r][fc]
        basis.append(vec)
    return basis


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def solve(rows, rhs):
    """One solution x of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    ech, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = ech[r][ncols]
    return x
