"""Test-side arithmetic on ``MPoly`` and ``PolyMatrix``, read off ``rows``
and ``MPoly.decode``: the library multiplies matrices on lists of rows and
never substitutes into a polynomial, so only the oracles need these."""
from math import prod

from tracealg.genmat import rational_matrix
from tracealg.mpoly import MPoly, PolyMatrix


def matrix_product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return PolyMatrix([[MPoly.sum(x * y for x, y in zip(row, col)) for col in zip(*b.rows)]
                       for row in a.rows])


def matrix_trace(m: PolyMatrix) -> MPoly:
    return MPoly.sum(row[i] for i, row in enumerate(m.rows))


def scalar_matrix(c, n: int) -> PolyMatrix:
    """c times the n x n identity, for a number c."""
    return rational_matrix([[c if i == j else 0 for j in range(n)] for i in range(n)])


def substitute(p: MPoly, mapping) -> MPoly:
    """p with each variable that ``mapping`` names replaced by its value, an
    MPoly or a number; the other variables stay.  With a number for every
    variable the result is p's value at that point, a constant."""
    def power(name, e):
        value = mapping.get(name)
        if value is None:
            return MPoly.var(name, e)
        return (value if isinstance(value, MPoly) else MPoly.const(value)) ** e

    return MPoly.sum((c, prod((power(name, e) for name, e in MPoly.decode(key)),
                              start=MPoly.one()))
                     for key, c in p.terms.items())
