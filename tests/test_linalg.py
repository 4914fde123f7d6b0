"""Exact linear algebra: the fraction-free elimination against a Fraction
Gauss-Jordan oracle, and subspace membership by pivot reduction."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracealg import linalg
from tracealg.findim import Subspace


def zero_subspace(ambient: int) -> Subspace:
    """The zero subspace of Q^ambient: a Subspace with no rows."""
    return Subspace(ambient, ())


def fraction_rref(rows):
    """Gauss-Jordan over Fraction, pivoting on the first nonzero entry."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_oracle(rows):
    return len(fraction_rref(rows)[0])


def apply(a, x):
    return [sum((Fraction(aij) * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-10**12, 10**12),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**9)),
)


@st.composite
def matrices(draw, max_rows=7, max_cols=7, ncols=None):
    """Rational matrices with large denominators, zero and repeated rows
    and zero columns; tall and wide shapes alike."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(0, max_cols)) if ncols is None else ncols
    rows = [draw(st.lists(_entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero row", "repeat", "combine", "zero column"]))
        i = draw(st.integers(0, nrows - 1))
        j = draw(st.integers(0, nrows - 1))
        if kind == "zero row":
            rows[i] = [0] * ncols
        elif kind == "repeat":
            rows[i] = list(rows[j])
        elif kind == "combine":
            f = draw(_entries)
            rows[i] = [Fraction(x) + f * Fraction(y) for x, y in zip(rows[i], rows[j])]
        elif ncols:
            c = draw(st.integers(0, ncols - 1))
            for row in rows:
                row[c] = 0
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_rref_matches_the_fraction_oracle(rows):
    before = [list(row) for row in rows]
    ech, pivots = linalg.rref(rows)
    assert (ech, pivots) == fraction_rref(rows)
    assert all(type(x) is Fraction for row in ech for x in row)
    assert rows == before


@pytest.mark.parametrize("rows", [[], [[]], [[], []], [[0, 0]], [[0], [0], [0]]])
def test_rref_of_empty_and_zero_matrices(rows):
    assert linalg.rref(rows) == fraction_rref(rows) == ([], [])


def test_rref_accepts_strings_and_mixed_scalars():
    ech, pivots = linalg.rref([["1/2", 1, Fraction(3, 4)], [2, "4", 3]])
    assert (ech, pivots) == fraction_rref([[Fraction(1, 2), 1, Fraction(3, 4)], [2, 4, 3]])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices())
def test_nullspace_is_killed_and_has_the_right_size(rows):
    null = linalg.nullspace(rows)
    assert len(null) == len(rows[0]) - rank_oracle(rows)
    for vec in null:
        assert not any(apply(rows, vec))
    assert rank_oracle(null) == len(null)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_solve_agrees_with_the_rank_test(data):
    rows = data.draw(matrices())
    ncols = len(rows[0])
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(_entries, min_size=ncols, max_size=ncols))
        rhs = apply(rows, x0)
    else:
        rhs = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    x = linalg.solve(rows, rhs)
    consistent = rank_oracle([list(r) + [b] for r, b in zip(rows, rhs)]) == rank_oracle(rows)
    if consistent:
        assert apply(rows, x) == [Fraction(b) for b in rhs]
    else:
        assert x is None


# -- Subspace membership ---------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_contains_agrees_with_the_rank_oracle(data):
    d = data.draw(st.integers(1, 6))
    vectors = data.draw(matrices(max_rows=5, ncols=d))
    space = Subspace.from_vectors(d, vectors)
    coeffs = data.draw(st.lists(_entries, min_size=len(vectors), max_size=len(vectors)))
    inside = [sum((Fraction(c) * Fraction(v[j]) for c, v in zip(coeffs, vectors)), Fraction(0))
              for j in range(d)]
    assert space.contains(inside)
    other = data.draw(st.lists(_entries, min_size=d, max_size=d))
    assert space.contains(other) == (rank_oracle(vectors + [other]) == rank_oracle(vectors))
    reduced = space.reduce(other)
    # membership reduces in exact int/Fraction arithmetic; reduce still
    # hands out Fractions, the coordinates of the quotient projection
    assert all(type(x) is Fraction for x in reduced)
    assert all(reduced[p] == 0 for p in space.pivots)
    assert space.contains([Fraction(a) - b for a, b in zip(other, reduced)])


def test_contains_makes_no_elimination(monkeypatch):
    space = Subspace.from_vectors(4, [[1, 2, 0, 3], [0, 0, 1, Fraction(1, 2)]])
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(1) or real(rows))
    assert space.contains([2, 4, 3, Fraction(15, 2)])
    assert not space.contains([0, 1, 0, 0])
    assert zero_subspace(4).contains([0, 0, 0, 0])
    assert not zero_subspace(4).contains([0, 0, 0, 1])
    assert Subspace.from_vectors(4, [[0, 0, 1, Fraction(1, 2)]]) <= space
    assert len(calls) == 1  # the from_vectors just above, not a contains


@pytest.mark.parametrize("space", [Subspace.from_vectors(2, [[1, 0]]), zero_subspace(2),
                                   Subspace.whole(2)], ids=["line", "zero", "whole"])
@pytest.mark.parametrize("vector", [[1], [1, 0, 5], []], ids=["short", "long", "empty"])
def test_contains_refuses_a_vector_of_the_wrong_length(space, vector):
    with pytest.raises(ValueError, match="ambient dimension 2"):
        space.contains(vector)
