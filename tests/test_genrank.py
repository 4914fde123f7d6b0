"""Generic-element algebra ranks over the trace fraction field."""
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from tracealg import linalg
from tracealg.characters import character_table
from tracealg.findim import (dual_numbers, make_algebra, quotient_algebra,
                             trace_kernel, weighted_semisimple)
from tracealg.genrank import _RankEngine, generic_algebra_rank, generic_element_name
from tracealg.mpoly import MPoly
from tracealg.pseudochar import PseudoCharTable, group_algebra, symmetric_group_3
from tracealg.strata import enumerate_types

from mpoly_helpers import substitute


class TestDualNumbers:
    def test_rank_is_ell_plus_one(self):
        for ell in (1, 2, 3):
            report = generic_algebra_rank(dual_numbers(), ell)
            assert report.rank == ell + 1
            assert report.stabilized

    def test_flags_the_uncertified_independents(self):
        # beyond the function-field rank the independence of the extra
        # generic elements has no finite certificate; the report says so
        report = generic_algebra_rank(dual_numbers(), 2)
        assert report.unverified_words == [(2,)]
        assert not report.fully_certified

    def test_never_takes_the_gram_shortcut(self):
        # eps^2 = 0 and t(eps) = 0 make the basis Gram matrix singular, so
        # words of full rank at a point are not enough for the shortcut
        engine = _RankEngine(dual_numbers(), 2, seed=0)
        words = [(), (1,)]
        assert linalg.rank([list(engine.word_at(w, 0)) for w in words]) == 2
        assert not engine.full_rank_nondegenerate(words)
        assert not generic_algebra_rank(dual_numbers(), 2).nondegenerate_shortcut


class TestSemisimple:
    @pytest.mark.parametrize("pairs,dim", [
        ([(2, 1)], 4),
        ([(1, 1), (1, 2)], 2),
        ([(1, 1)], 1),
    ])
    def test_rank_equals_dimension(self, pairs, dim):
        algebra = weighted_semisimple(pairs)
        report = generic_algebra_rank(algebra, 2)
        assert report.rank == dim == algebra.dim
        assert report.stabilized and report.fully_certified

    def test_all_block_types_up_to_three(self):
        for n in (1, 2, 3):
            for stype in enumerate_types(n):
                algebra = weighted_semisimple(stype.pairs)
                report = generic_algebra_rank(algebra, 2)
                assert report.rank == algebra.dim, stype
                assert report.stabilized

    def test_explicit_weighted_line_pair(self):
        # Q + Q with t(x, y) = x + 2y has rank 2 over its trace field
        algebra = weighted_semisimple([(1, 1), (1, 2)])
        report = generic_algebra_rank(algebra, 2)
        assert report.rank == 2
        assert report.nondegenerate_shortcut


class TestReportShape:
    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            generic_algebra_rank(dual_numbers(), 0)

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError, match="degree_cap"):
            generic_algebra_rank(weighted_semisimple([(2, 1)]), 2, degree_cap=1)

    def test_inconclusive_at_cap_is_reported(self):
        # a trace that is identically zero never stabilizes: every monomial
        # looks independent and no relation can exist
        zero_trace = make_algebra(
            [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
            unit=[1, 0], trace_vector=[0, 0], labels=("1", "eps"))
        report = generic_algebra_rank(zero_trace, 2, degree_cap=2)
        assert not report.stabilized
        assert report.status == "inconclusive"

    def test_deterministic_given_seed(self):
        r1 = generic_algebra_rank(dual_numbers(), 2, seed=5)
        r2 = generic_algebra_rank(dual_numbers(), 2, seed=5)
        assert r1.basis_words == r2.basis_words
        assert r1.rank == r2.rank


def test_integral_algebra_specializes_in_int():
    engine = _RankEngine(weighted_semisimple([(1, 1), (2, 1)]), 2, seed=3)
    trace_of = engine.a.trace_of
    for p in range(len(engine.points)):
        values = [c for w in [(1,), (1, 2), (2, 2, 1)] for c in engine.word_at(w, p)]
        values.append(trace_of(engine.word_at((1,), p)) * trace_of(engine.word_at((1, 2), p)))
        assert all(type(v) is int for v in values)


# -- relations from one exact null space per degree -------------------------

def _relation_parts(algebra, ell, relation, w):
    """t_0 and the residue sum sign * c * T_u * v(word) of a relation, by an
    evaluation of its own: generic elements as ``MPoly`` coordinates, each
    word multiplied out from the unit, each trace taken afresh."""
    generic = {i: tuple(MPoly.var(generic_element_name(i, j)) for j in range(algebra.dim))
               for i in range(1, ell + 1)}

    def value(word):
        out = tuple(MPoly.const(c) for c in algebra.unit)
        for letter in word:
            out = algebra.multiply(out, generic[letter])
        return out

    t0 = MPoly.const(0)
    residue = [MPoly.const(0)] * algebra.dim
    for word, sign, multiset, c in relation:
        t = MPoly.const(c)
        for cyc in multiset:
            t = t * algebra.trace_of(value(cyc))
        if word == w:
            t0 = t0 + t
        residue = [r + sign * t * x for r, x in zip(residue, value(word))]
    return t0, residue


def test_no_relation_for_the_second_dual_number_generic_element():
    # over the trace field of the dual numbers, g2 is independent of 1 and g1
    # (rank ell + 1), so no degree the search reads holds a relation
    engine = _RankEngine(dual_numbers(), 2, seed=0)
    assert engine.find_relation([(), (1,)], (2,)) is None


def test_the_cayley_hamilton_relation_of_m2_holds_exactly():
    # g^2 = tr(g) g - det(g) on M2: a relation in degree 2 with t_0 != 0
    algebra = weighted_semisimple([(2, 1)])
    relations = [_RankEngine(algebra, 1, seed).find_relation([(), (1,)], (1, 1))
                 for seed in range(3)]
    relation = relations[0]
    assert relation is not None
    assert relations[1:] == [relation, relation]     # no random draw decides it
    assert {len(word) + sum(map(len, u)) for word, _s, u, _c in relation} == {2}
    t0, residue = _relation_parts(algebra, 1, relation, (1, 1))
    assert t0 and not any(residue)


# -- one structure-constant product for every coefficient ring ----------------

def _s3_quotient():
    """Q[S3] with the trace of its 2-dimensional character, modulo the trace
    kernel: a 4-dimensional algebra whose unit is not a basis vector and
    whose structure constants include -1."""
    s3 = symmetric_group_3()
    chi = next(c for c in character_table(s3) if c[s3.identity] == 2)
    a = group_algebra(PseudoCharTable(s3, 2, tuple(chi)))
    return quotient_algebra(a, trace_kernel(a))[0]


PRODUCT_ALGEBRAS = {
    "dual": dual_numbers(),
    "M2": weighted_semisimple([(2, 1)]),
    "Q+M2w2": weighted_semisimple([(1, 1), (2, 2)]),
    "S3 quotient": _s3_quotient(),
    # tests/test_findim.py's strange trace, which fails every CH identity
    "strange": make_algebra([[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                            unit=[1, 0], trace_vector=[2, 1]),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_ALGEBRAS)),
       st.lists(st.lists(st.integers(1, 2), max_size=4), min_size=1, max_size=3),
       st.integers(0, 3), st.data())
def test_one_product_for_every_coefficient_ring(name, words, p, data):
    """The symbolic word of generic elements, specialized, is the word of
    the specialized elements; ``int`` and ``Fraction`` coordinates give
    equal products."""
    algebra = PRODUCT_ALGEBRAS[name]
    engine = _RankEngine(algebra, 2, seed=p)
    point = {generic_element_name(i, j): c
             for i, gen in engine.points[p].items() for j, c in enumerate(gen)}
    for w in map(tuple, words):
        specialized = tuple(substitute(c, point).constant_value()
                            for c in engine.symbolic_word(w))
        assert specialized == engine.word_at(w, p)
        assert substitute(engine.symbolic_trace(w), point).constant_value() == \
            algebra.trace_of(engine.word_at(w, p))
    coords = st.lists(st.integers(-5, 5), min_size=algebra.dim, max_size=algebra.dim)
    x, y = data.draw(coords), data.draw(coords)
    assert algebra.multiply(x, y) == \
        algebra.multiply([Fraction(c) for c in x], [Fraction(c) for c in y])


@pytest.mark.parametrize("name", sorted(PRODUCT_ALGEBRAS))
def test_the_basis_gram_decides_the_shortcut_like_the_words_gram(name):
    """The oracle: d words of rank d at some point whose trace Gram matrix
    t(v_i v_j) = V G V^T is nonsingular there.  ``full_rank_nondegenerate``
    reads the basis Gram matrix G instead, once per engine."""
    algebra = PRODUCT_ALGEBRAS[name]
    d = algebra.dim
    engine = _RankEngine(algebra, 2, seed=0)
    words = [w for k in range(3) for w in product((1, 2), repeat=k)]
    for basis in combinations(words, d):
        expected = False
        for p in range(len(engine.points)):
            vecs = [engine.word_at(w, p) for w in basis]
            gram = [[algebra.trace_of(algebra.multiply(x, y)) for y in vecs] for x in vecs]
            expected |= linalg.rank(vecs) == linalg.rank(gram) == d
        assert engine.full_rank_nondegenerate(list(basis)) is expected, basis
