"""Pseudocharacter axioms, kernels and brute-force character tables."""
from fractions import Fraction

import pytest

from tracealg.characters import (character_table, conjugacy_classes,
                                 inner_product)
from tracealg.cyclotomic import Cyc
from tracealg.findim import ch_degree, trace_kernel
from tracealg.pseudochar import (FiniteGroup, GroupValidationError,
                                 PseudoCharTable, check_pseudocharacter,
                                 cyclic_group, dihedral_group, direct_product,
                                 group_algebra, klein_four_group, make_group,
                                 multilinear_trace_sum, pseudochar_kernel,
                                 quaternion_group, symmetric_group_3)


def all_groups_up_to_8():
    return {
        "C1": cyclic_group(1), "C2": cyclic_group(2), "C3": cyclic_group(3),
        "C4": cyclic_group(4), "V4": klein_four_group(), "C5": cyclic_group(5),
        "C6": cyclic_group(6), "S3": symmetric_group_3(), "C7": cyclic_group(7),
        "C8": cyclic_group(8),
        "C4xC2": direct_product(cyclic_group(4), cyclic_group(2)),
        "C2^3": direct_product(klein_four_group(), cyclic_group(2)),
        "D4": dihedral_group(4), "Q8": quaternion_group(),
    }


def char_degree(group, chi):
    v = chi[group.identity]
    return int(v if isinstance(v, Fraction) else v.as_rational())


class TestGroupValidation:
    def test_latin_square_violation(self):
        with pytest.raises(GroupValidationError, match="permutation"):
            make_group([[0, 0], [1, 1]])

    def test_missing_identity(self):
        with pytest.raises(GroupValidationError, match="identity"):
            make_group([[1, 0], [0, 1]], identity=0)

    def test_associativity_violation(self):
        # a Latin square with two-sided identity that is not a group
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupValidationError, match="associativity"):
            make_group(table)

    def test_quaternion_group_is_a_group(self):
        q8 = quaternion_group()
        assert q8.order == 8
        assert sorted(q8.element_order(a) for a in range(8)) == \
            [1, 2, 4, 4, 4, 4, 4, 4]


class TestCheckPseudocharacter:
    def test_c2_regular_passes(self):
        p = PseudoCharTable(cyclic_group(2), 2, (Fraction(2), Fraction(0)))
        report = check_pseudocharacter(p)
        assert report.passed and report.exhaustive

    def test_s3_two_dimensional_character_passes(self):
        s3 = symmetric_group_3()
        chi = next(c for c in character_table(s3) if char_degree(s3, c) == 2)
        report = check_pseudocharacter(PseudoCharTable(s3, 2, tuple(chi)))
        assert report.passed

    def test_c2_wrong_value_fails_axiom3_with_witness(self):
        p = PseudoCharTable(cyclic_group(2), 2, (Fraction(2), Fraction(1)))
        report = check_pseudocharacter(p)
        assert not report.passed
        assert report.axiom1_ok and report.axiom2_ok and not report.axiom3_ok
        assert report.axiom3_witness is not None
        g, values = p.group, p.values
        assert multilinear_trace_sum(g, values, report.axiom3_witness) != 0

    def test_wrong_degree_fails_axiom1(self):
        p = PseudoCharTable(cyclic_group(2), 3, (Fraction(2), Fraction(0)))
        report = check_pseudocharacter(p)
        assert not report.axiom1_ok

    def test_noncentral_function_fails_axiom2(self):
        s3 = symmetric_group_3()
        values = [Fraction(2)] + [Fraction(0)] * 5
        values[1] = Fraction(5)  # a single rotation gets a different value
        report = check_pseudocharacter(PseudoCharTable(s3, 2, tuple(values)))
        assert not report.axiom2_ok

    def test_sampling_mode_is_labeled(self):
        c2 = cyclic_group(2)
        p = PseudoCharTable(c2, 2, (Fraction(2), Fraction(0)))
        report = check_pseudocharacter(p, max_exhaustive=1, sample_size=50)
        assert report.passed and not report.exhaustive


class TestFrobeniusProperty:
    def test_every_character_of_every_group_up_to_8_passes(self):
        for name, group in all_groups_up_to_8().items():
            for chi in character_table(group):
                n = char_degree(group, chi)
                report = check_pseudocharacter(PseudoCharTable(group, n, tuple(chi)))
                assert report.passed, (name, chi)

    def test_order_12_spot_checks(self):
        for group in (dihedral_group(6), direct_product(symmetric_group_3(),
                                                        cyclic_group(2))):
            for chi in character_table(group):
                n = char_degree(group, chi)
                report = check_pseudocharacter(PseudoCharTable(group, n, tuple(chi)))
                assert report.passed

    def test_single_value_perturbations_fail(self):
        for name, group in all_groups_up_to_8().items():
            for chi in character_table(group):
                n = char_degree(group, chi)
                if not all(isinstance(v, Fraction) for v in chi):
                    continue
                for k in range(group.order):
                    values = list(chi)
                    values[k] = values[k] + 1
                    report = check_pseudocharacter(
                        PseudoCharTable(group, n, tuple(values)))
                    assert not report.passed, (name, chi, k)

    def test_higher_multilinear_sums_also_vanish(self):
        # once the degree-(n+1) sum vanishes so do all higher ones
        c2 = cyclic_group(2)
        values = (Fraction(2), Fraction(0))
        for j in (3, 4, 5):
            for elems in _all_tuples(2, j):
                assert multilinear_trace_sum(c2, values, elems) == 0
        s3 = symmetric_group_3()
        chi = next(c for c in character_table(s3) if char_degree(s3, c) == 2)
        for j in (4, 5):
            for elems in _all_tuples(6, j):
                assert multilinear_trace_sum(s3, tuple(chi), elems) == 0


def _all_tuples(order, length):
    from itertools import combinations_with_replacement
    return combinations_with_replacement(range(order), length)


class TestPseudocharKernel:
    def test_c2_regular(self):
        p = PseudoCharTable(cyclic_group(2), 2, (Fraction(2), Fraction(0)))
        kernel, quotient = pseudochar_kernel(p)
        assert kernel.dim == 0
        assert quotient.dim == 2
        assert ch_degree(quotient, 2) == 2

    def test_s3_two_dimensional(self):
        s3 = symmetric_group_3()
        chi = next(c for c in character_table(s3) if char_degree(s3, c) == 2)
        kernel, quotient = pseudochar_kernel(PseudoCharTable(s3, 2, tuple(chi)))
        assert quotient.dim == 4
        assert ch_degree(quotient, 2) == 2

    def test_trivial_character_gives_augmentation_ideal(self):
        for group in (cyclic_group(3), symmetric_group_3()):
            p = PseudoCharTable(group, 1, tuple([Fraction(1)] * group.order))
            kernel, quotient = pseudochar_kernel(p)
            assert kernel.dim == group.order - 1
            assert quotient.dim == 1

    def test_failing_table_is_rejected(self):
        p = PseudoCharTable(cyclic_group(2), 2, (Fraction(2), Fraction(1)))
        with pytest.raises(ValueError, match="not a pseudocharacter"):
            pseudochar_kernel(p)

    def test_irreducible_characters_saturate_the_dimension_bound(self):
        for name, group in all_groups_up_to_8().items():
            for chi in character_table(group):
                if not all(isinstance(v, Fraction) for v in chi):
                    continue
                n = char_degree(group, chi)
                p = PseudoCharTable(group, n, tuple(chi))
                kernel, quotient = pseudochar_kernel(p)
                assert trace_kernel(quotient).is_zero()
                assert quotient.dim <= n * n
                assert quotient.dim == n * n  # irreducible characters

    def test_sum_of_two_characters(self):
        # a reducible sum passes and its quotient is the block-diagonal model
        s3 = symmetric_group_3()
        table = character_table(s3)
        triv = next(c for c in table if all(v == 1 for v in c))
        chi2 = next(c for c in table if char_degree(s3, c) == 2)
        values = tuple(a + b for a, b in zip(triv, chi2))
        p = PseudoCharTable(s3, 3, values)
        assert check_pseudocharacter(p).passed
        kernel, quotient = pseudochar_kernel(p)
        assert quotient.dim == 5  # M2 + Q
        assert ch_degree(quotient, 3) == 3


class TestCharacterTables:
    def test_counts_match_conjugacy_classes(self):
        for name, group in all_groups_up_to_8().items():
            table = character_table(group)
            assert len(table) == len(conjugacy_classes(group)), name

    def test_s3_table(self):
        s3 = symmetric_group_3()
        degrees = sorted(char_degree(s3, chi) for chi in character_table(s3))
        assert degrees == [1, 1, 2]

    def test_orthonormality(self):
        s3 = symmetric_group_3()
        m = s3.exponent()
        table = [[v if isinstance(v, Cyc) else Cyc.rational(m, v) for v in chi]
                 for chi in character_table(s3)]
        for i, chi in enumerate(table):
            for j, psi in enumerate(table):
                value = inner_product(s3, chi, psi)
                assert value == (1 if i == j else 0)

    def test_cyclotomic_values_on_c3(self):
        c3 = cyclic_group(3)
        table = character_table(c3)
        nonrational = [chi for chi in table
                       if any(isinstance(v, Cyc) for v in chi)]
        assert len(nonrational) == 2
