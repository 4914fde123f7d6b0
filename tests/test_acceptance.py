"""Acceptance suite: one test per criterion, one printed line each.

Every assertion is exact (normal-form or rational equality); the stated
runtime budgets are enforced with a wall-clock check.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time
from fractions import Fraction
from math import comb

from click.testing import CliRunner

from tracealg.characters import character_table
from tracealg.chident import ch_multilinear, ch_poly, polarize, restitute, t_multilinear
from tracealg.cli import main
from tracealg.findim import (ch_degree, dual_numbers, recover_weights,
                             rescale_trace, trace_kernel, weighted_semisimple)
from tracealg.freetrace import TracePoly, formal_trace, parse_trace_poly, x
from tracealg.genmat import diagonal_model, discriminant_relation, is_trace_identity, random_counterexample
from tracealg.genrank import generic_algebra_rank
from tracealg.mpoly import MPoly
from tracealg.pseudochar import (PseudoCharTable, check_pseudocharacter,
                                 cyclic_group, dihedral_group, direct_product,
                                 klein_four_group, pseudochar_kernel,
                                 quaternion_group, symmetric_group_3)
from tracealg.strata import (closure_leq, enumerate_types,
                             stratification_poset, stratum_dims, StratumType)

from mpoly_helpers import substitute


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"{label}: {elapsed:.1f}s over {self.limit}s budget"
        return elapsed


def report(num, label, elapsed):
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.2f}s)")


def test_criterion_1_golden_formulas():
    budget = Budget(1.0)
    runner = CliRunner()
    printed = {
        1: "x - tr(x)",
        2: "x^2 - tr(x)*x + 1/2*tr(x)^2 - 1/2*tr(x^2)",
        3: ("x^3 - tr(x)*x^2 + 1/2*tr(x)^2*x - 1/2*tr(x^2)*x"
            " - 1/6*tr(x)^3 + 1/2*tr(x)*tr(x^2) - 1/3*tr(x^3)"),
    }
    for n, expected in printed.items():
        out = runner.invoke(main, ["chpoly", "--n", str(n)]).output.strip()
        assert out == expected, (n, out)
        # the printed string is the normal form of the classical display
        assert parse_trace_poly(expected) == ch_poly(n)
    report(1, "printed degree-1/2/3 formulas match their normal forms",
           budget.check("criterion 1"))


def test_criterion_2_polarization_consistency():
    budget = Budget(10.0)
    for n in range(1, 5):
        assert polarize(ch_poly(n)) == ch_multilinear(n)
        factorial = 1
        for i in range(2, n + 1):
            factorial *= i
        assert restitute(ch_multilinear(n)) == factorial * ch_poly(n)
    paper_n2 = parse_trace_poly(
        "x1*x2 + x2*x1 - tr(x1)*x2 - tr(x2)*x1 - tr(x1*x2) + tr(x1)*tr(x2)")
    assert ch_multilinear(2) == paper_n2
    report(2, "multilinear forms = polarizations, restitutions recover n! CH_n",
           budget.check("criterion 2"))


def test_criterion_3_formal_identities():
    budget = Budget(30.0)
    for n in range(1, 5):
        lhs = formal_trace(ch_multilinear(n) * x(n + 1))
        assert lhs == Fraction((-1) ** n) * t_multilinear(n + 1)
    for n in range(1, 5):
        tn = t_multilinear(n)
        rhs = tn * formal_trace(x(n + 1))
        for i in range(1, n + 1):
            mapping = {j: x(j) for j in range(1, n + 1)}
            mapping[i] = x(i) * x(n + 1)
            rhs = rhs - tn.substitute(mapping)
        assert t_multilinear(n + 1) == rhs
    report(3, "trace pairing and recursion identities hold up to n=4",
           budget.check("criterion 3"))


def test_criterion_4_matrix_identity_table():
    budget = Budget(300.0)
    for n in range(1, 5):
        for m in range(1, n + 1):
            assert is_trace_identity(ch_poly(n), m), (n, m)
    for n in range(1, 4):
        m = n + 1
        assert not is_trace_identity(ch_poly(n), m)
        witness = random_counterexample(ch_poly(n), m, trials=30, seed=0)
        assert witness is not None, (n, m)
    for n in range(1, 4):
        for m in range(1, 4):
            holds = is_trace_identity(t_multilinear(m + 1), n)
            assert holds == (n <= m), (n, m)
            if not holds:
                assert random_counterexample(t_multilinear(m + 1), n,
                                             trials=30, seed=1) is not None
    report(4, "identity table on generic matrices (n, m <= 4), witnesses exact",
           budget.check("criterion 4"))


def test_criterion_5_kernel_and_degree_corpus():
    budget = Budget(5.0)
    dn = dual_numbers()
    assert trace_kernel(dn).rows == ((Fraction(0), Fraction(1)),)
    assert ch_degree(dn, 4) == 2

    qq = weighted_semisimple([(1, 1), (1, 2)])
    assert ch_degree(qq, 4) == 3
    assert recover_weights(qq).pairs() == ((1, 1), (1, 2))

    doubled = rescale_trace(weighted_semisimple([(2, 1)]), 2)
    assert ch_degree(doubled, 5) == 4
    report(5, "kernel/degree corpus: dual numbers, weighted lines, doubled trace",
           budget.check("criterion 5"))


def test_criterion_6_generic_ranks():
    budget = Budget(120.0)
    r = generic_algebra_rank(dual_numbers(), 2)
    assert r.rank == 3 and r.stabilized
    for n in (1, 2, 3):
        for stype in enumerate_types(n):
            algebra = weighted_semisimple(stype.pairs)
            rep = generic_algebra_rank(algebra, 2)
            assert rep.rank == algebra.dim, stype
            assert rep.stabilized
    report(6, "generic-element ranks: ell+1 for dual numbers, dim R for all n<=3 types",
           budget.check("criterion 6"))


def test_criterion_7_pseudocharacters():
    budget = Budget(60.0)
    groups = [cyclic_group(k) for k in range(1, 9)] + [
        klein_four_group(),
        direct_product(cyclic_group(4), cyclic_group(2)),
        direct_product(klein_four_group(), cyclic_group(2)),
        dihedral_group(4), quaternion_group(), symmetric_group_3(),
    ]
    checked = perturbed = 0
    for group in groups:
        for chi in character_table(group):
            v = chi[group.identity]
            n = int(v if isinstance(v, Fraction) else v.as_rational())
            table = PseudoCharTable(group, n, tuple(chi))
            assert check_pseudocharacter(table).passed
            checked += 1
            if all(isinstance(value, Fraction) for value in chi):
                for k in range(group.order):
                    values = list(chi)
                    values[k] = values[k] + 1
                    bad = check_pseudocharacter(
                        PseudoCharTable(group, n, tuple(values)))
                    assert not bad.passed
                    assert (not bad.axiom1_ok or bad.axiom2_witness is not None
                            or bad.axiom3_witness is not None)
                    perturbed += 1
    s3 = symmetric_group_3()
    chi2 = next(c for c in character_table(s3) if c[s3.identity] == 2)
    kernel, quotient = pseudochar_kernel(PseudoCharTable(s3, 2, tuple(chi2)))
    assert quotient.dim == 4
    assert ch_degree(quotient, 2) == 2
    report(7, f"{checked} characters pass, {perturbed} perturbations fail with witnesses",
           budget.check("criterion 7"))


def test_criterion_8_strata():
    budget = Budget(60.0)
    for n in range(1, 7):
        types = enumerate_types(n)
        for ell in (2, 3, 4):
            poset = stratification_poset(n, ell)
            open_stratum = StratumType.of([(n, 1)])
            assert stratum_dims(open_stratum, ell).stratum_dim == \
                (ell - 1) * n * n + 1
            for s in types:
                assert closure_leq(s, open_stratum)
            for edge in poset.covers:
                lower_dim = stratum_dims(edge.lower, ell).stratum_dim
                upper_dim = stratum_dims(edge.upper, ell).stratum_dim
                assert lower_dim < upper_dim
                if edge.codim == 1:
                    assert ell == 2 and edge.flagged
    report(8, "posets for n<=6, ell in {2,3,4}: dims decrease, codim-1 only in the 2x2/ell=2 exception",
           budget.check("criterion 8"))


def test_criterion_9_one_variable_model_oracle():
    budget = Budget(1.0)
    model = diagonal_model((1, 2))  # construction verifies the closed forms
    u, v = MPoly.var("x1"), MPoly.var("x2")
    a, b, c = model.charpoly_coeffs
    assert a * a - 3 * b == (u - v) * (u - v)
    assert a * b - 9 * c == 2 * v * (u - v) * (u - v)
    assert 9 * c + a ** 3 - 4 * a * b == u * (u - v) * (u - v)

    disc = discriminant_relation((1, 2))
    expected = (18 * MPoly.var("a1") * MPoly.var("a2") * MPoly.var("a3")
                - 4 * MPoly.var("a1") ** 3 * MPoly.var("a3")
                + MPoly.var("a1") ** 2 * MPoly.var("a2") ** 2
                - 4 * MPoly.var("a2") ** 3 - 27 * MPoly.var("a3") ** 2)
    assert disc == expected
    subs = {f"a{j}": model.charpoly_coeffs[j - 1] for j in (1, 2, 3)}
    assert substitute(disc, subs).is_zero()

    # documented, not asserted as ground truth: the circulated degree-4
    # candidate relation is NOT satisfied by the model coefficients
    candidate = (3 * MPoly.var("a1") ** 2 * MPoly.var("a2")
                 - 162 * MPoly.var("a1") * MPoly.var("a2") * MPoly.var("a3")
                 + 243 * MPoly.var("a3") ** 2
                 - 12 * MPoly.var("a1") ** 2 * MPoly.var("a2") ** 2
                 + 18 * MPoly.var("a1") ** 3 * MPoly.var("a3")
                 + 36 * MPoly.var("a2") ** 3)
    assert not substitute(candidate, subs).is_zero()
    report(9, "one-variable model identities verify; resultant discriminant vanishes; quartic candidate rejected",
           budget.check("criterion 9"))


def test_criterion_10_d6_degree_5_scan():
    budget = Budget(10.0)
    d6 = dihedral_group(6)
    table = character_table(d6)
    # both two-dimensional irreducibles plus the trivial character
    chosen = [c for c in table if c[d6.identity] == 2] + \
        [next(c for c in table if all(v == 1 for v in c))]
    values = tuple(sum(column) for column in zip(*chosen))
    rep = check_pseudocharacter(PseudoCharTable(d6, 5, values))
    assert rep.passed and rep.exhaustive
    assert rep.tuples_checked == comb(17, 6) == 12376
    assert rep.memo_states == comb(18, 6) == 18564
    report(10, f"D6 degree-5 pseudocharacter: all {rep.tuples_checked} multisets, "
               f"{rep.memo_states} memo states", budget.check("criterion 10"))
