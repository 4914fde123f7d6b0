"""Command-line interface: output shapes, exit codes, determinism."""
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from tracealg.characters import character_table
import tracealg
from tracealg.cli import (CHDEG_MAX_MULTISETS, CHDEG_MAX_NMAX, CHPOLY_MAX_N,
                          STRATA_MAX_N, VERIFY_MAX_DEGREE, VERIFY_MAX_TRIALS,
                          VERIFY_T_MAX_K, main)
from tracealg.freetrace import MAX_NESTING
from tracealg.findim import make_algebra, weighted_semisimple
from tracealg.jsonio import dump_algebra
from tracealg.pseudochar import (SCAN_MAX_WORK, cyclic_group, dihedral_group,
                                 symmetric_group_3)


def dump_group(g) -> str:
    """The group file ``pseudochar check --group`` reads."""
    return json.dumps({"order": g.order, "table": [list(row) for row in g.table],
                       "identity": g.identity}, indent=2)


@pytest.fixture
def runner():
    return CliRunner()


def run_cli_process(args, address_space=512 << 20, python_flags=()):
    """Run ``python [python_flags] -m tracealg.cli args`` in its own process
    with its address space capped; return the result and the wall time."""
    src = str(Path(tracealg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    start = time.perf_counter()
    result = subprocess.run([sys.executable, *python_flags, "-m", "tracealg.cli", *args],
                            capture_output=True, text=True, env=env,
                            preexec_fn=cap, timeout=60)
    return result, time.perf_counter() - start


class TestChpoly:
    def test_degree_two_golden(self, runner):
        result = runner.invoke(main, ["chpoly", "--n", "2"])
        assert result.exit_code == 0
        assert result.output.strip() == \
            "x^2 - tr(x)*x + 1/2*tr(x)^2 - 1/2*tr(x^2)"

    def test_degree_one(self, runner):
        result = runner.invoke(main, ["chpoly", "--n", "1"])
        assert result.output.strip() == "x - tr(x)"

    def test_bad_degree(self, runner):
        result = runner.invoke(main, ["chpoly", "--n", "0"])
        assert result.exit_code == 2

    def test_n_at_the_bound_runs(self):
        # about 0.7 s and 30 MB (Python 3.11.7, 2 cores); see cli.CHPOLY_MAX_N
        result, seconds = run_cli_process(["chpoly", "--n", str(CHPOLY_MAX_N)])
        assert result.returncode == 0, result.stderr
        assert seconds < 10.0
        assert result.stdout.startswith(f"x^{CHPOLY_MAX_N} - tr(x)*x^{CHPOLY_MAX_N - 1} + ")

    def test_n_above_the_bound_exits_2_at_once(self):
        result, seconds = run_cli_process(["chpoly", "--n", str(CHPOLY_MAX_N + 1)])
        assert result.returncode == 2
        assert seconds < 5.0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert f"--n {CHPOLY_MAX_N + 1} is above the bound {CHPOLY_MAX_N}" in result.stderr


class TestPolarize:
    def test_square(self, runner):
        result = runner.invoke(main, ["polarize", "--expr", "x^2"])
        assert result.exit_code == 0
        assert result.output.strip() == "x1*x2 + x2*x1"

    def test_ch2(self, runner):
        result = runner.invoke(
            main, ["polarize", "--expr", "x^2 - tr(x)*x + 1/2*tr(x)^2 - 1/2*tr(x^2)"])
        assert result.exit_code == 0
        assert "x1*x2 + x2*x1" in result.output

    def test_inhomogeneous_is_usage_error(self, runner):
        result = runner.invoke(main, ["polarize", "--expr", "x + x^2"])
        assert result.exit_code == 2

    def test_degree_above_the_bound_is_refused_up_front(self, runner):
        # x^12 would need 12! (about 479 million) terms
        result = runner.invoke(main, ["polarize", "--expr", "x^12"])
        assert result.exit_code == 2
        assert "degree 12 is above the bound 8" in result.output

    @pytest.mark.parametrize("expr", ["(x1+x2)^40", "x^2000000000",
                                      "x^99999999999999999999"])
    def test_huge_powers_are_refused_before_expansion(self, runner, expr):
        start = time.perf_counter()
        result = runner.invoke(main, ["polarize", "--expr", expr])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "above the bound 8" in result.output

    @pytest.mark.parametrize("expr", ["x^9 - x^9", "0*x^9", "x^9 - x^9 + x^2",
                                      "0*x^9 + tr(x)*x"])
    def test_written_degree_above_the_bound_is_refused_even_if_it_cancels(
            self, runner, expr):
        result = runner.invoke(main, ["polarize", "--expr", expr])
        assert result.exit_code == 2
        assert "degree 9 is above the bound 8" in result.output

    def test_degree_at_the_bound_runs(self, runner):
        result = runner.invoke(main, ["polarize", "--expr", "tr(x^8)"])
        assert result.exit_code == 0
        assert result.output.count("tr(") == 5040  # 8!/8 cyclic classes


class TestVerify:
    def test_identity_exit_zero(self, runner):
        result = runner.invoke(main, ["verify", "--poly", "builtin:ch2",
                                      "--size", "2"])
        assert result.exit_code == 0
        assert "identity" in result.output

    def test_counterexample_exit_one(self, runner):
        result = runner.invoke(main, ["verify", "--poly", "builtin:ch2",
                                      "--size", "3", "--random", "10"])
        assert result.exit_code == 1
        assert "counterexample" in result.output

    def test_negative_random_count_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--poly", "x1", "--size", "2",
                                      "--random", "-1"])
        assert result.exit_code == 2, result.output
        assert "counterexample" not in result.output
        assert "'--random': -1 is not in the range x>=0" in result.output

    def test_expression_input(self, runner):
        result = runner.invoke(main, ["verify", "--poly",
                                      "tr(x1*x2) - tr(x2*x1)", "--size", "4"])
        assert result.exit_code == 0

    def test_t_builtin(self, runner):
        result = runner.invoke(main, ["verify", "--poly", "builtin:T3",
                                      "--size", "2"])
        assert result.exit_code == 0

    def test_long_word_is_checked_without_recursion(self, runner):
        result = runner.invoke(main, ["verify", "--poly", "x^1000", "--size", "1"])
        assert result.exit_code == 1, result.output
        assert "counterexample" in result.output

    def test_exponent_past_the_packed_bound_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--poly", "x^32768", "--size", "1"])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "2^15" in result.output

    def test_a_cancelling_cofactor_does_not_lift_the_packed_bound(self):
        # x2*x3 - x3*x2 vanishes at size 1, so the polynomial is an identity
        # there, but its term of 32768 letters x1 is refused before any fold
        result, seconds = run_cli_process(["verify", "--poly", "x1^32768*(x2*x3 - x3*x2)",
                                           "--size", "1"])
        assert result.returncode == 2
        assert seconds < 5.0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "error: --poly: too long for generic matrices" in result.stderr
        assert "2^15" in result.stderr

    def test_the_refusal_names_the_variable_and_the_bound(self):
        result, _ = run_cli_process(["verify", "--poly", "x^32768", "--size", "1"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: --poly: too long for generic matrices: a term holds x1 32768 "
            "times; the identity check takes terms with fewer than 2^15 = 32768 "
            "occurrences of one variable\n")

    def test_large_power_at_size_two_is_a_quick_counterexample(self, runner):
        # the all-generic evaluation of x^2000 ran out of memory here
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "--poly", "x^2000", "--size", "2"])
        assert time.perf_counter() - start < 3.0
        assert result.exit_code == 1, result.output
        assert "counterexample for x^2000 at size 2:" in result.output

    def test_deterministic_witness(self, runner):
        args = ["verify", "--poly", "builtin:ch1", "--size", "2",
                "--random", "5", "--seed", "11"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


class TestVerifyBounds:
    """verify refuses a builtin above its bound, text nested deeper than
    freetrace.MAX_NESTING and a --random count above VERIFY_MAX_TRIALS, with
    exit 2 before any term is built."""

    @pytest.mark.parametrize("poly, size", [(f"builtin:ch{CHPOLY_MAX_N}", 1),
                                            (f"builtin:T{VERIFY_T_MAX_K}", 1),
                                            (f"builtin:T{VERIFY_T_MAX_K}", 2)])
    def test_builtins_at_the_bound_run(self, poly, size):
        # about 0.8 s and 30 MB, and 0.25-0.5 s and 33 MB at either size, where
        # the characters of S_8 decide T8; the generic-matrix fold took
        # 1.35-1.45 s and 227 MB at size 2 (Python 3.11.7, 2 cores)
        result, seconds = run_cli_process(["verify", "--poly", poly, "--size", str(size)])
        assert result.returncode == 0, result.stderr
        assert seconds < 10.0
        assert result.stdout == f"identity: {poly} vanishes on all {size}x{size} matrices\n"

    @pytest.mark.parametrize("poly, message", [
        (f"builtin:ch{CHPOLY_MAX_N + 1}",
         f"n = {CHPOLY_MAX_N + 1} is above the bound {CHPOLY_MAX_N}"),
        ("builtin:ch30", f"n = 30 is above the bound {CHPOLY_MAX_N}"),
        (f"builtin:T{VERIFY_T_MAX_K + 1}",
         f"k = {VERIFY_T_MAX_K + 1} is above the bound {VERIFY_T_MAX_K}"),
        ("builtin:T99999999999999999999",
         f"k = 99999999999999999999 is above the bound {VERIFY_T_MAX_K}")])
    def test_builtins_above_the_bound_exit_2_at_once(self, poly, message):
        # builtin:ch30 ran 6 s, builtin:T9 11-15 s
        result, seconds = run_cli_process(["verify", "--poly", poly, "--size", "1"])
        assert result.returncode == 2
        assert seconds < 5.0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert f"error: --poly: {poly}: {message}" in result.stderr

    @pytest.mark.parametrize("poly, form", [
        ("builtin:T", "builtin:T<k> with a positive integer k"),
        ("builtin:Tx", "builtin:T<k> with a positive integer k"),
        ("builtin:T0", "builtin:T<k> with a positive integer k"),
        ("builtin:T-1", "builtin:T<k> with a positive integer k"),
        ("builtin:T1.5", "builtin:T<k> with a positive integer k"),
        ("builtin:T\u0663", "builtin:T<k> with a positive integer k"),
        ("builtin:ch", "builtin:ch<n> with a positive integer n"),
        ("builtin:chx", "builtin:ch<n> with a positive integer n"),
        ("builtin:ch0", "builtin:ch<n> with a positive integer n")])
    def test_a_malformed_builtin_names_its_form(self, runner, poly, form):
        result = runner.invoke(main, ["verify", "--poly", poly, "--size", "2"])
        assert result.exit_code == 2
        assert result.output == f"error: --poly: {poly}: expected {form}\n"

    def test_a_builtin_degree_past_int_conversion_is_above_the_bound(self, runner):
        poly = "builtin:T" + "9" * 5000
        result = runner.invoke(main, ["verify", "--poly", poly, "--size", "1"])
        assert result.exit_code == 2
        assert result.output.endswith(f" is above the bound {VERIFY_T_MAX_K}\n")

    def test_random_count_at_the_bound_runs(self):
        # every one of the trials of a commutator at size 1 vanishes
        poly = "x1*x2 - x2*x1"
        result, seconds = run_cli_process(["verify", "--poly", poly, "--size", "1",
                                           "--random", str(VERIFY_MAX_TRIALS)])
        assert result.returncode == 0, result.stderr
        assert seconds < 10.0
        assert result.stdout == f"identity: {poly} vanishes on all 1x1 matrices\n"

    def test_random_count_above_the_bound_exits_2_at_once(self):
        # one integer trial of builtin:T8 at size 2 takes 0.2-0.4 s
        count = VERIFY_MAX_TRIALS + 1
        result, seconds = run_cli_process(["verify", "--poly", "builtin:T8", "--size", "2",
                                           "--random", str(count)])
        assert result.returncode == 2
        assert seconds < 5.0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert f"error: --random {count} is above the bound {VERIFY_MAX_TRIALS}" in result.stderr

    @pytest.mark.parametrize("poly, degree", [("x1^99999999999", 99999999999),
                                              ("tr(x1^99999999999)", 99999999999),
                                              ("(x1*x2)^40000", 80000)])
    def test_a_degree_above_the_bound_exits_2_at_once(self, poly, degree):
        # x1^99999999999 ended in a MemoryError traceback while its word was built
        result, seconds = run_cli_process(["verify", "--poly", poly, "--size", "1"])
        assert result.returncode == 2
        assert seconds < 1.0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert (f"error: --poly: degree {degree} is above the bound {VERIFY_MAX_DEGREE}"
                in result.stderr)

    @pytest.mark.parametrize("argv, code", [(["polarize", "--expr"], 0),
                                            (["verify", "--size", "1", "--poly"], 1)])
    def test_nesting_at_the_bound_runs(self, argv, code):
        text = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        result, _ = run_cli_process(argv + [text])
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [["polarize", "--expr"],
                                      ["verify", "--size", "1", "--poly"]])
    @pytest.mark.parametrize("opener", ["(", "tr("])
    def test_nesting_past_the_bound_exits_2(self, argv, opener):
        # 250 nested '(' or 300 nested 'tr(' exited 1 with a RecursionError
        depth = MAX_NESTING + 1
        result, _ = run_cli_process(argv + [opener * depth + "x+x2" + ")" * depth])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert f"nested deeper than {MAX_NESTING} levels" in result.stderr


class TestDegreeZeroPowers:
    """Powers of tr(1) and of scalars are bounded by the parser for every
    command (``freetrace.DEGREE0_MAX_TRACES`` and ``DEGREE0_MAX_BITS``)."""

    def test_powers_at_the_bound_run(self, runner):
        result = runner.invoke(main, ["verify", "--poly", "tr(1)^64 - 2^64", "--size", "2"])
        assert result.exit_code == 0, result.output
        assert "vanishes on all 2x2 matrices" in result.output
        result = runner.invoke(main, ["polarize", "--expr", "tr(1)^64*x"])
        assert result.exit_code == 0, result.output
        assert result.output == "tr(1)^64*x1\n"

    @pytest.mark.parametrize("argv", [["polarize", "--expr"],
                                      ["verify", "--size", "1", "--poly"]])
    @pytest.mark.parametrize("expr", ["tr(1)^65", "tr(1)^20000000", "(tr(1)^8)^9",
                                      "2^2000000000", "(2^32768)^2"])
    def test_powers_above_the_bound_exit_2_at_once(self, runner, argv, expr):
        # tr(1)^20000000 exited 1 with a MemoryError traceback
        start = time.perf_counter()
        result = runner.invoke(main, argv + [expr])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert re.search(r"above the bound of (64 tr\(1\) in a term|65536 bits)",
                         result.output), result.output


    def test_products_at_the_bound_run(self, runner):
        result = runner.invoke(main, ["verify", "--poly",
                                      "(tr(1)+1)^32*(tr(1)+1)^32 - (tr(1)+1)^64",
                                      "--size", "2"])
        assert result.exit_code == 0, result.output
        assert "vanishes on all 2x2 matrices" in result.output
        result = runner.invoke(main, ["verify", "--poly", "tr(1)^64", "--size", "1"])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("counterexample for tr(1)^64 at size 1:")

    @pytest.mark.parametrize("argv", [["polarize", "--expr"],
                                      ["verify", "--size", "1", "--poly"]])
    @pytest.mark.parametrize("k", [2, 6])
    def test_products_above_the_bound_exit_2_at_once(self, runner, argv, k):
        # k = 6 took 1.5 s and verify exited 1
        start = time.perf_counter()
        result = runner.invoke(main, argv + ["*".join(["(tr(1)+1)^64"] * k)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "product of factors with 64 and 64 tr(1) in a term is above the bound " \
            "of 64 tr(1) in a term" in result.output

class TestAlgebraCommands:
    def test_kernel(self, runner, tmp_path):
        path = tmp_path / "dual.json"
        path.write_text(json.dumps({
            "dim": 2, "basis": ["1", "eps"],
            "mul": [[[[0, "1"]], [[1, "1"]]], [[[1, "1"]], []]],
            "unit": ["1", "0"], "trace": ["2", "0"],
        }))
        result = runner.invoke(main, ["algebra", "kernel", "--in", str(path)])
        assert result.exit_code == 0
        assert "kernel dimension: 1" in result.output

    def test_kernel_prints_a_non_integral_row(self, runner, tmp_path):
        # Q^3 on the basis u0 = e1 + e2, u1 = 2e2 + e3, u2 = e1 + 3e3 of its
        # idempotents, traced by t(e1) = t(e2) = 1 and t(e3) = 0: the kernel
        # is the line of e3 = (-2u0 + u1 + 2u2)/7, whose rref row mixes ints
        # and a Fraction
        path = tmp_path / "q3.json"
        path.write_text(json.dumps({
            "dim": 3, "basis": ["u0", "u1", "u2"],
            "mul": [[[[0, "1"]], [[0, "2/7"], [1, "6/7"], [2, "-2/7"]],
                     [[0, "6/7"], [1, "-3/7"], [2, "1/7"]]],
                    [[[0, "2/7"], [1, "6/7"], [2, "-2/7"]],
                     [[0, "2/7"], [1, "13/7"], [2, "-2/7"]],
                     [[0, "-6/7"], [1, "3/7"], [2, "6/7"]]],
                    [[[0, "6/7"], [1, "-3/7"], [2, "1/7"]],
                     [[0, "-6/7"], [1, "3/7"], [2, "6/7"]],
                     [[0, "-12/7"], [1, "6/7"], [2, "19/7"]]]],
            "unit": ["5/7", "1/7", "2/7"], "trace": ["2", "2", "1"],
        }))
        result = runner.invoke(main, ["algebra", "kernel", "--in", str(path)])
        assert result.exit_code == 0
        assert result.output == "kernel dimension: 1\n  [1, -1/2, -1]\n"

    def test_chdeg(self, runner, tmp_path):
        path = tmp_path / "m2.json"
        path.write_text(dump_algebra(weighted_semisimple([(2, 1)])))
        result = runner.invoke(main, ["algebra", "chdeg", "--in", str(path)])
        assert result.exit_code == 0
        assert result.output.strip() == "2"

    def test_chdeg_below_the_multiset_bound_runs(self, tmp_path):
        # M3 + M2 with weights 1, 2: t(1) = 7 on 13 basis elements, so the
        # test builds C(20, 7) - 1 = 77519 multisets, in about 1.2 s
        path = tmp_path / "m3m2.json"
        path.write_text(dump_algebra(weighted_semisimple([(3, 1), (2, 2)])))
        assert 77519 <= CHDEG_MAX_MULTISETS
        result, seconds = run_cli_process(["algebra", "chdeg", "--in", str(path)])
        assert result.returncode == 0, result.stderr
        assert seconds < 15.0
        assert result.stdout.strip() == "7"

    def test_chdeg_above_the_multiset_bound_exits_2_at_once(self, tmp_path):
        # M4 + M1 with weights 1, 2: t(1) = 6 on 17 basis elements, C(23, 6) - 1
        # = 100946 multisets
        path = tmp_path / "m4m1.json"
        path.write_text(dump_algebra(weighted_semisimple([(4, 1), (1, 2)])))
        assert 100946 > CHDEG_MAX_MULTISETS
        result, seconds = run_cli_process(["algebra", "chdeg", "--in", str(path)])
        assert result.returncode == 2
        assert seconds < 5.0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert (f"would build 100946 basis multisets over 17 basis elements, above the "
                f"bound {CHDEG_MAX_MULTISETS}") in result.stderr

    def test_chdeg_tests_no_degree_other_than_the_trace_of_one(self, runner, tmp_path):
        # M4 with its trace doubled has t(1) = 8: below --nmax 8 nothing is
        # built and nothing is refused
        path = tmp_path / "m4.json"
        path.write_text(dump_algebra(weighted_semisimple([(4, 2)])))
        result = runner.invoke(main, ["algebra", "chdeg", "--in", str(path), "--nmax", "7"])
        assert result.exit_code == 0
        assert result.output.startswith("none up to n_max=7")
        result = runner.invoke(main, ["algebra", "chdeg", "--in", str(path)])
        assert result.exit_code == 2
        assert "735470 basis multisets" in result.output

    def test_chdeg_at_the_nmax_bound(self, tmp_path):
        # Q with t(1) = n: the test at n multiplies integers of n!/(n - k)!
        # size, about 1.3 s at the bound; with t(1) = 0 every n is a line
        path = tmp_path / "q.json"
        path.write_text(dump_algebra(weighted_semisimple([(1, CHDEG_MAX_NMAX)])))
        argv = ["algebra", "chdeg", "--in", str(path), "--nmax", str(CHDEG_MAX_NMAX)]
        result, seconds = run_cli_process(argv)
        assert result.returncode == 0, result.stderr
        assert seconds < 15.0
        assert result.stdout == f"{CHDEG_MAX_NMAX}\n"
        path.write_text(dump_algebra(make_algebra([[[1]]], unit=[1], trace_vector=[0],
                                                  labels=("1",))))
        result, seconds = run_cli_process(argv)
        assert result.returncode == 0, result.stderr
        assert seconds < 5.0
        lines = result.stdout.splitlines()
        assert lines[0] == f"none up to n_max={CHDEG_MAX_NMAX}"
        assert lines[1:] == [f"  n={n}: t(1) = 0 != {n}" for n in range(1, CHDEG_MAX_NMAX + 1)]

    def test_chdeg_above_the_nmax_bound_exits_2_at_once(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(dump_algebra(make_algebra([[[1]]], unit=[1], trace_vector=[0],
                                                  labels=("1",))))
        result, seconds = run_cli_process(["algebra", "chdeg", "--in", str(path),
                                           "--nmax", str(CHDEG_MAX_NMAX + 1)])
        assert result.returncode == 2
        assert seconds < 5.0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert f"--nmax {CHDEG_MAX_NMAX + 1} is above the bound {CHDEG_MAX_NMAX}" in result.stderr

    def test_chdeg_nmax_below_one_exits_2(self, runner, tmp_path):
        path = tmp_path / "m2.json"
        path.write_text(dump_algebra(weighted_semisimple([(2, 1)])))
        result = runner.invoke(main, ["algebra", "chdeg", "--in", str(path), "--nmax", "0"])
        assert result.exit_code == 2
        assert "--nmax must be >= 1" in result.output

    def test_weights(self, runner, tmp_path):
        path = tmp_path / "qq.json"
        path.write_text(dump_algebra(weighted_semisimple([(1, 1), (1, 2)])))
        result = runner.invoke(main, ["algebra", "weights", "--in", str(path)])
        assert result.exit_code == 0
        assert "n = 3" in result.output

    def test_weights_needs_blocks(self, runner, tmp_path):
        path = tmp_path / "noblocks.json"
        data = json.loads(dump_algebra(weighted_semisimple([(2, 1)])))
        del data["blocks"]
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["algebra", "weights", "--in", str(path)])
        assert result.exit_code == 2

    def test_genrank(self, runner, tmp_path):
        path = tmp_path / "dual.json"
        path.write_text(json.dumps({
            "dim": 2, "basis": ["1", "eps"],
            "mul": [[[[0, "1"]], [[1, "1"]]], [[[1, "1"]], []]],
            "unit": ["1", "0"], "trace": ["2", "0"],
        }))
        result = runner.invoke(main, ["algebra", "genrank", "--in", str(path),
                                      "--ell", "2"])
        assert result.exit_code == 0
        assert "rank 3 (stabilized)" in result.output

    def test_genrank_inconclusive_on_the_augmentation_trace_of_q_c2(self, tmp_path):
        # Q[C2] traced by the trivial character is not Cayley-Hamilton of
        # degree 1, and its generic rank over the trace field Q(s) is
        # infinite: every power of g up to the cap 2d^2 = 8 stays unverified.
        # The seven relation searches take about 0.06 s in process (Python
        # 3.11.7, 2 cores); the bound leaves room for start-up and load.
        path = tmp_path / "qc2.json"
        path.write_text(json.dumps({
            "dim": 2, "basis": ["1", "g"],
            "mul": [[[[0, "1"]], [[1, "1"]]], [[[1, "1"]], [[0, "1"]]]],
            "unit": ["1", "0"], "trace": ["1", "1"],
        }))
        result, seconds = run_cli_process(["algebra", "genrank", "--in", str(path),
                                           "--ell", "1"])
        assert result.returncode == 1, result.stderr
        assert seconds < 10.0
        powers = [(1,) * k for k in range(2, 9)]
        assert result.stdout == f"rank 9 (inconclusive)\n  unverified independents: {powers}\n"

    def test_malformed_json_diagnostics(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        result = runner.invoke(main, ["algebra", "kernel", "--in", str(path)])
        assert result.exit_code == 2
        assert "line 1" in result.output


class TestPseudocharCommand:
    def test_pass(self, runner, tmp_path):
        group_path = tmp_path / "c2.json"
        group_path.write_text(dump_group(cyclic_group(2)))
        char_path = tmp_path / "regular.json"
        char_path.write_text(json.dumps({"n": 2, "values": ["2", "0"]}))
        result = runner.invoke(main, ["pseudochar", "check",
                                      "--group", str(group_path),
                                      "--char", str(char_path)])
        assert result.exit_code == 0
        assert result.output == "pass: degree-2 pseudocharacter (exhaustive, 4 tuples)\n"

    def test_fail_with_witness(self, runner, tmp_path):
        group_path = tmp_path / "c2.json"
        group_path.write_text(dump_group(cyclic_group(2)))
        char_path = tmp_path / "bad.json"
        char_path.write_text(json.dumps({"n": 2, "values": ["2", "1"]}))
        result = runner.invoke(main, ["pseudochar", "check",
                                      "--group", str(group_path),
                                      "--char", str(char_path)])
        assert result.exit_code == 1
        assert result.output == "fail: alternating trace sum is nonzero on tuple (1, 1, 1)\n"

    def test_s3_character(self, runner, tmp_path):
        group_path = tmp_path / "s3.json"
        group_path.write_text(dump_group(symmetric_group_3()))
        char_path = tmp_path / "chi2.json"
        # the two-dimensional character in the table ordering of dihedral(3)
        char_path.write_text(json.dumps(
            {"n": 2, "values": ["2", "-1", "-1", "0", "0", "0"]}))
        result = runner.invoke(main, ["pseudochar", "check",
                                      "--group", str(group_path),
                                      "--char", str(char_path)])
        assert result.exit_code == 0

    def test_d6_degree_5_exhaustive(self, runner, tmp_path):
        d6 = dihedral_group(6)
        table = character_table(d6)
        chosen = [c for c in table if c[d6.identity] == 2] + \
            [next(c for c in table if all(v == 1 for v in c))]
        group_path = tmp_path / "d6.json"
        group_path.write_text(dump_group(d6))
        char_path = tmp_path / "chi.json"
        char_path.write_text(json.dumps(
            {"n": 5, "values": [str(sum(column)) for column in zip(*chosen)]}))
        result = runner.invoke(main, ["pseudochar", "check",
                                      "--group", str(group_path),
                                      "--char", str(char_path)])
        assert result.exit_code == 0
        assert result.output == \
            "pass: degree-5 pseudocharacter (exhaustive, 12376 tuples)\n"

    def test_d6_degree_8_under_the_bound(self, runner, tmp_path):
        # the sum of the irreducible characters: C(21, 9) = 293930 memo states
        # times 9 is 2645370, about 1 s
        d6 = dihedral_group(6)
        values = [str(sum(column)) for column in zip(*character_table(d6))]
        argv = _pseudochar_argv(json.loads(dump_group(d6)), {"n": 8, "values": values})
        result = runner.invoke(main, argv(tmp_path))
        assert result.exit_code == 0
        assert result.output == \
            "pass: degree-8 pseudocharacter (exhaustive, 167960 tuples)\n"

    @pytest.mark.parametrize("group, n, states", [
        (dihedral_group(6), 9, 646646), (cyclic_group(2), 770, 298378),
        (cyclic_group(2), 1000000, 500002500003)])
    def test_above_the_bound_exits_2_at_once(self, runner, tmp_path, group, n, states):
        argv = _pseudochar_argv(json.loads(dump_group(group)),
                                {"n": n, "values": [str(n)] * group.order})
        start = time.perf_counter()
        result = runner.invoke(main, argv(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: the degree-{n} scan over {group.order} elements would fill {states} "
            f"memo states, and {states} x {n + 1} = {states * (n + 1)} is above the "
            f"bound {SCAN_MAX_WORK}\n")

    def test_noncentral_table_fails_axiom_2_only(self, runner, tmp_path):
        # one rotation of S3 gets another value; the tuple axiom is not
        # evaluated on a table that is not central
        argv = _pseudochar_argv(json.loads(dump_group(symmetric_group_3())),
                                {"n": 2, "values": ["2", "5", "0", "0", "0", "0"]})
        result = runner.invoke(main, argv(tmp_path))
        assert result.exit_code == 1
        assert result.output == "fail: t(ab) != t(ba) for elements (3, 4)\n"

    def test_help_names_the_bound(self, runner):
        result = runner.invoke(main, ["pseudochar", "check", "--help"])
        assert result.exit_code == 0
        assert f"exceed {SCAN_MAX_WORK}" in result.output
        assert "--seed" not in result.output  # nothing is sampled

    def test_wrong_value_count(self, runner, tmp_path):
        group_path = tmp_path / "c2.json"
        group_path.write_text(dump_group(cyclic_group(2)))
        char_path = tmp_path / "short.json"
        char_path.write_text(json.dumps({"n": 2, "values": ["2"]}))
        result = runner.invoke(main, ["pseudochar", "check",
                                      "--group", str(group_path),
                                      "--char", str(char_path)])
        assert result.exit_code == 2


C2_GROUP = {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0}
C2_CHAR = {"n": 2, "values": ["2", "0"]}
QQ_ALGEBRA = json.loads(dump_algebra(weighted_semisimple([(1, 1), (1, 2)])))


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _pseudochar_argv(group, char):
    return lambda tmp: ["pseudochar", "check",
                        "--group", _write(tmp / "g.json", group),
                        "--char", _write(tmp / "t.json", char)]


@pytest.mark.parametrize("argv,field", [
    (lambda tmp: ["polarize", "--expr", "1/0*x"], "--expr"),
    (lambda tmp: ["algebra", "weights", "--in",
                  _write(tmp / "a.json", {**QQ_ALGEBRA, "blocks": [["x", [0]]]})],
     "algebra.blocks[0].m"),
    (lambda tmp: ["algebra", "kernel", "--in", _write(tmp / "a.json", 5)], "algebra"),
    (_pseudochar_argv({**C2_GROUP, "table": [[0, "a"], [1, 0]]}, C2_CHAR),
     "group.table[0][1]"),
    (_pseudochar_argv(5, C2_CHAR), "group"),
    (_pseudochar_argv(C2_GROUP, {**C2_CHAR, "n": "two"}), "pseudocharacter.n"),
    (_pseudochar_argv(C2_GROUP, {**C2_CHAR, "n": -1}), "pseudocharacter.n"),
    (lambda tmp: ["algebra", "kernel", "--in", _write(tmp / "a.json", {
        "dim": 1, "mul": 5, "unit": ["1"], "trace": ["1"]})], "algebra.mul"),
    (lambda tmp: ["algebra", "kernel", "--in", _write(tmp / "a.json", {
        "dim": 1, "mul": [5], "unit": ["1"], "trace": ["1"]})], "algebra.mul[0]"),
    (lambda tmp: ["algebra", "kernel", "--in", _write(tmp / "a.json", {
        "dim": 1, "mul": [[5]], "unit": ["1"], "trace": ["1"]})], "algebra.mul[0][0]"),
    (lambda tmp: ["algebra", "kernel", "--in", _write(tmp / "a.json", {
        "dim": "one", "mul": [[[]]], "unit": ["1"], "trace": ["1"]})], "algebra.dim"),
    (lambda tmp: ["algebra", "kernel", "--in",
                  _write(tmp / "a.json", {**QQ_ALGEBRA, "unit": 7})], "algebra.unit"),
    (lambda tmp: ["algebra", "kernel", "--in",
                  _write(tmp / "a.json", {**QQ_ALGEBRA, "trace": "2"})], "algebra.trace"),
    (lambda tmp: ["algebra", "weights", "--in",
                  _write(tmp / "a.json", {**QQ_ALGEBRA, "blocks": 3})], "algebra.blocks"),
    (_pseudochar_argv({**C2_GROUP, "table": 4}, C2_CHAR), "group.table"),
    (_pseudochar_argv({**C2_GROUP, "table": [[0, 1], 1]}, C2_CHAR), "group.table[1]"),
    (_pseudochar_argv({**C2_GROUP, "order": [2]}, C2_CHAR), "group.order"),
    (_pseudochar_argv(C2_GROUP, {**C2_CHAR, "values": 2}), "pseudocharacter.values"),
    (lambda tmp: ["algebra", "kernel", "--in",
                  _write(tmp / "a.json", {**QQ_ALGEBRA, "basis": False})], "algebra.basis"),
    (lambda tmp: ["algebra", "chdeg", "--in",
                  _write(tmp / "a.json", {**QQ_ALGEBRA, "basis": ["u0"]})], "algebra.basis"),
    (lambda tmp: ["algebra", "chdeg", "--in",
                  _write(tmp / "a.json", {**QQ_ALGEBRA, "basis": [0, 1]})], "algebra.basis"),
], ids=["zero-denominator", "block-size", "algebra-not-object", "table-entry",
        "group-not-object", "degree-text", "degree-negative", "mul-not-list",
        "mul-row-not-list", "mul-cell-not-list", "dim-text", "unit-not-list",
        "trace-not-list", "blocks-not-list", "table-not-list", "table-row-not-list",
        "order-not-integer", "values-not-list", "basis-not-list", "basis-too-short",
        "basis-not-strings"])
def test_malformed_input_exits_2_naming_the_field(runner, tmp_path, argv, field):
    result = runner.invoke(main, argv(tmp_path))
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert field in result.output


class TestExitCodesUnderOptimize:
    """``python -O`` strips ``assert``; the exit codes and the output do
    not move."""

    def test_identity_exits_0(self):
        result, _ = run_cli_process(["verify", "--poly", "builtin:ch2", "--size", "2"],
                                    python_flags=["-O"])
        assert result.returncode == 0, result.stderr
        assert result.stdout == "identity: builtin:ch2 vanishes on all 2x2 matrices\n"

    def test_counterexample_exits_1_with_the_same_witness(self):
        argv = ["verify", "--poly", "builtin:ch2", "--size", "3"]
        optimized, _ = run_cli_process(argv, python_flags=["-O"])
        plain, _ = run_cli_process(argv)
        assert optimized.returncode == plain.returncode == 1, optimized.stderr
        assert optimized.stdout.startswith("counterexample for builtin:ch2 at size 3:")
        assert optimized.stdout == plain.stdout

    @pytest.mark.parametrize("doc, message", [
        ({**QQ_ALGEBRA, "unit": 7}, "algebra.unit"),
        ({**QQ_ALGEBRA, "unit": ["0", "1"]}, "unit law fails"),
    ], ids=["unit-not-list", "wrong-unit"])
    def test_malformed_algebra_file_exits_2(self, tmp_path, doc, message):
        path = _write(tmp_path / "a.json", doc)
        result, _ = run_cli_process(["algebra", "kernel", "--in", path], python_flags=["-O"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert message in result.stderr

    def test_random_count_above_the_bound_exits_2(self):
        count = VERIFY_MAX_TRIALS + 1
        result, _ = run_cli_process(["verify", "--poly", "builtin:ch2", "--size", "2",
                                     "--random", str(count)], python_flags=["-O"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"error: --random {count} is above the bound {VERIFY_MAX_TRIALS}" in result.stderr


class TestStrataCommand:
    def test_summary(self, runner):
        result = runner.invoke(main, ["strata", "--n", "2", "--ell", "2"])
        assert result.exit_code == 0
        assert "3 stratum types" in result.output
        assert "1 of codimension 1" in result.output

    def test_dot(self, runner):
        result = runner.invoke(main, ["strata", "--n", "2", "--ell", "2",
                                      "--poset", "dot"])
        assert result.exit_code == 0
        assert result.output.startswith("digraph strata")
        assert result.output.count("->") == 2

    def test_json(self, runner):
        result = runner.invoke(main, ["strata", "--n", "3", "--ell", "2",
                                      "--poset", "json"])
        data = json.loads(result.output)
        assert len(data["nodes"]) == 5

    def test_dims(self, runner):
        result = runner.invoke(main, ["strata", "--n", "2", "--ell", "2",
                                      "--dims"])
        assert "stratum dim 5" in result.output

    def test_bad_ell(self, runner):
        result = runner.invoke(main, ["strata", "--n", "2", "--ell", "1"])
        assert result.exit_code == 2

    def test_n_at_the_bound_runs(self):
        # about 1.2 s and 62 MB (Python 3.11.7, 2 cores); see cli.STRATA_MAX_N
        result, seconds = run_cli_process(
            ["strata", "--n", str(STRATA_MAX_N), "--ell", "2", "--poset", "json"])
        assert result.returncode == 0, result.stderr
        assert seconds < 10.0
        data = json.loads(result.stdout)
        assert data["n"] == STRATA_MAX_N and len(data["nodes"]) == 3186

    def test_n_above_the_bound_exits_2_at_once(self):
        result, seconds = run_cli_process(
            ["strata", "--n", str(STRATA_MAX_N + 1), "--ell", "2", "--poset", "json"])
        assert result.returncode == 2
        assert seconds < 5.0
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert f"above the bound {STRATA_MAX_N}" in result.stderr


class TestOnevar:
    def test_repeated_eigenvalue(self, runner):
        result = runner.invoke(main, ["onevar", "--weights", "1,2"])
        assert result.exit_code == 0
        assert "a1 = x1 + 2*x2" in result.output
        assert "discriminant" in result.output

    def test_distinct_eigenvalues(self, runner):
        result = runner.invoke(main, ["onevar", "--weights", "1,1"])
        assert result.exit_code == 0
        assert "no forced relation" in result.output

    def test_bad_weights(self, runner):
        result = runner.invoke(main, ["onevar", "--weights", "x"])
        assert result.exit_code == 2

    def test_weights_at_the_bound_run(self, runner):
        result = runner.invoke(main, ["onevar", "--weights", "1,7"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("n = 8; multiplicities (1, 7)")
        assert "coefficient relation (discriminant)" in result.output

    @pytest.mark.parametrize("weights", ["1,8", "2,2,2,3", "1,1,1,1,1,1,1,1,1", "1000000"])
    def test_weights_above_the_bound_are_refused_up_front(self, runner, weights):
        start = time.perf_counter()
        result = runner.invoke(main, ["onevar", "--weights", weights])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "above the bound 8" in result.output

    def test_byte_stable(self, runner):
        a = runner.invoke(main, ["onevar", "--weights", "1,2"]).output
        b = runner.invoke(main, ["onevar", "--weights", "1,2"]).output
        assert a == b


# -- fuzzing the exit-code contract -------------------------------------------
# Every input exits 0, 1 or 2 and never with a traceback.  Inputs stay small
# (size <= 2, degree <= 6; degree <= 8, the documented bound, for polarize)
# so each example runs in milliseconds.

EXPR_TOKENS = ["x", "x2", "x0", "y", "tr", "tr(", "(", ")", "+", "-", "*", "/",
               "^", "^2", "1/2", "0", "3", "1/0", " ", ".", "tr(x)", "x*x"]
BUILTINS = [f"builtin:{kind}{arg}" for kind in ("ch", "T")
            for arg in ("", "0", "1", "2", "-1", "x", "1.5")]


def _degree_bound(text):
    """Letters times the product of the nonzero exponents: a bound on any
    term's degree."""
    bound = text.count("x")
    for e in re.findall(r"\^\s*(\d+)", text):
        bound *= max(int(e), 1)
    return bound


def _expressions(max_degree):
    return st.one_of(
        st.lists(st.sampled_from(EXPR_TOKENS), max_size=7).map("".join),
        st.sampled_from(BUILTINS),
    ).filter(lambda text: _degree_bound(text) <= max_degree)


expressions = _expressions(6)

# factors of known degree; their products are above the polarize bound
HIGH_FACTORS = {"x": 1, "tr(x)": 1, "x^2": 2, "tr(x^3)": 3, "x^9": 9, "tr(x^12)": 12}
above_polarize_bound = st.lists(
    st.sampled_from(sorted(HIGH_FACTORS)), min_size=1, max_size=6,
).filter(lambda factors: sum(HIGH_FACTORS[f] for f in factors) > 8).map("*".join)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.sampled_from(["1", "1/2", "-1", "x", "1/0", "", 0.5]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["m", "k"]), inner, max_size=1),
    max_leaves=6)
DELETE = object()


def _has(container, key):
    if isinstance(key, int):
        return isinstance(container, list) and key < len(container)
    return isinstance(container, dict) and key in container


def _mutations(base, nested_paths):
    """base with some top-level fields replaced or deleted, some nested cells
    replaced, or the whole document replaced by another JSON value."""
    fields = st.dictionaries(st.sampled_from(sorted(base)),
                             json_values | st.just(DELETE), max_size=2)
    cells = st.lists(st.tuples(st.sampled_from(nested_paths), json_values), max_size=2)

    def apply(change):
        edits, cell_edits = change
        doc = json.loads(json.dumps(base))
        for path, value in cell_edits:
            target = doc
            for key in path[:-1]:
                target = target[key] if _has(target, key) else None
            if _has(target, path[-1]):
                target[path[-1]] = value
        for key, value in edits.items():
            if value is DELETE:
                doc.pop(key)
            else:
                doc[key] = value
        return doc

    return st.tuples(fields, cells).map(apply) | json_values


QQ_BLOCKS = json.loads(dump_algebra(weighted_semisimple([(1, 1), (1, 1)])))
ALGEBRA_PATHS = [("dim",), ("mul", 0), ("mul", 1, 0), ("mul", 0, 0, 0),
                 ("mul", 0, 0, 0, 1), ("unit", 0), ("trace", 1), ("basis", 0),
                 ("blocks", 0), ("blocks", 1, 0), ("blocks", 0, 1, 0)]
GROUP_PATHS = [("table", 0), ("table", 1, 0), ("order",), ("identity",)]
CHAR_PATHS = [("values", 0), ("values", 1), ("n",)]


def _exits_cleanly(argv):
    # catch_exceptions=False lets anything but SystemExit escape the runner
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert "Traceback" not in result.output
    return result


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_expressions(8).map(lambda text: (text, False)),
                 above_polarize_bound.map(lambda text: (text, True))))
def test_fuzz_polarize(case):
    expr, above_bound = case
    result = _exits_cleanly(["polarize", "--expr", expr])
    if above_bound:
        assert result.exit_code == 2 and "above the bound 8" in result.output, expr


@settings(max_examples=150, deadline=None, derandomize=True)
@given(expressions, st.sampled_from([-1, 0, 1, 2]), st.sampled_from([0, 2]))
def test_fuzz_verify(poly, size, trials):
    _exits_cleanly(["verify", "--poly", poly, "--size", str(size),
                    "--random", str(trials)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mutations(QQ_BLOCKS, ALGEBRA_PATHS),
       st.sampled_from([["kernel"], ["chdeg", "--nmax", "2"], ["weights"],
                        ["genrank", "--ell", "2"]]))
def test_fuzz_algebra_loader(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("algebra") / "a.json"
    path.write_text(json.dumps(doc))
    _exits_cleanly(["algebra", *command, "--in", str(path)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mutations(C2_GROUP, GROUP_PATHS), _mutations(C2_CHAR, CHAR_PATHS))
def test_fuzz_group_and_pseudochar_loaders(tmp_path_factory, group, char):
    folder = tmp_path_factory.mktemp("pseudochar")
    _exits_cleanly(_pseudochar_argv(group, char)(folder))
