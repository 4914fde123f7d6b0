"""Command-line interface: output shapes, exit codes, determinism."""
import json

import pytest
from click.testing import CliRunner

from tracealg.characters import character_table
from tracealg.cli import main
from tracealg.findim import weighted_semisimple
from tracealg.jsonio import dump_algebra, dump_group
from tracealg.pseudochar import cyclic_group, dihedral_group, symmetric_group_3


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_deterministic_witness(self, runner):
        args = ["verify", "--poly", "builtin:ch1", "--size", "2",
                "--random", "5", "--seed", "11"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


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

    def test_chdeg(self, runner, tmp_path):
        path = tmp_path / "m2.json"
        path.write_text(dump_algebra(weighted_semisimple([(2, 1)])))
        result = runner.invoke(main, ["algebra", "chdeg", "--in", str(path)])
        assert result.exit_code == 0
        assert result.output.strip() == "2"

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
        assert "pass" in result.output and "exhaustive" in result.output

    def test_fail_with_witness(self, runner, tmp_path):
        group_path = tmp_path / "c2.json"
        group_path.write_text(dump_group(cyclic_group(2)))
        char_path = tmp_path / "bad.json"
        char_path.write_text(json.dumps({"n": 2, "values": ["2", "1"]}))
        result = runner.invoke(main, ["pseudochar", "check",
                                      "--group", str(group_path),
                                      "--char", str(char_path)])
        assert result.exit_code == 1
        assert "tuple" in result.output

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
], ids=["zero-denominator", "block-size", "algebra-not-object", "table-entry",
        "group-not-object", "degree-text", "degree-negative", "mul-not-list",
        "mul-row-not-list", "mul-cell-not-list", "dim-text", "unit-not-list",
        "trace-not-list", "blocks-not-list", "table-not-list", "table-row-not-list",
        "order-not-integer", "values-not-list"])
def test_malformed_input_exits_2_naming_the_field(runner, tmp_path, argv, field):
    result = runner.invoke(main, argv(tmp_path))
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert field in result.output


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

    def test_byte_stable(self, runner):
        a = runner.invoke(main, ["onevar", "--weights", "1,2"]).output
        b = runner.invoke(main, ["onevar", "--weights", "1,2"]).output
        assert a == b
