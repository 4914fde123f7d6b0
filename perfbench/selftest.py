"""Self-test of the benchmark harness and its answer key.

    python3 perfbench/selftest.py

Takes about half a minute.  It is not named test_*.py so that the
repository's own test suite does not collect it.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

import run
import workloads


class AnswerKeyTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        cls.lib = run.fresh_import()
        cls.key = json.loads(run.KEY_PATH.read_text())

    def run_queries(self, workload, qids, key):
        queries = [q for q in workloads.build(workload, self.lib, 0) if q.qid in qids]
        self.assertEqual(len(queries), len(qids))
        ctx = workloads.Context(self.lib, run.Tracer(), key)
        return run.run_pass(queries, ctx, run.find_caches(self.lib), True)

    def planted(self, name, value):
        self.assertIn(name, self.key)
        key = dict(self.key)
        key[name] = value
        return key

    def test_key_accepts_the_program(self):
        result = self.run_queries(
            "formal", {"chm.3", "tm.3", "roundtrip.chm.3", "roundtrip.tm.3"}, self.key)
        self.assertEqual(result.failures, [])
        result = self.run_queries(
            "verify", {"identity.ch.2@3", "counterexample.ch.2@3", "cli.verify.ch2.3"},
            self.key)
        self.assertEqual(result.failures, [])

    def test_planted_wrong_hash_is_caught(self):
        key = self.planted("chm.3.render_sha256", "0" * 64)
        result = self.run_queries("formal", {"chm.3", "tm.3"}, key)
        self.assertEqual([qid for qid, _ in result.failures], ["chm.3"])

    def test_planted_wrong_verdict_is_caught(self):
        key = self.planted("verdict.ch.2@3", True)
        result = self.run_queries("verify", {"identity.ch.2@3"}, key)
        self.assertEqual([qid for qid, _ in result.failures], ["identity.ch.2@3"])

    def test_planted_wrong_cli_output_is_caught(self):
        key = self.planted("cli.verify.ch2.3.exit_code", 0)
        result = self.run_queries("verify", {"cli.verify.ch2.3"}, key)
        self.assertEqual([qid for qid, _ in result.failures], ["cli.verify.ch2.3"])

    def test_wrong_answer_fails_the_run(self):
        key = self.planted("tm.2.render_sha256", "0" * 64)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "formal", "--seed", "0", "--seconds", "0"], key=key)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        # with no time left, the run makes the warm-up and one full pass
        per_pass = len(workloads.build("formal", self.lib, 0))
        light = per_pass - len(workloads.HEAVY["formal"])
        self.assertGreaterEqual(result["attempted"], light + per_pass)
        # tm.2 is light and fails every time it runs: once in the warm-up,
        # and up to MAX_REPEATS times in the full pass
        self.assertGreaterEqual(result["failed"], 2)
        self.assertLessEqual(result["failed"], 1 + run.MAX_REPEATS)


class HarnessTest(unittest.TestCase):
    def test_heavy_queries_come_last(self):
        sys.path.insert(0, str(run.SRC))
        lib = run.fresh_import()
        for workload in workloads.WORKLOADS:
            qids = [q.qid for q in workloads.build(workload, lib, 0)]
            heavy = workloads.HEAVY[workload]
            self.assertEqual(tuple(qids[len(qids) - len(heavy):]), heavy)

    def test_schedule_mixes_full_and_light_passes(self):
        def measured(kind, query_seconds, heavy_seconds):
            return types.SimpleNamespace(kind=kind, traced=False, query_seconds=query_seconds,
                                         heavy_seconds=heavy_seconds)
        estimate = {"light": 1.0, "full": 10.0}
        self.assertEqual(run.next_pass(0, [], estimate, 0.0), ("full", False))
        done = [measured("full", 10.0, 9.0)]
        self.assertEqual(run.next_pass(0, done, estimate, 30.0), ("full", False))
        self.assertEqual(run.next_pass(0, done, estimate, 5.0), ("light", False))
        done *= run.MIN_FULL_PASSES
        self.assertEqual(run.next_pass(0, done, estimate, 30.0), ("light", False))
        done += [measured("light", 1.0, 0.0)] * 12
        self.assertEqual(run.next_pass(0, done, estimate, 30.0), ("full", False))
        self.assertEqual(run.next_pass(0, done, estimate, 5.0), ("light", False))
        self.assertIsNone(run.next_pass(0, done, estimate, 0.5))
        self.assertEqual(run.next_pass(1, done[:1], estimate, 0.0), ("full", True))

    def test_speed_scaling_uses_probes_around_a_sample(self):
        speed = run.Speedometer()
        # probes every 10 ms; the machine runs at half speed from t = 1.0
        speed.at = [i / 100 for i in range(1, 201)]
        speed.took = [run.PROBE_REFERENCE_S * (2 if t >= 1.0 else 1) for t in speed.at]
        # 0.5 s at full speed, with 0.01 s of it in the signal handler
        self.assertAlmostEqual(speed.scaled((0.2, 0.0), (0.7, 0.01)), 0.49)
        # 0.5 s at half speed reads as 0.25 s
        self.assertAlmostEqual(speed.scaled((1.2, 0.0), (1.7, 0.0)), 0.25)
        # a 1 ms sample between two probes takes the nearest probes
        self.assertAlmostEqual(speed.scaled((1.5005, 0.0), (1.5015, 0.0)), 0.0005)

    def test_tail_has_ten_samples_beyond(self):
        value, percentile = run.tail([float(i) for i in range(100, 0, -1)])
        self.assertEqual(value, 90.0)
        self.assertEqual(percentile, 90.0)
        self.assertIsNone(run.tail([1.0] * run.TAIL_BEYOND))

    def test_caches_are_found_and_cleared(self):
        sys.path.insert(0, str(run.SRC))
        lib = run.fresh_import()
        caches = run.find_caches(lib)
        names = {c.__qualname__ for c in caches}
        self.assertTrue({"ch_multilinear", "closure_leq", "cyclotomic_polynomial"} <= names)
        lib.chident.ch_multilinear(3)
        self.assertGreater(sum(c.cache_info().currsize for c in caches), 0)
        for c in caches:
            c.cache_clear()
        self.assertEqual(sum(c.cache_info().currsize for c in caches), 0)

    def test_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(workloads.PER_LAYER))

    def test_directory_without_source_exits_nonzero(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, Path(bare) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            got = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "formal",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(got.returncode, 0)
        self.assertNotIn("{", got.stdout)


if __name__ == "__main__":
    unittest.main()
