"""Regenerate perfbench/answer_key.json from the tracealg source in src/.

    python3 perfbench/record_key.py

Runs one pass of every workload on seeds 0 and 1.  Known verdicts, ranks,
degrees and dimensions are written from theory, and the run fails if the
program disagrees with them.  Hashes of rendered polynomials, CLI output and
strata posets are written as the program gives them, so run this only on a
commit whose output is trusted.  The two seeds must give the same key,
because seeded variants may only change inputs whose answers are known.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def record(workload, seed):
    lib = run.fresh_import()
    queries = workloads.build(workload, lib, seed)
    recording = {}
    ctx = workloads.Context(lib, run.Tracer(), key=None, recording=recording)
    result = run.run_pass(queries, ctx, run.find_caches(lib),
                          run.CLEAR_EACH_QUERY[workload])
    for qid, problem in result.failures:
        print(f"{workload} seed {seed}: {qid}: {problem}", file=sys.stderr)
    return recording, not result.failures


def main():
    sys.path.insert(0, str(run.SRC))
    key = {}
    ok = True
    for workload in workloads.WORKLOADS:
        first, ok_first = record(workload, 0)
        second, ok_second = record(workload, 1)
        ok = ok and ok_first and ok_second
        for name in sorted(set(first) | set(second)):
            if first.get(name) != second.get(name):
                print(f"{workload}: {name} differs between seeds 0 and 1", file=sys.stderr)
                ok = False
        key.update(first)
        print(f"{workload}: {len(first)} expected values")
    if not ok:
        return 1
    run.KEY_PATH.write_text(json.dumps(key, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.KEY_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
