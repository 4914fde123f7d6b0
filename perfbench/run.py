"""The tracealg benchmark: one command for the formal, verify and session workloads.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload formal --seed 0 --seconds 42 --trace 0

It imports tracealg from ``src/`` of the checkout, builds the workload's
inputs from the seed (several times, to time set-up), runs a warm-up pass over
the light queries, then runs passes over the workload's query list, one query
at a time on one thread, until ``--seconds`` seconds after the warm-up began.
A full pass runs every query; a light pass stops before the heavy queries,
which come last.  Every time is scaled to a reference machine speed, which a
probe samples a hundred times a second (see Speedometer).  Latency metrics
are taken over each query's typical latency: the median, over the measured
passes that ran it, of its mean scaled latency in the pass.  Every answer is
checked against ``answer_key.json`` or an exact identity.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it makes full passes
only, alternating untraced and traced ones, and reports the per-layer metrics
summed from the spans of the traced passes.  perfbench/NOTES.md describes the
workloads and metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Result details,
provenance and, for traced runs, the spans go to ``.bench_out/``.  The exit
code is 0 when every answer is right, 1 when one is wrong and 2 when there is
no tracealg source to benchmark.
"""
from __future__ import annotations

import argparse
import array
import bisect
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
KEY_PATH = HERE / "answer_key.json"

SETUP_REPEATS = 7
MIN_FULL_PASSES = 2      # full passes a run makes first, if they fit
HEAVY_SHARE = 0.75       # then full passes run while heavy queries took less of the time
MAX_REPEATS = 5          # runs of a cheap query in a row
REPEAT_BUDGET_S = 0.05   # a query repeats while its runs fit in this time
TAIL_BEYOND = 10   # samples that must lie beyond the tail percentile
PROBE_EVERY_S = 0.01      # a timer signal runs the speed probe this often
PROBE_WINDOW = 5          # a sample's speed rests on at least this many probes
PROBE_REFERENCE_S = 1e-4  # the probe's time at the reference speed
CLEAR_EACH_QUERY = {"formal": True, "verify": True, "session": False}

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Speedometer:
    """Samples the machine's speed while a run measures, to scale query
    times to a reference speed.

    On a shared host the speed of one core drifts by tens of percent, and
    at times halves, over seconds and minutes; pure-Python work of every
    kind slows in the same proportion.  A timer signal interrupts the run
    every PROBE_EVERY_S seconds to time the probe.  A sample's time, less the
    time the interruptions took, is multiplied by PROBE_REFERENCE_S over the
    median probe time while it ran (or of the PROBE_WINDOW probes nearest
    it).  The product reads as the time at the speed where the probe takes
    PROBE_REFERENCE_S: the drift cancels, and a program that does more work
    still reads slower."""

    def __init__(self):
        self.table = {(a, b): a * b for a in range(7) for b in range(5)}
        self.memory = array.array("i", [1]) * (1 << 22)   # 16 MiB, like a large query's
        self.position = 0
        self.at = []       # when each probe ended
        self.took = []     # each probe's time
        self.spent = 0.0   # time spent in the signal handler so far

    def probe(self):
        """About 0.1 ms of fixed work of the kind tracealg does: Fraction
        arithmetic, tuple keys and dict lookups, plus reads scattered over
        self.memory, so that the probe slows both when the core is shared
        and when the caches it shares are.  It leaves nothing allocated."""
        at = self.position
        total = Fraction(0)
        get = self.table.get
        memory = self.memory
        for i in range(25):
            at = (at * 1103515245 + 12345) & 0x3FFFFF
            total += Fraction(get((i % 7, i % 5), 0) + memory[at], i + 1)
        self.position = at
        return total

    def _handler(self, signum, frame):
        entered = time.perf_counter()
        self.probe()       # warms the probe's code and data after the interruption
        start = time.perf_counter()
        self.probe()
        end = time.perf_counter()
        self.at.append(end)
        self.took.append(end - start)
        self.spent += time.perf_counter() - entered

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """Now, and the handler time spent so far."""
        return time.perf_counter(), self.spent

    def scaled(self, begin, finish):
        """The time between two marks, less the handler time, at the
        reference speed."""
        (t0, spent0), (t1, spent1) = begin, finish
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        while hi - lo < PROBE_WINDOW and (lo > 0 or hi < len(self.at)):
            if hi == len(self.at) or (lo > 0 and t0 - self.at[lo - 1] <= self.at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        own = (t1 - t0) - (spent1 - spent0)
        return own * PROBE_REFERENCE_S / statistics.median(self.took[lo:hi])


class Tracer:
    """Spans around the benchmark's calls into tracealg, and counts read
    from their results.  Spans are kept in memory until the run ends."""

    def __init__(self):
        self.enabled = False
        self.pass_index = 0
        self.query = None
        self.spans = []      # (pass, query, name, start, end)
        self.counts = {}

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.pass_index, self.query, name, start,
                               time.perf_counter()))

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


def fresh_import():
    """Import every tracealg module anew, as a fresh process would."""
    for name in [n for n in sys.modules if n == "tracealg" or n.startswith("tracealg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tracealg")
    if Path(pkg.__file__).resolve().parent != (SRC / "tracealg").resolve():
        raise ImportError(f"tracealg imported from {pkg.__file__}, not from {SRC}")
    modules = {info.name: importlib.import_module(f"tracealg.{info.name}")
               for info in pkgutil.iter_modules(pkg.__path__)}
    return SimpleNamespace(**modules)


def find_caches(lib):
    """Every functools cache among the attributes of the tracealg modules
    and of the classes they define."""
    found = {}
    for module in vars(lib).values():
        for obj in vars(module).values():
            candidates = [obj]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                candidates += [getattr(v, "__func__", v) for v in vars(obj).values()]
            for c in candidates:
                if callable(getattr(c, "cache_info", None)) and \
                        callable(getattr(c, "cache_clear", None)):
                    found[id(c)] = c
    return list(found.values())


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when there are too few samples."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND    # 1-based rank of the tail sample
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def typical_latencies(passes, n_queries, field="scaled"):
    """Each query's median, over the given passes that ran it, of its mean
    latency within the pass, from the pass's scaled or raw samples.  A light
    pass holds no samples of the heavy queries, so every query needs a full
    pass among the given ones."""
    return [statistics.median(statistics.fmean(getattr(p, field)[i])
                              for p in passes if i < len(p.samples))
            for i in range(n_queries)]


def next_pass(trace, measured, estimate, remaining):
    """(kind, traced) of the next measured pass, or None to stop.

    An untraced run starts with a full pass.  After that it makes a full
    pass while it has made fewer than MIN_FULL_PASSES or the heavy queries
    took less than HEAVY_SHARE of the measured query time, and a light pass
    otherwise, as long as the pass is expected to end in the remaining time.
    A traced run makes an untraced and a traced full pass, then alternates
    while a full pass fits."""
    fulls = [p for p in measured if p.kind == "full"]
    if trace:
        if len(fulls) < 2:
            return "full", len(fulls) == 1
        return ("full", not measured[-1].traced) if estimate["full"] <= remaining else None
    if not fulls:
        return "full", False
    heavy = sum(p.heavy_seconds for p in fulls)
    total = sum(p.query_seconds for p in measured)
    if (len(fulls) < MIN_FULL_PASSES or heavy < HEAVY_SHARE * total) \
            and estimate["full"] <= remaining:
        return "full", False
    if estimate["light"] <= remaining:
        return "light", False
    return None


def repeats_for(first_pass, clear_each_query):
    """How often each query runs in one pass: cheap queries run several times
    in a row, so that their medians rest on more samples.  Where caches stay
    warm across queries, a query that added cache entries runs once, because
    running it again would answer it from those entries."""
    return [1 if grew and not clear_each_query
            else max(1, min(MAX_REPEATS, int(REPEAT_BUDGET_S / max(samples[0], 1e-9))))
            for samples, grew in zip(first_pass.samples, first_pass.grew)]


def run_pass(queries, ctx, caches, clear_each_query, repeats=None, speed=None):
    """Run every query, repeats[i] times in a row.  Returns the latency
    samples, failures, counts, span sums and the peak total of cache entries,
    and, when a running Speedometer is given, the marks around each sample.

    Counts come from the first run of each query only, so that they do not
    depend on the number of repeats."""
    tracer = ctx.tracer
    tracer.counts = {}
    first_span = len(tracer.spans)
    ctx.state = {}
    for c in caches:
        c.cache_clear()
    mark = speed.mark if speed else lambda: (time.perf_counter(), 0.0)
    intervals = []
    grew = []
    failures = []
    executed = failed = 0
    peak_entries = 0
    for i, q in enumerate(queries):
        intervals.append([])
        for rep in range(repeats[i] if repeats else 1):
            if clear_each_query:
                for c in caches:
                    c.cache_clear()
            gc.collect()
            tracer.query = q.qid
            counts_before = dict(tracer.counts)
            entries_before = sum(c.cache_info().currsize for c in caches)
            executed += 1
            start = mark()
            try:
                answer = q.run(ctx)
            except Exception as exc:   # a query that raises is a failed answer
                intervals[i].append((start, mark()))
                if rep == 0:
                    grew.append(True)
                found = [f"raised {type(exc).__name__}: {exc}"]
            else:
                intervals[i].append((start, mark()))
                entries = sum(c.cache_info().currsize for c in caches)
                peak_entries = max(peak_entries, entries)
                if rep == 0:
                    grew.append(entries > entries_before)
                try:
                    found = q.check(answer, ctx)
                except Exception as exc:
                    found = [f"check raised {type(exc).__name__}: {exc}"]
            if rep > 0:
                tracer.counts = counts_before
            failed += bool(found)
            failures.extend((q.qid, problem) for problem in found)
    tracer.query = None
    samples = [[end[0] - start[0] for start, end in runs] for runs in intervals]
    span_sums = {}
    for _, _, name, start, end in tracer.spans[first_span:]:
        span_sums[name] = span_sums.get(name, 0.0) + (end - start)
    counts = dict(tracer.counts)
    counts["cache.entries"] = peak_entries
    return SimpleNamespace(samples=samples, intervals=intervals, grew=grew,
                           failures=failures, counts=counts, span_sums=span_sums,
                           traced=tracer.enabled, executed=executed, failed=failed)


def provenance(args):
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if got.returncode == 0:
                commit = got.stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown: {exc}"
    digest = hashlib.sha256()
    for path in sorted((SRC / "tracealg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(affinity) if affinity is not None else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, key=None):
    args = parse_args(argv)
    if not (SRC / "tracealg" / "__init__.py").is_file():
        print(f"error: no tracealg source at {SRC / 'tracealg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if key is None:
        key = json.loads(KEY_PATH.read_text())

    speed = Speedometer()
    speed.start()
    try:
        run = measure(args, key, speed)
    finally:
        speed.stop()
    return report(args, speed, run)


def measure(args, key, speed):
    """Set up, then make the warm-up pass and the measured passes."""
    setup_marks = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = speed.mark()
        lib = fresh_import()
        queries = workloads.build(args.workload, lib, args.seed)
        setup_marks.append((start, speed.mark()))
    # Objects made so far (modules, inputs, answer key) are moved out of the
    # collector's reach, so that collecting garbage before each query is
    # cheap and a collection inside a query walks only what queries made.
    gc.collect()
    gc.freeze()
    caches = find_caches(lib)
    tracer = Tracer()
    ctx = workloads.Context(lib, tracer, key)
    clear_each = CLEAR_EACH_QUERY[args.workload]

    n_light = len(queries) - len(workloads.HEAVY[args.workload])
    started = time.perf_counter()
    # The warm-up pass runs the light queries once each.  Its latencies set
    # how often each light query repeats, and are not otherwise used.
    warmup = run_pass(queries[:n_light], ctx, caches, clear_each)
    warmup.kind, warmup.seconds = "warm-up", time.perf_counter() - started
    repeats = repeats_for(warmup, clear_each) + [1] * (len(queries) - n_light)
    passes = [warmup]
    estimate = {"light": warmup.seconds}
    while True:
        measured = passes[1:]
        chosen = next_pass(args.trace, measured, estimate,
                           args.seconds - (time.perf_counter() - started))
        if chosen is None:
            break
        kind, traced = chosen
        size = len(queries) if kind == "full" else n_light
        tracer.enabled = traced
        tracer.pass_index = len(passes)
        pass_start = time.perf_counter()
        # traced passes run each query once, so span sums are per query
        result = run_pass(queries[:size], ctx, caches, clear_each,
                          None if traced else repeats[:size])
        result.seconds = time.perf_counter() - pass_start
        result.kind = kind
        # raw times, as they steer how the run spends its time
        result.query_seconds = sum(map(sum, result.samples))
        result.heavy_seconds = sum(map(sum, result.samples[n_light:]))
        estimate[kind] = result.seconds
        passes.append(result)
    tracer.enabled = False
    return SimpleNamespace(queries=queries, n_light=n_light, passes=passes, repeats=repeats,
                           setup_marks=setup_marks, tracer=tracer)


def report(args, speed, run):
    """Scale the samples, check the counts, write the details and print the
    result line.  Returns the exit code."""
    queries, passes = run.queries, run.passes
    for p in passes:
        p.scaled = [[speed.scaled(start, end) for start, end in runs] for runs in p.intervals]
    setup_times = [end[0] - start[0] for start, end in run.setup_marks]
    scaled_setup = [speed.scaled(start, end) for start, end in run.setup_marks]
    failures = [(i, qid, problem) for i, p in enumerate(passes) for qid, problem in p.failures]
    failed = sum(p.failed for p in passes)
    attempted = sum(p.executed for p in passes)
    # The warm-up runs the same queries as a light pass.
    kinds = {"warm-up": "light", "light": "light", "full": "full"}
    inconsistent = sorted({name for kind in ("light", "full")
                           for same in [[p for p in passes if kinds[p.kind] == kind]]
                           for p in same for name in p.counts
                           if len({q.counts.get(name) for q in same}) > 1})
    correct = not failures and not inconsistent
    untraced = [p for p in passes[1:] if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    typical = typical_latencies(untraced, len(queries))
    tail_value, tail_percentile = tail(typical)
    raw_typical = typical_latencies(untraced, len(queries), "samples")
    raw = {
        "queries_per_s": len(queries) / sum(raw_typical),
        "latency_p50_s": statistics.median(raw_typical),
        "latency_tail_s": tail(raw_typical)[0],
        "setup_s": statistics.median(setup_times),
    }

    if args.trace:
        metrics = {}
        for name, unit in workloads.PER_LAYER:
            if name == "bench.trace_overhead":
                # traced queries_per_s over untraced queries_per_s
                value = sum(typical) / sum(typical_latencies(traced_passes,
                                                             len(queries)))
            elif name.endswith("_s"):
                value = statistics.median(p.span_sums.get(name[:-2], 0.0)
                                          for p in traced_passes)
            else:
                value = traced_passes[0].counts.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "queries_per_s": len(queries) / sum(typical),
            "latency_p50_s": statistics.median(typical),
            "latency_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(scaled_setup),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    details = {
        "provenance": provenance(args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:50],
        "inconsistent_counts": inconsistent,
        "queries_per_pass": len(queries),
        "heavy_queries": list(workloads.HEAVY[args.workload]),
        "latency_tail_percentile": tail_percentile,
        "latency_samples": len(typical),
        "setup_times_s": setup_times,
        "scaled_setup_times_s": scaled_setup,
        "probes": len(speed.took),
        "probe_s": {"median": statistics.median(speed.took),
                    "quartiles": statistics.quantiles(speed.took, n=4)},
        "probe_overhead_s": speed.spent,
        "raw_metrics": raw,
        "typical_latency_by_query_s": dict(zip((q.qid for q in queries), typical)),
        "raw_typical_latency_by_query_s": dict(zip((q.qid for q in queries), raw_typical)),
        "repeats_by_query": dict(zip((q.qid for q in queries), run.repeats)),
        "passes": [{"kind": p.kind, "traced": p.traced, "seconds": p.seconds,
                    "latency_samples_by_query_s": dict(zip((q.qid for q in queries), p.samples)),
                    "counts": p.counts, "span_sums_s": p.span_sums} for p in passes],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        spans = [{"pass": i, "query": q, "name": n, "start": s, "end": e}
                 for i, q, n, s, e in run.tracer.spans]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for i, qid, problem in failures[:20]:
        print(f"FAILED pass {i} {qid}: {problem}", file=sys.stderr)
    for name in inconsistent:
        print(f"FAILED counts differ between passes: {name}", file=sys.stderr)
    print("provenance " + json.dumps(details["provenance"], sort_keys=True))
    full = sum(p.kind == "full" for p in passes)
    print(f"{args.workload}: warm-up, {full} full and {len(passes) - 1 - full} light "
          f"passes of {len(queries)} and {run.n_light} queries; "
          f"latency_tail_s is p{tail_percentile:.1f} of {len(typical)} per-query medians; "
          f"failed_ratio {failed / attempted:.4f}")
    print("unscaled " + " ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
