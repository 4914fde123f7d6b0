"""Workloads of the tracealg benchmark.

A workload is a fixed list of queries built from a seed.  Each query has a
``run`` step, which is timed and calls into tracealg, and a ``check`` step,
which is not timed and compares the answer with the answer key or with an
exact identity.  Inputs are built by ``build`` from the tracealg modules passed
in, so that the benchmark can import the package afresh for every set-up.

Calls into a tracealg layer go through ``ctx.call(name, fn, ...)``, which
records a span when the run is traced.  Counts read from return values go
through ``ctx.count(name, n)``.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

WORKLOADS = ("formal", "verify", "session")

# Per-layer metrics of every workload: (name, unit).  Names ending in "_s"
# are the summed durations of the spans with the name minus that suffix.
PER_LAYER = (
    ("chident.ch_multilinear_s", "s"),
    ("chident.ch_multilinear.terms", "count"),
    ("chident.t_multilinear_s", "s"),
    ("chident.polarize_s", "s"),
    ("chident.polarize.terms", "count"),
    ("freetrace.parse_s", "s"),
    ("freetrace.parse.chars", "count"),
    ("freetrace.render_s", "s"),
    ("freetrace.substitute_s", "s"),
    ("genmat.is_trace_identity_s", "s"),
    ("genmat.generic_vars", "count"),
    ("genmat.input_words", "count"),
    ("genmat.random_counterexample_s", "s"),
    ("genmat.witnesses", "count"),
    ("genmat.discriminant_relation_s", "s"),
    ("mpoly.discriminant.terms", "count"),
    ("cli.invoke_s", "s"),
    ("cli.invocations", "count"),
    ("findim.ch_degree_s", "s"),
    ("findim.ch_degree.multisets", "count"),
    ("findim.trace_kernel_s", "s"),
    ("findim.recover_weights_s", "s"),
    ("jsonio.load_s", "s"),
    ("genrank.generic_algebra_rank_s", "s"),
    ("genrank.basis_words", "count"),
    ("genrank.dependent_words", "count"),
    ("genrank.unverified_words", "count"),
    ("genrank.shortcuts", "count"),
    ("pseudochar.check_pseudocharacter_s", "s"),
    ("pseudochar.tuples_checked", "count"),
    ("pseudochar.pseudochar_kernel_s", "s"),
    ("characters.character_table_s", "s"),
    ("strata.stratification_poset_s", "s"),
    ("strata.covers", "count"),
    ("strata.closure_leq.hits", "count"),
    ("strata.closure_leq.misses", "count"),
    ("cache.entries", "count"),
    ("bench.trace_overhead", "ratio"),
)

_THEORY_UNSET = object()


@dataclass
class Query:
    qid: str
    run: Callable      # run(ctx) -> answer; timed
    check: Callable    # check(answer, ctx) -> list of problems; not timed


class Context:
    """What queries see: the tracealg modules, the tracer, the answer key and
    the state one pass shares between its queries."""

    def __init__(self, lib, tracer, key, recording=None):
        self.lib = lib
        self.tracer = tracer
        self.key = key
        self.recording = recording
        self.state = {}

    def call(self, name, fn, *args, **kwargs):
        return self.tracer.call(name, fn, *args, **kwargs)

    def count(self, name, n):
        self.tracer.count(name, n)

    def expect(self, name, actual, theory=_THEORY_UNSET):
        """Compare an answer with the answer key; None when it matches.

        When recording a key, store the theory value if one is given (and
        report a program that disagrees with it), else the program's answer.
        """
        actual = json.loads(json.dumps(actual))
        if self.recording is not None:
            if theory is _THEORY_UNSET:
                self.recording[name] = actual
                return None
            theory = json.loads(json.dumps(theory))
            self.recording[name] = theory
            if actual != theory:
                return f"{name}: program gives {actual!r}, theory says {theory!r}"
            return None
        if name not in self.key:
            return f"{name}: missing from the answer key"
        if actual != self.key[name]:
            return f"{name}: got {actual!r}, expected {self.key[name]!r}"
        return None


def problems(*items):
    return [p for p in items if p]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _permutation(rng, n):
    """A seeded permutation of range(n), not the identity when n > 1."""
    perm = list(range(n))
    while n > 1 and perm == list(range(n)):
        rng.shuffle(perm)
    return perm


# Queries that take seconds each at the seed commit.  ``build`` moves them to
# the end of the list, in this order, so that the queries before them run
# the same whether or not a pass goes on to the heavy ones.  run.py runs them
# in full passes only.  strata.8.3 is cheap after strata.8.2, which fills the
# closure cache, and costs as much on its own; it stays after strata.8.2.
HEAVY = {
    "formal": ("chm.6", "roundtrip.chm.6"),
    "verify": ("identity.chm.4@4", "identity.T.5@3", "discriminant.1,1,1,2"),
    "session": ("algebra.M2+M2", "pseudochar.D6.scan4", "strata.8.2", "strata.8.3"),
}


def build(workload, lib, seed):
    """The workload's queries: the light ones, then the heavy ones."""
    builders = {"formal": _formal, "verify": _verify, "session": _session}
    queries = builders[workload](lib, random.Random(f"{workload}:{seed}"))
    heavy = HEAVY[workload]
    missing = set(heavy) - {q.qid for q in queries}
    if missing:
        raise ValueError(f"heavy queries not in {workload}: {sorted(missing)}")
    return ([q for q in queries if q.qid not in heavy]
            + sorted((q for q in queries if q.qid in heavy), key=lambda q: heavy.index(q.qid)))


# -- formal ---------------------------------------------------------------------

RANDOM_POLYS = 8
RANDOM_POLY_TERMS = 60
RANDOM_POLY_VARS = 4


def _random_trace_poly(ft, rng):
    """A trace polynomial with a fixed number of distinct monomials."""
    monomials = {}
    while len(monomials) < RANDOM_POLY_TERMS:
        mono = ft.TracePoly.word(
            [rng.randint(1, RANDOM_POLY_VARS) for _ in range(rng.randint(0, 4))])
        for _ in range(rng.randint(0, 2)):
            mono = mono * ft.TracePoly.trace_symbol(
                [rng.randint(1, RANDOM_POLY_VARS) for _ in range(rng.randint(1, 3))])
        (monomial_key,) = mono.terms
        monomials[monomial_key] = mono
    out = ft.TracePoly.zero()
    for mono in monomials.values():
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        out = out + coeff * mono
    return out


def _formal(lib, rng):
    ft, ch = lib.freetrace, lib.chident
    queries = []

    def keep(ctx, label, poly, text=None):
        ctx.state.setdefault("poly", {})[label] = poly
        if text is not None:
            ctx.state.setdefault("text", {})[label] = text

    def poly(ctx, label):
        return ctx.state["poly"][label]

    def produce(label, layer, fn, arg, terms, counter=None):
        def run(ctx):
            p = ctx.call(layer, fn, arg)
            text = ctx.call("freetrace.render", p.render)
            keep(ctx, label, p, text)
            return p, text

        def check(answer, ctx):
            p, text = answer
            if counter:
                ctx.count(counter, len(p.terms))
            return problems(
                terms is not None and ctx.expect(f"{label}.terms", len(p.terms),
                                                 theory=terms),
                ctx.expect(f"{label}.render_sha256", sha256(text)))
        queries.append(Query(label, run, check))

    for n in range(1, 7):
        produce(f"chm.{n}", "chident.ch_multilinear", ch.ch_multilinear, n,
                math.factorial(n + 1), "chident.ch_multilinear.terms")
    for k in range(1, 7):
        produce(f"tm.{k}", "chident.t_multilinear", ch.t_multilinear, k,
                math.factorial(k))
    for n in range(1, 6):
        produce(f"chpoly.{n}", "chident.ch_poly", ch.ch_poly, n, None)

    for n in range(1, 6):
        def run(ctx, n=n):
            p = ctx.call("chident.polarize", ch.polarize, poly(ctx, f"chpoly.{n}"))
            return p, ctx.call("freetrace.render", p.render)

        def check(answer, ctx, n=n):
            p, text = answer
            ctx.count("chident.polarize.terms", len(p.terms))
            return problems(
                None if p == poly(ctx, f"chm.{n}") else "polarize(CH_n) != CH(x_1..x_n)",
                ctx.expect(f"polarize.{n}.render_sha256", sha256(text)))
        queries.append(Query(f"polarize.{n}", run, check))

    for n in range(1, 6):
        def run(ctx, n=n):
            return ctx.call("chident.restitute", ch.restitute, poly(ctx, f"chm.{n}"))

        def check(answer, ctx, n=n):
            if answer != math.factorial(n) * poly(ctx, f"chpoly.{n}"):
                return ["restitute(CH(x_1..x_n)) != n! CH_n"]
            return []
        queries.append(Query(f"restitute.{n}", run, check))

    for n in range(1, 6):
        def run(ctx, n=n):
            product = poly(ctx, f"chm.{n}") * ft.x(n + 1)
            return ctx.call("freetrace.formal_trace", ft.formal_trace, product)

        def check(answer, ctx, n=n):
            if answer != (-1) ** n * poly(ctx, f"tm.{n + 1}"):
                return ["tr(CH_n * x_{n+1}) != (-1)^n T_{n+1}"]
            return []
        queries.append(Query(f"pairing.{n}", run, check))

    # CH(x_1..x_n) is symmetric, so a relabeling of its variables fixes it.
    for n in range(2, 6):
        perm = _permutation(rng, n)
        mapping = {i + 1: ft.x(perm[i] + 1) for i in range(n)}

        def run(ctx, n=n, mapping=mapping):
            return ctx.call("freetrace.substitute", ft.substitute,
                            poly(ctx, f"chm.{n}"), mapping)

        def check(answer, ctx, n=n):
            return [] if answer == poly(ctx, f"chm.{n}") else ["relabeled CH changed"]
        queries.append(Query(f"relabel.chm.{n}", run, check))

    randoms = [_random_trace_poly(ft, rng) for _ in range(RANDOM_POLYS)]
    for i, p in enumerate(randoms):
        def run(ctx, i=i, p=p):
            text = ctx.call("freetrace.render", p.render)
            keep(ctx, f"random.{i}", p, text)
            return text

        def check(answer, ctx):
            return [] if answer else ["empty rendering"]
        queries.append(Query(f"random.{i}", run, check))

    for i, p in enumerate(randoms):
        perm = _permutation(rng, RANDOM_POLY_VARS)
        forward = {v + 1: ft.x(perm[v] + 1) for v in range(RANDOM_POLY_VARS)}
        backward = {perm[v] + 1: ft.x(v + 1) for v in range(RANDOM_POLY_VARS)}

        def run(ctx, p=p, forward=forward):
            return ctx.call("freetrace.substitute", ft.substitute, p, forward)

        def check(answer, ctx, p=p, backward=backward):
            if ft.substitute(answer, backward) != p:
                return ["relabeling back does not recover the polynomial"]
            return []
        queries.append(Query(f"relabel.random.{i}", run, check))

    labels = ([f"chm.{n}" for n in range(1, 7)] + [f"tm.{k}" for k in range(1, 7)]
              + [f"chpoly.{n}" for n in range(1, 6)]
              + [f"random.{i}" for i in range(RANDOM_POLYS)])
    for label in labels:
        def run(ctx, label=label):
            return ctx.call("freetrace.parse", ft.parse_trace_poly,
                            ctx.state["text"][label])

        def check(answer, ctx, label=label):
            text = ctx.state["text"][label]
            ctx.count("freetrace.parse.chars", len(text))
            return problems(
                None if answer == poly(ctx, label) else "parse(render(p)) != p",
                None if answer.render() == text else "render(parse(text)) != text")
        queries.append(Query(f"roundtrip.{label}", run, check))
    return queries


# -- verify ---------------------------------------------------------------------

WITNESS_TRIALS = 30

# (label, matrix size, holds) with the known verdicts:
# CH_n and its multilinear form vanish on m x m matrices iff m <= n;
# T_k vanishes on n x n matrices iff n <= k - 1;
# s_4 and Hall's [[x1,x2]^2, x3] vanish at size 2, not at size 3.
# T_5 at sizes 4 and 5 is left out: one check takes seconds on its own.
IDENTITY_CASES = (
    [(f"ch.{n}", m, m <= n) for n in range(1, 5) for m in range(1, n + 2)]
    + [(f"T.{k}", n, n <= k - 1) for k in range(2, 6) for n in range(1, k + 1)
       if (k, n) not in ((5, 4), (5, 5))]
    + [(f"chm.{n}", m, m <= n) for n in range(2, 5) for m in (n, n + 1)
       if (n, m) != (4, 5)]
    + [("s4", 2, True), ("s4", 3, False), ("hall", 2, True), ("hall", 3, False)]
)

DISCRIMINANT_CASES = ((1, 2), (1, 1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (1, 1, 3),
                      (1, 2, 2), (1, 1, 1, 2))

HALL_TEXT = "(x1*x2 - x2*x1)^2*x3 - x3*(x1*x2 - x2*x1)^2"
CLI_CASES = (
    ("chpoly.3", ["chpoly", "--n", "3"]),
    ("chpoly.4", ["chpoly", "--n", "4"]),
    ("polarize.ch3", ["polarize", "--expr",
                      "x^3 - tr(x)*x^2 + 1/2*tr(x)^2*x - 1/2*tr(x^2)*x"
                      " - 1/6*tr(x)^3 + 1/2*tr(x)*tr(x^2) - 1/3*tr(x^3)"]),
    ("verify.commutator.1", ["verify", "--poly", "x1*x2 - x2*x1", "--size", "1"]),
    ("verify.ch2.2", ["verify", "--poly", "builtin:ch2", "--size", "2"]),
    ("verify.ch2.3", ["verify", "--poly", "builtin:ch2", "--size", "3", "--random", "10"]),
    ("verify.ch3.3", ["verify", "--poly", "builtin:ch3", "--size", "3"]),
    ("verify.cyclic.4", ["verify", "--poly", "tr(x1*x2) - tr(x2*x1)", "--size", "4"]),
    ("verify.T3.2", ["verify", "--poly", "builtin:T3", "--size", "2"]),
    ("verify.T3.3", ["verify", "--poly", "builtin:T3", "--size", "3"]),
    ("verify.hall.2", ["verify", "--poly", HALL_TEXT, "--size", "2"]),
    ("verify.hall.3", ["verify", "--poly", HALL_TEXT, "--size", "3", "--random", "5"]),
    ("verify.parse_error", ["verify", "--poly", "x1 +", "--size", "2"]),
    ("onevar.1,2", ["onevar", "--weights", "1,2"]),
    ("onevar.1,1,2", ["onevar", "--weights", "1,1,2"]),
)


def _standard_polynomial(ft, k):
    out = ft.TracePoly.zero()
    for perm in permutations(range(1, k + 1)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        out = out + (-1) ** inversions * ft.TracePoly.word(perm)
    return out


def _distinct_words(p):
    words = set()
    for (w, traces) in p.terms:
        words.add(w)
        words.update(traces)
    return len(words)


def _verify(lib, rng):
    ft, ch, gm = lib.freetrace, lib.chident, lib.genmat
    bases = {"s4": _standard_polynomial(ft, 4), "hall": ft.parse_trace_poly(HALL_TEXT)}
    for n in range(1, 5):
        bases[f"ch.{n}"] = ch.ch_poly(n)
    for k in range(2, 6):
        bases[f"T.{k}"] = ch.t_multilinear(k)
    for n in range(2, 5):
        bases[f"chm.{n}"] = ch.ch_multilinear(n)

    # Seeded variants keep the verdict: an injective relabeling of the
    # variables and a nontrivial rational multiple.
    variants = {}
    for label, base in bases.items():
        old = sorted(base.variables())
        new = rng.sample(range(1, len(old) + 2), len(old))
        scale = Fraction(rng.choice((-1, 1)) * rng.choice((3, 5, 7)), rng.choice((2, 11, 13)))
        variant = scale * ft.substitute(base, {v: ft.x(w) for v, w in zip(old, new)})
        variants[label] = variant
    queries = []

    for label, size, holds in IDENTITY_CASES:
        p = variants[label]
        generic_vars = len(p.variables()) * size * size
        words = _distinct_words(p)

        def run(ctx, p=p, size=size):
            return ctx.call("genmat.is_trace_identity", gm.is_trace_identity, p, size)

        def check(answer, ctx, case=f"{label}@{size}", holds=holds,
                  generic_vars=generic_vars, words=words):
            ctx.count("genmat.generic_vars", generic_vars)
            ctx.count("genmat.input_words", words)
            return problems(ctx.expect(f"verdict.{case}", answer, theory=holds))
        queries.append(Query(f"identity.{label}@{size}", run, check))

    for label, size, holds in IDENTITY_CASES:
        if holds:
            continue
        p = variants[label]
        trial_seed = rng.randrange(2 ** 31)

        def run(ctx, p=p, size=size, trial_seed=trial_seed):
            return ctx.call("genmat.random_counterexample", gm.random_counterexample,
                            p, size, trials=WITNESS_TRIALS, seed=trial_seed)

        def check(answer, ctx, p=p, size=size):
            if answer is None:
                return [f"no counterexample in {WITNESS_TRIALS} trials"]
            ctx.count("genmat.witnesses", 1)
            if gm.evaluate(p, answer, size).is_zero():
                return ["witness does not re-evaluate to a nonzero matrix"]
            return []
        queries.append(Query(f"counterexample.{label}@{size}", run, check))

    for mults in DISCRIMINANT_CASES:
        order = _permutation(rng, len(mults))
        shuffled = tuple(mults[i] for i in order)
        n = sum(mults)

        def run(ctx, shuffled=shuffled):
            return ctx.call("genmat.discriminant_relation", gm.discriminant_relation,
                            shuffled)

        def check(answer, ctx, n=n):
            ctx.count("mpoly.discriminant.terms", len(answer.terms))
            # the discriminant of the generic degree-n polynomial depends on n only
            return problems(ctx.expect(f"discriminant.n{n}.sha256", sha256(str(answer))))
        queries.append(Query(f"discriminant.{','.join(map(str, mults))}", run, check))

    from click.testing import CliRunner
    for label, argv in CLI_CASES:
        def run(ctx, argv=argv):
            return ctx.call("cli.invoke", CliRunner().invoke, lib.cli.main, argv)

        def check(result, ctx, label=label):
            ctx.count("cli.invocations", 1)
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                return [f"raised {type(result.exception).__name__}: {result.exception}"]
            return problems(
                ctx.expect(f"cli.{label}.exit_code", result.exit_code),
                ctx.expect(f"cli.{label}.stdout_sha256", sha256(result.stdout_bytes)))
        queries.append(Query(f"cli.{label}", run, check))
    return queries


# -- session --------------------------------------------------------------------

# (label, weighted semisimple pairs or None for the dual numbers)
ALGEBRAS = (
    ("M2", ((2, 1),)),
    ("Q+Q2", ((1, 1), (1, 2))),
    ("Q3", ((1, 1), (1, 1), (1, 1))),
    ("M2+Q", ((2, 1), (1, 1))),
    ("M2w2", ((2, 2),)),
    ("M2+Q2", ((2, 1), (1, 2))),
    ("M3", ((3, 1),)),
    ("M2+M2", ((2, 1), (2, 1))),
    ("dual", None),
)

# (algebra label, ell): the generic-element rank is dim A for a semisimple
# algebra and ell + 1 for the dual numbers.
GENRANK_CASES = (("M2", 2), ("M2", 3), ("M2+Q", 2), ("dual", 2))

# (label, constructor name and arguments, number of classes, sorted degrees)
GROUPS = (
    ("C3", ("cyclic_group", 3), [1, 1, 1]),
    ("C4", ("cyclic_group", 4), [1] * 4),
    ("V4", ("klein_four_group",), [1] * 4),
    ("C5", ("cyclic_group", 5), [1] * 5),
    ("S3", ("symmetric_group_3",), [1, 1, 2]),
    ("C6", ("cyclic_group", 6), [1] * 6),
    ("D4", ("dihedral_group", 4), [1, 1, 1, 1, 2]),
    ("Q8", ("quaternion_group",), [1, 1, 1, 1, 2]),
    ("C4xC2", ("c4xc2",), [1] * 8),
    ("D5", ("dihedral_group", 5), [1, 1, 2, 2]),
    ("D6", ("dihedral_group", 6), [1, 1, 1, 1, 2, 2]),
    ("C12", ("cyclic_group", 12), [1] * 12),
)

# Groups whose two-dimensional characters get pseudochar_kernel: the quotient
# of Q[G] by the kernel is M_2(Q), or the rational quaternions for Q8.
KERNEL_GROUPS = ("S3", "D4", "Q8", "D6")

D6_SCAN_DEGREE = 4

CH_DEGREE_MAX = 8   # the default of `tracealg algebra chdeg`

STRATA_CASES = ((5, 2), (6, 2), (6, 3), (7, 2), (8, 2), (8, 3))


def _permuted_algebra_json(jsonio, algebra, perm):
    """The algebra's JSON with basis element i renamed perm[i]."""
    data = json.loads(jsonio.dump_algebra(algebra))
    d = data["dim"]
    mul = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            mul[perm[i]][perm[j]] = [[perm[k], c] for k, c in data["mul"][i][j]]
    data["mul"] = mul
    for field in ("basis", "unit", "trace"):
        moved = [None] * d
        for i, value in enumerate(data[field]):
            moved[perm[i]] = value
        data[field] = moved
    if "blocks" in data:
        data["blocks"] = [[m, [perm[i] for i in idxs]] for m, idxs in data["blocks"]]
    return json.dumps(data)


def _relabeled_group_json(group, perm):
    n = group.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.mult(a, b)]
    return json.dumps({"order": n, "table": table, "identity": perm[group.identity]})


def _group(pc, spec):
    if spec[0] == "c4xc2":
        return pc.direct_product(pc.cyclic_group(4), pc.cyclic_group(2))
    return getattr(pc, spec[0])(*spec[1:])


def _is_rational(value):
    return isinstance(value, Fraction)


def _degree(value):
    return int(value if _is_rational(value) else value.as_rational())


def _degree_combinations(degrees, total):
    """Multisets of character indices whose degrees sum to total."""
    out = []

    def rec(start, remaining, chosen):
        if remaining == 0:
            out.append(tuple(chosen))
            return
        for i in range(start, len(degrees)):
            if degrees[i] <= remaining:
                rec(i, remaining - degrees[i], chosen + [i])
    rec(0, total, [])
    return out


def _session(lib, rng):
    fd, gr, pc, ct, st, jsonio = (lib.findim, lib.genrank, lib.pseudochar,
                                  lib.characters, lib.strata, lib.jsonio)
    queries = []

    def algebra(ctx, label):
        return ctx.state["algebra"][label]

    def group(ctx, label):
        return ctx.state["group"][label]

    dims = {}
    for label, pairs in ALGEBRAS:
        a = fd.dual_numbers() if pairs is None else fd.weighted_semisimple(pairs)
        dims[label] = a.dim
        text = _permuted_algebra_json(jsonio, a, _permutation(rng, a.dim))
        n = 2 if pairs is None else sum(m * w for m, w in pairs)
        kernel_dim = 1 if pairs is None else 0
        multisets = math.comb(a.dim + n - 1, n)

        def run(ctx, text=text, label=label, with_weights=pairs is not None):
            loaded = ctx.call("jsonio.load", jsonio.load_algebra, text)
            ctx.state.setdefault("algebra", {})[label] = loaded
            degree = ctx.call("findim.ch_degree", fd.ch_degree, loaded, CH_DEGREE_MAX)
            kernel = ctx.call("findim.trace_kernel", fd.trace_kernel, loaded)
            weights = ctx.call("findim.recover_weights", fd.recover_weights,
                               loaded).pairs() if with_weights else None
            return loaded.dim, degree, kernel.dim, weights

        def check(answer, ctx, label=label, pairs=pairs, dim=a.dim, n=n,
                  kernel_dim=kernel_dim, multisets=multisets):
            loaded_dim, degree, found_kernel_dim, weights = answer
            ctx.count("findim.ch_degree.multisets", multisets)
            return problems(
                None if loaded_dim == dim else f"loaded dimension {loaded_dim}, expected {dim}",
                ctx.expect(f"ch_degree.{label}", degree, theory=n),
                ctx.expect(f"trace_kernel.{label}.dim", found_kernel_dim, theory=kernel_dim),
                pairs and ctx.expect(f"recover_weights.{label}", sorted(weights),
                                     theory=sorted(pairs)))
        queries.append(Query(f"algebra.{label}", run, check))

    for label, ell in GENRANK_CASES:
        rank_seed = rng.randrange(2 ** 31)
        rank = ell + 1 if label == "dual" else dims[label]

        def run(ctx, label=label, ell=ell, rank_seed=rank_seed):
            return ctx.call("genrank.generic_algebra_rank", gr.generic_algebra_rank,
                            algebra(ctx, label), ell, seed=rank_seed)

        def check(report, ctx, case=f"{label}.ell{ell}", rank=rank):
            ctx.count("genrank.basis_words", len(report.basis_words))
            ctx.count("genrank.dependent_words", len(report.dependent_words))
            ctx.count("genrank.unverified_words", len(report.unverified_words))
            ctx.count("genrank.shortcuts", int(report.nondegenerate_shortcut))
            return problems(
                ctx.expect(f"generic_rank.{case}", report.rank, theory=rank),
                ctx.expect(f"generic_rank.{case}.stabilized", report.stabilized,
                           theory=True))
        queries.append(Query(f"generic_rank.{label}.ell{ell}", run, check))

    for label, spec, degrees in GROUPS:
        g = _group(pc, spec)
        text = _relabeled_group_json(g, _permutation(rng, g.order))

        def run(ctx, label=label, text=text):
            loaded = ctx.call("jsonio.load", jsonio.load_group, text)
            ctx.state.setdefault("group", {})[label] = loaded
            table = ctx.call("characters.character_table", ct.character_table, loaded)
            ctx.state.setdefault("characters", {})[label] = table
            return loaded, table

        def check(answer, ctx, label=label, degrees=degrees, order=g.order):
            loaded, table = answer
            found = sorted(_degree(chi[loaded.identity]) for chi in table)
            return problems(
                None if loaded.order == order else f"loaded order {loaded.order}",
                ctx.expect(f"character_table.{label}.degrees", found, theory=degrees))
        queries.append(Query(f"group.{label}", run, check))

        def run(ctx, label=label):
            g = group(ctx, label)
            return [ctx.call("pseudochar.check_pseudocharacter", pc.check_pseudocharacter,
                             pc.PseudoCharTable(g, _degree(chi[g.identity]), tuple(chi)))
                    for chi in ctx.state["characters"][label]]

        def check(reports, ctx, label=label):
            for report in reports:
                ctx.count("pseudochar.tuples_checked", report.tuples_checked)
            return problems(*(ctx.expect(f"pseudochar.{label}.{i}.passed", report.passed,
                                         theory=True)
                              for i, report in enumerate(reports)))
        queries.append(Query(f"pseudochar.{label}", run, check))

        # Adding 1 to one value of a rational character breaks an axiom; each
        # reported witness is re-checked exactly.
        positions = [rng.randrange(g.order) for _ in degrees]

        def run(ctx, label=label, positions=positions):
            g = group(ctx, label)
            out = []
            for chi, position in zip(ctx.state["characters"][label], positions):
                if all(_is_rational(v) for v in chi):
                    values = list(chi)
                    values[position] += 1
                    table = pc.PseudoCharTable(g, _degree(chi[g.identity]), tuple(values))
                    out.append((table, ctx.call("pseudochar.check_pseudocharacter",
                                                pc.check_pseudocharacter, table)))
            return out

        def check(answer, ctx):
            found = []
            for table, report in answer:
                ctx.count("pseudochar.tuples_checked", report.tuples_checked)
                found += _recheck_witness(pc, table, report)
            return found if answer else ["no rational character to perturb"]
        queries.append(Query(f"perturbed.{label}", run, check))

    # The D6 scan runs on a seeded sum of irreducible characters of degree 4,
    # which is a pseudocharacter of degree 4 whatever the choice.
    pick = rng.random()

    def run(ctx):
        g = group(ctx, "D6")
        table = ctx.state["characters"]["D6"]
        degrees = [_degree(chi[g.identity]) for chi in table]
        options = _degree_combinations(degrees, D6_SCAN_DEGREE)
        choice = options[int(pick * len(options))]
        values = tuple(sum((table[i][e] for i in choice), Fraction(0))
                       for e in range(g.order))
        return ctx.call("pseudochar.check_pseudocharacter", pc.check_pseudocharacter,
                        pc.PseudoCharTable(g, D6_SCAN_DEGREE, values))

    def check(report, ctx):
        ctx.count("pseudochar.tuples_checked", report.tuples_checked)
        return problems(
            ctx.expect("pseudochar.D6.scan.passed", report.passed, theory=True),
            ctx.expect("pseudochar.D6.scan.exhaustive", report.exhaustive, theory=True),
            ctx.expect("pseudochar.D6.scan.tuples", report.tuples_checked,
                       theory=math.comb(12 + D6_SCAN_DEGREE, D6_SCAN_DEGREE + 1)))
    queries.append(Query(f"pseudochar.D6.scan{D6_SCAN_DEGREE}", run, check))

    for label in KERNEL_GROUPS:
        def run(ctx, label=label):
            g = group(ctx, label)
            chi = next(c for c in ctx.state["characters"][label]
                       if _degree(c[g.identity]) == 2)
            kernel, quotient = ctx.call("pseudochar.pseudochar_kernel", pc.pseudochar_kernel,
                                        pc.PseudoCharTable(g, 2, tuple(chi)))
            return kernel.dim, quotient.dim

        def check(answer, ctx, label=label):
            order = group(ctx, label).order
            return problems(ctx.expect(f"pseudochar_kernel.{label}.dims", list(answer),
                                       theory=[order - 4, 4]))
        queries.append(Query(f"pseudochar_kernel.{label}", run, check))

    for n, ell in STRATA_CASES:
        def run(ctx, n=n, ell=ell):
            before = st.closure_leq.cache_info()
            poset = ctx.call("strata.stratification_poset", st.stratification_poset, n, ell)
            after = st.closure_leq.cache_info()
            ctx.count("strata.closure_leq.hits", after.hits - before.hits)
            ctx.count("strata.closure_leq.misses", after.misses - before.misses)
            return poset

        def check(poset, ctx, case=f"n{n}.ell{ell}"):
            ctx.count("strata.covers", len(poset.covers))
            return problems(
                ctx.expect(f"strata.{case}.nodes", len(poset.nodes)),
                ctx.expect(f"strata.{case}.covers", len(poset.covers)),
                ctx.expect(f"strata.{case}.json_sha256", sha256(poset.to_json())))
        queries.append(Query(f"strata.{n}.{ell}", run, check))
    return queries


def _recheck_witness(pc, table, report):
    """Problems with a failing report: it must fail and carry a true witness."""
    if report.passed:
        return ["perturbed table passed"]
    g, values = table.group, table.values
    if not report.axiom1_ok and values[g.identity] != table.degree:
        return []
    if report.axiom2_witness is not None:
        a, b = report.axiom2_witness
        if values[g.mult(a, b)] != values[g.mult(b, a)]:
            return []
    if report.axiom3_witness is not None:
        if pc.multilinear_trace_sum(g, values, report.axiom3_witness) != 0:
            return []
    return ["no witness re-checks"]
