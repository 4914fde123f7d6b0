"""Command-line interface.

Exit codes: 0 on success (and for identity-holds verdicts), 1 when a check
ran and found a counterexample or failure, 2 for usage and validation
errors.  All numeric output is exact (p/q); randomized paths take --seed and
default to seed 0 so runs are reproducible byte for byte.
"""
from __future__ import annotations

import sys

import click

from . import chident, genmat, jsonio, strata
from .findim import (AlgebraValidationError, ch_degree, ch_degree_multisets,
                     recover_weights, trace_kernel)
from .freetrace import TracePoly, parse_trace_poly
from .genrank import generic_algebra_rank
from .pseudochar import (SCAN_MAX_WORK, GroupValidationError,
                         check_pseudocharacter)


def _fail_usage(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Exact trace-identity and trace-algebra computations."""


# chpoly --n takes about 0.7 s, 30 MB and 0.3 MB of output at n = 24, and
# grows 2-2.5x per 4 steps: 1.5 s at 28, 3.5 s and 2.1 MB at 32 (Python
# 3.11.7, 2 cores)
CHPOLY_MAX_N = 24


@main.command()
@click.option("--n", "n", type=int, required=True,
              help=f"Degree of the identity, at most {CHPOLY_MAX_N}.")
def chpoly(n):
    """Print the degree-n one-variable trace identity."""
    if n < 1:
        _fail_usage("--n must be >= 1")
    if n > CHPOLY_MAX_N:
        _fail_usage(f"--n {n} is above the bound {CHPOLY_MAX_N}")
    click.echo(chident.ch_poly(n).render({1: "x"}))


# polarize writes k! terms per term of degree k: 40320 at 8, 479001600 at 12
POLARIZE_MAX_DEGREE = 8


@main.command()
@click.option("--expr", required=True,
              help="One-variable homogeneous expression, e.g. 'x^2 - tr(x)*x', "
                   f"of degree at most {POLARIZE_MAX_DEGREE}.")
def polarize(expr):
    """Print the full polarization (multilinear form) of an expression."""
    try:
        # the bound is checked while parsing, before any power is expanded
        p = parse_trace_poly(expr, max_degree=POLARIZE_MAX_DEGREE)
        result = chident.polarize(p)
    except ValueError as exc:
        _fail_usage(f"--expr: {exc}")
    click.echo(result.render())


# verify --poly builtin:Tk builds k! terms, and the symbolic check reads
# them by the characters of S_k at any size: T8 takes about 0.25-0.5 s and
# 33 MB as a CLI call at size 1 or 2, T9 about 2 s and 180 MB in the
# library, 0.8 s of it to build the terms (Python 3.11.7, 2 cores)
VERIFY_T_MAX_K = 8

# verify --random N draws N integer trials before the symbolic check, each
# one fold of the terms over int entries.  The bound limits the count, not
# the cost, which grows with the size: one trial of builtin:T8 at size 2
# takes about 0.09 s after the first, which also builds the term trie
# (0.24 s in all), and --random 200 on it about 17 s in all, 0.2 s of it
# the symbolic check (Python 3.11.7, 2 cores)
VERIFY_MAX_TRIALS = 200

# after a failed symbolic check, verify draws this many integer trials for
# a printable witness
VERIFY_WITNESS_TRIALS = 200

# verify parses --poly under this degree bound, so x1^99999999999 exits 2
# before its word is built; the bound sits above the identity check's 2^15
# refusal, which x^32768 still meets
VERIFY_MAX_DEGREE = 1 << 16


def _builtin_degree(name: str, prefix: str, letter: str, bound: int) -> int:
    """The positive integer, at most ``bound``, that follows ``prefix`` in
    ``name`` in ASCII digits; one with more digits than the bound is
    refused before it is converted, since ``int`` refuses more than 4300."""
    digits = name[len(prefix):]
    value = digits.lstrip("0")
    if not (digits.isascii() and digits.isdigit() and value):
        raise ValueError(f"{name}: expected {prefix}<{letter}> with a positive "
                         f"integer {letter}")
    if len(value) > len(str(bound)) or int(value) > bound:
        raise ValueError(f"{name}: {letter} = {value} is above the bound {bound}")
    return int(value)


def _builtin_poly(name: str) -> TracePoly:
    """The polynomial --poly names; a builtin's degree is checked against
    its bound before any term is built."""
    if name.startswith("builtin:ch"):
        return chident.ch_poly(_builtin_degree(name, "builtin:ch", "n", CHPOLY_MAX_N))
    if name.startswith("builtin:T"):
        return chident.t_multilinear(_builtin_degree(name, "builtin:T", "k", VERIFY_T_MAX_K))
    return parse_trace_poly(name, max_degree=VERIFY_MAX_DEGREE)


@main.command()
@click.option("--poly", required=True,
              help=f"Expression of degree at most {VERIFY_MAX_DEGREE}, builtin:chN "
                   f"with N at most {CHPOLY_MAX_N}, or builtin:Tk with k at most "
                   f"{VERIFY_T_MAX_K}.")
@click.option("--size", "size", type=int, required=True, help="Matrix size n.")
@click.option("--random", "trials", type=click.IntRange(min=0), default=0,
              help="Try this many random integer tuples before the symbolic check, "
                   f"at most {VERIFY_MAX_TRIALS}.")
@click.option("--seed", type=int, default=0, show_default=True)
def verify(poly, size, trials, seed):
    """Decide whether an expression vanishes on all size-n matrices.

    Exit 0 if it is an identity, 1 with a printed witness otherwise.
    """
    if trials > VERIFY_MAX_TRIALS:
        _fail_usage(f"--random {trials} is above the bound {VERIFY_MAX_TRIALS}")
    try:
        p = _builtin_poly(poly)
    except ValueError as exc:
        _fail_usage(f"--poly: {exc}")
    if size < 1:
        _fail_usage("--size must be >= 1")
    witness = None
    if trials > 0:
        witness = genmat.random_counterexample(p, size, trials=trials, seed=seed)
    if witness is None:
        try:
            holds = genmat.is_trace_identity(p, size)
        except OverflowError as exc:
            _fail_usage(f"--poly: too long for generic matrices: {exc}")
        if not holds:
            witness = genmat.random_counterexample(p, size, trials=VERIFY_WITNESS_TRIALS,
                                                   seed=seed)
            if witness is None:
                # fall back to generic matrices as the witness description
                click.echo("not an identity (generic evaluation is nonzero)")
                sys.exit(1)
    if witness is not None:
        click.echo(f"counterexample for {poly} at size {size}:")
        for var in sorted(witness):
            rows = [[str(e.constant_value()) for e in row]
                    for row in witness[var].rows]
            click.echo(f"  x{var} = {rows}")
        sys.exit(1)
    click.echo(f"identity: {poly} vanishes on all {size}x{size} matrices")
    sys.exit(0)


@main.group()
def algebra():
    """Operations on structure-constant algebras (JSON input)."""


def _load_algebra_file(path):
    try:
        with open(path) as fh:
            return jsonio.load_algebra(fh)
    except (OSError, jsonio.InputFormatError, AlgebraValidationError) as exc:
        _fail_usage(str(exc))


@algebra.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True))
def kernel(path):
    """Print a basis of the kernel of the trace form."""
    a = _load_algebra_file(path)
    k = trace_kernel(a)
    click.echo(f"kernel dimension: {k.dim}")
    for row in k.rows:
        click.echo("  [" + ", ".join(str(c) for c in row) + "]")


# the CH recursion of algebra chdeg builds 300-450 thousand basis multisets
# a second on 13-17 basis elements, most of whose values vanish: 77519
# (M3 + M2 with weights 1, 2) take about 0.35 s and 21 MB as a CLI call
# (0.2-0.25 s of it in ch_degree), and 100946 (M4 + M1 with weights 1, 2),
# refused here, about 0.3 s in process; M4 with its trace doubled needs
# 735470 (Python 3.11.7, 2 cores)
CHDEG_MAX_MULTISETS = 100000
# each n up to --nmax other than t(1) costs a diagnostic line: the trace-0
# algebra prints 0.13 MB in 0.2 s at --nmax 5000 and 2.9 MB in 1 s at 10^5;
# past n = 445 only the one-dimensional algebra fits CHDEG_MAX_MULTISETS,
# and its test at n = t(1) multiplies integers of size n!/(n - k)!: 1.3 s at
# n = 4000, 7.8 s at 10000 (one process per call, Python 3.11.7, 2 cores)
CHDEG_MAX_NMAX = 4000


@algebra.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True))
@click.option("--nmax", type=int, default=8, show_default=True,
              help=f"Largest degree tried, at most {CHDEG_MAX_NMAX}; the test at "
                   f"n = t(1) may build at most {CHDEG_MAX_MULTISETS} basis multisets.")
def chdeg(path, nmax):
    """Print the least degree for which the trace identity holds."""
    if nmax < 1:
        _fail_usage("--nmax must be >= 1")
    if nmax > CHDEG_MAX_NMAX:
        _fail_usage(f"--nmax {nmax} is above the bound {CHDEG_MAX_NMAX}")
    a = _load_algebra_file(path)
    walked = ch_degree_multisets(a, nmax)
    if walked > CHDEG_MAX_MULTISETS:
        _fail_usage(f"the test at n = t(1) = {a.trace_of_unit} would build {walked} "
                    f"basis multisets over {a.dim} basis elements, above the bound "
                    f"{CHDEG_MAX_MULTISETS}")
    diagnostics = []
    n = ch_degree(a, nmax, diagnostics=diagnostics)
    if n is None:
        click.echo(f"none up to n_max={nmax}")
        for line in diagnostics:
            click.echo(f"  {line}")
    else:
        click.echo(str(n))


@algebra.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True))
def weights(path):
    """Recover block weights of a split semisimple algebra (needs blocks)."""
    a = _load_algebra_file(path)
    try:
        wt = recover_weights(a)
    except (ValueError, AlgebraValidationError) as exc:
        _fail_usage(str(exc))
    pairs = " + ".join(f"M{m}(weight {w})" for m, w in zip(wt.sizes, wt.weights))
    click.echo(f"{pairs}; n = {wt.n}")


@algebra.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True))
@click.option("--ell", type=int, default=2, show_default=True,
              help="Number of generic elements.")
@click.option("--seed", type=int, default=0, show_default=True)
def genrank(path, ell, seed):
    """Rank of the generic-element algebra over its trace field."""
    a = _load_algebra_file(path)
    try:
        report = generic_algebra_rank(a, ell, seed=seed)
    except ValueError as exc:
        _fail_usage(str(exc))
    click.echo(f"rank {report.rank} ({report.status})")
    if report.unverified_words:
        click.echo(f"  unverified independents: {report.unverified_words}")
    if not report.stabilized:
        sys.exit(1)


@main.group("pseudochar")
def pseudochar_cmd():
    """Pseudocharacter checks (JSON group and table input)."""


@pseudochar_cmd.command()
@click.option("--group", "group_path", required=True, type=click.Path(exists=True))
@click.option("--char", "char_path", required=True, type=click.Path(exists=True),
              help="Degree-n table; the scan is refused when its C(order + n + 1, "
                   f"n + 1) memo states times n + 1 exceed {SCAN_MAX_WORK}.")
def check(group_path, char_path):
    """Check the degree-n axioms; exit 1 with a witness on failure."""
    try:
        with open(group_path) as fh:
            group = jsonio.load_group(fh)
        with open(char_path) as fh:
            table = jsonio.load_pseudochar(fh, group)
    except (OSError, jsonio.InputFormatError, GroupValidationError) as exc:
        _fail_usage(str(exc))
    try:
        report = check_pseudocharacter(table)
    except ValueError as exc:  # above the scan's bound, before any level is filled
        _fail_usage(str(exc))
    if report.passed:
        click.echo(f"pass: degree-{table.degree} pseudocharacter "
                   f"(exhaustive, {report.tuples_checked} tuples)")
        sys.exit(0)
    if not report.axiom1_ok:
        click.echo(f"fail: t(identity) = {report.axiom1_witness}, "
                   f"expected {table.degree}")
    if not report.axiom2_ok:
        a, b = report.axiom2_witness
        click.echo(f"fail: t(ab) != t(ba) for elements ({a}, {b})")
    if not report.axiom3_ok:
        click.echo(f"fail: alternating trace sum is nonzero on tuple "
                   f"{report.axiom3_witness}")
    sys.exit(1)


# the model, the discriminant of the generic degree-n polynomial and its
# kernel-vector check take 0.11-0.19 s and under 30 MB at n = 8, and 0.9-1.2 s
# and 73-78 MB at n = 9 (Python 3.11.7, 2 cores)
ONEVAR_MAX_WEIGHT = 8
# strata --n 16 --ell 2 --poset json takes about 0.5 s and 53 MB, and the same
# poset at n = 18 about 1.0 s and 103 MB; the type count grows about 1.5x per
# step (3186 types at n = 16, 6959 at n = 18; Python 3.11.7, 2 cores)
STRATA_MAX_N = 16


@main.command("strata")
@click.option("--n", "n", type=int, required=True,
              help=f"Matrix size, at most {STRATA_MAX_N}.")
@click.option("--ell", type=int, required=True)
@click.option("--poset", "poset_format", type=click.Choice(["dot", "json"]),
              default=None, help="Emit the closure poset.")
@click.option("--dims", "show_dims", is_flag=True, help="Print dimension table.")
def strata_cmd(n, ell, poset_format, show_dims):
    """Enumerate stratum types; optionally the closure poset and dimensions."""
    if n > STRATA_MAX_N:
        _fail_usage(f"--n {n} is above the bound {STRATA_MAX_N}")
    try:
        poset = strata.stratification_poset(n, ell)
    except ValueError as exc:
        _fail_usage(str(exc))
    if poset_format == "dot":
        click.echo(poset.to_dot())
        return
    if poset_format == "json":
        click.echo(poset.to_json())
        return
    click.echo(f"{len(poset.nodes)} stratum types for n={n}, ell={ell}")
    for s in poset.nodes:
        if show_dims:
            d = strata.stratum_dims(s, ell)
            click.echo(f"  {s.label()}: stratum dim {d.stratum_dim}, "
                       f"sheet dim {d.sheet_dim}, stabilizer dim {d.stabilizer_dim} "
                       f"(projective {d.projective_stabilizer_dim})")
        else:
            click.echo(f"  {s.label()}")
    flagged = poset.flagged_edges
    click.echo(f"{len(poset.covers)} covering edges, "
               f"{len(flagged)} of codimension 1")
    for e in flagged:
        click.echo(f"  codim-1: {e.lower.label()} < {e.upper.label()} "
                   "(ell=2, 2x2 block split)")


@main.command()
@click.option("--weights", "weights_text", required=True,
              help="Comma-separated eigenvalue multiplicities, e.g. '1,2', "
                   f"summing to at most {ONEVAR_MAX_WEIGHT}.")
def onevar(weights_text):
    """One-variable diagonal model and its coefficient relation."""
    try:
        mults = tuple(int(x) for x in weights_text.split(","))
    except ValueError:
        _fail_usage("--weights must be comma-separated integers")
    if sum(mults) > ONEVAR_MAX_WEIGHT:
        _fail_usage(f"--weights sum to {sum(mults)}, above the bound {ONEVAR_MAX_WEIGHT}")
    try:
        model = genmat.diagonal_model(mults)
    except ValueError as exc:
        _fail_usage(str(exc))
    click.echo(f"n = {model.size}; multiplicities {model.multiplicities}")
    for j, alpha in enumerate(model.charpoly_coeffs, start=1):
        click.echo(f"  a{j} = {alpha}")
    if any(a >= 2 for a in mults):
        relation = genmat.discriminant_relation(mults)
        click.echo(f"coefficient relation (discriminant): {relation} = 0")
    else:
        click.echo("no forced relation: all multiplicities are 1")


if __name__ == "__main__":
    main()
