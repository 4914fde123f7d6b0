"""Lints over the library sources.

Library checks must survive ``python -O``, which strips ``assert``, no
module imports a name it never uses, every function has a caller in the
library or the benchmark, ``findim`` imports no free-algebra module,
``cyclotomic`` only ``sparse`` and ``linalg`` no ``tracealg`` module at
all, only the algebra's own methods and its JSON dump read its structure
constants, no function in ``genmat`` calls itself, ``genrank`` reads
its random numbers only where it makes its specialization points,
``chident`` imports nothing from ``mpoly``, and the generic-matrix fold of
``is_trace_identity`` adds no name to ``mpoly``'s table.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tracealg").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}; raise explicitly instead"


def _imported_names(tree):
    """Name bound by each import statement -> its line, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree):
    """Every name read in the module, plus the re-exports listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _imported_names(tree).keys() - _referenced_names(tree)
    assert not unused, f"{path.name}: unused import(s) {sorted(unused)}"


def _is_cli_command(node):
    """True for a function registered by a click decorator (``@x.command``
    or ``@x.group``); click calls it, so no reference names it."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


# Kept with no library caller, each for the open ROADMAP item that reads it.
KEPT_FOR = {
    "conjugacy_classes": "item 3 decomposes class functions on the classes",
    "inner_product": "item 3 reads the multiplicities <t, chi_i>",
    "fully_certified": "item 1 makes it true for the dual numbers",
}


def _dead_definitions(sources, callers, kept=()):
    """Each function or method defined in ``sources`` (file name -> tree)
    that no tree in ``callers`` references by a name, an attribute or a
    string constant (so ``__all__`` counts), and ``kept`` does not name.
    Dunders and click commands are exempt."""
    referenced = set(kept)
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    return [f"{name}:{node.lineno} {node.name}"
            for name, tree in sources.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not _is_cli_command(node) and node.name not in referenced]


def test_the_dead_definition_lint_counts_only_library_callers():
    lib = ast.parse("__all__ = ['exported']\n"
                    "def exported():\n    pass\n"
                    "def called():\n    pass\n"
                    "def tested():\n    pass\n"
                    "def planned():\n    pass\n"
                    "class A:\n    def method(self):\n        pass\n"
                    "    def __neg__(self):\n        pass\n"
                    "@main.command()\ndef cmd():\n    pass\n")
    caller = ast.parse("called(A().method)\n")
    tests = ast.parse("tested()\n")
    assert _dead_definitions({"lib.py": lib}, [lib, caller], kept={"planned"}) == ["lib.py:6 tested"]
    assert _dead_definitions({"lib.py": lib}, [lib, caller, tests], kept={"planned"}) == []


def test_no_dead_definitions():
    """Every function and method defined in the library has a caller in
    ``src/`` or ``perfbench/``, or is exported by ``__all__``: a reference
    from ``tests/`` alone keeps nothing alive.  ``KEPT_FOR`` names the
    exceptions, each with the ROADMAP item that needs it."""
    def parse(path):
        return ast.parse(path.read_text(), filename=str(path))

    callers = [parse(path) for path in [*(ROOT / "src").rglob("*.py"),
                                        *(ROOT / "perfbench").rglob("*.py")]]
    dead = _dead_definitions({path.name: parse(path) for path in SOURCES}, callers, KEPT_FOR)
    assert not dead, f"defined but never referenced by the library: {dead}"


def _imported_modules(name):
    """Last component of every module and name the module imports."""
    path = ROOT / "src" / "tracealg" / f"{name}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    return imported


def test_findim_stays_below_the_free_algebra():
    """``findim`` tests the Cayley-Hamilton identity by the recursion on the
    algebra itself, so it reads no free-algebra polynomial."""
    imported = _imported_modules("findim")
    forbidden = sorted(imported & {"freetrace", "chident", "genmat"})
    assert not forbidden, f"findim.py imports {forbidden}"


def test_linalg_is_the_bottom_layer():
    """``linalg`` works on plain rows of rationals and imports no
    ``tracealg`` module, relative or absolute."""
    found = sorted(_imported_modules("linalg") & ({p.stem for p in SOURCES} | {"tracealg"}))
    assert not found, f"linalg.py imports {found}"


def test_only_the_algebra_reads_its_structure_constants():
    """``.mul`` is read by ``TraceAlgebra``'s methods and ``jsonio.dump_algebra``
    alone, so every product is decided in one place: ``add_basis_product``
    for a product with a basis element,
    ``product_table``, ``gram`` and ``validate`` for products of two basis
    elements, ``multiply`` for any other."""
    allowed = {("findim.py", "TraceAlgebra"), ("jsonio.py", "dump_algebra")}
    readers = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if (path.name, getattr(top, "name", None)) in allowed:
                continue
            readers.extend(f"{path.name}:{node.lineno}" for node in ast.walk(top)
                           if isinstance(node, ast.Attribute) and node.attr == "mul")
    assert not readers, f".mul read outside TraceAlgebra and dump_algebra: {readers}"


def test_chident_stays_in_the_free_trace_algebra():
    """``chident`` builds sigma_k by Newton's identities on the trace
    polynomials tr(x^i) themselves, so it imports nothing from ``mpoly``."""
    found = sorted(_imported_modules("chident") & {"mpoly", "MPoly", "PolyMatrix"})
    assert not found, f"chident.py imports {found}"


# Each input reaches the fold (it is not central multilinear) and is no
# identity at its size; the script prints the table's length around the calls.
_FOLD_NAMES_SCRIPT = """
from itertools import permutations
from tracealg import genmat, mpoly
from tracealg.chident import ch_poly
from tracealg.freetrace import TracePoly, parse_trace_poly

s4 = TracePoly.sum((-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
                   * TracePoly.word(perm) for perm in permutations(range(1, 5)))
hall = parse_trace_poly("(x1*x2 - x2*x1)^2*x3 - x3*(x1*x2 - x2*x1)^2")
cases = [(s4, 3), (hall, 3), (ch_poly(4), 5)]
before = len(mpoly._NAMES)
for p, n in cases:
    if genmat._class_weights(genmat._integral(p)) is not None:
        raise SystemExit("an input took the character route")
    if genmat.is_trace_identity(p, n):
        raise SystemExit("an input was decided as an identity")
print(before, len(mpoly._NAMES))
"""


def test_the_identity_fold_adds_no_mpoly_name():
    """``is_trace_identity`` builds its generic matrices straight in keys
    private to the call, so deciding s4 at size 3, Hall's polynomial at
    size 3 and CH_4 at size 5 on the fold leaves ``mpoly._NAMES`` as it
    was.  It runs in a fresh interpreter, where no other test has named
    the entry variables already."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", _FOLD_NAMES_SCRIPT],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr or result.stdout
    before, after = map(int, result.stdout.split())
    assert after == before, f"the fold added {after - before} mpoly names"


def test_cyclotomic_is_an_exact_scalar():
    """``cyclotomic`` sits in the bottom layer with ``int`` and ``Fraction``:
    of the package it imports only ``sparse``, for the ``exact`` normal form
    of its coefficients."""
    found = sorted(_imported_modules("cyclotomic") & ({p.stem for p in SOURCES} | {"tracealg"}))
    assert found == ["sparse"], f"cyclotomic.py imports {found}"


def _self_callers(tree):
    """Each function (or method) whose body calls a function of its own
    name, by a plain name or an attribute (``f(...)``, ``self.f(...)``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == node.name:
                        found.append(f"{node.name}:{call.lineno}")
    return found


def test_the_self_call_lint_sees_recursion():
    tree = ast.parse("def f(k):\n    return f(k - 1)\n"
                     "class A:\n    def g(self):\n        def h():\n"
                     "            return self.g()\n        return h()\n")
    assert sorted(_self_callers(tree)) == ["f:2", "g:6"]


def test_genmat_does_not_recurse():
    """``genmat`` evaluates words of thousands of letters and terms of
    thousands of trace factors, so its stack depth must not grow with the
    input: no function in it calls itself."""
    path = ROOT / "src" / "tracealg" / "genmat.py"
    found = _self_callers(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"genmat.py functions calling themselves: {found}"


def _random_reads(tree):
    """The lines that use ``rng`` or ``random`` (a name read, or an
    attribute) outside the value assigned to ``rng`` or to ``self.points``."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and \
                any(ast.unparse(t) in ("rng", "self.points") for t in node.targets):
            allowed.update(map(id, ast.walk(node.value)))
    return sorted({node.lineno for node in ast.walk(tree)
                   if ((isinstance(node, ast.Name) and node.id in ("rng", "random")
                        and isinstance(node.ctx, ast.Load))
                       or (isinstance(node, ast.Attribute) and node.attr == "rng"))
                   and id(node) not in allowed})


def test_the_random_read_lint_sees_stray_draws():
    tree = ast.parse("rng = random.Random(seed)\n"
                     "self.points = [rng.randint(-9, 9) for _ in range(4)]\n"
                     "c = rng.random()\n"
                     "self.rng = rng\n"
                     "d = self.rng.choice(xs)\n")
    assert _random_reads(tree) == [3, 4, 5]


def test_genrank_draws_only_its_specialization_points():
    """Randomness never decides a relation: ``genrank``'s ``rng`` makes the
    specialization points, which can only certify independence, and each
    relation comes from an exact null space."""
    path = ROOT / "src" / "tracealg" / "genrank.py"
    found = _random_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"genrank.py reads randomness outside the specialization points: {found}"
