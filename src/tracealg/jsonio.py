"""JSON input formats for algebras, groups and pseudocharacter tables.

Rationals travel as "p/q" strings (plain integers also accepted).  Errors
carry the offending field so CLI diagnostics can point at the input.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .findim import TraceAlgebra, make_algebra
from .pseudochar import FiniteGroup, PseudoCharTable, make_group


class InputFormatError(ValueError):
    pass


def parse_rational(value, where: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"{where}: bad rational {value!r} ({exc})") from None
    raise InputFormatError(f"{where}: expected integer or 'p/q' string, got {value!r}")


def format_rational(value: Fraction) -> str:
    return str(value)


def _integer(value, where: str, low: int = None, high: int = None) -> int:
    """An int from JSON (booleans refused), optionally within [low, high)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{where}: expected an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value >= high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InputFormatError(f"{where}: {value} is not {bounds}")
    return value


def _list(value, where: str) -> list:
    """A JSON array, checked before anything takes its length or iterates it."""
    if not isinstance(value, list):
        raise InputFormatError(f"{where}: expected a list, got {value!r}")
    return value


def _load(path_or_text, kind: str) -> dict:
    try:
        if hasattr(path_or_text, "read"):
            data = json.load(path_or_text)
        else:
            data = json.loads(path_or_text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"malformed JSON in {kind}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise InputFormatError(
            f"{kind}: top level must be a JSON object, got {type(data).__name__}")
    return data


def load_algebra(text) -> TraceAlgebra:
    """Schema: {dim, basis: [labels], mul: [[[ [k, c], ... ] ...]],
    unit: [...], trace: [...], blocks?: [[m, [idx...]], ...]}."""
    data = _load(text, "algebra")
    for key in ("dim", "mul", "unit", "trace"):
        if key not in data:
            raise InputFormatError(f"algebra: missing field {key!r}")
    d = _integer(data["dim"], "algebra.dim", low=0)
    mul = _list(data["mul"], "algebra.mul")
    if len(mul) != d or any(len(_list(row, f"algebra.mul[{i}]")) != d
                            for i, row in enumerate(mul)):
        raise InputFormatError(f"algebra.mul: expected {d}x{d} table")
    sparse = []
    for i, row in enumerate(mul):
        srow = []
        for j, cell in enumerate(row):
            entries = []
            for pair in _list(cell, f"algebra.mul[{i}][{j}]"):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise InputFormatError(
                        f"algebra.mul[{i}][{j}]: expected [k, coeff] pairs")
                k = _integer(pair[0], f"algebra.mul[{i}][{j}]", low=0, high=d)
                entries.append((k, parse_rational(pair[1], f"algebra.mul[{i}][{j}]")))
            srow.append(entries)
        sparse.append(srow)
    unit = [parse_rational(c, "algebra.unit") for c in _list(data["unit"], "algebra.unit")]
    trace = [parse_rational(c, "algebra.trace") for c in _list(data["trace"], "algebra.trace")]
    if len(unit) != d or len(trace) != d:
        raise InputFormatError("algebra: unit and trace must have length dim")
    labels = data.get("basis")
    if labels is not None and (len(_list(labels, "algebra.basis")) != d
                               or not all(isinstance(x, str) for x in labels)):
        raise InputFormatError(f"algebra.basis: expected {d} label strings")
    blocks = None
    if "blocks" in data:
        blocks = []
        for b, block in enumerate(_list(data["blocks"], "algebra.blocks")):
            where = f"algebra.blocks[{b}]"
            if not (isinstance(block, list) and len(block) == 2 and isinstance(block[1], list)):
                raise InputFormatError(f"{where}: expected [m, [basis indices]]")
            blocks.append((_integer(block[0], f"{where}.m", low=1),
                           tuple(_integer(i, f"{where}.indices", low=0, high=d)
                                 for i in block[1])))
    return make_algebra(sparse, unit, trace, labels=labels, blocks=blocks)


def dump_algebra(a: TraceAlgebra) -> str:
    data = {
        "dim": a.dim,
        "basis": list(a.labels),
        "mul": [[[[k, format_rational(c)] for k, c in cell] for cell in row]
                for row in a.mul],
        "unit": [format_rational(c) for c in a.unit],
        "trace": [format_rational(c) for c in a.trace_vector],
    }
    if a.blocks:
        data["blocks"] = [[m, list(idxs)] for m, idxs in a.blocks]
    return json.dumps(data, indent=2)


def load_group(text) -> FiniteGroup:
    """Schema: {order, table: [[...]], identity}."""
    data = _load(text, "group")
    for key in ("order", "table"):
        if key not in data:
            raise InputFormatError(f"group: missing field {key!r}")
    order = _integer(data["order"], "group.order", low=0)
    table = _list(data["table"], "group.table")
    if len(table) != order or any(len(_list(row, f"group.table[{i}]")) != order
                                  for i, row in enumerate(table)):
        raise InputFormatError(f"group.table: expected {order}x{order} table")
    for i, row in enumerate(table):
        for j, entry in enumerate(row):
            _integer(entry, f"group.table[{i}][{j}]", low=0, high=order)
    identity = data.get("identity")
    if identity is not None:
        identity = _integer(identity, "group.identity", low=0, high=order)
    return make_group(table, identity=identity)


def load_pseudochar(text, group: FiniteGroup) -> PseudoCharTable:
    """Schema: {n, values: ["p/q", ...]} with one value per group element."""
    data = _load(text, "pseudocharacter")
    for key in ("n", "values"):
        if key not in data:
            raise InputFormatError(f"pseudocharacter: missing field {key!r}")
    degree = _integer(data["n"], "pseudocharacter.n", low=0)
    values = [parse_rational(v, f"pseudocharacter.values[{i}]")
              for i, v in enumerate(_list(data["values"], "pseudocharacter.values"))]
    if len(values) != group.order:
        raise InputFormatError(
            f"pseudocharacter.values: expected {group.order} entries, got {len(values)}")
    return PseudoCharTable(group=group, degree=degree, values=tuple(values))
