"""Problem-file loading/validation and report/curve emission.

A problem file is a UTF-8 JSON object::

    {
      "name": "worked-example",                  // optional, defaults to the file stem
      "G": "x1^beta * x2 + gamma",               // candidate crisp solution
      "F": "beta * x2 / x1",                     // right-hand side
      "parameters": {"beta": [0.25, 0.5, 0.75],  // name: [left, peak, right]
                     "gamma": [0, 1, 2]},
      "domain": {"x1": [1, 5],                   // [lo, hi] or [lo, hi, "open|closed", "open|closed"]
                 "x2": [0, 5, "open", "closed"],
                 "constraint": "x1 - x2"},       // optional predicate, kept where >= 0
      "boundary": [{"fix": "x2", "at": 0, "target": "gamma"}],   // optional
      "grid": {"n_x1": 41, "n_x2": 41, "n_alpha": 21, "epsilon_edge": 1e-6},
      "tolerances": {"eq_tol": 1e-8, "mono_tol": 1e-8, "denom_tol": 1e-10}
    }

Expressions use the grammar documented in :mod:`bfpde.expr`.  Grid and
tolerance fields are optional; the loader applies the defaults and the
returned :class:`~bfpde.engine.ProblemSpec` is always fully explicit.
Validation errors carry a JSON-pointer path, and expression errors carry the
offset inside the expression string.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    BoundaryCondition,
    DomainBox,
    EnvelopeCurve,
    GridSpec,
    ProblemSpec,
    Tolerances,
    Verdict,
)
from .expr import FUNCTIONS, ParseError, parse, to_string
from .fuzzy import FuzzyVector, TriangularFuzzyNumber

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_RESERVED = {"x1", "x2", *FUNCTIONS}


class ProblemFormatError(ValueError):
    """Schema or validation failure, locatable via its JSON pointer."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer


def _require(obj, pointer, kind, type_name):
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise ProblemFormatError(pointer, f"expected {type_name}, got {type(obj).__name__}")
    return obj


def _real(obj, pointer) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ProblemFormatError(pointer, f"expected a number, got {type(obj).__name__}")
    return float(obj)


def _count(obj, pointer) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ProblemFormatError(pointer, f"expected an integer, got {type(obj).__name__}")
    return obj


def _no_unknown_keys(obj: dict, pointer: str, allowed) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ProblemFormatError(pointer, f"unknown keys {sorted(unknown)}")


def _parse_expr(text, pointer, params):
    _require(text, pointer, str, "a string")
    try:
        return parse(text, params)
    except ParseError as err:
        raise ProblemFormatError(pointer, str(err)) from err


def _load_parameters(obj, pointer) -> FuzzyVector:
    _require(obj, pointer, dict, "an object")
    if not obj:
        raise ProblemFormatError(pointer, "at least one fuzzy parameter is required")
    components = []
    for name, triple in obj.items():
        here = f"{pointer}/{name}"
        if not _NAME_RE.match(name):
            raise ProblemFormatError(here, f"invalid parameter name {name!r}")
        if name in _RESERVED:
            raise ProblemFormatError(here, f"parameter name {name!r} is reserved")
        _require(triple, here, list, "a [left, peak, right] array")
        if len(triple) != 3:
            raise ProblemFormatError(here, f"expected 3 entries, got {len(triple)}")
        left, peak, right = (_real(v, f"{here}/{i}") for i, v in enumerate(triple))
        try:
            components.append((name, TriangularFuzzyNumber(left, peak, right)))
        except ValueError as err:
            raise ProblemFormatError(here, f"parameter {name!r}: {err}") from err
    return FuzzyVector(tuple(components))


def _load_axis(obj, pointer):
    _require(obj, pointer, list, "a [lo, hi] or [lo, hi, end, end] array")
    if len(obj) not in (2, 4):
        raise ProblemFormatError(pointer, f"expected 2 or 4 entries, got {len(obj)}")
    lo = _real(obj[0], f"{pointer}/0")
    hi = _real(obj[1], f"{pointer}/1")
    lo_open = hi_open = False
    if len(obj) == 4:
        ends = []
        for i in (2, 3):
            end = obj[i]
            if end not in ("open", "closed"):
                raise ProblemFormatError(f"{pointer}/{i}", f"expected 'open' or 'closed', got {end!r}")
            ends.append(end == "open")
        lo_open, hi_open = ends
    return lo, hi, lo_open, hi_open


def _load_domain(obj, pointer) -> DomainBox:
    _require(obj, pointer, dict, "an object")
    _no_unknown_keys(obj, pointer, ("x1", "x2", "constraint"))
    for axis in ("x1", "x2"):
        if axis not in obj:
            raise ProblemFormatError(pointer, f"missing required key {axis!r}")
    x1 = _load_axis(obj["x1"], f"{pointer}/x1")
    x2 = _load_axis(obj["x2"], f"{pointer}/x2")
    constraint = None
    if "constraint" in obj:
        constraint = _parse_expr(obj["constraint"], f"{pointer}/constraint", ())
    try:
        return DomainBox(
            x1[0], x1[1], x2[0], x2[1],
            x1_min_open=x1[2], x1_max_open=x1[3],
            x2_min_open=x2[2], x2_max_open=x2[3],
            constraint=constraint,
        )
    except ValueError as err:
        raise ProblemFormatError(pointer, str(err)) from err


def _load_boundary(obj, pointer, params) -> tuple[BoundaryCondition, ...]:
    _require(obj, pointer, list, "an array")
    conditions = []
    for i, entry in enumerate(obj):
        here = f"{pointer}/{i}"
        _require(entry, here, dict, "an object")
        _no_unknown_keys(entry, here, ("fix", "at", "target"))
        for key in ("fix", "at", "target"):
            if key not in entry:
                raise ProblemFormatError(here, f"missing required key {key!r}")
        fix = entry["fix"]
        if fix not in ("x1", "x2"):
            raise ProblemFormatError(f"{here}/fix", f"expected 'x1' or 'x2', got {fix!r}")
        at = _real(entry["at"], f"{here}/at")
        target = _parse_expr(entry["target"], f"{here}/target", params)
        conditions.append(BoundaryCondition(fix, at, target, entry["target"]))
    return tuple(conditions)


def _load_settings(cls, obj, pointer):
    """A ``GridSpec`` or ``Tolerances`` from an optional object of its fields;
    a field with an int default takes an integer, one with a float default a
    number, and an absent field keeps its default."""
    fields = asdict(cls())
    if obj is not None:
        _require(obj, pointer, dict, "an object")
        _no_unknown_keys(obj, pointer, fields)
        for key, default in fields.items():
            if key in obj:
                fields[key] = (_count if isinstance(default, int) else _real)(obj[key], f"{pointer}/{key}")
    try:
        return cls(**fields)
    except ValueError as err:
        raise ProblemFormatError(pointer, str(err)) from err


def _unique_keys(pairs) -> dict:
    """A JSON object's members; a key that appears twice is an error, not a silent override."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ProblemFormatError("", f"duplicate key {key!r} in a JSON object")
        obj[key] = value
    return obj


def load_problem(path) -> ProblemSpec:
    """Load and validate a problem file; defaults are applied and recorded."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ProblemFormatError("", f"invalid JSON: {err.msg} (line {err.lineno}, column {err.colno})") from err

    _require(raw, "", dict, "a JSON object")
    _no_unknown_keys(raw, "", ("name", "G", "F", "parameters", "domain", "boundary", "grid", "tolerances"))
    for key in ("G", "F", "parameters", "domain"):
        if key not in raw:
            raise ProblemFormatError("", f"missing required key {key!r}")

    name = raw.get("name", path.stem)
    _require(name, "/name", str, "a string")
    parameters = _load_parameters(raw["parameters"], "/parameters")
    g = _parse_expr(raw["G"], "/G", parameters.names)
    f = _parse_expr(raw["F"], "/F", parameters.names)
    box = _load_domain(raw["domain"], "/domain")
    boundary = _load_boundary(raw.get("boundary", []), "/boundary", parameters.names)
    grid = _load_settings(GridSpec, raw.get("grid"), "/grid")
    tolerances = _load_settings(Tolerances, raw.get("tolerances"), "/tolerances")

    try:
        return ProblemSpec(
            name=name,
            g_text=raw["G"],
            f_text=raw["F"],
            g=g,
            f=f,
            parameters=parameters,
            box=box,
            grid=grid,
            tolerances=tolerances,
            boundary=boundary,
        )
    except ValueError as err:
        raise ProblemFormatError("", str(err)) from err


def problem_to_dict(problem: ProblemSpec) -> dict:
    """JSON-ready echo of a loaded problem; load(emit(load(p))) is the identity
    on all semantic fields."""
    def ends(lo_open, hi_open):
        return ["open" if lo_open else "closed", "open" if hi_open else "closed"]

    box = problem.box
    domain = {
        "x1": [box.x1_min, box.x1_max, *ends(box.x1_min_open, box.x1_max_open)],
        "x2": [box.x2_min, box.x2_max, *ends(box.x2_min_open, box.x2_max_open)],
    }
    if box.constraint is not None:
        domain["constraint"] = to_string(box.constraint)
    return {
        "name": problem.name,
        "G": problem.g_text,
        "F": problem.f_text,
        "parameters": {
            name: [tri.left, tri.peak, tri.right]
            for name, tri in problem.parameters.components
        },
        "domain": domain,
        "boundary": [
            {"fix": c.fix, "at": c.at, "target": c.target_text or to_string(c.target)}
            for c in problem.boundary
        ],
        "grid": asdict(problem.grid),
        "tolerances": asdict(problem.tolerances),
    }


def save_problem(problem: ProblemSpec, path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(problem), indent=2) + "\n", encoding="utf-8")


# --- result emission ---------------------------------------------------------

def report_to_dict(verdict: Verdict) -> dict:
    checks = []
    for check in verdict.checks:
        location = None
        if check.location is not None:
            location = {
                "x1": float(check.location[0]),
                "x2": float(check.location[1]),
                "alpha": float(check.location[2]),
            }
        checks.append({
            "name": check.name,
            "pass": bool(check.passed),
            "worst_violation": float(check.worst_violation),
            "location": location,
            "note": check.note,
        })
    return {
        "tool": {"name": "bfpde", "version": __version__},
        "problem": verdict.problem_name,
        "outcome": verdict.outcome,
        "checks": checks,
        "grid": asdict(verdict.grid),
        "tolerances": asdict(verdict.tolerances),
    }


def emit_report(verdict: Verdict, path) -> None:
    """Write the verdict as strict JSON; byte-stable across runs for identical
    inputs.  A NaN or infinite number raises ValueError instead of being written."""
    Path(path).write_text(json.dumps(report_to_dict(verdict), indent=2, allow_nan=False) + "\n", encoding="utf-8")


def emit_curves(curves: list[EnvelopeCurve], path) -> None:
    """Write sampled curves as CSV rows ``role,x1,x2,alpha,lower,upper``.

    Rows appear in lexicographic (role, x1, x2, alpha) order, restricted to
    feasible samples, with shortest round-trip decimal formatting.  The file
    is written one role at a time, so only that role's rows are held as text.
    """
    with open(path, "w", encoding="utf-8") as out:
        out.write("role,x1,x2,alpha,lower,upper\n")
        for curve in sorted(curves, key=lambda c: c.role):
            # format column by column; one row prefix per feasible (x1, x2)
            x1s, x2s, alphas = (list(map(repr, axis.tolist())) for axis in (curve.x1, curve.x2, curve.alpha))
            lines = []
            for i1, i2 in np.argwhere(curve.feasible).tolist():
                prefix = f"{curve.role},{x1s[i1]},{x2s[i2]},"
                lower = map(repr, curve.lower[i1, i2].tolist())
                upper = map(repr, curve.upper[i1, i2].tolist())
                lines.extend(f"{prefix}{a},{lo},{hi}" for a, lo, hi in zip(alphas, lower, upper))
            if lines:
                out.write("\n".join(lines))
                out.write("\n")
