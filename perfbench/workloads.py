"""The four bfpde benchmark workloads: their problems and their known answers.

Every operation is one ``bfpde check`` invocation, described by a :class:`Case`.
``cli-shipped`` runs it as a subprocess; the other workloads call
``bfpde.cli.run`` in the benchmark's own process.  The two generated problems
are built here from the seed, so bfpde only ever sees the finished problem
file.  This module imports nothing from bfpde.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

WORKLOADS = ("cli-shipped", "grid-large", "many-params", "non-monotone")

SHIPPED = ("boundary_example", "crisp_example", "not_differentiable", "worked_example", "wrong_F")
CHECK_NAMES = ("structure", "fuzzy_validity", "differentiability", "equality", "boundary")
ALL_PASS = {"outcome": "BF_SOLUTION", "exit": 0, "checks": {name: True for name in CHECK_NAMES}}

# x1 in [0.5, 1.5], x2 in (0, 2]: both generated families share this domain
DOMAIN = {"x1": [0.5, 1.5], "x2": [0, 2, "open", "closed"]}
LARGE_GRID = {"n_x1": 201, "n_x2": 201, "n_alpha": 51}
# The two generated workloads are sized so that one verify takes about a second
# on a 2-CPU machine and a 25 s run holds twenty or more operations.  k = 6 still
# leaves the k*(1+2^k) sign probes and the 2^k corners dominant, and 11 alpha
# levels still send ten of every eleven non-monotone samples to the fallback.
MANY_PARAMS_K = 6
MANY_PARAMS_GRID = {"n_x1": 41, "n_x2": 41, "n_alpha": 21}
NON_MONOTONE_GRID = {"n_x1": 41, "n_x2": 41, "n_alpha": 11}


@dataclass(frozen=True)
class Case:
    """One ``bfpde check`` invocation and the answer it must produce."""

    key: str
    argv: tuple[str, ...]
    report: Path
    curves: Path | None
    expect: dict
    samples: int  # feasible (x1, x2, alpha) samples the operation verifies
    golden: dict | None = None  # SHA-256 digests of the report and curve CSV


def many_params_problem(seed: int, k: int = MANY_PARAMS_K, grid: dict = MANY_PARAMS_GRID) -> dict:
    """``G = x2*exp(x1*S)`` and ``F = x2*S`` with ``S = b0 + ... + b(k-1)``.

    Every b_j is a positive triangle drawn from the seed.  Gamma = x2*S in
    closed form, so the verdict is BF_SOLUTION by construction, and every
    partial is one-signed, so every sample takes the corner route.
    """
    rng = random.Random(f"many-params/{seed}")
    names = [f"b{j}" for j in range(k)]
    params = {}
    for name in names:
        peak = rng.uniform(0.05, 0.25)
        params[name] = [peak - rng.uniform(0.01, 0.04), peak, peak + rng.uniform(0.01, 0.04)]
    s = " + ".join(names)
    return {
        "name": f"many-params-k{k}-seed{seed}",
        "G": f"x2*exp(x1*({s}))",
        "F": f"x2*({s})",
        "parameters": params,
        "domain": DOMAIN,
        "grid": dict(grid),
    }


def non_monotone_problem(seed: int, grid: dict = NON_MONOTONE_GRID) -> dict:
    """``G = x2*exp(x1*((b-m)^2 + c))`` and ``F = x2*((b-m)^2 + c)``.

    ``b = (m-w, m, m+w)`` is symmetric, so dG/db changes sign inside every cut
    box with alpha < 1 and those samples take the dense fallback.  ``c`` is a
    positive triangle.  Gamma equals F in closed form (the minimum sits at
    b = m), so the verdict is BF_SOLUTION within the widened fallback tolerance.
    """
    rng = random.Random(f"non-monotone/{seed}")
    m = rng.uniform(0.8, 1.2)
    w = rng.uniform(0.2, 0.4)
    c = rng.uniform(0.15, 0.3)
    q = f"(b - {m!r})^2 + c"
    return {
        "name": f"non-monotone-seed{seed}",
        "G": f"x2*exp(x1*({q}))",
        "F": f"x2*({q})",
        "parameters": {"b": [m - w, m, m + w], "c": [c * rng.uniform(0.5, 0.8), c, c * rng.uniform(1.2, 1.5)]},
        "domain": DOMAIN,
        "grid": dict(grid),
    }


def _samples(grid: dict) -> int:
    # no benchmark problem has a domain constraint, so every grid sample is feasible
    return grid["n_x1"] * grid["n_x2"] * grid["n_alpha"]


def prepare(workload: str, seed: int, root: Path, workdir: Path) -> list[Case]:
    """Write the workload's inputs under ``workdir`` and return its cases.

    ``cli-shipped`` returns the five shipped problems in a seed-shuffled
    order, which each cycle of operations repeats; the other workloads return
    one case that every operation repeats.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    report = workdir / "report.json"
    if workload == "cli-shipped":
        order = list(SHIPPED)
        random.Random(f"cli-shipped/{seed}").shuffle(order)
        curves = workdir / "curves.csv"
        cases = []
        for key in order:
            gold = GOLDEN["shipped"][key]
            argv = ("check", str(root / "problems" / f"{key}.json"), "--report", str(report), "--curves", str(curves))
            cases.append(Case(key, argv, report, curves, gold["expect"], gold["samples"], gold["digests"]))
        return cases
    if workload == "grid-large":
        g = LARGE_GRID
        argv = ("check", str(root / "problems" / "boundary_example.json"), "--report", str(report),
                "--grid-x1", str(g["n_x1"]), "--grid-x2", str(g["n_x2"]), "--alpha-steps", str(g["n_alpha"]))
        return [Case("boundary_example@201x201x51", argv, report, None, GOLDEN["grid-large"]["expect"], _samples(g))]
    if workload == "many-params":
        problem = many_params_problem(seed)
    elif workload == "non-monotone":
        problem = non_monotone_problem(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    path = workdir / "problem.json"
    path.write_text(json.dumps(problem, indent=2) + "\n", encoding="utf-8")
    argv = ("check", str(path), "--report", str(report))
    return [Case(problem["name"], argv, report, None, ALL_PASS, _samples(problem["grid"]))]
