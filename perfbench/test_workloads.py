"""Tests of the benchmark's generated workloads.

    PYTHONPATH=src python3 -m pytest perfbench -q

The closed-form envelopes are checked against a brute-force numpy sweep of
the generated G over the parameter box that does not go through bfpde.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bfpde.engine import BF_SOLUTION, verify  # noqa: E402
from bfpde.io import load_problem  # noqa: E402
from workloads import many_params_problem, non_monotone_problem  # noqa: E402

TINY = {"n_x1": 5, "n_x2": 5, "n_alpha": 4}
SEEDS = (0, 1, 7, 12345)
POINTS = [(x1, x2, alpha) for x1 in (0.5, 1.0, 1.5) for x2 in (1e-3, 2.0) for alpha in (0.0, 0.3, 1.0)]


def cut(triangle, alpha):
    left, peak, right = triangle
    return left + alpha * (peak - left), right - alpha * (right - peak)


@pytest.mark.parametrize("make", [many_params_problem, non_monotone_problem])
def test_same_seed_same_problem(make):
    assert json.dumps(make(3)) == json.dumps(make(3))
    assert make(3)["parameters"] != make(4)["parameters"]


@pytest.mark.parametrize("make", [many_params_problem, non_monotone_problem])
@pytest.mark.parametrize("seed", SEEDS)
def test_expected_verdict_on_tiny_grid(make, seed, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(make(seed, grid=TINY)))
    verdict = verify(load_problem(path))
    assert verdict.outcome == BF_SOLUTION
    assert all(check.passed for check in verdict.checks)


def numpy_g(problem, x1, x2, **params):
    """The generated G text evaluated by numpy, not by bfpde's parser."""
    return eval(problem["G"].replace("^", "**"), {"exp": np.exp, "x1": x1, "x2": x2, **params})


@pytest.mark.parametrize("seed", SEEDS)
def test_many_params_envelope_matches_sweep(seed):
    problem = many_params_problem(seed)
    triangles = list(problem["parameters"].values())
    for x1, x2, alpha in POINTS:
        cuts = [cut(t, alpha) for t in triangles]
        s_lo = sum(lo for lo, _ in cuts)
        s_hi = sum(hi for _, hi in cuts)
        closed = (x2 * np.exp(x1 * s_lo), x2 * np.exp(x1 * s_hi))
        lattice = np.array(list(itertools.product(*[np.linspace(lo, hi, 3) for lo, hi in cuts])))
        g = numpy_g(problem, x1, x2, **{name: lattice[:, j] for j, name in enumerate(problem["parameters"])})
        np.testing.assert_allclose((g.min(), g.max()), closed, rtol=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_non_monotone_envelope_matches_sweep(seed):
    problem = non_monotone_problem(seed)
    b_tri, c_tri = problem["parameters"]["b"], problem["parameters"]["c"]
    m, w = b_tri[1], b_tri[1] - b_tri[0]
    for x1, x2, alpha in POINTS:
        (b_lo, b_hi), (c_lo, c_hi) = cut(b_tri, alpha), cut(c_tri, alpha)
        closed = (x2 * np.exp(x1 * c_lo), x2 * np.exp(x1 * ((w * (1 - alpha)) ** 2 + c_hi)))
        b, c = np.meshgrid(np.linspace(b_lo, b_hi, 401), np.linspace(c_lo, c_hi, 5))
        g = numpy_g(problem, x1, x2, b=b, c=c)
        np.testing.assert_allclose((g.min(), g.max()), closed, rtol=1e-9)
