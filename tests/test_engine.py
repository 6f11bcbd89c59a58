import json
import math
import random
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import sympy

import bfpde.cli
import bfpde.engine
from bfpde.engine import (
    BF_SOLUTION,
    BOUNDARY_FAILS,
    EQUALITY_FAILS,
    NOT_DIFFERENTIABLE,
    STRUCTURE_FAILS,
    BoundaryCondition,
    CheckReport,
    DomainBox,
    EnvelopeCurve,
    GridSpec,
    NearZeroDenominatorError,
    NonFiniteValueError,
    ProblemSpec,
    ROLE_F,
    ROLE_GAMMA,
    Tolerances,
    Verdict,
    axis_points,
    check_boundary,
    check_differentiability,
    check_equality,
    check_fuzzy_validity,
    check_structure,
    compute_curves,
    envelope,
    envelope_curve,
    gamma_curves,
    verify,
)
from bfpde.expr import EvalDomainError, EvalError, differentiate, evaluate, free_variables, parse
from bfpde.fuzzy import FuzzyVector, TriangularFuzzyNumber, alpha_cut
from bfpde.io import load_problem, report_to_dict

from randexpr import random_monotone_instance, random_smooth_expression, random_triangle

P = ("beta", "gamma")


def worked_params():
    return FuzzyVector((
        ("beta", TriangularFuzzyNumber(0.25, 0.5, 0.75)),
        ("gamma", TriangularFuzzyNumber(0.0, 1.0, 2.0)),
    ))


def worked_problem(grid=None, f_text="beta * x2 / x1", boundary=()):
    g_text = "x1^beta * x2 + gamma"
    return ProblemSpec(
        name="worked-example",
        g_text=g_text,
        f_text=f_text,
        g=parse(g_text, P),
        f=parse(f_text, P),
        parameters=worked_params(),
        box=DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True),
        grid=grid or GridSpec(21, 21, 11),
        boundary=tuple(boundary),
    )


def lattice_sweep(g, params, x1, x2, alpha, m=33):
    """Independent oracle: g at every point of a dense lattice over the cut
    box, endpoints included; returns the lattice (name -> values) and g there."""
    cuts = [alpha_cut(t, alpha) for t in params.numbers]
    axes = [np.linspace(c.lo, c.hi, m) for c in cuts]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = {name: grid_vals.ravel() for name, grid_vals in zip(params.names, mesh)}
    vals = np.broadcast_to(np.asarray(evaluate(g, {"x1": x1, "x2": x2, **points})), mesh[0].size)
    return points, vals


def brute_envelope(g, params, x1, x2, alpha, m=33):
    """Independent oracle: dense sampling of the cut box, endpoints included."""
    _, vals = lattice_sweep(g, params, x1, x2, alpha, m)
    return float(vals.min()), float(vals.max())


def lattice_optima(g, params, x1, x2, alpha, m=33):
    """The parameter bindings at the first lattice argmin and argmax of g."""
    points, vals = lattice_sweep(g, params, x1, x2, alpha, m)
    return tuple({name: float(v[i]) for name, v in points.items()} for i in (int(vals.argmin()), int(vals.argmax())))


def sympy_x_partials(g_text, names):
    """dG/dx1 and dG/dx2 by sympy, as numpy functions of x1, x2 and the parameters."""
    symbols = {name: sympy.Symbol(name) for name in ("x1", "x2", *names)}
    g = sympy.sympify(g_text, locals=symbols)
    return tuple(sympy.lambdify(list(symbols.values()), sympy.diff(g, symbols[x]), "numpy") for x in ("x1", "x2"))


class TestGridSampling:
    def test_closed_ends_sampled_exactly(self):
        pts = axis_points(1.0, 5.0, False, False, 5, 1e-6)
        assert pts[0] == 1.0 and pts[-1] == 5.0

    def test_open_end_offset(self):
        pts = axis_points(0.0, 5.0, True, False, 5, 1e-6)
        assert pts[0] == pytest.approx(5e-6)
        assert pts[-1] == 5.0

    def test_domain_box_rejects_empty_range(self):
        with pytest.raises(ValueError):
            DomainBox(2.0, 2.0, 0.0, 1.0, x2_min_open=True)

    def test_domain_box_rejects_closed_zero_lower_bound(self):
        with pytest.raises(ValueError):
            DomainBox(0.0, 5.0, 1.0, 2.0)
        DomainBox(0.0, 5.0, 1.0, 2.0, x1_min_open=True)  # open at 0 is fine

    def test_grid_spec_rejects_tiny_counts(self):
        with pytest.raises(ValueError):
            GridSpec(n_x1=1)

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            Tolerances(eq_tol=0.0)

    def test_problem_rejects_too_many_parameters(self):
        many = FuzzyVector(tuple(
            (f"p{i}", TriangularFuzzyNumber(0.0, 0.5, 1.0)) for i in range(17)
        ))
        with pytest.raises(ValueError, match="at most 16"):
            ProblemSpec("x", "", "", parse("x1"), parse("x1"), many,
                        DomainBox(1.0, 2.0, 1.0, 2.0))

    def test_problem_rejects_boundary_outside_closure(self):
        with pytest.raises(ValueError, match="outside the closure"):
            worked_problem(boundary=[BoundaryCondition("x2", 9.0, parse("gamma", P), "gamma")])

    def test_problem_rejects_target_using_fixed_variable(self):
        with pytest.raises(ValueError, match="target may only use"):
            worked_problem(boundary=[BoundaryCondition("x2", 0.0, parse("x2", P), "x2")])

    @pytest.mark.parametrize("build, message", [
        (lambda: DomainBox(1.0, 5.0, 1.0, 5.0, constraint=parse("x1 - beta", P)),
         "constraint may only use x1, x2; found ['beta']"),
        (lambda: GridSpec(epsilon_edge=0.5), "epsilon_edge must lie in (0, 0.5), got 0.5"),
        (lambda: BoundaryCondition("x3", 0.0, parse("gamma", P), "gamma"), "fix must be 'x1' or 'x2', got 'x3'"),
        (lambda: replace(worked_problem(), g=parse("x1^beta * x2 + delta", P + ("delta",))),
         "G uses undeclared names ['delta']"),
    ], ids=["constraint-parameter", "epsilon-edge", "fix", "undeclared-name"])
    def test_invalid_inputs_rejected_with_message(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


class TestEnvelope:
    def test_worked_example_support_cut(self):
        # oracle: dense box sampling; closed form 2^0.25*3, 2^0.75*3 + 2
        g = parse("x1^beta * x2 + gamma", P)
        lo, hi = envelope(g, worked_params(), 2.0, 3.0, 0.0)
        blo, bhi = brute_envelope(g, worked_params(), 2.0, 3.0, 0.0, m=201)
        assert lo == pytest.approx(blo, rel=1e-12)
        assert hi == pytest.approx(bhi, rel=1e-12)
        assert lo == pytest.approx(3.5676213450081633, abs=1e-12)
        assert hi == pytest.approx(7.045378491522287, abs=1e-12)

    def test_core_cut_is_degenerate(self):
        g = parse("x1^beta * x2 + gamma", P)
        lo, hi = envelope(g, worked_params(), 2.0, 3.0, 1.0)
        assert lo == hi == pytest.approx(2.0**0.5 * 3.0 + 1.0, abs=1e-14)

    def test_identity_map_envelope_is_the_cut(self):
        g = parse("gamma", ("gamma",))
        params = FuzzyVector((("gamma", TriangularFuzzyNumber(0.0, 1.0, 2.0)),))
        assert envelope(g, params, 1.0, 1.0, 0.5) == (0.5, 1.5)

    def test_soundness_on_random_interior_points(self):
        # lower <= G(beta) <= upper for random beta inside the cut box
        rng = np.random.default_rng(3)
        for _ in range(20):
            g_text, params, box = random_monotone_instance(rng)
            g = parse(g_text, params.names)
            for _ in range(10):
                x1 = float(rng.uniform(box.x1_min, box.x1_max))
                x2 = float(rng.uniform(box.x2_min, box.x2_max))
                alpha = float(rng.uniform(0.0, 1.0))
                lo, hi = envelope(g, params, x1, x2, alpha)
                binding = {"x1": x1, "x2": x2}
                for name, tri in zip(params.names, params.numbers):
                    cut = alpha_cut(tri, alpha)
                    binding[name] = float(rng.uniform(cut.lo, cut.hi))
                val = evaluate(g, binding)
                assert lo - 1e-9 * (1 + abs(val)) <= val <= hi + 1e-9 * (1 + abs(val))

    def test_nesting_in_alpha(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g_text, params, box = random_monotone_instance(rng)
            g = parse(g_text, params.names)
            x1 = float(rng.uniform(box.x1_min, box.x1_max))
            x2 = float(rng.uniform(box.x2_min, box.x2_max))
            a1, a2 = sorted(rng.uniform(0.0, 1.0, size=2))
            lo1, hi1 = envelope(g, params, x1, x2, float(a1))
            lo2, hi2 = envelope(g, params, x1, x2, float(a2))
            slack = 1e-12 * (1.0 + abs(hi1))
            assert lo1 <= lo2 + slack
            assert hi1 >= hi2 - slack

    def test_corner_strategy_agrees_with_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g_text, params, box = random_monotone_instance(rng)
            g = parse(g_text, params.names)
            x1 = float(rng.uniform(box.x1_min, box.x1_max))
            x2 = float(rng.uniform(box.x2_min, box.x2_max))
            alpha = float(rng.uniform(0.0, 1.0))
            lo, hi = envelope(g, params, x1, x2, alpha)
            blo, bhi = brute_envelope(g, params, x1, x2, alpha, m=33)
            assert abs(lo - blo) <= 1e-6 * (1.0 + abs(blo))
            assert abs(hi - bhi) <= 1e-6 * (1.0 + abs(bhi))

    def test_curve_marks_nothing_approximate_on_monotone_instance(self):
        problem = worked_problem()
        curve = envelope_curve(problem.g, problem.parameters, problem.box, problem.grid, "Y")
        assert not curve.approximate.any()
        assert (curve.lower <= curve.upper).all()


class TestGammaCurves:
    def test_worked_example_closed_form(self):
        # closed form from the worked instance: Gamma_i = b_i(alpha) * x2 / x1
        problem = worked_problem()
        gam = gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        b1 = 0.25 + 0.25 * gam.alpha
        b2 = 0.75 - 0.25 * gam.alpha
        want_lo = b1[None, None, :] * gam.x2[None, :, None] / gam.x1[:, None, None]
        want_hi = b2[None, None, :] * gam.x2[None, :, None] / gam.x1[:, None, None]
        assert np.abs(gam.lower - want_lo).max() < 1e-12
        assert np.abs(gam.upper - want_hi).max() < 1e-12
        assert gam.role == ROLE_GAMMA

    def test_crisp_parameters_collapse(self):
        params = FuzzyVector((
            ("beta", TriangularFuzzyNumber(0.5, 0.5, 0.5)),
            ("gamma", TriangularFuzzyNumber(1.0, 1.0, 1.0)),
        ))
        problem = worked_problem()
        gam = gamma_curves(problem.g, params, problem.box, problem.grid)
        assert (gam.lower == gam.upper).all()
        want = 0.5 * gam.x2[None, :, None] / gam.x1[:, None, None]
        assert np.abs(gam.lower - want).max() < 1e-12

    def test_no_parameter_dependence(self):
        # hand oracle: quotient of partials of x1*x2 is x2/x1
        g = parse("x1 * x2", ("c",))
        params = FuzzyVector((("c", TriangularFuzzyNumber(1.0, 1.0, 1.0)),))
        box = DomainBox(1.0, 2.0, 1.0, 2.0)
        gam = gamma_curves(g, params, box, GridSpec(5, 5, 3))
        want = gam.x2[None, :, None] / gam.x1[:, None, None]
        assert np.abs(gam.lower - want).max() < 1e-14
        assert np.abs(gam.upper - want).max() < 1e-14

    def test_a_tie_at_the_pinned_upper_end_keeps_the_exact_points(self):
        # gamma*1e307 absorbs x1^beta at the upper end, so corners other than
        # the pinned one tie with it while the two ends stay apart; Gamma is
        # still beta's cut end times x2/x1, lower and upper
        g = parse("x1^beta*x2 + gamma*1e307", P)
        gam = gamma_curves(g, worked_params(), DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True), GridSpec(9, 7, 5))
        x2_over_x1 = gam.x2[None, :, None] / gam.x1[:, None, None]
        for end, beta in ((gam.lower, 0.25 + 0.25 * gam.alpha), (gam.upper, 0.75 - 0.25 * gam.alpha)):
            want = beta * x2_over_x1
            assert (np.abs(end - want) <= 1e-15 * np.abs(want)).all()

    @pytest.mark.parametrize("lower_c, upper_c, raised, location", [
        # the lower end's near-zero denominator before the upper end's domain error
        ([0.5, 0.5, 0.5], [-1.0, -1.0, -1.0], NearZeroDenominatorError, (1.0, 1.0, 0.5)),
        # the lower end's domain error before the upper end's near-zero denominator
        ([-1.0, -1.0, -1.0], [0.5, 0.5, 0.5], EvalDomainError, None),
        # the lower end's near-zero denominator at its sample, not the upper's earlier one
        ([2.0, 2.0, 0.5], [0.5, 2.0, 2.0], NearZeroDenominatorError, (3.0, 3.0, 0.5)),
    ])
    def test_the_lower_end_fails_first(self, lower_c, upper_c, raised, location):
        # dG/dx1 = sqrt(c), dG/dx2 = c - 0.5 at each end's synthetic point c
        x_partials, x = (parse("sqrt(c)", ("c",)), parse("c - 0.5", ("c",))), np.array([1.0, 2.0, 3.0])
        with pytest.raises(raised) as error:
            bfpde.engine._gamma_stage(x_partials, ("c",), np.array([[lower_c, upper_c]]), x, x, np.ones(3, dtype=bool),
                                      0.5, 1e-10)
        assert getattr(error.value, "location", None) == location

    def test_near_zero_denominator_raises(self):
        # min over beta of (beta-0.5)^2 is 0 once 0.5 enters the cut, so the
        # lower envelope loses its x-dependence
        g = parse("(beta - 0.5)^2 * x1 * x2 + gamma", P)
        with pytest.raises(NearZeroDenominatorError):
            gamma_curves(g, worked_params(), DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True),
                         GridSpec(9, 9, 5))


class TestChecks:
    def test_differentiability_passes_on_worked_example(self):
        problem = worked_problem()
        gam = gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        report = check_differentiability(gam)
        assert report.passed
        assert report.worst_violation <= 0.0

    def test_differentiability_non_strict_for_crisp(self):
        params = FuzzyVector((("beta", TriangularFuzzyNumber(0.5, 0.5, 0.5)),
                              ("gamma", TriangularFuzzyNumber(1.0, 1.0, 1.0)),))
        problem = worked_problem()
        gam = gamma_curves(problem.g, params, problem.box, problem.grid)
        assert check_differentiability(gam).passed

    def test_differentiability_rejects_decreasing_lower_end(self):
        x1 = np.array([1.0, 2.0])
        x2 = np.array([1.0, 2.0])
        alpha = np.linspace(0.0, 1.0, 3)
        lower = np.zeros((2, 2, 3))
        lower[..., :] = [0.3, 0.2, 0.1]  # decreasing in alpha
        upper = np.full((2, 2, 3), 0.5)
        curve = EnvelopeCurve(ROLE_GAMMA, x1, x2, alpha, lower, upper,
                              np.zeros_like(lower, dtype=bool), np.ones((2, 2), dtype=bool))
        report = check_differentiability(curve, tol=1e-8)
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.1)
        assert "condition 1" in report.note

    def test_differentiability_condition_three(self):
        x1 = x2 = np.array([1.0, 2.0])
        alpha = np.linspace(0.0, 1.0, 3)
        lower = np.zeros((2, 2, 3))
        upper = np.zeros((2, 2, 3))
        lower[..., :] = [0.0, 0.1, 0.4]
        upper[..., :] = [0.5, 0.4, 0.2]  # crosses below lower at alpha=1
        curve = EnvelopeCurve(ROLE_GAMMA, x1, x2, alpha, lower, upper,
                              np.zeros_like(lower, dtype=bool), np.ones((2, 2), dtype=bool))
        report = check_differentiability(curve, tol=1e-8)
        assert not report.passed
        assert "condition 3" in report.note
        assert report.worst_violation == pytest.approx(0.2)

    def test_no_feasible_sample_passes_every_curve_check(self):
        # the values, NaN throughout, are never read
        x = np.array([1.0, 2.0])
        nan = np.full((2, 2, 3), np.nan)
        curve = EnvelopeCurve(ROLE_GAMMA, x, x, np.linspace(0.0, 1.0, 3), nan, nan,
                              np.ones(nan.shape, dtype=bool), np.zeros((2, 2), dtype=bool))
        for name, report in (("fuzzy_validity", check_fuzzy_validity([curve, curve])),
                             ("differentiability", check_differentiability(curve)),
                             ("equality", check_equality(curve, curve))):
            assert report == CheckReport(name, True, 0.0, None, "no feasible samples")

    def test_equality_zero_residual_on_worked_example(self):
        problem = worked_problem()
        gam = gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        f_curve = envelope_curve(problem.f, problem.parameters, problem.box, problem.grid, "F")
        report = check_equality(gam, f_curve)
        assert report.passed
        assert report.worst_violation < 1e-12

    def test_equality_flags_wrong_rhs(self):
        # analytic residual b_i(alpha) * x2 * (x2 - 1) / x1, largest at x2 = 5
        problem = worked_problem(f_text="beta * x2^2 / x1")
        gam = gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        f_curve = envelope_curve(problem.f, problem.parameters, problem.box, problem.grid, "F")
        report = check_equality(gam, f_curve)
        assert not report.passed
        assert report.worst_violation > 0.1
        assert report.location[1] > 4.5

    def test_structure_passes_on_worked_example(self):
        problem = worked_problem()
        report = check_structure(problem.g, problem.parameters, problem.box, problem.grid)
        assert report.passed

    def test_structure_rejects_flat_in_x2(self):
        report = check_structure(parse("gamma", P), worked_params(),
                                 DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True), GridSpec(5, 5, 3))
        assert not report.passed
        assert "dG/dx2" in report.note

    def test_structure_rejects_sign_change_in_x2(self):
        report = check_structure(parse("x1^beta * (x2 - 3)^2 + gamma", P), worked_params(),
                                 DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True), GridSpec(9, 9, 5))
        assert not report.passed
        assert "dG/dx2" in report.note

    def test_structure_rejects_non_positive_g(self):
        report = check_structure(parse("x1^beta * x2 - 3", P), worked_params(),
                                 DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True), GridSpec(9, 9, 5))
        assert not report.passed
        assert "positive" in report.note

    def test_fuzzy_validity_detects_inversion(self):
        x1 = x2 = np.array([1.0, 2.0])
        alpha = np.linspace(0.0, 1.0, 2)
        lower = np.ones((2, 2, 2))
        upper = np.zeros((2, 2, 2))
        curve = EnvelopeCurve("Y", x1, x2, alpha, lower, upper,
                              np.zeros_like(lower, dtype=bool), np.ones((2, 2), dtype=bool))
        report = check_fuzzy_validity([curve])
        assert not report.passed
        assert report.worst_violation == pytest.approx(1.0)

    def test_boundary_vacuous(self):
        report = check_boundary(parse("x1"), worked_params(), (),
                                DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True), GridSpec(5, 5, 3))
        assert report.passed
        assert report.note == "no conditions"

    def test_boundary_gamma_edge_matches(self):
        problem = worked_problem()
        cond = BoundaryCondition("x2", 0.0, parse("gamma", P), "gamma")
        report = check_boundary(problem.g, problem.parameters, (cond,), problem.box, problem.grid)
        assert report.passed
        assert report.worst_violation < 1e-12

    def test_boundary_zero_target_fails_for_fuzzy_gamma(self):
        problem = worked_problem()
        cond = BoundaryCondition("x2", 0.0, parse("0", P), "0")
        report = check_boundary(problem.g, problem.parameters, (cond,), problem.box, problem.grid)
        assert not report.passed
        assert report.worst_violation == pytest.approx(2.0)  # |upper - 0| = g2(0) = 2
        # every edge sample ties at alpha = 0: the lowest alpha, then the lowest x1, wins
        assert report.location == (1.0, 0.0, 0.0)

    def test_boundary_x1_fixed_edge(self):
        # at x1 = 1 the worked G is x2 + gamma for every beta
        problem = worked_problem()
        match = BoundaryCondition("x1", 1.0, parse("x2 + gamma", P), "x2 + gamma")
        report = check_boundary(problem.g, problem.parameters, (match,), problem.box, problem.grid)
        assert report.passed
        assert report.worst_violation < 1e-12
        # against x2 alone the residual is gamma's end / (1 + x2): largest at
        # alpha = 0 and the smallest sampled x2, which is offset into the open end
        miss = BoundaryCondition("x1", 1.0, parse("x2", P), "x2")
        report = check_boundary(problem.g, problem.parameters, (miss,), problem.box, problem.grid)
        x2_first = float(axis_points(0.0, 5.0, True, False, 21, problem.grid.epsilon_edge)[0])
        assert not report.passed
        assert report.location == (1.0, x2_first, 0.0)
        assert report.worst_violation == pytest.approx(2.0 / (1.0 + x2_first))

    def test_boundary_non_monotone_target_takes_the_dense_fallback(self):
        # d/dbeta of the target changes sign inside every cut below alpha = 1,
        # so its edge envelope comes from the dense lattice; the residual stays
        # under the widened tolerance but not under the default one
        problem = worked_problem(grid=GridSpec(9, 9, 5))
        target = "gamma + (beta - 0.5)^2 * x1 / 10000"
        cond = BoundaryCondition("x2", 0.0, parse(target, P), target)
        report = check_boundary(problem.g, problem.parameters, (cond,), problem.box, problem.grid)
        assert report.passed
        assert report.note == "dense-sampling fallback in effect; tolerance widened to 0.0001"

        worst, loc = -np.inf, None
        for alpha in np.linspace(0.0, 1.0, 5):
            for x1 in np.linspace(1.0, 5.0, 9):
                c_lo, c_hi = brute_envelope(problem.g, problem.parameters, x1, 0.0, alpha)
                t_lo, t_hi = brute_envelope(cond.target, problem.parameters, x1, 0.0, alpha)
                r = max(abs(c_lo - t_lo) / (1 + abs(t_lo)), abs(c_hi - t_hi) / (1 + abs(t_hi)))
                if r > worst:
                    worst, loc = r, (float(x1), 0.0, float(alpha))
        assert worst > 1e-8
        assert report.worst_violation == pytest.approx(worst, rel=1e-9)
        assert report.location == loc

    def test_boundary_edge_outside_the_constraint_is_vacuous(self):
        box = DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True, constraint=parse("x2 - 1"))
        cond = BoundaryCondition("x2", 0.0, parse("0", P), "0")
        report = check_boundary(parse("x1^beta * x2 + gamma", P), worked_params(), (cond,), box, GridSpec(9, 9, 3))
        assert report.passed
        assert report.location is None
        assert report.note == "no feasible boundary samples"


class TestVerify:
    def test_worked_example_is_bf_solution(self):
        verdict = verify(worked_problem())
        assert verdict.outcome == BF_SOLUTION
        assert [c.name for c in verdict.checks] == [
            "structure", "fuzzy_validity", "differentiability", "equality", "boundary",
        ]
        assert all(c.passed for c in verdict.checks)

    def test_wrong_rhs_fails_equality_gate(self):
        verdict = verify(worked_problem(f_text="beta * x2^2 / x1"))
        assert verdict.outcome == EQUALITY_FAILS
        assert not verdict.report("equality").passed
        assert verdict.report("differentiability").passed

    def test_crisp_problem_reduces_to_residual_check(self):
        params = FuzzyVector((("beta", TriangularFuzzyNumber(0.5, 0.5, 0.5)),
                              ("gamma", TriangularFuzzyNumber(1.0, 1.0, 1.0)),))
        problem = worked_problem()
        crisp = ProblemSpec(problem.name, problem.g_text, problem.f_text, problem.g,
                            problem.f, params, problem.box, problem.grid)
        verdict = verify(crisp)
        assert verdict.outcome == BF_SOLUTION

    def test_non_monotone_candidate_is_not_differentiable(self):
        # d/dbeta (beta*x1 + x2/beta) = x1 - x2/beta^2 changes sign across the
        # support corners, forcing the dense fallback; the upper envelope then
        # tracks b1(alpha)^2, which increases in alpha and breaks condition 2
        g = parse("beta * x1 + x2 / beta", ("beta",))
        f = parse("x2 / x1", ("beta",))
        params = FuzzyVector((("beta", TriangularFuzzyNumber(0.5, 1.0, 2.0)),))
        problem = ProblemSpec("non-monotone", "beta * x1 + x2 / beta", "x2 / x1",
                              g, f, params, DomainBox(1.0, 1.5, 1.6, 2.0), GridSpec(13, 13, 9))
        verdict = verify(problem)
        assert verdict.outcome == NOT_DIFFERENTIABLE
        gam = gamma_curves(g, params, problem.box, problem.grid)
        assert gam.approximate.any()

    def test_near_zero_denominator_reported_as_structure_evidence(self):
        g_text = "(beta - 0.5)^2 * x1 * x2 + gamma"
        problem = ProblemSpec("flat-lower", g_text, "beta * x2 / x1",
                              parse(g_text, P), parse("beta * x2 / x1", P), worked_params(),
                              DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True), GridSpec(9, 9, 5))
        verdict = verify(problem)
        assert verdict.outcome == STRUCTURE_FAILS
        assert "near-zero envelope denominator" in verdict.report("structure").note

    def test_boundary_gate(self):
        bad = BoundaryCondition("x2", 0.0, parse("0", P), "0")
        verdict = verify(worked_problem(boundary=[bad]))
        assert verdict.outcome == BOUNDARY_FAILS
        assert verdict.report("equality").passed

    def test_constraint_restricts_checks(self):
        problem = worked_problem()
        constrained = ProblemSpec(
            problem.name, problem.g_text, problem.f_text, problem.g, problem.f,
            problem.parameters,
            DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True, constraint=parse("x1 - x2")),
            problem.grid,
        )
        assert verify(constrained).outcome == BF_SOLUTION

    def test_infeasible_constraint_is_an_input_error(self):
        problem = worked_problem()
        impossible = ProblemSpec(
            problem.name, problem.g_text, problem.f_text, problem.g, problem.f,
            problem.parameters,
            DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True, constraint=parse("0 - 1")),
            problem.grid,
        )
        with pytest.raises(ValueError, match="constraint"):
            verify(impossible)
        # the envelope-only pass raises too, instead of returning an empty curve
        for role, expr in (("Y", problem.g), ("F", problem.f)):
            with pytest.raises(ValueError, match="no grid samples satisfy the domain constraint"):
                envelope_curve(expr, problem.parameters, impossible.box, problem.grid, role)

    def test_verdict_is_deterministic(self):
        a = verify(worked_problem())
        b = verify(worked_problem())
        assert a == b

    def test_compute_curves_roles(self):
        curves = compute_curves(worked_problem())
        assert [c.role for c in curves] == ["Y", "F", "GAMMA"]
        for c in curves[:2]:
            assert (c.lower <= c.upper).all()

    def test_verdict_carries_the_curves_it_checked(self):
        # the corner route and, for not_differentiable.json, the dense fallback
        shipped = Path(__file__).resolve().parents[1] / "problems" / "not_differentiable.json"
        for problem in (worked_problem(), load_problem(shipped)):
            verdict = verify(problem)
            assert verdict.curves_error is None
            p, box, grid = problem.parameters, problem.box, problem.grid
            independent = (envelope_curve(problem.g, p, box, grid, "Y"), envelope_curve(problem.f, p, box, grid, "F"),
                           gamma_curves(problem.g, p, box, grid, problem.tolerances.denom_tol))
            for got, want in zip(verdict.curves, independent, strict=True):
                assert got.role == want.role
                for name in ("lower", "upper", "approximate", "feasible"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
        assert verdict.curves[2].approximate.any()

    def test_verdict_carries_the_error_compute_curves_raises(self):
        g_text = "(beta - 0.5)^2 * x1 * x2 + gamma"
        problem = ProblemSpec("flat-lower", g_text, "beta * x2 / x1",
                              parse(g_text, P), parse("beta * x2 / x1", P), worked_params(),
                              DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True), GridSpec(9, 9, 5))
        verdict = verify(problem)
        assert verdict.curves is None
        assert isinstance(verdict.curves_error, NearZeroDenominatorError)
        with pytest.raises(NearZeroDenominatorError) as raised:
            gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        assert str(raised.value) == str(verdict.curves_error)
        with pytest.raises(NearZeroDenominatorError) as again:
            compute_curves(problem)
        assert str(again.value) == str(raised.value)

    @staticmethod
    def _count_evaluations(monkeypatch, problem) -> list:
        """Verify ``problem``; returns the shape of every ``evaluate`` result."""
        calls = []
        original = bfpde.engine.evaluate

        def counting(expr, binding):
            value = original(expr, binding)
            calls.append(np.shape(value))
            return value

        monkeypatch.setattr(bfpde.engine, "evaluate", counting)
        verdict = verify(problem)
        monkeypatch.undo()
        assert verdict.outcome == BF_SOLUTION
        return calls

    def test_one_pass_over_g_serves_structure_y_and_gamma(self, monkeypatch):
        # Every evaluate call counts, its shape (blocks, columns, samples).
        # beta's partial x1^beta*ln(x1)*x2 vanishes on the x1 = 1 row, so the
        # certificate settles every other sample, and each level evaluates G,
        # and F, over the table that pins every parameter: one column in each
        # of the two blocks.  The x1 = 1 row takes the corner route, whose
        # table pins gamma there and spans beta's 2 corners; it probes beta
        # (the center and the 4 corners, one block) and breaks ties
        # (x1^beta = 1 ties every beta) by dG/dx1 and dG/dx2 over that table,
        # in which neither uses the pinned gamma.  Structure reads G's least
        # value from those tables, and dG/dx2 = x1^beta from its own table,
        # which spans beta (uncertified on the row), at every sample at
        # alpha = 0 and on the row above it.  Gamma's numerator and
        # denominator are each evaluated once per end per level, at that
        # end's points, on every sample of the 11 levels.  Every group is a
        # flat list of samples: the 441 of a slice or the row's 21.
        calls = self._count_evaluations(monkeypatch, worked_problem())
        assert Counter(calls) == {
            (2, 1, 441): 2 * 10,  # G and F on the certified route below alpha = 1
            (1, 2, 441): 1,  # dG/dx2's table at alpha = 0
            # the row's table, probe and tie-break below alpha = 1, and
            # dG/dx2's table on the row between alpha = 0 and 1
            (2, 2, 21): 10, (1, 5, 21): 10, (1, 2, 21): 2 * 10 + 9,
            (1, 1, 441): 2 + 4 * 11,  # G and F at alpha = 1, where every cut is a point; Gamma
            (1, 1, 21): 1 + 1,  # the row at alpha = 1: G's table and dG/dx2's
        }

    def test_no_wide_corner_table_at_any_alpha(self, monkeypatch):
        # every sample is settled at k = 12, for G, dG/dx2 and F alike: every
        # table pins all 12 parameters, so no evaluation spans the 2^12
        # corners; each has one column, in two blocks (one at alpha = 1)
        problem = replace(self.many_params_problem(12), grid=GridSpec(21, 21, 6))
        calls = self._count_evaluations(monkeypatch, problem)
        assert [shape for shape in calls if 4096 in shape] == []
        assert {shape[:2] for shape in calls} == {(1, 1), (2, 1)}

    def test_the_probe_runs_only_on_unsettled_samples(self, monkeypatch):
        # boundary_example.json: beta's partial is uncertified only on the
        # x1 = 1 row of G's pass, and at every sample of the x2 = 0 edge, where
        # the candidate's partial x1^beta*ln(x1)*x2 is 0; both are 21
        # samples, told apart by the x1 and the x2 they bind
        problem = load_problem(Path(__file__).resolve().parents[1] / "problems" / "boundary_example.json")
        probe, shapes = differentiate(problem.g, "beta"), []
        original = bfpde.engine.evaluate

        def recording(expr, binding):
            value = original(expr, binding)
            if expr == probe:
                shapes.append((np.shape(value), *(sorted(set(np.ravel(binding[x]).tolist())) for x in ("x1", "x2"))))
            return value

        monkeypatch.setattr(bfpde.engine, "evaluate", recording)
        assert verify(problem).outcome == BF_SOLUTION
        x1p, x2p, _ = bfpde.engine.grid_axes(problem.box, problem.grid)
        row, edge = ((1, 5, 21), [1.0], x2p.tolist()), ((1, 5, 21), x1p.tolist(), [0.0])
        assert shapes == [row] * 10 + [edge] * 10

    @staticmethod
    def many_params_problem(k: int) -> ProblemSpec:
        """The benchmark's many-params family: G = x2*exp(x1*S), F = x2*S,
        S = b0 + ... + b(k-1), each b_j a positive triangle."""
        names = tuple(f"b{j}" for j in range(k))
        s = " + ".join(names)
        params = FuzzyVector(tuple(
            (name, TriangularFuzzyNumber(0.1 + 0.01 * j, 0.15 + 0.01 * j, 0.2 + 0.01 * j))
            for j, name in enumerate(names)
        ))
        g_text, f_text = f"x2*exp(x1*({s}))", f"x2*({s})"
        return ProblemSpec(f"many-params-k{k}", g_text, f_text, parse(g_text, names), parse(f_text, names),
                           params, DomainBox(0.5, 1.5, 0.0, 2.0, x2_min_open=True), GridSpec(9, 9, 6))

    def test_evaluations_grow_with_the_partials_not_the_corners(self, monkeypatch):
        # three more parameters add one sign-probe evaluation each per alpha
        # level below 1; one evaluation per probe would make k * (1 + 2^k)
        # sign-probe calls per level, 27 at k = 3 and 390 at k = 6
        counts = {k: len(self._count_evaluations(monkeypatch, self.many_params_problem(k))) for k in (3, 6)}
        assert counts[6] - counts[3] <= 3 * 6
        assert counts[6] <= 6 * (1 + 1 + 1 + 4 + 1 + 6)

    def test_many_params_probes_no_partial_of_g(self, monkeypatch):
        # the benchmark's many-params size: every partial of G is certified at
        # every sample, so neither G's 2^6 corners nor the 1 + 2^6 probes are
        # evaluated
        problem = replace(self.many_params_problem(6), grid=GridSpec(41, 41, 21))
        calls = self._count_evaluations(monkeypatch, problem)
        assert (64, 41, 41) not in calls and (65, 41, 41) not in calls

    def test_coinciding_corners_and_fallback_samples_take_no_tie_break(self, monkeypatch):
        # the tie-break, which the worked example runs (see above), scores the
        # tied samples of the corner route; corners that coincide (a crisp
        # parameter, every alpha = 1 slice) tie nothing, and a fallback
        # sample's point is the lattice's
        crisp = load_problem(Path(__file__).resolve().parents[1] / "problems" / "crisp_example.json")
        for problem in (worked_problem(), crisp, TestDanskinGamma.non_monotone_problem(), self.many_params_problem(3)):
            tied = []
            original = bfpde.engine._tie_break

            def recording(*args):
                tied.append(int(args[5].sum()))
                return original(*args)

            monkeypatch.setattr(bfpde.engine, "_tie_break", recording)
            assert verify(problem).outcome == BF_SOLUTION
            monkeypatch.undo()
            # x1^beta = 1 ties every beta on the worked example's x1 = 1 row
            assert tied == ([21] * 10 if problem.name == "worked-example" else [])

    def test_failed_f_envelope_is_reported_once(self, monkeypatch):
        # F's envelope raises; equality is skipped instead of recomputing it
        passes = []
        original = bfpde.engine._alpha_pass

        def counting(*args, **kwargs):
            passes.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(bfpde.engine, "_alpha_pass", counting)
        verdict = verify(worked_problem(f_text="ln(x1 - 2) * beta"))
        assert verdict.outcome == STRUCTURE_FAILS
        assert verdict.report("structure").note == "ln of non-positive value (in 'ln(x1 - 2)')"
        assert [c.name for c in verdict.checks] == ["structure", "differentiability", "boundary"]
        assert len(passes) == 2

    def test_domain_error_at_a_g_corner_is_structure_evidence(self, tmp_path, capsys):
        # the ln that fails F's envelope above fails G at its cut-box corners
        # here; both read STRUCTURE_FAILS, with the error once in the note
        path = tmp_path / "ln.json"
        path.write_text(json.dumps({
            "name": "ln-corner", "G": "ln(x1 - 2) * beta * x2 + gamma + 10", "F": "beta * x2 / x1",
            "parameters": {"beta": [0.25, 0.5, 0.75], "gamma": [0, 1, 2]},
            "domain": {"x1": [1, 5], "x2": [0, 5, "open", "closed"]},
            "grid": {"n_x1": 9, "n_x2": 9, "n_alpha": 3},
        }), encoding="utf-8")
        problem = load_problem(path)
        error = "ln of non-positive value (in 'ln(x1 - 2)')"
        verdict = verify(problem)
        assert verdict.outcome == STRUCTURE_FAILS
        assert verdict.report("structure").note == error
        assert [c.name for c in verdict.checks] == ["structure", "boundary"]
        assert str(verdict.curves_error) == error
        scan = check_structure(problem.g, problem.parameters, problem.box, problem.grid)
        assert not scan.passed and scan.note == error
        capsys.readouterr()
        assert bfpde.cli.run(["check", str(path)]) == 1
        assert bfpde.cli.run(["check", str(path), "--curves", str(tmp_path / "curves.csv")]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_failed_sign_probe_is_reported_once(self):
        # dG/dbeta = x2*x1/(2*sqrt(beta)) divides by zero at beta = 0, which
        # fails the Y envelope and Gamma with one error
        params = FuzzyVector((("beta", TriangularFuzzyNumber(0.0, 0.5, 1.0)),
                              ("gamma", TriangularFuzzyNumber(0.0, 1.0, 2.0))))
        base = worked_problem(GridSpec(9, 9, 3))
        g_text = "x2*sqrt(beta)*x1 + gamma"
        problem = ProblemSpec(base.name, g_text, base.f_text, parse(g_text, P), base.f, params, base.box, base.grid)
        verdict = verify(problem)
        assert verdict.outcome == STRUCTURE_FAILS
        error = "division by zero (in '1 / (2 * sqrt(beta))')"
        assert verdict.report("structure").note == f"dG/dx2 is not one-signed and bounded away from zero; {error}"
        assert str(verdict.curves_error) == error

    def test_more_than_16_parameters_are_rejected(self):
        names = tuple(f"p{j}" for j in range(17))
        params = FuzzyVector(tuple((name, TriangularFuzzyNumber(1.0, 2.0, 3.0)) for name in names))
        g = parse("x2 * (" + " + ".join(names) + ") + x1", names)
        box = DomainBox(1.0, 2.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="at most 16") as raised:
            envelope(g, params, 1.0, 1.0, 0.5)
        # every pass enumerates the corners, not only the structure check
        assert str(raised.value) == "every envelope enumerates the 2^k cut-box corners; at most 16 parameters"
        with pytest.raises(ValueError, match="at most 16"):
            envelope_curve(g, params, box, GridSpec(2, 2, 2), "Y")
        with pytest.raises(ValueError, match="at most 16"):
            gamma_curves(g, params, box, GridSpec(2, 2, 2))

    def test_evaluation_error_follows_the_corner_order(self):
        # ln(3 - b) fails first in tree order, at the corners with b = 3;
        # sqrt(a) fails first in corner order, at corner 0 (a = -1, b = 1)
        names = ("a", "b")
        params = FuzzyVector((("a", TriangularFuzzyNumber(-1.0, 1.0, 2.0)),
                              ("b", TriangularFuzzyNumber(1.0, 2.0, 3.0))))
        g_text = "x2*(ln(3 - b) + sqrt(a + 2) + sqrt(a)) + 10"
        problem = ProblemSpec("corner-order", g_text, "a*x2", parse(g_text, names), parse("a*x2", names),
                              params, DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(5, 5, 3))
        error = "sqrt of negative value (in 'sqrt(a)')"
        # at a corner of the structure scan the error is structure evidence
        verdict = verify(problem)
        assert verdict.outcome == STRUCTURE_FAILS
        assert verdict.report("structure").note == error
        assert str(verdict.curves_error) == error
        scan = check_structure(problem.g, params, problem.box, problem.grid)
        assert not scan.passed and scan.note == error
        for run in (
            lambda: gamma_curves(problem.g, params, problem.box, problem.grid),
            lambda: envelope_curve(problem.g, params, problem.box, problem.grid, "Y"),
            lambda: envelope(problem.g, params, 1.5, 1.5, 0.0),
        ):
            with pytest.raises(EvalError) as raised:
                run()
            assert str(raised.value) == error
        # on the fallback lattice over b: sqrt((b - 1.2)^2 - 0.0001) fails
        # first in tree order, at b = 1.20625, but the other sqrt fails first
        # in column order, at b = 0.79375; no corner, probe or center fails
        g_text = "x2*((b - 1)^2 + 1) + sqrt((b - 1.2)^2 - 0.0001) + sqrt((b - 0.8)^2 - 0.0001) + 10"
        params = FuzzyVector((("b", TriangularFuzzyNumber(0.7, 1.0, 1.3)),))
        problem = ProblemSpec("lattice-order", g_text, "x2", parse(g_text, ("b",)), parse("x2", ("b",)), params,
                              DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(5, 5, 3))
        error = "sqrt of negative value (in 'sqrt((b - 0.8)^2 - 0.0001)')"
        assert verify(problem).report("structure").note == error
        assert check_structure(problem.g, params, problem.box, problem.grid).passed
        with pytest.raises(EvalError) as raised:
            envelope_curve(problem.g, params, problem.box, problem.grid, "Y")
        assert str(raised.value) == error


class TestTieBreak:
    """Where several cut-box corners attain an envelope end, Gamma is taken at
    the tied corner whose directional derivative d . grad_x G is least (lower
    end) or greatest (upper end), the first one on a tie: by Danskin's theorem
    that is the envelope's one-sided derivative along d, whose component on
    each x axis is its sampled range, backward at its last sample.  Checked
    against sympy partials at the corner a plain loop here picks."""

    SHIPPED = Path(__file__).resolve().parents[1] / "problems"

    @staticmethod
    def attaining_corners(g, params, x1, x2, alpha, step, d_x1, d_x2):
        """The corners (name -> value) attaining the lower and the upper end at
        (x1, x2), tied corners scored by the sympy partials ``d_x1`` and
        ``d_x2`` along ``step``, and whether two distinct corners tied."""
        cuts = [alpha_cut(t, alpha) for t in params.numbers]
        corners = [{name: (c.hi if (i >> j) & 1 else c.lo) for j, (name, c) in enumerate(zip(params.names, cuts))}
                   for i in range(2 ** len(cuts))]
        values = [float(evaluate(g, {"x1": x1, "x2": x2, **at})) for at in corners]
        score = [step[0] * d_x1(x1, x2, **at) + step[1] * d_x2(x1, x2, **at) for at in corners]
        low = [i for i, v in enumerate(values) if v == min(values)]
        high = [i for i, v in enumerate(values) if v == max(values)]
        distinct = any(len({tuple(corners[i].values()) for i in tied}) > 1 for tied in (low, high))
        return (corners[min(low, key=lambda i: score[i])], corners[max(high, key=lambda i: score[i])]), distinct

    @staticmethod
    def step(x, axis):
        """The step's component on a sampled axis: its range, backward at its last sample."""
        span = float(axis[-1] - axis[0])
        return span if x < axis[-1] else -span

    def tied_x1(self, problem) -> set:
        """Compare Gamma at every feasible sample; returns the x1 values where
        distinct corners tie."""
        gamma = gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        d_x1, d_x2 = sympy_x_partials(problem.g_text, problem.parameters.names)
        tied = set()
        for i1, i2 in np.argwhere(gamma.feasible):
            x1, x2 = float(gamma.x1[i1]), float(gamma.x2[i2])
            step = (self.step(x1, gamma.x1), self.step(x2, gamma.x2))
            for ia, alpha in enumerate(gamma.alpha):
                ends, distinct = self.attaining_corners(problem.g, problem.parameters, x1, x2, float(alpha), step,
                                                        d_x1, d_x2)
                if distinct:
                    tied.add(x1)
                for end, at in zip((gamma.lower, gamma.upper), ends):
                    want = d_x1(x1, x2, **at) / d_x2(x1, x2, **at)
                    assert end[i1, i2, ia] == pytest.approx(want, rel=1e-12)
        return tied

    @pytest.mark.parametrize("name", ["worked_example", "boundary_example", "crisp_example"])
    def test_shipped_problems(self, name):
        # x1^beta = 1 ties every beta at x1 = 1; crisp corners coincide
        problem = load_problem(self.SHIPPED / f"{name}.json")
        assert self.tied_x1(replace(problem, grid=GridSpec(9, 7, 4))) == (set() if name == "crisp_example" else {1.0})

    def test_ties_on_the_upper_edge_step_backward(self):
        # ln(6 - x1) = 0 ties every beta at x1 = 5, the upper end of the box
        g_text = "ln(6 - x1)*beta*x2 + x2 + gamma"
        base = worked_problem(GridSpec(9, 7, 4))
        assert self.tied_x1(replace(base, g_text=g_text, g=parse(g_text, P))) == {5.0}

    @pytest.mark.parametrize("name", ["worked_example", "boundary_example"])
    def test_nothing_is_evaluated_off_the_grid(self, name, monkeypatch):
        # every x1 and x2 that verify binds, the tie-break's included, is a
        # grid sample or the fixed coordinate of a boundary edge
        problem = replace(load_problem(self.SHIPPED / f"{name}.json"), grid=GridSpec(9, 7, 4))
        bound, original = {"x1": set(), "x2": set()}, bfpde.engine.evaluate

        def recording(expr, binding):
            for x, values in bound.items():
                if x in binding:
                    values.update(np.ravel(binding[x]).tolist())
            return original(expr, binding)

        monkeypatch.setattr(bfpde.engine, "evaluate", recording)
        verdict = verify(problem)
        monkeypatch.undo()
        assert verdict.outcome == BF_SOLUTION
        gamma, edges = verdict.curves[2], {c.fix: c.at for c in problem.boundary}
        for x, axis in (("x1", gamma.x1), ("x2", gamma.x2)):
            assert bound[x] == set(axis.tolist()) | ({edges[x]} if x in edges else set())

    # 1e-9 at every integer x1 and negative between them, so an evaluation of
    # G off the integer-x1 grid fails
    OFF_GRID_FAILS = "sqrt(cos(3.141592653589793*x1)^2 - 1 + 1e-9)"

    @staticmethod
    def integer_x1_problem(g_text, f_text, params, box) -> ProblemSpec:
        """The problem on ``box`` sampled at x1 = 1, 2, ..., 5."""
        names = tuple(params)
        vector = FuzzyVector(tuple((n, TriangularFuzzyNumber(*t)) for n, t in params.items()))
        return ProblemSpec("integer-x1", g_text, f_text, parse(g_text, names), parse(f_text, names), vector, box,
                           GridSpec(5, 9, 5))

    @pytest.mark.parametrize("c", [(0.12, 0.2, 0.27), (0.2, 0.2, 0.2)])
    def test_fallback_samples_and_coinciding_corners_take_no_tie_break(self, c):
        # b's symmetric corners tie at every fallback sample, where the
        # lattice picks the point, and at alpha = 1 (and for a crisp c) the
        # corners coincide; the lattice evaluates G on the grid only.  That
        # no tie-break runs there is pinned by the evaluation shapes in
        # TestVerify.test_coinciding_corners_and_fallback_samples_take_no_tie_break
        g_text = f"x2*exp(x1*((b - 1)^2 + c)) + {self.OFF_GRID_FAILS}"
        problem = self.integer_x1_problem(g_text, "x2*((b - 1)^2 + c)", {"b": (0.7, 1.0, 1.3), "c": c},
                                          DomainBox(1.0, 5.0, 0.0, 2.0, x2_min_open=True))
        verdict = verify(problem)
        assert verdict.outcome == BF_SOLUTION
        assert verdict.curves[2].approximate.any()

    WORKED = {"beta": (0.25, 0.5, 0.75), "gamma": (0, 1, 2)}

    def test_the_tie_break_stays_on_the_grid(self):
        # x1^beta ties every beta at x1 = 1; the tie-break scores the tied
        # corners by the x-partials there, never by G off the grid
        g_text = f"x1^beta * x2 + gamma + {self.OFF_GRID_FAILS}"
        problem = self.integer_x1_problem(g_text, "beta * x2 / x1", self.WORKED,
                                          DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True))
        assert verify(problem).outcome == BF_SOLUTION

    def test_a_tie_break_error_fails_gamma_only(self):
        # x1^beta ties every beta at x1 = 1, where dG/dx1 divides by zero, so
        # Gamma fails while the structure corners and the envelope hold
        problem = self.integer_x1_problem("x1^beta * x2 + gamma + sqrt(x1 - 1)", "beta * x2 / x1", self.WORKED,
                                          DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True))
        error = "division by zero (in '1 / (2 * sqrt(x1 - 1))')"
        verdict = verify(problem)
        assert verdict.outcome == STRUCTURE_FAILS
        assert verdict.report("structure").note == error
        assert [c.name for c in verdict.checks] == ["structure", "fuzzy_validity", "boundary"]
        envelope_curve(problem.g, problem.parameters, problem.box, problem.grid, "Y")
        with pytest.raises(EvalDomainError) as raised:
            gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        assert str(raised.value) == error

    def test_a_lattice_error_comes_before_the_tie_break(self):
        # at x1 = 2 the corners tie on the corner route, and dG/dx1 divides by
        # zero in the last term; at the other samples the lattice meets
        # (b - 0.9)^2 < 1e-4 first, which fails Y and Gamma
        g_text = "x2*(1 + (x1 - 2)*sqrt((b - 0.9)^2 - 0.0001)) + sqrt((x1 - 2)^2) + 10"
        problem = self.integer_x1_problem(g_text, "x2", {"b": (0.7, 1.0, 1.3)}, DomainBox(1.0, 5.0, 1.0, 2.0))
        error = "sqrt of negative value (in 'sqrt((b - 0.9)^2 - 0.0001)')"
        assert verify(problem).report("structure").note == error
        for run in (gamma_curves, lambda *args: envelope_curve(*args, "Y")):
            with pytest.raises(EvalError) as raised:
                run(problem.g, problem.parameters, problem.box, problem.grid)
            assert str(raised.value) == error


class TestCrispParameter:
    """A crisp parameter is a constant of every alpha slice: verify agrees
    with the same problem after the parameter's value is written into the G
    and F text.  Outcome and pass flags are equal; the curves agree to 1e-12
    relative, not bit for bit, because a constant exponent differentiates by
    another formula than a parameter one."""

    @staticmethod
    def with_crisp(problem, name, value) -> tuple[ProblemSpec, ProblemSpec]:
        """``problem`` with ``name`` crisp at ``value``, and with ``value``
        substituted for ``name``."""
        point = TriangularFuzzyNumber(value, value, value)
        crisp = replace(problem, parameters=FuzzyVector(tuple(
            (n, point if n == name else t) for n, t in problem.parameters.components)))
        rest = FuzzyVector(tuple(c for c in problem.parameters.components if c[0] != name))
        g_text, f_text = (re.sub(rf"\b{name}\b", f"({value!r})", t) for t in (problem.g_text, problem.f_text))
        constant = replace(problem, g_text=g_text, f_text=f_text, g=parse(g_text, rest.names),
                           f=parse(f_text, rest.names), parameters=rest)
        return crisp, constant

    def assert_agrees(self, problem, name, value) -> Verdict:
        assert not problem.boundary
        got, want = (verify(p) for p in self.with_crisp(problem, name, value))
        assert got.outcome == want.outcome
        assert [(c.name, c.passed) for c in got.checks] == [(c.name, c.passed) for c in want.checks]
        assert got.curves_error is None and want.curves_error is None
        for a, b in zip(got.curves, want.curves, strict=True):
            np.testing.assert_allclose(a.lower, b.lower, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(a.upper, b.upper, rtol=1e-12, atol=0.0)
            assert np.array_equal(a.approximate, b.approximate)
        return got

    @pytest.mark.parametrize("name, value", [("beta", 0.5), ("gamma", 1.0), ("gamma", 1.5e308)])
    def test_worked_example(self, name, value):
        # 0.5*(lo + lo) overflows for the last value; its cut is still one point
        self.assert_agrees(worked_problem(GridSpec(13, 11, 5)), name, value)

    def test_beside_a_parameter_on_the_fallback(self):
        shipped = load_problem(Path(__file__).resolve().parents[1] / "problems" / "not_differentiable.json")
        g_text, f_text = "beta * x1 + x2 / beta + gamma * x1", "gamma * x2 / x1"
        names = ("beta", "gamma")
        params = FuzzyVector((*shipped.parameters.components, ("gamma", TriangularFuzzyNumber(1.0, 1.25, 1.5))))
        problem = replace(shipped, g_text=g_text, f_text=f_text, g=parse(g_text, names), f=parse(f_text, names),
                          parameters=params)
        verdict = self.assert_agrees(problem, "gamma", 1.25)
        assert verdict.curves[0].approximate.any()

    def test_random_monotone_instances(self):
        rng = np.random.default_rng(10)
        tried = 0
        while tried < 20:
            g_text, params, box = random_monotone_instance(rng)
            if len(params) < 2:
                continue
            tried += 1
            f_text = f"({' + '.join(params.names)}) * x2 / x1"
            problem = ProblemSpec("random", g_text, f_text, parse(g_text, params.names), parse(f_text, params.names),
                                  params, box, GridSpec(7, 6, 5))
            j = int(rng.integers(len(params)))
            self.assert_agrees(problem, params.names[j], params.numbers[j].peak)


class TestProbeAxis:
    """A table without pins (:func:`bfpde.engine._table`, every parameter
    uncertified) is the cut-box corners, and its values and the sign probes,
    evaluated as one leading array axis over the flat samples
    (:func:`bfpde.engine._values`), give, bit for bit, what one plain
    evaluation per corner and per probe over the (x1, x2) mesh gives."""

    @staticmethod
    def corner_bindings(names, los, his, base):
        # the corners over the parameters whose cut has width, in the order of
        # their bits; a degenerate parameter is bound at its one value
        live = [j for j in range(len(names)) if los[j] < his[j]]
        for c in range(2 ** len(live)):
            binding = dict(base, **{name: los[j] for j, name in enumerate(names)})
            for bit, j in enumerate(live):
                binding[names[j]] = his[j] if (c >> bit) & 1 else los[j]
            yield binding

    def per_corner_values(self, expr, names, los, his, base, shape):
        return np.stack([np.broadcast_to(np.asarray(evaluate(expr, b), dtype=float), shape)
                         for b in self.corner_bindings(names, los, his, base)])

    def per_probe_fallback(self, g, names, los, his, base, shape):
        center = dict(base, **{name: los[j] if los[j] == his[j] else 0.5 * (los[j] + his[j])
                               for j, name in enumerate(names)})
        probes = [center, *self.corner_bindings(names, los, his, base)]
        fallback = np.zeros(shape, dtype=bool)
        for j, name in enumerate(names):
            if los[j] == his[j]:
                continue  # a degenerate axis has one point; its extremum is there
            signs = [np.broadcast_to(evaluate(differentiate(g, name), b), shape) for b in probes]
            fallback |= np.logical_or.reduce([d > 0.0 for d in signs]) & np.logical_or.reduce([d < 0.0 for d in signs])
        return fallback

    def assert_matches(self, g, exprs, params, box, grid) -> int:
        """Compare every alpha slice; returns the number of fallback samples."""
        names = params.names
        x1p, x2p, alphas = bfpde.engine.grid_axes(box, grid)
        base, shape = {"x1": x1p[:, None], "x2": x2p[None, :]}, (x1p.size, x2p.size)
        x1, x2 = bfpde.engine._flat_samples(x1p, x2p)
        feas = np.ones(x1.size, dtype=bool)
        partials = [differentiate(g, name) for name in names]
        # as the pass does, leave out each partial certified at every sample
        signs, _, _ = bfpde.engine._settled(g, partials, params, x1p, x2p)
        probed = [None if s.all() else d for d, s in zip(partials, signs)]
        fallbacks = 0
        for alpha in alphas:
            los, his = bfpde.engine._cut_arrays(params, float(alpha))
            table = bfpde.engine._table(los, his, 2, np.zeros((len(names), 1), dtype=np.int8))
            assert all(row.shape[0] == row.shape[2] == 1 for row in table)  # one block, the same at every sample
            for expr in exprs:
                got = bfpde.engine._values(expr, names, table, x1, x2, feas)
                assert got.shape[::2] == (1, x1.size)
                want = self.per_corner_values(expr, names, los, his, base, shape)
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()
            want = self.per_probe_fallback(g, names, los, his, base, shape).ravel()
            for table in (partials, probed):
                fallback = bfpde.engine._sign_fallback(table, names, los, his, x1, x2, feas)
                assert np.array_equal(fallback, want)
            fallbacks += int(fallback.sum())
        return fallbacks

    def test_random_monotone_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            g_text, params, box = random_monotone_instance(rng)
            g = parse(g_text, params.names)
            self.assert_matches(g, (g, differentiate(g, "x2")), params, box, GridSpec(7, 6, 5))

    @pytest.mark.parametrize("name", ["worked_example", "boundary_example", "not_differentiable"])
    def test_shipped_problems(self, name):
        problem = load_problem(Path(__file__).resolve().parents[1] / "problems" / f"{name}.json")
        exprs = (problem.g, differentiate(problem.g, "x2"), problem.f)
        fallbacks = self.assert_matches(problem.g, exprs, problem.parameters, problem.box, problem.grid)
        for cond in problem.boundary:
            self.assert_matches(cond.target, (cond.target,), problem.parameters, problem.box, problem.grid)
        # not_differentiable.json sends samples to the fallback, so the mask is not all False
        assert (name == "not_differentiable") == bool(fallbacks)


class TestSignCertificate:
    """A partial's sign that interval arithmetic certifies on the alpha = 0
    cut box holds, strictly, at every sign probe of every slice, so the pass
    leaves the partials certified at every sample unprobed: its fallback mask
    must be the one that probing every partial gives."""

    def assert_sound(self, monkeypatch, expr, params, box, grid) -> tuple[int, int, int]:
        """Check every slice; returns the certified (partial, sample) pairs,
        the samples the certificate settles, and the (partial, sample) pairs
        of live partials the pass left unprobed, summed over the slices."""
        names = params.names
        x1p, x2p, alphas, feas = bfpde.engine._grid_samples(box, grid)
        base, shape = {"x1": x1p[:, None], "x2": x2p[None, :]}, (x1p.size, x2p.size)
        x1, x2 = bfpde.engine._flat_samples(x1p, x2p)
        partials = [differentiate(expr, name) for name in names]
        signs, settled, _ = bfpde.engine._settled(expr, partials, params, x1p, x2p)
        live_pairs = 0
        for alpha in alphas:
            los, his = bfpde.engine._cut_arrays(params, float(alpha))
            live_pairs += int((los < his).sum()) * settled.size
            center = dict(base, **{name: 0.5 * lo + 0.5 * hi for name, lo, hi in zip(names, los, his)})
            for binding in (center, *TestProbeAxis.corner_bindings(names, los, his, base)):
                for d, sign in zip(partials, signs):
                    v = np.broadcast_to(evaluate(d, binding), shape).ravel()
                    assert ((v > 0.0) | (sign <= 0)).all() and ((v < 0.0) | (sign >= 0)).all()
            # a settled sample takes no probe: probing would send it nowhere
            fallback = bfpde.engine._sign_fallback(partials, names, los, his, x1, x2, np.ones(x1.size, bool))
            assert not (fallback & settled).any()
        probed = []
        original = bfpde.engine._sign_fallback

        def against_every_partial(table, *args):
            los, his, feas = args[1], args[2], args[-1]
            probed.append(feas.size * sum(d is not None and lo < hi for d, lo, hi in zip(table, los, his)))
            fallback = original(table, *args)
            assert np.array_equal(fallback, original(partials, *args))
            return fallback

        monkeypatch.setattr(bfpde.engine, "_sign_fallback", against_every_partial)
        bfpde.engine._alpha_pass(expr, params, x1p, x2p, alphas, feas)
        monkeypatch.undo()
        return int(np.count_nonzero(signs)), int(settled.sum()), live_pairs - sum(probed)

    def test_random_smooth_expressions(self, monkeypatch):
        rng = np.random.default_rng(23)
        box, certified, settled, skipped = DomainBox(1.0, 2.5, 1.0, 2.5), 0, 0, 0
        for _ in range(400):
            expr, _ = random_smooth_expression(rng)
            params = FuzzyVector((("beta", random_triangle(rng, 0.3, 0.3)), ("gamma", random_triangle(rng, 0.5, 0.5))))
            c, s, k = self.assert_sound(monkeypatch, expr, params, box, GridSpec(6, 5, 4))
            certified, settled, skipped = certified + c, settled + s, skipped + k
        # of the 72,000 live (partial, sample) pairs (400 passes, 3 levels
        # below alpha = 1, 2 parameters, 6 x 5 samples) few are probed
        assert (certified, settled, skipped) == (8_694, 11_382, 70_002)

    @pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.json")),
                             ids=lambda path: path.stem)
    def test_shipped_problems(self, monkeypatch, path):
        problem = load_problem(path)
        for expr in (problem.g, problem.f, *(cond.target for cond in problem.boundary)):
            self.assert_sound(monkeypatch, expr, problem.parameters, problem.box, problem.grid)

    def test_the_probe_centres_an_unprobed_parameter_too(self, monkeypatch):
        # the b-partial is negative at the box center only where c is below
        # its cut's middle; c's partial is certified, so c is not probed
        params = FuzzyVector((("b", TriangularFuzzyNumber(0.7, 1.0, 1.3)), ("c", TriangularFuzzyNumber(0.0, 1.0, 2.0))))
        g = parse("x2 + (b - 1)^3 / 3 - 0.01*b + 0.006*b*exp(c)", params.names)
        box, grid = DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(3, 3, 3)
        _, settled, skipped = self.assert_sound(monkeypatch, g, params, box, grid)
        # no sample is settled, so c goes unprobed at the 9 samples of the 2 levels below alpha = 1
        assert settled == 0 and skipped == 2 * 9

    def test_a_name_the_box_lacks_stays_uncertified(self):
        # the certificate leaves such a partial to the slice, where evaluating
        # it fails the structure report instead of raising
        params = FuzzyVector((("a", TriangularFuzzyNumber(0.5, 1.0, 1.5)),))
        g = parse("x2*(a + sin(z) + 2)", ("a", "z"))
        report = check_structure(g, params, DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(3, 3, 2))
        assert not report.passed and report.note == "unbound variable 'z' (in 'z')"


class TestNonFinite:
    """G = x2*exp(100*beta*x1*x2) + gamma overflows on most of the worked box."""

    G_TEXT = "x2*exp(100*beta*x1*x2) + gamma"

    def problem(self, boundary=()):
        base = worked_problem(GridSpec(9, 9, 3), boundary=boundary)
        return ProblemSpec(base.name, self.G_TEXT, base.f_text, parse(self.G_TEXT, P), base.f,
                           base.parameters, base.box, base.grid, boundary=base.boundary)

    def test_verdict_is_structure_failure_with_location(self):
        verdict = verify(self.problem())
        assert verdict.outcome == STRUCTURE_FAILS
        structure = verdict.report("structure")
        assert not structure.passed
        assert "non-finite cut-box corner value of G = inf" in structure.note
        assert "non-finite upper Y envelope" in structure.note
        assert "non-finite upper Gamma" in structure.note
        assert structure.location == (2.0, 5.0, 0.0)  # first overflow: exp(100*0.75*2*5)
        # the checks that consume Y and Gamma were skipped, not passed
        assert [c.name for c in verdict.checks] == ["structure", "boundary"]
        for check in verdict.checks:
            assert math.isfinite(check.worst_violation)
        json.dumps(report_to_dict(verdict), allow_nan=False)

    def test_check_structure_fails_at_the_first_overflow(self):
        p = self.problem()
        report = check_structure(p.g, p.parameters, p.box, p.grid)
        assert not report.passed
        assert report.location == (2.0, 5.0, 0.0)
        assert "non-finite" in report.note

    def test_curves_raise_with_location(self):
        p = self.problem()
        with pytest.raises(NonFiniteValueError, match="upper Y envelope") as raised:
            envelope_curve(p.g, p.parameters, p.box, p.grid, "Y")
        assert raised.value.location == (2.0, 5.0, 0.0)
        with pytest.raises(NonFiniteValueError, match="Gamma"):
            gamma_curves(p.g, p.parameters, p.box, p.grid)
        with pytest.raises(NonFiniteValueError):
            compute_curves(p)
        with pytest.raises(NonFiniteValueError, match="upper envelope = inf") as raised:
            envelope(p.g, p.parameters, 2.0, 5.0, 0.0)
        assert raised.value.location == (2.0, 5.0, 0.0)

    def test_infeasible_overflow_is_ignored(self):
        # the same overflow, cut away by the domain constraint x1*x2 <= 1
        p = self.problem()
        box = DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True, constraint=parse("1 - x1 * x2"))
        report = check_structure(p.g, p.parameters, box, p.grid)
        assert "non-finite" not in report.note

    @pytest.mark.parametrize("x1_min, n_x1", [(3.0, 5), (1.0, 9)], ids=["box-cut", "constraint-cut"])
    def test_infeasible_domain_error_is_ignored(self, x1_min, n_x1):
        # sqrt(x1 - 2) fails at x1 < 2, which the constraint x1 >= 3 cuts
        # away (its partial dG/dx1 there too, in Gamma); both grids have the
        # feasible x1 samples 3, 3.5, ..., 5
        g_text = "x1^beta * x2 + gamma + sqrt(x1 - 2) - sqrt(x1 - 2)"
        base = worked_problem(GridSpec(n_x1, 9, 3))
        box = DomainBox(x1_min, 5.0, 0.0, 5.0, x2_min_open=True, constraint=parse("x1 - 3"))
        assert verify(replace(base, g_text=g_text, g=parse(g_text, P), box=box)).outcome == BF_SOLUTION

    def test_overflow_outside_the_constraint_warns_nothing(self):
        # every feasible value is finite; the checks and the fallback Gamma
        # still compute over the overflowing infeasible samples
        def problem(g_text, constraint, boundary=()):
            box = DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True, constraint=parse(constraint))
            base = self.problem(boundary)
            return ProblemSpec(base.name, g_text, base.f_text, parse(g_text, P), base.f,
                               base.parameters, box, base.grid, boundary=base.boundary)

        target = "gamma + exp(300 * x1)"
        cases = (
            (problem(self.G_TEXT, "1 - x1 * x2"), EQUALITY_FAILS),
            (problem("x1^beta * x2 + gamma", "2 - x1", [BoundaryCondition("x2", 0.0, parse(target, P), target)]),
             BOUNDARY_FAILS),
            (problem("x2*exp(3000*x1*((beta - 0.5)^2 + 0.01)) + gamma", "2 - x1"), EQUALITY_FAILS),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = [verify(p) for p, _ in cases]
            for p, _ in cases:
                compute_curves(p)
        assert [v.outcome for v in verdicts] == [outcome for _, outcome in cases]

        # Gamma = 3000*x2*q(beta*) with q = (beta - 0.5)^2 + 0.01: 30*x2 on the
        # lower end (beta* = 0.5) and non-increasing in alpha on the upper end
        p, verdict = cases[2][0], verdicts[2]
        assert verdict.report("differentiability").passed
        gamma = verdict.curves[2]
        fallback = np.argwhere(gamma.approximate & gamma.feasible[:, :, None])
        assert fallback.size
        for i1, i2, ia in fallback:
            x1, x2, alpha = gamma.x1[i1], gamma.x2[i2], gamma.alpha[ia]
            for end, at in zip((gamma.lower, gamma.upper), lattice_optima(p.g, p.parameters, x1, x2, alpha)):
                want = 3000.0 * x2 * ((at["beta"] - 0.5) ** 2 + 0.01)
                assert end[i1, i2, ia] == pytest.approx(want, rel=1e-12)
            assert gamma.lower[i1, i2, ia] == pytest.approx(30.0 * x2, rel=1e-12)

    def test_boundary_envelope_overflow_is_structure_evidence(self):
        target = "gamma + exp(1000 * x1)"
        cond = BoundaryCondition("x2", 0.0, parse(target, P), target)
        problem = worked_problem(boundary=[cond])
        with pytest.raises(NonFiniteValueError, match="lower target envelope on the boundary = inf"):
            check_boundary(problem.g, problem.parameters, (cond,), problem.box, problem.grid)
        verdict = verify(problem)
        assert verdict.outcome == STRUCTURE_FAILS
        assert "boundary" not in [c.name for c in verdict.checks]
        assert verdict.report("structure").location == (1.0, 0.0, 0.0)

    def test_first_overflowing_boundary_condition_wins(self):
        # the second condition's residual overflows; the third condition's
        # target envelope would overflow too, but it is never built
        g_text = "x1^beta * x2 + gamma*1e307"
        targets = (("x2", "gamma"), ("x2", "0 - 1.7e308 - gamma"), ("x1", "exp(1000*x2)"))
        conds = tuple(BoundaryCondition(fix, 0.0 if fix == "x2" else 1.0, parse(t, P), t) for fix, t in targets)
        problem = worked_problem(GridSpec(9, 9, 5))
        with pytest.raises(NonFiniteValueError) as raised:
            check_boundary(parse(g_text, P), problem.parameters, conds, problem.box, problem.grid)
        assert str(raised.value) == "non-finite boundary residual = inf at (x1=1, x2=0, alpha=0)"

    @staticmethod
    def overflowing_equality_problem():
        # Gamma = 1e307*beta and F = -1.79e308*beta are finite, but at beta = 1
        # their difference exceeds the largest double
        g_text, f_text = "x2 + 1e307*x1*beta", "0 - 1.79e308*beta"
        params = FuzzyVector((("beta", TriangularFuzzyNumber(0.5, 1.0, 1.0)),))
        return ProblemSpec("eq-overflow", g_text, f_text, parse(g_text, ("beta",)), parse(f_text, ("beta",)),
                           params, DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(5, 5, 3))

    def test_overflowing_equality_residual_is_structure_evidence(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = verify(self.overflowing_equality_problem())
        assert verdict.outcome == STRUCTURE_FAILS
        structure = verdict.report("structure")
        assert structure.note == "non-finite equality residual = inf at (x1=1, x2=1, alpha=0)"
        assert structure.location == (1.0, 1.0, 0.0)
        assert [c.name for c in verdict.checks] == ["structure", "fuzzy_validity", "differentiability", "boundary"]
        # the residual, not a curve, overflowed: the verdict keeps the curves
        assert verdict.curves_error is None
        assert [c.role for c in verdict.curves] == ["Y", "F", ROLE_GAMMA]
        json.dumps(report_to_dict(verdict), allow_nan=False)

    @staticmethod
    def one_sample_curve(lower, upper):
        lower, upper = (np.array(v, dtype=float).reshape(1, 1, -1) for v in (lower, upper))
        return EnvelopeCurve(ROLE_GAMMA, np.array([1.0]), np.array([2.0]), np.linspace(0.0, 1.0, lower.shape[2]),
                             lower, upper, np.zeros(lower.shape, dtype=bool), np.ones((1, 1), dtype=bool))

    def test_overflowing_differentiability_residual_raises(self):
        # the upper end rises by 2e308 between alpha = 0 and alpha = 1
        curve = self.one_sample_curve([-1e308, -1e308], [-1e308, 1e308])
        with pytest.raises(NonFiniteValueError) as raised:
            check_differentiability(curve)
        assert str(raised.value) == "non-finite differentiability residual = inf at (x1=1, x2=2, alpha=1)"
        assert raised.value.location == (1.0, 2.0, 1.0)

    def test_overflowing_fuzzy_validity_residual_raises(self):
        curve = self.one_sample_curve([1e308, 1e308], [-1e308, -1e308])
        with pytest.raises(NonFiniteValueError) as raised:
            check_fuzzy_validity([curve])
        assert str(raised.value) == "non-finite fuzzy_validity residual = inf at (x1=1, x2=2, alpha=0)"
        assert raised.value.location == (1.0, 2.0, 0.0)

    def test_nan_fuzzy_validity_residual_raises(self):
        # the first NaN, in curve order, wins over every number: alone, and
        # after a curve whose lower end exceeds its upper end by 5
        x = np.array([1.0, 2.0])
        lower, upper = np.zeros((2, 2, 3)), np.ones((2, 2, 3))
        lower[1, 1, 0] = np.nan
        curve = EnvelopeCurve("Y", x, x, np.linspace(0.0, 1.0, 3), lower, upper,
                              np.zeros(lower.shape, dtype=bool), np.ones((2, 2), dtype=bool))
        inverted = replace(curve, role="F", lower=upper + 5.0)
        for curves in ([curve], [inverted, curve]):
            with pytest.raises(NonFiniteValueError) as raised:
                check_fuzzy_validity(curves)
            assert str(raised.value) == "non-finite fuzzy_validity residual = nan at (x1=2, x2=2, alpha=0)"
            assert raised.value.location == (2.0, 2.0, 0.0)
        with pytest.raises(NonFiniteValueError, match="non-finite differentiability residual = nan"):
            check_differentiability(curve)

    @staticmethod
    def unit_gamma():
        # lower = 0 and upper = 1 on a 2x2x3 grid: every condition holds
        x = np.array([1.0, 2.0])
        lower = np.zeros((2, 2, 3))
        return EnvelopeCurve(ROLE_GAMMA, x, x, np.linspace(0.0, 1.0, 3), lower, lower + 1.0,
                             np.zeros(lower.shape, dtype=bool), np.ones((2, 2), dtype=bool))

    def test_an_infinite_end_raises_where_no_residual_does(self):
        # upper = inf at (2, 2, 0) makes lower - upper and condition 2's rise
        # into alpha = 0.5 -inf, never the worst; it passes where infeasible
        gamma = self.unit_gamma()
        gamma.upper[1, 1, 0] = np.inf
        for check, curve in ((lambda c: check_fuzzy_validity([c]), replace(gamma, role="Y")),
                             (check_differentiability, gamma)):
            with pytest.raises(NonFiniteValueError) as raised:
                check(curve)
            assert str(raised.value) == f"non-finite upper end of the {curve.role} curve = inf at (x1=2, x2=2, alpha=0)"
            assert raised.value.location == (2.0, 2.0, 0.0)
            infeasible = replace(curve, feasible=np.array([[True, True], [True, False]]))
            assert check(infeasible).passed

    def test_nan_in_differentiability_condition_two_or_three_raises(self):
        # a NaN upper end at the core cut makes conditions 2 and 3 NaN there; it
        # beats condition 1, whether that holds (-0.0) or a planted drop of 0.5
        # at (1, 1, 0.5) fails it
        gamma = self.unit_gamma()
        gamma.upper[1, 1, 2] = np.nan
        dropped = replace(gamma, lower=gamma.lower.copy())
        dropped.lower[0, 0, 1] = -0.5
        for curve in (gamma, dropped):
            with pytest.raises(NonFiniteValueError) as raised:
                check_differentiability(curve)
            assert str(raised.value) == "non-finite differentiability residual = nan at (x1=2, x2=2, alpha=1)"
        with pytest.raises(NonFiniteValueError) as raised:
            check_equality(gamma, replace(self.unit_gamma(), role="F"))
        assert str(raised.value) == "non-finite equality residual = nan at (x1=2, x2=2, alpha=1)"

    @pytest.mark.parametrize("seed", range(12))
    def test_one_nan_raises_at_its_sample_in_every_curve_check(self, seed):
        # one NaN end in any input curve of any curve check raises at its
        # (x1, x2) when the sample is feasible, and is ignored when it is not
        rng = np.random.default_rng(seed)
        n1, n2, na = (int(n) for n in rng.integers(2, 6, size=3))
        feasible = (rng.permutation(n1 * n2) < rng.integers(1, n1 * n2)).reshape(n1, n2)  # both kinds occur
        axes = np.linspace(1.0, 2.0, n1), np.linspace(3.0, 4.0, n2), np.linspace(0.0, 1.0, na)

        def curve(role):
            lower = rng.normal(size=(n1, n2, na))
            return EnvelopeCurve(role, *axes, lower, lower + rng.random((n1, n2, na)),
                                 np.zeros((n1, n2, na), dtype=bool), feasible)

        checks = (
            (lambda y, f: check_fuzzy_validity([y, f]), ("Y", "F")),
            (check_differentiability, (ROLE_GAMMA,)),
            (check_equality, (ROLE_GAMMA, "F")),
        )
        for check, roles in checks:
            for at_feasible in (True, False):
                curves = [curve(role) for role in roles]
                i1, i2 = rng.choice(np.argwhere(feasible == at_feasible))
                end = getattr(curves[rng.integers(len(curves))], str(rng.choice(["lower", "upper"])))
                end[i1, i2, rng.integers(na)] = np.nan
                if not at_feasible:
                    assert math.isfinite(check(*curves).worst_violation)
                    continue
                with pytest.raises(NonFiniteValueError) as raised:
                    check(*curves)
                assert math.isnan(raised.value.value)
                assert raised.value.location[:2] == (axes[0][i1], axes[1][i2])


class TestDanskinGamma:
    """At a dense-fallback sample, Gamma is dG/dx1 / dG/dx2 at the lattice
    point attaining each envelope end (Danskin's theorem), checked against
    sympy partials at the optima of a lattice sweep written here."""

    SHIPPED = Path(__file__).resolve().parents[1] / "problems" / "not_differentiable.json"

    @staticmethod
    def non_monotone_problem() -> ProblemSpec:
        # dG/db changes sign inside every cut with alpha < 1; Gamma = F in
        # closed form, the minimum sitting at b = 1
        names = ("b", "c")
        g_text, f_text = "x2*exp(x1*((b - 1)^2 + c))", "x2*((b - 1)^2 + c)"
        params = FuzzyVector((("b", TriangularFuzzyNumber(0.7, 1.0, 1.3)),
                              ("c", TriangularFuzzyNumber(0.12, 0.2, 0.27))))
        return ProblemSpec("non-monotone", g_text, f_text, parse(g_text, names), parse(f_text, names), params,
                           DomainBox(0.5, 1.5, 0.0, 2.0, x2_min_open=True), GridSpec(9, 9, 5))

    def problem(self, which: str) -> ProblemSpec:
        return load_problem(self.SHIPPED) if which == "not_differentiable" else self.non_monotone_problem()

    @pytest.mark.parametrize("which", ["not_differentiable", "non_monotone"])
    def test_fallback_gamma_is_the_sympy_quotient_at_the_lattice_optimum(self, which):
        problem = self.problem(which)
        gamma = verify(problem).curves[2]
        d_x1, d_x2 = sympy_x_partials(problem.g_text, problem.parameters.names)
        fallback = np.argwhere(gamma.approximate & gamma.feasible[:, :, None])
        assert len(fallback) > gamma.approximate.size // 2
        for i1, i2, ia in fallback:
            x1, x2, alpha = gamma.x1[i1], gamma.x2[i2], gamma.alpha[ia]
            optima = lattice_optima(problem.g, problem.parameters, x1, x2, alpha)
            for end, at in zip((gamma.lower, gamma.upper), optima):
                want = d_x1(x1, x2, **at) / d_x2(x1, x2, **at)
                assert end[i1, i2, ia] == pytest.approx(want, rel=1e-12)

    def test_fallback_gamma_equals_f_where_it_does_in_closed_form(self):
        verdict = verify(self.non_monotone_problem())
        assert verdict.outcome == BF_SOLUTION
        assert verdict.curves[2].approximate.any()
        assert verdict.report("equality").worst_violation <= 1e-12

    def test_one_lattice_evaluation_per_fallback_slice(self, monkeypatch):
        # the lattice sweep that fills the envelope also yields the optimum
        # Gamma reads, so no other lattice-wide evaluation of G is made
        problem = load_problem(self.SHIPPED)
        calls = []
        original = bfpde.engine.evaluate

        def recording(expr, binding):
            value = original(expr, binding)
            calls.append((expr, np.shape(value)))
            return value

        monkeypatch.setattr(bfpde.engine, "evaluate", recording)
        verdict = verify(problem)
        monkeypatch.undo()
        y_curve, f_curve, _ = verdict.curves
        lattice = bfpde.engine.FALLBACK_BOX_SAMPLES  # one parameter: 33 lattice points
        wide = [expr for expr, shape in calls if len(shape) == 3 and shape[1] == lattice]
        slices = [int(c.approximate.any(axis=(0, 1)).sum()) for c in (y_curve, f_curve)]
        assert slices[0] == problem.grid.n_alpha - 1
        assert wide == [problem.g] * slices[0] + [problem.f] * slices[1]

    def test_near_zero_denominator_at_a_lattice_optimum(self):
        # beta = 0.5 zeroes dG/dx2 = (beta - 0.5)^2 * x1; it is an inner lattice
        # point of the alpha = 0 cut and a corner of the alpha = 0.5 cut, where
        # the structure scan finds it; the lattice optimum comes first in
        # alpha order, at the first sample
        params = FuzzyVector((("beta", TriangularFuzzyNumber(0.25, 0.75, 1.25)),
                              ("gamma", TriangularFuzzyNumber(0.0, 1.0, 2.0))))
        g_text = "(beta - 0.5)^2 * x1 * x2 + gamma"
        base = worked_problem(GridSpec(9, 9, 5))
        problem = ProblemSpec("lattice-flat", g_text, base.f_text, parse(g_text, P), base.f, params,
                              base.box, base.grid)
        x2_first = float(axis_points(0.0, 5.0, True, False, 9, base.grid.epsilon_edge)[0])
        y_curve = envelope_curve(problem.g, params, problem.box, problem.grid, "Y")
        assert y_curve.approximate[0, 0, 0] and not y_curve.approximate[:, :, 2].any()
        scan = check_structure(problem.g, params, problem.box, problem.grid)
        assert scan.location == (1.0, x2_first, 0.5)

        verdict = verify(problem)
        assert verdict.outcome == STRUCTURE_FAILS
        structure = verdict.report("structure")
        assert structure.location == (1.0, x2_first, 0.0)
        assert structure.note == (f"{scan.note}; near-zero envelope denominator |dY/dx2| = 0.000e+00 "
                                  f"at (x1=1, x2={x2_first:g}, alpha=0)")
        assert isinstance(verdict.curves_error, NearZeroDenominatorError)

    @pytest.mark.parametrize("x", ["x1", "x2"])
    def test_domain_error_in_a_partial_at_a_lattice_optimum(self, x, tmp_path, capsys):
        # |beta - 0.5|*sqrt(x) is smooth in x away from beta = 0.5, but its
        # symbolic x-partial divides 0 by 0 there; beta = 0.5 is the lower
        # lattice optimum of the alpha = 0 cut and no probe or corner
        g_text = f"x1 + x2 + sqrt((beta - 0.5)^2 * {x}) + gamma"
        path = tmp_path / "kink.json"
        path.write_text(json.dumps({
            "name": "kink", "G": g_text, "F": "beta * x2 / x1",
            "parameters": {"beta": [0.25, 0.75, 1.25], "gamma": [0, 1, 2]},
            "domain": {"x1": [1, 5], "x2": [0, 5, "open", "closed"]},
            "grid": {"n_x1": 9, "n_x2": 9, "n_alpha": 4},
        }), encoding="utf-8")
        problem = load_problem(path)
        error = f"division by zero (in '(beta - 0.5)^2 / (2 * sqrt((beta - 0.5)^2 * {x}))')"

        verdict = verify(problem)
        assert verdict.outcome == STRUCTURE_FAILS
        assert verdict.report("structure").note == error
        assert [c.name for c in verdict.checks] == ["structure", "fuzzy_validity", "boundary"]
        assert isinstance(verdict.curves_error, EvalError)
        with pytest.raises(EvalError) as raised:
            gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        assert str(raised.value) == error
        capsys.readouterr()
        assert bfpde.cli.run(["check", str(path), "--curves", str(tmp_path / "curves.csv")]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


class TestPinnedLattice:
    """At a dense-fallback sample, a parameter whose partial keeps a sign that
    interval arithmetic certifies over the alpha = 0 cut box is pinned at its
    extremal cut end, and the lattice spans only the other live axes.  A plain
    loop over the full lattice, the one the fallback swept before, must give
    the same lower, upper and Gamma bits."""

    BOX = DomainBox(0.5, 1.5, 0.0, 2.0, x2_min_open=True)

    def problem(self, name, q: str, params: dict, grid: GridSpec) -> ProblemSpec:
        """G = x2*exp(x1*q), F = x2*q: Gamma = F in closed form."""
        vector = FuzzyVector(tuple((n, TriangularFuzzyNumber(*t)) for n, t in params.items()))
        g_text, f_text = f"x2*exp(x1*({q}))", f"x2*({q})"
        return ProblemSpec(name, g_text, f_text, parse(g_text, vector.names), parse(f_text, vector.names), vector,
                           self.BOX, grid)

    def non_monotone(self, seed: int, grid=GridSpec(9, 7, 4)) -> ProblemSpec:
        # the benchmark's non-monotone family: b is symmetric around m, so its
        # partial changes sign in every cut below alpha = 1; c is certified
        rng = random.Random(f"non-monotone/{seed}")
        m, w, c = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.4), rng.uniform(0.15, 0.3)
        return self.problem(f"non-monotone-seed{seed}", f"(b - {m!r})^2 + c",
                            {"b": (m - w, m, m + w), "c": (c * rng.uniform(0.5, 0.8), c, c * rng.uniform(1.2, 1.5))},
                            grid)

    def decreasing(self) -> ProblemSpec:
        # k = 3: c certified increasing, d certified decreasing, b uncertified
        return self.problem("decreasing-certified", "(b - 1)^2 + c - 0.5*d",
                            {"b": (0.7, 1.0, 1.3), "c": (0.2, 0.3, 0.4), "d": (0.1, 0.2, 0.3)}, GridSpec(7, 5, 4))

    def cos_guard(self) -> ProblemSpec:
        # the d-partial of G carries cos(2*pi*(d - 1)): 1 at the centre and both
        # corners of the alpha = 0 cut d in [0, 2], so every sign probe agrees,
        # but -1 at d = 0.5 and 1.5; d must stay a lattice axis
        return self.problem("cos-guard", "(b - 1)^2 + 0.2 + 0.05*sin(6.283185307179586*(d - 1))",
                            {"b": (0.7, 1.0, 1.3), "d": (0.0, 1.0, 2.0)}, GridSpec(9, 7, 3))

    @staticmethod
    def full_lattice(expr, params, x1, x2, alpha):
        """expr over every live axis of the cut box at the fallback's density
        (``BOX_SAMPLE_BUDGET ** (1/k)`` points per axis, at most
        ``FALLBACK_BOX_SAMPLES``), as (name -> lattice values, values)."""
        m = max(2, min(bfpde.engine.FALLBACK_BOX_SAMPLES, int(bfpde.engine.BOX_SAMPLE_BUDGET ** (1.0 / len(params)))))
        cuts = [alpha_cut(t, alpha) for t in params.numbers]
        axes = [np.linspace(c.lo, c.hi, m if c.lo < c.hi else 1) for c in cuts]
        lattice = dict(zip(params.names, (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))))
        values = evaluate(expr, dict(lattice, x1=np.array([x1]), x2=np.array([x2])))
        return lattice, np.broadcast_to(values, lattice[params.names[0]].shape)

    def assert_matches_full_lattice(self, problem) -> None:
        y_curve, f_curve, gamma = verify(problem).curves
        d_x1, d_x2 = differentiate(problem.g, "x1"), differentiate(problem.g, "x2")
        for expr, curve in ((problem.g, y_curve), (problem.f, f_curve)):
            fallback = np.argwhere(curve.approximate & curve.feasible[:, :, None])
            assert len(fallback) > curve.approximate.size // 2
            for i1, i2, ia in fallback:
                x1, x2, alpha = curve.x1[i1], curve.x2[i2], curve.alpha[ia]
                lattice, values = self.full_lattice(expr, problem.parameters, x1, x2, alpha)
                ends = int(values.argmin()), int(values.argmax())
                assert (curve.lower[i1, i2, ia], curve.upper[i1, i2, ia]) == tuple(values[i] for i in ends)
                if expr is not problem.g:
                    continue
                for got, i in zip((gamma.lower[i1, i2, ia], gamma.upper[i1, i2, ia]), ends):
                    at = dict({name: v[i:i + 1] for name, v in lattice.items()}, x1=np.array([x1]), x2=np.array([x2]))
                    assert got == (evaluate(d_x1, at) / evaluate(d_x2, at))[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_non_monotone_family_matches_the_full_lattice(self, seed):
        self.assert_matches_full_lattice(self.non_monotone(seed))

    def test_a_decreasing_certified_parameter_matches_the_full_lattice(self):
        self.assert_matches_full_lattice(self.decreasing())

    def test_certified_parameters_leave_the_lattice(self, monkeypatch):
        # b alone spans the lattice: 33 columns, in the min and the max block
        # of the table, where b and c (and d) would make 33^k
        for problem, full in ((self.non_monotone(11, GridSpec(41, 41, 11)), 33 ** 2), (self.decreasing(), 33 ** 3)):
            tables = {shape[:2] for shape in TestVerify._count_evaluations(monkeypatch, problem) if len(shape) == 3}
            assert full not in {columns for _, columns in tables} and (2, 33) in tables

    def test_interval_work_once_per_pass_and_live_parameter(self, monkeypatch):
        # before the first slice of each pass: G (and dG/dx2), F, then the
        # candidate and the target on each boundary edge; never per slice
        calls = []
        original = bfpde.engine.interval_eval

        def counting(expr, binding):
            calls.append(expr)
            return original(expr, binding)

        monkeypatch.setattr(bfpde.engine, "interval_eval", counting)
        boundary = load_problem(Path(__file__).resolve().parents[1] / "problems" / "boundary_example.json")
        crisp_gamma = replace(boundary, parameters=FuzzyVector((("beta", TriangularFuzzyNumber(0.25, 0.5, 0.75)),
                                                                ("gamma", TriangularFuzzyNumber(1.0, 1.0, 1.0)))))
        # the candidate pass also certifies dG/dx2, whose own table gives
        # structure its least and greatest values
        for problem in (TestVerify.many_params_problem(6), boundary, crisp_gamma, self.non_monotone(1)):
            calls.clear()
            assert verify(problem).outcome == BF_SOLUTION
            candidate = [problem.g, differentiate(problem.g, "x2")]
            passes = [*candidate, problem.f, *(e for cond in problem.boundary for e in (problem.g, cond.target))]
            params = problem.parameters
            live = [name for name, t in zip(params.names, params.numbers) if t.left < t.right]
            assert calls == [differentiate(e, name) for e in passes for name in live]

    def test_a_partial_signed_at_every_probe_but_not_between_stays_a_lattice_axis(self, monkeypatch):
        problem = self.cos_guard()
        widths = {shape[1] for shape in TestVerify._count_evaluations(monkeypatch, problem) if len(shape) == 3}
        assert 33 ** 2 in widths
        self.assert_matches_full_lattice(problem)

    def test_the_lattice_density_counts_only_the_axes_it_spans(self, monkeypatch):
        # the golden corpus's partially-certified-c4: k = 5, but the c_j are
        # pinned and b alone spans the lattice, so it takes 33 points on b
        # (not BOX_SAMPLE_BUDGET^(1/5) = 10), b = 1 among them; Y's lower end
        # is then x2*exp(x1*(c0 + c1 + c2 + c3)) at the c_j's cut lower ends
        from test_golden import _corpus

        problem = _corpus()["partially-certified-c4"]
        widths = {shape[1] for shape in TestVerify._count_evaluations(monkeypatch, problem) if len(shape) == 3}
        assert 33 in widths and 10 not in widths
        y = verify(problem).curves[0]
        assert y.approximate[:, :, :-1].all()
        c_lo = [sum(alpha_cut(t, alpha).lo for name, t in problem.parameters.components if name != "b")
                for alpha in y.alpha.tolist()]
        want = y.x2[None, :, None] * np.exp(y.x1[:, None, None] * np.array(c_lo))
        assert (np.abs(y.lower - want) <= 1e-15 * want).all()

    def test_a_wide_lattice_goes_over_runs_of_samples(self, monkeypatch):
        # a lattice is evaluated over runs of samples, each holding at most
        # FALLBACK_BOX_SAMPLES * BOX_SAMPLE_BUDGET points of a block, so its
        # memory does not grow with its group; with the bound cut to 1e5, the
        # 200 samples of a 33 x 33 lattice (1089 columns, two pinned c's
        # beside it) go in runs of 91, 91 and 18, and every end, tie and point
        # stays the one-run table's, bit for bit
        names = ("b0", "b1", "c0", "c1")
        expr = parse("x2*exp(x1*((b0 - 1)^2 + (b1 - 1)^2 + c0 + c1))", names)
        los, his = np.array([0.7, 0.7, 0.01, 0.01]), np.array([1.3, 1.3, 0.03, 0.03])
        rng = np.random.default_rng(7)
        x1, x2, feas = rng.uniform(0.5, 1.5, 200), rng.uniform(0.1, 2.0, 200), np.ones(200, dtype=bool)
        signs = np.repeat(np.array([[0], [0], [1], [1]], dtype=np.int8), 200, axis=1)
        signs[3, 1::2] = -1  # c1's pinned ends differ from sample to sample
        whole = bfpde.engine._reduce(expr, names, los, his, 33, signs, x1, x2, feas, True)[2:]
        shapes = []
        original = bfpde.engine.evaluate

        def recording(e, binding):
            value = original(e, binding)
            shapes.append(np.shape(value))
            return value

        monkeypatch.setattr(bfpde.engine, "evaluate", recording)
        monkeypatch.setattr(bfpde.engine, "FALLBACK_BOX_SAMPLES", 1)
        runs = bfpde.engine._reduce(expr, names, los, his, 33, signs, x1, x2, feas, True)[2:]
        assert shapes == [(2, 1089, 91), (2, 1089, 91), (2, 1089, 18)]
        assert whole[1].any()  # the max ties at b = 0.7 and 1.3
        for got, want in zip(runs, whole):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype and (got.dtype == bool or (got.view(np.int64) == want.view(np.int64)).all())


class TestCertifiedRoute:
    """Each table pins the parameters the alpha = 0 certificate proves
    one-signed at every sample of its group: at a settled sample all of them,
    so each envelope end is G at a sign-pinned corner; and structure reads
    dG/dx2 above alpha = 0 only where G or dG/dx2 is not proved monotone.  At
    every sample of every slice that does not fall back, Y's and F's ends must
    be the min and the max over all 2^m corners bit for bit, and Gamma's
    points the first extremal corners wherever no other corner ties; the
    structure report must be that of a scan of every corner in every slice,
    which takes, per slice, the first worst sample in sample order.  The
    corners are evaluated here one at a time."""

    @staticmethod
    def corner_tables(expr, params, x1p, x2p, alpha):
        """expr at every corner of the cut box over the parameters that occur
        in it, ``(C, n1, n2)``, and those corners, ``(k, C)``."""
        base, shape, used = {"x1": x1p[:, None], "x2": x2p[None, :]}, (x1p.size, x2p.size), free_variables(expr)
        los, his = bfpde.engine._cut_arrays(params, alpha)
        his = np.array([hi if name in used else lo for name, lo, hi in zip(params.names, los, his)])
        bindings = list(TestProbeAxis.corner_bindings(params.names, los, his, base))
        values = np.stack([np.broadcast_to(np.asarray(evaluate(expr, b), dtype=float), shape) for b in bindings])
        return values, np.array([[b[name] for b in bindings] for name in params.names])

    def full_scan(self, g, params, x1p, x2p, alphas, feas, denom_tol):
        """The structure report of every corner of every slice, with the first
        error in alpha order; and each slice's corner table of G."""
        d2, slots, tables, error = differentiate(g, "x2"), [], [], None
        for alpha in alphas.tolist():
            try:
                (values, corners), (dv, _) = (self.corner_tables(e, params, x1p, x2p, alpha) for e in (g, d2))
            except EvalError as err:
                error, tables = error or err, tables + [None]
                continue
            finite = np.isfinite(values).all(axis=0) & np.isfinite(dv).all(axis=0)
            if error is None and not finite[feas].all():
                corner_values = {"cut-box corner value of G": values.reshape(len(values), -1),
                                 "cut-box corner value of dG/dx2": dv.reshape(len(dv), -1)}
                error = bfpde.engine._non_finite(corner_values, feas.ravel(), *bfpde.engine._flat_samples(x1p, x2p),
                                                 alpha)
            worst = []
            for plane in (-values.min(axis=0), -dv.min(axis=0), dv.max(axis=0)):
                if not (feas & finite).any():
                    worst.append((None, None))
                    continue
                i1, i2 = np.unravel_index(int(np.where(feas & finite, plane, -np.inf).argmax()), plane.shape)
                worst.append((float(plane[i1, i2]), (float(x1p[i1]), float(x2p[i2]))))
            slots.append((alpha, worst))
            tables.append((values, corners))
        return bfpde.engine._structure_report(slots, denom_tol, error), tables

    def assert_matches(self, monkeypatch, problem) -> int:
        """Check one problem's candidate and F passes; returns the settled
        (sample, slice) pairs of G."""
        g, params = problem.g, problem.parameters
        x1p, x2p, alphas, feas = bfpde.engine._grid_samples(problem.box, problem.grid)
        _, settled, _ = bfpde.engine._settled(g, [differentiate(g, n) for n in params.names], params, x1p, x2p)
        points = []
        original = bfpde.engine._gamma_stage

        def recording(x_partials, names, slice_points, *args):
            points.append(slice_points.copy())
            return original(x_partials, names, slice_points, *args)

        monkeypatch.setattr(bfpde.engine, "_gamma_stage", recording)
        denom_tol = problem.tolerances.denom_tol
        result = bfpde.engine._alpha_pass(g, params, x1p, x2p, alphas, feas, denom_tol=denom_tol, candidate=True)
        monkeypatch.undo()
        report, tables = self.full_scan(g, params, x1p, x2p, alphas, feas, denom_tol)
        assert repr(result.structure) == repr(report)
        f_pass = bfpde.engine._alpha_pass(problem.f, params, x1p, x2p, alphas, feas, ROLE_F)
        for expr, curve in ((g, result.envelope), (problem.f, f_pass.envelope)):
            if curve is None:
                continue
            for ki, alpha in enumerate(alphas.tolist()):
                values, corners = self.corner_tables(expr, params, x1p, x2p, alpha)
                exact = ~curve.approximate[:, :, ki]
                for end, reduce, pick, k in ((curve.lower, np.min, np.argmin, 0), (curve.upper, np.max, np.argmax, 1)):
                    want = reduce(values, axis=0)
                    assert np.array_equal(end[:, :, ki][exact].view(np.int64), want[exact].view(np.int64))
                    if expr is g and ki < len(points):
                        alone = exact & ((values == want).sum(axis=0) == 1)
                        first = np.take(corners, pick(values, axis=0), axis=1)
                        assert np.array_equal(points[ki][:, k][:, alone.ravel()], first[:, alone])
        return int(settled.sum()) * alphas.size

    def test_shipped_problems(self, monkeypatch):
        shipped = Path(__file__).resolve().parents[1] / "problems"
        settled = [self.assert_matches(monkeypatch, load_problem(path)) for path in sorted(shipped.glob("*.json"))]
        # x1^beta ties every beta on the x1 = 1 row, which takes the corner
        # route; not_differentiable's G settles no sample
        assert settled == [20 * 21 * 11, 21 * 21 * 11, 0, 40 * 41 * 21, 40 * 41 * 21]

    @pytest.mark.parametrize("g_text, worst, location", [
        # G rises with b, dG/dx2 = (b - 1)^2 + 0.1 does not: its least value
        # is at b = 1, a corner of the alpha = 1 cut only
        ("x2*((b - 1)^2 + 0.1) + 10*b + c", 1e-10 - 0.1, (1.0, 1.0, 1.0)),
        # G rises with b and c but overflows at every alpha = 0 sample; G < 0
        # first shows at alpha = 0.25, and the overflow is the location
        ("x2 + c - 3 + exp(1400*(b - 0.9)*x1)", 1.75, (1.0, 1.0, 0.0)),
    ])
    def test_the_scan_keeps_samples_alpha_zero_does_not_bound(self, monkeypatch, g_text, worst, location):
        names = ("b", "c")
        params = FuzzyVector((("b", TriangularFuzzyNumber(0.5, 1.0, 1.5)), ("c", TriangularFuzzyNumber(0.0, 1.0, 2.0))))
        problem = ProblemSpec("scan", g_text, "x2", parse(g_text, names), parse("x2", names), params,
                              DomainBox(1.0, 1.2, 1.0, 2.0), GridSpec(5, 4, 5))
        assert self.assert_matches(monkeypatch, problem) == 5 * 4 * 5
        report = check_structure(problem.g, params, problem.box, problem.grid)
        assert (report.worst_violation, report.location) == (worst, location)

    def test_pinned_ends_that_rounding_crosses_take_the_corner_route(self, monkeypatch):
        # dG/db folds to 1, so every sample is settled, but at x2 = 1 rounding
        # puts G(b = 1) = 1e16 + 2 above G(b = 1.5) = 1e16: the pinned ends
        # cross there, and the corner route's min and max keep lower <= upper
        g_text = "1e16*x2 + 3*b - 2*b"
        params = FuzzyVector((("b", TriangularFuzzyNumber(1.0, 1.25, 1.5)),))
        problem = ProblemSpec("crossed", g_text, "x2", parse(g_text, ("b",)), parse("x2", ("b",)), params,
                              DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(3, 3, 3))
        assert self.assert_matches(monkeypatch, problem) == 3 * 3 * 3
        curve = envelope_curve(problem.g, params, problem.box, problem.grid, "Y")
        assert (curve.lower[0, 0, 0], curve.upper[0, 0, 0]) == (1e16, 1e16 + 2)
        assert check_fuzzy_validity([curve]).passed

    def test_pinned_ends_that_rounding_crosses_lose_their_pins_on_the_corner_route(self, monkeypatch):
        # d's partial 2*(d - 1) is 0 at d = 1, so no sample is settled and
        # every one takes the corner route, whose table pins b; at x2 = 1 its
        # pinned ends cross as above, so that table is built again without pins
        g_text = "1e16*x2 + 3*b - 2*b + (d - 1)^2"
        params = FuzzyVector(tuple((name, TriangularFuzzyNumber(1.0, 1.25, 1.5)) for name in ("b", "d")))
        problem = ProblemSpec("crossed-route", g_text, "x2", parse(g_text, ("b", "d")), parse("x2", ("b", "d")), params,
                              DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(3, 3, 3))
        assert self.assert_matches(monkeypatch, problem) == 0
        curve = envelope_curve(problem.g, params, problem.box, problem.grid, "Y")
        assert not curve.approximate.any()
        assert (curve.lower[0, 0, 0], curve.upper[0, 0, 0]) == (1e16, 1e16 + 2)
        assert check_fuzzy_validity([curve]).passed

    def test_a_cut_wider_than_the_largest_double_keeps_exact_corners(self, monkeypatch):
        # b's partial vanishes at x1 = 1, so that row takes the corner route,
        # whose corners are b's cut ends although hi - lo overflows there
        g_text, f_text = "x2 + 1e-300*b*(x1 - 1) + 1e9", "1e-300*b"
        params = FuzzyVector((("b", TriangularFuzzyNumber(-1e308, 0.0, 1e308)),))
        problem = ProblemSpec("wide-cut", g_text, f_text, parse(g_text, ("b",)), parse(f_text, ("b",)), params,
                              DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(3, 3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.assert_matches(monkeypatch, problem) == 2 * 3 * 3
            assert verify(problem).outcome == BF_SOLUTION

    def test_golden_corpus(self, monkeypatch):
        from test_golden import _corpus

        assert sum(self.assert_matches(monkeypatch, problem) for problem in _corpus().values()) > 0

    @pytest.mark.parametrize("k", range(2, 9))
    def test_many_params(self, monkeypatch, k):
        problem = TestVerify.many_params_problem(k)
        assert self.assert_matches(monkeypatch, problem) == problem.grid.n_x1 * problem.grid.n_x2 * problem.grid.n_alpha

    @pytest.mark.parametrize("b", [(0.7, 1.0, 1.3), (1.0, 1.2, 1.4)])
    def test_partially_certified_family(self, monkeypatch, b):
        # the c_j are certified at every sample, b nowhere: the corner table
        # pins the c_j and spans b's 2 corners; b = (0.7, 1, 1.3) sends every
        # sample below alpha = 1 to the lattice, while at b = (1, 1.2, 1.4)
        # b's partial, 0 at b = 1, is never strictly negative, and every
        # sample takes the corner route
        names = ("b", *(f"c{j}" for j in range(8)))
        q = "(b - 1)^2 + " + " + ".join(names[1:])
        params = FuzzyVector((("b", TriangularFuzzyNumber(*b)),
                              *((name, TriangularFuzzyNumber(0.01, 0.02, 0.03)) for name in names[1:])))
        g_text, f_text = f"x2*exp(x1*({q}))", f"x2*({q})"
        problem = ProblemSpec("partially-certified", g_text, f_text, parse(g_text, names), parse(f_text, names), params,
                              DomainBox(0.5, 1.5, 0.0, 2.0, x2_min_open=True), GridSpec(5, 4, 3))
        assert self.assert_matches(monkeypatch, problem) == 0
        approximate = verify(problem).curves[0].approximate
        assert approximate[:, :, :-1].all() if b[0] < 1.0 else not approximate.any()
        # no table spans the 2^9 corners; the probe of b still does, center included
        widths = {shape[1] for shape in TestVerify._count_evaluations(monkeypatch, problem) if len(shape) == 3}
        assert 2 ** 9 not in widths and 2 ** 9 + 1 in widths

    def test_settled_g_beside_an_unsettled_partial(self, monkeypatch):
        # G rises with b and c at every sample, dG/dx2 = (b - 1)^2 + 0.1 does
        # not, and F = dG/dx2 * x2 falls back where b's partial changes sign
        g_text, f_text = "x2*((b - 1)^2 + 0.1) + 10*b + c", "x2*((b - 1)^2 + 0.1)"
        params = FuzzyVector((("b", TriangularFuzzyNumber(0.5, 1.0, 1.5)), ("c", TriangularFuzzyNumber(0.0, 1.0, 2.0))))
        problem = ProblemSpec("settled-g", g_text, f_text, parse(g_text, ("b", "c")), parse(f_text, ("b", "c")), params,
                              DomainBox(1.0, 2.0, 1.0, 2.0), GridSpec(7, 6, 5))
        assert self.assert_matches(monkeypatch, problem) == 7 * 6 * 5
        assert verify(problem).curves[1].approximate.any()

    @staticmethod
    def diagonal_open(grid: GridSpec, constrained: bool) -> ProblemSpec:
        """The golden corpus's ``diagonal-open`` (constrained to x1 >= x2):
        dG/dbeta = (x1 - x2)^2 vanishes on the diagonal alone, so only the
        diagonal is open, a group that is not whole rows and columns."""
        from test_golden import _corpus

        problem = _corpus()["diagonal-open"]
        return replace(problem, grid=grid, box=problem.box if constrained else replace(problem.box, constraint=None))

    @pytest.mark.parametrize("constrained, outcome", [(True, BF_SOLUTION), (False, NOT_DIFFERENTIABLE)])
    def test_an_open_group_that_is_not_whole_rows_and_columns(self, monkeypatch, constrained, outcome):
        for n, n_alpha in ((9, 4), (41, 21)):
            problem = self.diagonal_open(GridSpec(n, n, n_alpha), constrained)
            assert self.assert_matches(monkeypatch, problem) == (n * n - n) * n_alpha
            assert verify(problem).outcome == outcome
        # the corner route (beta's 2 corners in each of 2 blocks), F's probe
        # of beta (3 points, one block) and the tie-break cover the 21
        # diagonal samples alone, not the rows and columns that hold them
        shapes = []
        original = bfpde.engine.evaluate

        def recording(expr, binding):
            value = original(expr, binding)
            shapes.append(np.shape(value))
            return value

        monkeypatch.setattr(bfpde.engine, "evaluate", recording)
        assert verify(self.diagonal_open(GridSpec(21, 21, 6), constrained)).outcome == outcome
        monkeypatch.undo()
        assert [shape for shape in shapes if math.prod(shape[:-1]) > 2 and shape[-1] > 21] == []
        assert {(2, 2, 21), (1, 3, 21)} <= set(shapes)

    def test_random_monotone_instances(self, monkeypatch):
        rng = np.random.default_rng(31)
        settled = 0
        for _ in range(60):
            g_text, params, box = random_monotone_instance(rng)
            g = parse(g_text, params.names)
            problem = ProblemSpec("random", g_text, "x2", g, parse("x2"), params, box, GridSpec(7, 6, 5))
            settled += self.assert_matches(monkeypatch, problem)
        assert settled > 0


class TestPlaneReductions:
    """The checks reduce their residuals one alpha plane at a time and the
    selector (:func:`bfpde.engine._extremes`) reads the lower end from the
    min block of a table's ``(B, C, q)`` values and the upper end from its
    max block; each must pick exactly what a plain scan picks, ties, NaN and
    infinities included."""

    @staticmethod
    def planted(rng, shape):
        # integer values, so ties within and across planes are common
        r = np.round(rng.normal(size=shape) * 2.0)
        for value in (np.nan, np.inf, -np.inf, -0.0):
            if rng.random() < 0.3:
                r[tuple(rng.integers(0, n) for n in shape)] = value
        return r

    def test_plane_by_plane_worst_matches_one_whole_grid_argmax(self):
        rng = np.random.default_rng(20)
        for _ in range(600):
            n1, n2, na = rng.integers(1, 6), rng.integers(1, 6), rng.integers(2, 7)
            r = self.planted(rng, (n1, n2, na))
            feas = rng.random((n1, n2)) < rng.choice([0.3, 0.8, 1.0])
            axes = (np.arange(n1) + 10.0, np.arange(n2) + 20.0, np.arange(na) / 10.0)
            got = bfpde.engine._masked_worst(r.transpose(2, 0, 1), feas, axes)
            if not feas.any():
                assert got == (None, None)
                continue
            flat = np.where(feas[:, :, None], r, -np.inf)
            pos = np.unravel_index(int(flat.argmax()), flat.shape)
            want = float(flat[pos])
            assert np.array_equal(got[0], want, equal_nan=True) and math.copysign(1, got[0]) == math.copysign(1, want)
            assert got[1] == tuple(float(ax[i]) for ax, i in zip(axes, pos))
            # one alpha-major array, as the boundary edges pass it: ties go to the lowest alpha
            stacked, alpha_major = r.transpose(2, 0, 1), (axes[2], axes[0], axes[1])
            got = bfpde.engine._masked_worst([stacked], np.broadcast_to(feas, stacked.shape), alpha_major)
            flat = np.where(feas, stacked, -np.inf)
            pos = np.unravel_index(int(flat.argmax()), flat.shape)
            assert np.array_equal(got[0], float(flat[pos]), equal_nan=True)
            assert got[1] == tuple(float(ax[i]) for ax, i in zip(alpha_major, pos))

    @staticmethod
    def first_extremal(block, least: bool):
        """Per sample of a ``(C, q)`` block, one column at a time: the least
        (or greatest) value, NaN if any is, the first column holding it and
        whether another column holds it too."""
        ends, firsts, ties = [], [], []
        for column in block.T.tolist():
            nan = [i for i, v in enumerate(column) if v != v]
            end = math.nan if nan else (min if least else max)(column)
            hits = nan[:1] if nan else [i for i, v in enumerate(column) if v == end]
            ends.append(end), firsts.append(hits[0]), ties.append(len(hits) > 1)
        return np.array(ends), np.array(firsts), np.array(ties)

    def test_first_extremal_corner_matches_argmin_and_argmax(self):
        # one block serves both ends, or each end has its own; a spanning row
        # holding each column's index reads back the column picked, a pinned
        # row reads back its block's value, a one-value row its value
        rng = np.random.default_rng(21)
        for _ in range(400):
            blocks, c, q = int(rng.choice([1, 2])), int(rng.choice([1, 2, 4, 8, 16])), int(rng.integers(1, 17))
            values = self.planted(rng, (blocks, c, q))
            rows = [np.arange(c, dtype=float)[None, :, None], rng.normal(size=(2, 1, q)), np.array([[[7.0]]])]
            # a random mask per end that keeps each block's first column
            keep = rng.random((2, c, q)) < 0.8
            keep[:, 0] = True
            for allowed in (None, keep):
                ends, ties, points = bfpde.engine._extremes(values, rows, allowed)
                assert ends.shape == ties.shape == (2, q) and points.shape == (3, 2, q)
                for b, pad in enumerate((np.inf, -np.inf)):
                    block = values[b % blocks] if allowed is None else np.where(keep[b], values[b % blocks], pad)
                    end, first, tie = self.first_extremal(block, least=b == 0)
                    assert np.array_equal(ends[b], end, equal_nan=True)
                    assert np.array_equal(ties[b], tie)
                    assert np.array_equal(points[:, b], [first, rows[1][b, 0], np.full(q, 7.0)])
            # without rows, the ends alone
            plain, with_rows = bfpde.engine._extremes(values), bfpde.engine._extremes(values, rows)
            assert np.array_equal(plain[0], with_rows[0], equal_nan=True) and plain[1:] == (None, None)

    def test_first_extremal_corner_where_no_corner_attains_the_end(self):
        # a NaN end: the point is the first NaN column's, a valid column
        values = np.array([[[1.0, np.nan], [np.nan, 2.0], [3.0, np.nan]]])
        ends, ties, points = bfpde.engine._extremes(values, [np.arange(3.0).reshape(1, 3, 1)])
        assert np.isnan(ends).all()
        assert points.tolist() == [[[1, 0], [1, 0]]]
        assert not ties.any()

    def test_every_row_kind_broadcasts_to_blocks_columns_samples(self):
        # a, d pinned (d decreasing), b and e spanning (e is not certified at
        # every sample), c degenerate; the spanning rows list the lattice,
        # the first of them fastest
        los, his, q = np.array([0.0, 1.0, 2.0, 3.0, 5.0]), np.array([1.0, 2.0, 2.0, 4.0, 6.0]), 7
        signs = np.zeros((5, q), dtype=np.int8)
        signs[0], signs[3], signs[4, :3] = 1, -1, 1
        for density in (2, 5):
            rows = bfpde.engine._table(los, his, density, signs)
            c = density ** 2
            assert [row.shape for row in rows] == [(2, 1, q), (1, c, 1), (1, 1, 1), (2, 1, q), (1, c, 1)]
            assert np.broadcast_shapes(*(row.shape for row in rows)) == (2, c, q)
            assert rows[0].base is rows[3].base is not None  # the pinned rows are views of one array
            assert rows[0][:, 0].tolist() == [[0.0] * q, [1.0] * q] and rows[3][:, 0].tolist() == [[4.0] * q, [3.0] * q]
            assert rows[2].item() == 2.0
            axis = [np.linspace(lo, hi, density) for lo, hi in ((1.0, 2.0), (5.0, 6.0))]
            lattice = [(u, v) for v in axis[1] for u in axis[0]]
            assert list(zip(rows[1].ravel().tolist(), rows[4].ravel().tolist())) == lattice
            x = np.linspace(1.0, 2.0, q)
            g = parse("a*x1 - d*x2 + b*e + c", ("a", "b", "c", "d", "e"))
            got = bfpde.engine._values(g, ("a", "b", "c", "d", "e"), rows, x, x, np.ones(q, dtype=bool))
            assert got.shape == (2, c, q)


class TestCheckMemory:
    """Each curve check holds a few alpha planes, never a whole-grid temporary
    (numpy reports its buffers to tracemalloc)."""

    SHAPE = (101, 101, 41)

    @classmethod
    def curve(cls, role, rng, feasible):
        # alpha-major buffers viewed as (n1, n2, n_alpha), as the pass builds them
        n1, n2, na = cls.SHAPE
        lower = np.empty((na, n1, n2))
        lower[:] = rng.random((n1, n2))
        upper = lower + np.linspace(1.0, 0.5, na)[:, None, None]
        return EnvelopeCurve(role, np.linspace(1.0, 2.0, n1), np.linspace(1.0, 2.0, n2), np.linspace(0.0, 1.0, na),
                             lower.transpose(1, 2, 0), upper.transpose(1, 2, 0),
                             np.zeros((na, n1, n2), dtype=bool).transpose(1, 2, 0), feasible)

    @pytest.mark.parametrize("partial", [False, True])
    def test_each_check_peaks_below_one_full_grid_array(self, partial):
        rng = np.random.default_rng(22)
        n1, n2, _ = self.SHAPE
        feasible = np.ones((n1, n2), dtype=bool)
        if partial:
            feasible[:, : n2 // 3] = False
        y, f, gam = (self.curve(role, rng, feasible) for role in ("Y", "F", ROLE_GAMMA))
        grid_bytes = math.prod(self.SHAPE) * 8
        for check in (lambda: check_fuzzy_validity([y, f]), lambda: check_differentiability(gam),
                      lambda: check_equality(gam, f)):
            tracemalloc.start()
            try:
                check()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < grid_bytes
