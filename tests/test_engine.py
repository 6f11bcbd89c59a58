import json
import math
import warnings

import numpy as np
import pytest

import bfpde.engine
from bfpde.engine import (
    BF_SOLUTION,
    BOUNDARY_FAILS,
    EQUALITY_FAILS,
    NOT_DIFFERENTIABLE,
    STRUCTURE_FAILS,
    BoundaryCondition,
    DomainBox,
    EnvelopeCurve,
    GridSpec,
    NearZeroDenominatorError,
    NonFiniteValueError,
    ProblemSpec,
    ROLE_GAMMA,
    Tolerances,
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
from bfpde.expr import parse, evaluate
from bfpde.fuzzy import FuzzyVector, TriangularFuzzyNumber, alpha_cut
from bfpde.io import report_to_dict

from randexpr import random_monotone_instance

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


def brute_envelope(g, params, x1, x2, alpha, m=33):
    """Independent oracle: dense sampling of the cut box, endpoints included."""
    cuts = [alpha_cut(t, alpha) for t in params.numbers]
    axes = [np.linspace(c.lo, c.hi, m) for c in cuts]
    mesh = np.meshgrid(*axes, indexing="ij")
    binding = {"x1": x1, "x2": x2}
    for name, grid_vals in zip(params.names, mesh):
        binding[name] = grid_vals.ravel()
    vals = np.asarray(evaluate(g, binding))
    return float(vals.min()), float(vals.max())


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
        verdict = verify(worked_problem())
        assert verdict.curves_error is None
        for got, want in zip(verdict.curves, compute_curves(worked_problem()), strict=True):
            assert got.role == want.role
            for name in ("lower", "upper", "approximate", "feasible"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_verdict_carries_the_error_compute_curves_raises(self):
        g_text = "(beta - 0.5)^2 * x1 * x2 + gamma"
        problem = ProblemSpec("flat-lower", g_text, "beta * x2 / x1",
                              parse(g_text, P), parse("beta * x2 / x1", P), worked_params(),
                              DomainBox(1.0, 5.0, 0.0, 5.0, x2_min_open=True), GridSpec(9, 9, 5))
        verdict = verify(problem)
        assert verdict.curves is None
        assert isinstance(verdict.curves_error, NearZeroDenominatorError)
        with pytest.raises(NearZeroDenominatorError) as raised:
            compute_curves(problem)
        assert str(raised.value) == str(verdict.curves_error)

    def test_one_pass_over_g_serves_structure_y_and_gamma(self, monkeypatch):
        # Evaluations that return a whole 21x21 (x1, x2) slice.  Per alpha level
        # (11 of them): G at the 4 box corners, G at the 4 corners nudged into
        # the interior (x1 = 1 ties every corner in beta), Gamma's numerator
        # and denominator at the 2 selected corners, and F at its 4 corners.
        # The beta-partial of G is probed at the center and the 4 corners on
        # the 10 levels below alpha = 1.  dG/dx2 = x1^beta is a column, and the
        # other partials are parameter-free, so neither is counted.
        problem = worked_problem()
        shape = (problem.grid.n_x1, problem.grid.n_x2)
        calls = []
        original = bfpde.engine.evaluate

        def counting(expr, binding):
            value = original(expr, binding)
            calls.append(np.shape(value) == shape)
            return value

        monkeypatch.setattr(bfpde.engine, "evaluate", counting)
        verdict = verify(problem)
        assert verdict.outcome == BF_SOLUTION
        assert sum(calls) <= 11 * (4 + 4 + 4 + 4) + 10 * 5


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

    def test_overflow_outside_the_constraint_warns_nothing(self):
        # every feasible value is finite; the checks and the fallback finite
        # differences still compute over the overflowing infeasible samples
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
            (problem("x2*exp(3000*x1*((beta - 0.5)^2 + 0.01)) + gamma", "2 - x1"), NOT_DIFFERENTIABLE),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p, outcome in cases:
                assert verify(p).outcome == outcome
                compute_curves(p)

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
