import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bfpde.engine import GridSpec, Tolerances, compute_curves, gamma_curves, verify
from bfpde.expr import parse
from bfpde.io import (
    ProblemFormatError,
    emit_curves,
    emit_report,
    load_problem,
    problem_to_dict,
    report_to_dict,
    save_problem,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def write_problem(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def minimal_problem(**overrides):
    base = {
        "G": "x1^beta * x2 + gamma",
        "F": "beta * x2 / x1",
        "parameters": {"beta": [0.25, 0.5, 0.75], "gamma": [0, 1, 2]},
        "domain": {"x1": [1, 5], "x2": [0, 5, "open", "closed"]},
    }
    base.update(overrides)
    return base


class TestLoadProblem:
    def test_shipped_worked_example(self):
        problem = load_problem(PROBLEMS / "worked_example.json")
        assert problem.g_text == "x1^beta * x2 + gamma"
        assert problem.parameters.names == ("beta", "gamma")
        assert problem.parameters["beta"].peak == 0.5
        assert problem.box.x2_min_open and not problem.box.x2_max_open
        assert (problem.grid.n_x1, problem.grid.n_x2, problem.grid.n_alpha) == (41, 41, 21)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(tmp_path / "missing.json")

    def test_defaults_applied_and_recorded(self, tmp_path):
        problem = load_problem(write_problem(tmp_path, minimal_problem()))
        assert problem.grid == GridSpec(41, 41, 21, 1e-6)
        assert problem.tolerances == Tolerances(1e-8, 1e-8, 1e-10)
        assert problem.boundary == ()
        assert problem.name == "problem"  # file stem

    def test_invalid_triangle_names_parameter(self, tmp_path):
        obj = minimal_problem(parameters={"beta": [0.9, 0.5, 0.75]})
        with pytest.raises(ProblemFormatError, match="/parameters/beta") as err:
            load_problem(write_problem(tmp_path, obj))
        assert err.value.pointer == "/parameters/beta"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"G": ', encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="line 1"):
            load_problem(path)

    def test_expression_error_carries_pointer_and_offset(self, tmp_path):
        obj = minimal_problem(G="x1 +* x2")
        with pytest.raises(ProblemFormatError, match=r"/G: .*position 4"):
            load_problem(write_problem(tmp_path, obj))

    def test_undeclared_identifier_in_F(self, tmp_path):
        obj = minimal_problem(F="delta * x2 / x1")
        with pytest.raises(ProblemFormatError, match="undeclared identifier 'delta'"):
            load_problem(write_problem(tmp_path, obj))

    def test_unknown_top_level_key(self, tmp_path):
        obj = minimal_problem(extra=1)
        with pytest.raises(ProblemFormatError, match="unknown keys"):
            load_problem(write_problem(tmp_path, obj))

    def test_missing_required_key(self, tmp_path):
        obj = minimal_problem()
        del obj["F"]
        with pytest.raises(ProblemFormatError, match="missing required key 'F'"):
            load_problem(write_problem(tmp_path, obj))

    def test_reserved_parameter_name(self, tmp_path):
        obj = minimal_problem(parameters={"x1": [0, 1, 2]})
        with pytest.raises(ProblemFormatError, match="reserved"):
            load_problem(write_problem(tmp_path, obj))

    def test_domain_end_keyword_validated(self, tmp_path):
        obj = minimal_problem(domain={"x1": [1, 5], "x2": [0, 5, "ajar", "closed"]})
        with pytest.raises(ProblemFormatError, match="/domain/x2/2"):
            load_problem(write_problem(tmp_path, obj))

    def test_closed_zero_lower_bound_rejected(self, tmp_path):
        obj = minimal_problem(domain={"x1": [1, 5], "x2": [0, 5]})
        with pytest.raises(ProblemFormatError, match="/domain"):
            load_problem(write_problem(tmp_path, obj))

    def test_boundary_entries_validated(self, tmp_path):
        obj = minimal_problem(boundary=[{"fix": "x3", "at": 0, "target": "gamma"}])
        with pytest.raises(ProblemFormatError, match="/boundary/0/fix"):
            load_problem(write_problem(tmp_path, obj))

    def test_boundary_at_outside_closure(self, tmp_path):
        obj = minimal_problem(boundary=[{"fix": "x2", "at": 7.0, "target": "gamma"}])
        with pytest.raises(ProblemFormatError, match="outside the closure"):
            load_problem(write_problem(tmp_path, obj))

    def test_grid_override_validated(self, tmp_path):
        obj = minimal_problem(grid={"n_x1": 1})
        with pytest.raises(ProblemFormatError, match="/grid"):
            load_problem(write_problem(tmp_path, obj))

    def test_counts_must_be_integers(self, tmp_path):
        obj = minimal_problem(grid={"n_x1": 10.5})
        with pytest.raises(ProblemFormatError, match="expected an integer"):
            load_problem(write_problem(tmp_path, obj))

    @pytest.mark.parametrize("tolerances, message", [
        ({"eq_tol": 0}, "/tolerances: eq_tol must be positive, got 0.0"),
        ({"mono_tol": -1e-8}, "/tolerances: mono_tol must be positive, got -1e-08"),
        ({"denom_tol": "1e-10"}, "/tolerances/denom_tol: expected a number, got str"),
        ({"eq_tol": True}, "/tolerances/eq_tol: expected a number, got bool"),
        ({"abs_tol": 1e-8}, "/tolerances: unknown keys ['abs_tol']"),
        ([1e-8], "/tolerances: expected an object, got list"),
    ])
    def test_tolerances_validated(self, tmp_path, tolerances, message):
        obj = minimal_problem(tolerances=tolerances)
        with pytest.raises(ProblemFormatError) as err:
            load_problem(write_problem(tmp_path, obj))
        assert str(err.value) == message

    @pytest.mark.parametrize("overrides, message", [
        ({"domain": {"x1": [1, math.inf], "x2": [0, 5, "open", "closed"]}},
         "/domain: x1 range must be finite: [1.0, inf]"),
        ({"parameters": {"beta": [0.25, 0.5, math.inf], "gamma": [0, 1, 2]}},
         "/parameters/beta: parameter 'beta': invalid triangle: ends must be finite, got (0.25, 0.5, inf)"),
        ({"tolerances": {"eq_tol": math.inf}}, "/tolerances: eq_tol must be finite, got inf"),
    ], ids=["domain", "triangle", "tolerance"])
    def test_non_finite_numbers_rejected(self, tmp_path, overrides, message):
        # json.dumps writes inf as Infinity, which json.loads reads back
        with pytest.raises(ProblemFormatError) as err:
            load_problem(write_problem(tmp_path, minimal_problem(**overrides)))
        assert str(err.value) == message

    @pytest.mark.parametrize("members, key", [
        ('"parameters": {"beta": [0.25, 0.5, 0.75], "gamma": [0, 1, 2], "beta": [0.5, 0.5, 0.5]}', "beta"),
        ('"parameters": {"beta": [0.25, 0.5, 0.75], "gamma": [0, 1, 2]}, "F": "x2 / x1"', "F"),
    ], ids=["parameter", "F"])
    def test_duplicate_keys_rejected(self, tmp_path, members, key):
        # without the check the last value wins: a crisp beta, or a second F
        path = tmp_path / "problem.json"
        path.write_text('{"G": "x1^beta * x2 + gamma", "F": "beta * x2 / x1", '
                        f'"domain": {{"x1": [1, 5], "x2": [0, 5, "open", "closed"]}}, {members}}}', encoding="utf-8")
        with pytest.raises(ProblemFormatError) as err:
            load_problem(path)
        assert str(err.value) == f"/: duplicate key {key!r} in a JSON object"

    @pytest.mark.parametrize("overrides, pointer, message", [
        ({"parameters": {}}, "/parameters", "at least one fuzzy parameter is required"),
        ({"parameters": {"2beta": [0, 1, 2]}}, "/parameters/2beta", "invalid parameter name '2beta'"),
        ({"parameters": {"beta": [0.25, 0.75]}}, "/parameters/beta", "expected 3 entries, got 2"),
        ({"domain": {"x1": [1, 5, "open"], "x2": [0, 5, "open", "closed"]}}, "/domain/x1",
         "expected 2 or 4 entries, got 3"),
        ({"domain": {"x2": [0, 5, "open", "closed"]}}, "/domain", "missing required key 'x1'"),
        ({"boundary": [{"fix": "x2", "at": 0}]}, "/boundary/0", "missing required key 'target'"),
    ], ids=["no-parameters", "parameter-name", "triangle-entries", "axis-entries", "domain-x1", "boundary-target"])
    def test_invalid_entries_report_pointer_and_message(self, tmp_path, overrides, pointer, message):
        with pytest.raises(ProblemFormatError) as err:
            load_problem(write_problem(tmp_path, minimal_problem(**overrides)))
        assert err.value.pointer == pointer
        assert str(err.value) == f"{pointer}: {message}"

    def test_constraint_parsed(self, tmp_path):
        obj = minimal_problem(domain={"x1": [1, 5], "x2": [0, 5, "open", "closed"],
                                      "constraint": "x1 - x2"})
        problem = load_problem(write_problem(tmp_path, obj))
        assert problem.box.constraint is not None

    def test_constraint_must_not_use_parameters(self, tmp_path):
        obj = minimal_problem(domain={"x1": [1, 5], "x2": [0, 5, "open", "closed"],
                                      "constraint": "x1 - beta"})
        with pytest.raises(ProblemFormatError, match="/domain/constraint"):
            load_problem(write_problem(tmp_path, obj))

    def test_load_save_load_round_trip(self, tmp_path):
        shipped = load_problem(PROBLEMS / "boundary_example.json")
        source = replace(shipped, box=replace(shipped.box, constraint=parse("x1 - x2")))
        echoed = tmp_path / "echo.json"
        save_problem(source, echoed)
        again = load_problem(echoed)
        assert problem_to_dict(again) == problem_to_dict(source)
        assert again.g == source.g and again.f == source.f
        assert again.parameters == source.parameters
        assert again.box == source.box and problem_to_dict(again)["domain"]["constraint"] == "x1 - x2"
        assert again.grid == source.grid and again.tolerances == source.tolerances
        assert [c.fix for c in again.boundary] == [c.fix for c in source.boundary]


class TestEmitReport:
    def test_worked_example_report_shape(self, tmp_path):
        verdict = verify(load_problem(PROBLEMS / "worked_example.json"))
        out = tmp_path / "report.json"
        emit_report(verdict, out)
        data = json.loads(out.read_text())
        assert data["outcome"] == "BF_SOLUTION"
        assert [c["name"] for c in data["checks"]] == [
            "structure", "fuzzy_validity", "differentiability", "equality", "boundary",
        ]
        assert all(c["pass"] for c in data["checks"])
        assert data["grid"]["n_alpha"] == 21
        assert data["tolerances"]["eq_tol"] == 1e-8
        assert data["tool"]["name"] == "bfpde"

    def test_wrong_rhs_fails_only_equality(self, tmp_path):
        verdict = verify(load_problem(PROBLEMS / "wrong_F.json"))
        data = report_to_dict(verdict)
        assert data["outcome"] == "EQUALITY_FAILS"
        failing = [c["name"] for c in data["checks"] if not c["pass"]]
        assert failing == ["equality"]

    def test_vacuous_boundary_note(self):
        verdict = verify(load_problem(PROBLEMS / "crisp_example.json"))
        data = report_to_dict(verdict)
        boundary = next(c for c in data["checks"] if c["name"] == "boundary")
        assert boundary["pass"] and boundary["note"] == "no conditions"

    def test_report_is_byte_stable(self, tmp_path):
        problem = load_problem(PROBLEMS / "crisp_example.json")
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            emit_report(verify(problem), p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEmitCurves:
    def test_gamma_rows_match_closed_form(self, tmp_path):
        problem = load_problem(PROBLEMS / "crisp_example.json")
        gam = gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        out = tmp_path / "curves.csv"
        emit_curves([gam], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "role,x1,x2,alpha,lower,upper"
        for line in lines[1:]:
            role, x1, x2, alpha, lower, upper = line.split(",")
            assert role == "GAMMA"
            want = 0.5 * float(x2) / float(x1)
            assert abs(float(lower) - want) < 1e-8
            assert float(lower) == float(upper)  # crisp rows are zero width

    def test_rows_sorted_and_full_grid(self, tmp_path):
        problem = load_problem(PROBLEMS / "crisp_example.json")
        curves = compute_curves(problem)
        out = tmp_path / "curves.csv"
        emit_curves(curves, out)
        lines = out.read_text().strip().splitlines()[1:]
        n = problem.grid.n_x1 * problem.grid.n_x2 * problem.grid.n_alpha
        assert len(lines) == 3 * n
        keys = []
        for line in lines:
            role, x1, x2, alpha, _, _ = line.split(",")
            keys.append((role, float(x1), float(x2), float(alpha)))
        assert keys == sorted(keys)

    def test_empty_curve_list_writes_header_only(self, tmp_path):
        out = tmp_path / "curves.csv"
        emit_curves([], out)
        assert out.read_text() == "role,x1,x2,alpha,lower,upper\n"

    def test_holds_one_role_of_text_at_a_time(self, tmp_path):
        curves = compute_curves(load_problem(PROBLEMS / "worked_example.json"))
        out = tmp_path / "curves.csv"
        tracemalloc.start()
        try:
            emit_curves(curves, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.stat().st_size

    def test_values_round_trip_exactly(self, tmp_path):
        problem = load_problem(PROBLEMS / "worked_example.json")
        gam = gamma_curves(problem.g, problem.parameters, problem.box, problem.grid)
        out = tmp_path / "curves.csv"
        emit_curves([gam], out)
        line = out.read_text().splitlines()[1]
        _, x1, x2, alpha, lower, upper = line.split(",")
        assert float(x1) == gam.x1[0]
        assert float(lower) == gam.lower[0, 0, 0]
        assert float(upper) == gam.upper[0, 0, 0]
