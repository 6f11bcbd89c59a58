import json
from pathlib import Path

import pytest

import bfpde.cli
from bfpde.cli import run

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


class TestCheck:
    def test_worked_example_passes(self, capsys):
        code = run(["check", str(PROBLEMS / "worked_example.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "BF_SOLUTION"
        assert "structure" in out and "boundary" in out

    def test_wrong_rhs_exits_one(self, capsys):
        code = run(["check", str(PROBLEMS / "wrong_F.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "EQUALITY_FAILS"

    def test_missing_file_exits_two(self, capsys):
        code = run(["check", str(PROBLEMS / "missing.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_report_and_curves_artifacts(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        curves = tmp_path / "curves.csv"
        code = run([
            "check", str(PROBLEMS / "crisp_example.json"),
            "--report", str(report), "--curves", str(curves),
        ])
        capsys.readouterr()
        assert code == 0
        assert json.loads(report.read_text())["outcome"] == "BF_SOLUTION"
        assert curves.read_text().startswith("role,x1,x2,alpha,lower,upper")

    def test_grid_and_tol_overrides(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run([
            "check", str(PROBLEMS / "crisp_example.json"),
            "--grid-x1", "7", "--grid-x2", "9", "--alpha-steps", "5",
            "--tol", "1e-6", "--report", str(report),
        ])
        capsys.readouterr()
        assert code == 0
        data = json.loads(report.read_text())
        assert (data["grid"]["n_x1"], data["grid"]["n_x2"], data["grid"]["n_alpha"]) == (7, 9, 5)
        assert data["tolerances"]["eq_tol"] == 1e-6
        assert data["tolerances"]["mono_tol"] == 1e-6
        assert data["tolerances"]["denom_tol"] == 1e-10

    def test_invalid_grid_override_exits_two(self, capsys):
        code = run(["check", str(PROBLEMS / "crisp_example.json"), "--grid-x1", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_not_differentiable_outcome(self, capsys):
        code = run(["check", str(PROBLEMS / "not_differentiable.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "NOT_DIFFERENTIABLE"

    def test_exit_code_is_pure_function_of_outcome(self, capsys):
        for path, expected in [
            ("worked_example.json", 0),
            ("boundary_example.json", 0),
            ("wrong_F.json", 1),
            ("not_differentiable.json", 1),
        ]:
            assert run(["check", str(PROBLEMS / path)]) == expected
        capsys.readouterr()

    def test_summary_table_is_stable(self, capsys):
        run(["check", str(PROBLEMS / "crisp_example.json")])
        first = capsys.readouterr().out
        run(["check", str(PROBLEMS / "crisp_example.json")])
        second = capsys.readouterr().out
        assert first == second
        header = first.splitlines()[1]
        assert header.split()[:3] == ["check", "pass", "worst_violation"]


class TestCheckCurves:
    @staticmethod
    def _problem(tmp_path, g_text):
        path = tmp_path / "problem.json"
        doc = json.loads((PROBLEMS / "worked_example.json").read_text())
        doc.update(G=g_text, grid={"n_x1": 9, "n_x2": 9, "n_alpha": 5})
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_writes_the_curves_verify_checked(self, tmp_path, monkeypatch, capsys):
        expected = tmp_path / "expected.csv"
        assert run(["curves", str(PROBLEMS / "wrong_F.json"), "--out", str(expected)]) == 0

        def no_recompute(problem):
            raise AssertionError("check --curves must not recompute the curves")

        monkeypatch.setattr(bfpde.cli, "compute_curves", no_recompute)
        curves = tmp_path / "curves.csv"
        assert run(["check", str(PROBLEMS / "wrong_F.json"), "--curves", str(curves)]) == 1
        capsys.readouterr()
        assert curves.read_bytes() == expected.read_bytes()

    def test_gamma_error_still_exits_two(self, tmp_path, capsys):
        # the lower envelope loses its x2-dependence once beta = 0.5 enters the cut
        path = self._problem(tmp_path, "(beta - 0.5)^2 * x1 * x2 + gamma")
        report = tmp_path / "report.json"
        code = run(["check", str(path), "--report", str(report), "--curves", str(tmp_path / "c.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines()[0] == "STRUCTURE_FAILS"
        assert captured.err.startswith("error: near-zero envelope denominator")
        assert json.loads(report.read_text())["outcome"] == "STRUCTURE_FAILS"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_values_fail_loudly(self, tmp_path, capsys):
        path = self._problem(tmp_path, "x2*exp(100*beta*x1*x2) + gamma")
        report = tmp_path / "report.json"

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert run(["check", str(path), "--report", str(report)]) == 1
        doc = json.loads(report.read_text(), parse_constant=reject)
        assert doc["outcome"] == "STRUCTURE_FAILS"
        assert "non-finite" in doc["checks"][0]["note"]
        assert run(["check", str(path), "--curves", str(tmp_path / "c.csv")]) == 2
        assert "error: non-finite" in capsys.readouterr().err


class TestValidate:
    def test_valid_file(self, capsys):
        code = run(["validate", str(PROBLEMS / "boundary_example.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("VALID")

    def test_schema_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"G": "x1"}', encoding="utf-8")
        code = run(["validate", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing required key" in err


class TestCurves:
    def test_emits_three_roles(self, tmp_path, capsys):
        out_path = tmp_path / "curves.csv"
        code = run(["curves", str(PROBLEMS / "crisp_example.json"), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        roles = {line.split(",")[0] for line in out_path.read_text().splitlines()[1:]}
        assert roles == {"Y", "F", "GAMMA"}

    def test_no_verdict_gating(self, tmp_path, capsys):
        # a failing problem still produces curves
        out_path = tmp_path / "curves.csv"
        code = run(["curves", str(PROBLEMS / "wrong_F.json"), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        assert out_path.exists()

    def test_out_flag_required(self, capsys):
        code = run(["curves", str(PROBLEMS / "crisp_example.json")])
        capsys.readouterr()
        assert code == 2


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "bfpde" in capsys.readouterr().out

    def test_worker_env_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("BF_VERIFY_THREADS", "3")
        assert run(["check", str(PROBLEMS / "crisp_example.json")]) == 0
        capsys.readouterr()

    def test_invalid_worker_env_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("BF_VERIFY_THREADS", "zero")
        assert run(["check", str(PROBLEMS / "crisp_example.json")]) == 2
        err = capsys.readouterr().err
        assert "BF_VERIFY_THREADS" in err
