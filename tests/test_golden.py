"""Byte-level regression gate: SHA-256 of the ``check --report --curves``
artifacts of every shipped problem.

The digests equal the ones the benchmark keeps for the same problems.  A
changed digest is a change in output: find out why before touching a value.
"""

import hashlib
from pathlib import Path

import pytest

from bfpde.cli import run

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

GOLDEN = {
    "boundary_example": (
        0,
        "6702bc4747682b7d8730e81a45ad057e8efaefbd15f8e0d2a57d7f202e4e56d9",
        "e82d89b8a6b65b1c24d706973ebb67cb36fc5f8d5214be783c1686685aa9e1ed",
    ),
    "crisp_example": (
        0,
        "8670d7eaa04616f2689ef12f961009ac677f773a245ecc88cb531915ae7f9bf7",
        "1a054d18a5fae20a5d86d0f7e36c52afdb230fb255ddc93c5bf5186d3e765f0c",
    ),
    "not_differentiable": (
        1,
        "ed68fda4155238dc1f4ca16d4744b62ccef533fa44b9b034f3375e0def407ee9",
        "84a05c048ab64661b28fb43e848b68650fde6b6e1c021d984fc419dcb283b295",
    ),
    "worked_example": (
        0,
        "acfdcf1ad81e5b5b0f6972d1dd23c2c25c0ee8fff4ae7c8e09465a86a0bc0832",
        "da511a630983f21911c147be65ed158e496351184de4a3ead8a144f4c4878652",
    ),
    "wrong_F": (
        1,
        "a87e34b4a1f1173349d6cf5d7f51dd4225b3ce4da03c2aca6ee787064fb87906",
        "f246a6a47669e7f7a181104b99e6de26e1ced95e1ff7e7abe94cd657bba028bd",
    ),
}


def test_every_shipped_problem_is_pinned():
    assert sorted(p.stem for p in PROBLEMS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_and_curves_digests(name, tmp_path, capsys):
    exit_code, report_sha, curves_sha = GOLDEN[name]
    report = tmp_path / "report.json"
    curves = tmp_path / "curves.csv"
    code = run(["check", str(PROBLEMS / f"{name}.json"), "--report", str(report), "--curves", str(curves)])
    capsys.readouterr()
    assert code == exit_code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
    assert hashlib.sha256(curves.read_bytes()).hexdigest() == curves_sha
