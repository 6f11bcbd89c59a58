"""The benchmark's span tracer (perfbench/tracing.py) wraps bfpde functions by
module attribute name, so renaming or deleting one of them breaks the
benchmark without failing any engine test.  These tests catch that."""

import importlib
from pathlib import Path

import pytest

from bfpde.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def traced_names(tracing):
    return [(importlib.import_module(module), attr) for module, attr, _ in tracing.SPANNED + tracing.LEAVES]


def test_every_traced_name_resolves(tracing):
    missing = [f"{module.__name__}.{attr}" for module, attr in traced_names(tracing) if not hasattr(module, attr)]
    assert missing == []


def test_install_wraps_and_uninstall_restores(tracing, capsys):
    names = traced_names(tracing)
    originals = [getattr(module, attr) for module, attr in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not original for (module, attr), original in zip(names, originals))
        assert run(["check", str(PROBLEMS / "crisp_example.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(getattr(module, attr) is original for (module, attr), original in zip(names, originals))
    assert {"io.load_problem", "engine.verify"} <= {span["name"] for span in tracer.spans}
    assert tracer.counts["expr.evaluate_calls"] > 0


def test_traced_check_opens_a_span_for_every_gate(tracing, capsys):
    # the per-layer metrics of the benchmark are read from these spans; a check
    # that verify stops calling through its module attribute would read 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run(["check", str(PROBLEMS / "boundary_example.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {span["name"] for span in tracer.spans if span["name"].startswith("engine.")} == {
        "engine.verify",
        "engine.envelope_F",
        "engine.check_fuzzy_validity",
        "engine.check_differentiability",
        "engine.check_equality",
        "engine.check_boundary",
    }
