#!/usr/bin/env python3
"""bfpde benchmark: one closed-loop client, one process, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each operation is one ``bfpde check`` of a
known problem; the next operation starts when the previous one has finished.
``cli-shipped`` starts a fresh interpreter per operation; the other workloads
call ``bfpde.cli.run`` in this process.  The engine runs its default single
worker: the run refuses to start when ``BF_VERIFY_THREADS`` is set.

Every operation's outcome, exit code and per-check pass flags are compared
with the known answer; ``cli-shipped`` also compares the SHA-256 of the report
and curve CSV with the digests recorded at the seed commit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first times
untraced operations, then traced ones, and prints the per-layer metrics (per
operation) and the tracing overhead; its spans are written to
``.perfbench_work/spans-<workload>-seed<seed>.json`` when the run ends.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, prepare  # noqa: E402

MIN_OPS = 11  # op_tail_s is the highest percentile with ten timed operations beyond it
SETUP_PROBES = 4  # fresh set-up processes before the operations, and as many after
OP_TIMEOUT_S = 120
# bfpde is not installed and has no __main__, so the CLI is started through its main()
CLI_CODE = "from bfpde.cli import main; main()"
TRACED_CLI_CODE = "import sys; sys.path.insert(0, {here!r}); from tracing import child_main; child_main({spans!r})"
ENGINE_SPANS = ("check_structure", "envelope_Y", "envelope_F", "gamma_curves", "check_fuzzy_validity",
                "check_differentiability", "check_equality", "check_boundary", "compute_curves")
# traced per-operation counts; with io.curves_rows and io.curves_bytes they must
# repeat exactly for the same problem
TRACED_COUNTS = ("expr.evaluate_calls", "expr.evaluate_elems", "expr.differentiate_calls",
                 "feasible.Y", "feasible.F", "feasible.GAMMA", "approximate.Y", "approximate.F", "approximate.GAMMA")


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) if not path else os.pathsep.join((str(SRC), path)))


def environment() -> dict:
    """What a performance claim must state about the machine and the code."""
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "bfpde").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "BF_VERIFY_THREADS": "unset",
    }


# --- set-up ------------------------------------------------------------------

def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Child side of setup_s: import bfpde, then generate and load the problems."""
    sys.path.insert(0, str(SRC))
    import bfpde.cli

    imported = clock()
    for case in prepare(workload, seed, ROOT, workdir):
        bfpde.cli.load_problem(case.argv[1])
    print(json.dumps({"imported": imported, "ready": clock()}))


def measure_setup(workload: str, seed: int, work: Path) -> list[tuple[float, float]]:
    """(set-up time, interpreter-plus-import time) of fresh set-up processes."""
    probes = []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
                "--seed", str(seed), "--workdir", str(work / f"probe{i}")]
        t0 = clock()
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        marks = json.loads(out.stdout.splitlines()[-1])
        probes.append((marks["ready"] - t0, marks["imported"] - t0))
    return probes


# --- operations --------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.in_process = workload != "cli-shipped"
        self.work = work
        self.child_spans = work / "child-spans.json"
        self.cases = prepare(workload, seed, ROOT, work / "inputs")
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.digest_mismatch = {"report": set(), "curves": set()}
        self.seen_counts: dict[str, dict] = {}
        self.counts_repeat = True

    def _invoke(self, case, tracer) -> tuple[float, int]:
        if self.in_process:
            import bfpde.cli

            with contextlib.redirect_stdout(io.StringIO()):
                t0 = clock()
                span = tracer.begin("cli.op", t0) if tracer else None
                try:
                    code = bfpde.cli.run(list(case.argv))
                finally:
                    t1 = clock()
                    if tracer:
                        tracer.end(span, t1)
            return t1 - t0, code
        code = CLI_CODE if tracer is None else TRACED_CLI_CODE.format(here=str(HERE), spans=str(self.child_spans))
        t0 = clock()
        proc = subprocess.run([sys.executable, "-c", code, *case.argv], cwd=ROOT, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
        t1 = clock()
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if tracer:
            child = json.loads(self.child_spans.read_text(encoding="utf-8"))
            span = tracer.begin("cli.op", t0)
            tracer.end(tracer.begin("cli.startup", t0), child["imported"])
            tracer.adopt(child)
            tracer.end(span, t1)
        return t1 - t0, proc.returncode

    def _check(self, case, code: int) -> tuple[bool, dict]:
        """Compare the operation's outcome with the known answer."""
        counts = {"io.curves_rows": 0, "io.curves_bytes": 0}
        try:
            report = case.report.read_bytes()
            doc = json.loads(report)
            got = {"outcome": doc["outcome"], "exit": code,
                   "checks": {c["name"]: c["pass"] for c in doc["checks"]}}
            curves = case.curves.read_bytes() if case.curves else b""
        except (OSError, ValueError, KeyError, TypeError) as err:
            print(f"{case.key}: unreadable result ({err})", file=sys.stderr)
            return False, counts
        if case.curves:
            counts = {"io.curves_rows": curves.count(b"\n") - 1, "io.curves_bytes": len(curves)}
        if case.golden:
            if hashlib.sha256(report).hexdigest() != case.golden["report_sha256"]:
                self.digest_mismatch["report"].add(case.key)
            if hashlib.sha256(curves).hexdigest() != case.golden["curves_sha256"]:
                self.digest_mismatch["curves"].add(case.key)
        if got != case.expect:
            print(f"{case.key}: expected {case.expect}, got {got}", file=sys.stderr)
        return got == case.expect, counts

    def op(self, case, tracer=None) -> tuple[float | None, bool]:
        """Run and check one operation: its wall time (None if it crashed) and
        whether it gave the known answer."""
        for path in (case.report, case.curves, self.child_spans):
            if path is not None:
                path.unlink(missing_ok=True)
        before = dict(tracer.counts) if tracer else {}
        self.attempted += 1
        try:
            elapsed, code = self._invoke(case, tracer)
            ok, counts = self._check(case, code)
        except Exception:  # noqa: BLE001 - a crashing operation is a failed operation
            traceback.print_exc()
            ok, elapsed = False, None
        if not ok:
            self.failed += 1
            return elapsed, False
        if tracer:
            counts.update({k: tracer.counts.get(k, 0) - before.get(k, 0) for k in TRACED_COUNTS})
            tracer.counts["io.curves_rows"] += counts["io.curves_rows"]
            tracer.counts["io.curves_bytes"] += counts["io.curves_bytes"]
            first = self.seen_counts.setdefault(case.key, counts)
            if first != counts:
                self.counts_repeat = False
                print(f"{case.key}: counts changed between operations: {first} then {counts}", file=sys.stderr)
        return elapsed, True

    def phase(self, seconds: float, min_ops: int, tracer=None) -> tuple[list[float], list, int]:
        """Whole cycles over the cases until ``seconds`` have passed and
        ``min_ops`` operations have run.  Returns the times of the operations
        that ran to completion, all operation ids, and the samples verified by
        the operations that gave the known answer."""
        times, ops, samples = [], [], 0
        deadline = clock() + seconds
        while clock() < deadline or len(ops) < min_ops:
            for case in self.cases:
                op_id = self.attempted
                if tracer:
                    tracer.op = op_id
                elapsed, ok = self.op(case, tracer)
                ops.append(op_id)
                if elapsed is not None:
                    times.append(elapsed)
                if ok:
                    samples += case.samples
        return times, ops, samples


# --- metrics -----------------------------------------------------------------

def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with ten samples beyond it, and its level in percent."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:  # only when operations crashed; the run is then incorrect anyway
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    times, ops, samples = bench.phase(seconds, MIN_OPS)
    if not times:
        raise RuntimeError("every operation crashed")
    who = resource.RUSAGE_SELF if bench.in_process else resource.RUSAGE_CHILDREN
    tail, level = _tail(times)
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "samples_per_s": (samples / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_op_share": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
    }
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times
    notes = [
        f"op_tail_s is p{level:.1f} of {len(times)} timed operations (10 beyond it)",
        "op time quartiles (s): " + ", ".join(f"{q:.6f}" for q in quartiles),
        f"failed_op_share = {bench.failed}/{bench.attempted}",
    ]
    return metrics, notes


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[str], object]:
    from tracing import Tracer

    plain, _, _ = bench.phase(seconds / 2, 3)
    tracer = Tracer()
    tracer.install()
    try:
        traced, ops, _ = bench.phase(seconds / 2, 3, tracer)
    finally:
        tracer.uninstall()
    n = len(ops)
    total, own = tracer.totals(set(ops))
    counts = tracer.counts
    metrics = {
        "cli.startup_s": (total["cli.startup"] / n, "s"),  # in-process: replaced by the set-up probes'
        "cli.self_s": (own["cli.op"] / n, "s"),
        "io.load_problem_s": (total["io.load_problem"] / n, "s"),
        "io.emit_report_s": (total["io.emit_report"] / n, "s"),
        "io.emit_curves_s": (total["io.emit_curves"] / n, "s"),
        "io.curves_rows": (counts["io.curves_rows"] / n, "count"),
        "io.curves_bytes": (counts["io.curves_bytes"] / n, "bytes"),
        "io.report_digest_mismatch": (len(bench.digest_mismatch["report"]), "count"),
        "io.curves_digest_mismatch": (len(bench.digest_mismatch["curves"]), "count"),
        "engine.verify_s": (total["engine.verify"] / n, "s"),
        "engine.verify_self_s": (own["engine.verify"] / n, "s"),
        **{f"engine.{name}_s": (total[f"engine.{name}"] / n, "s") for name in ENGINE_SPANS},
        "engine.samples": (counts["feasible.Y"] / n, "count"),
        **{f"engine.fallback_share.{role}": (counts[f"approximate.{role}"] / counts[f"feasible.{role}"]
                                             if counts[f"feasible.{role}"] else 0.0, "ratio")
           for role in ("Y", "F", "GAMMA")},
        "expr.evaluate_calls": (counts["expr.evaluate_calls"] / n, "count"),
        "expr.evaluate_elems": (counts["expr.evaluate_elems"] / n, "count"),
        "expr.evaluate_s": (tracer.leaf_s["expr.evaluate"] / n, "s"),
        "expr.differentiate_calls": (counts["expr.differentiate_calls"] / n, "count"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    }
    notes = [f"traced {n} operations after {len(plain)} untraced ones; "
             f"op_p50_s traced {statistics.median(traced):.6f} s, untraced {statistics.median(plain):.6f} s"]
    return metrics, notes, tracer


def run(args) -> dict:
    work = WORK / f"run-{os.getpid()}"
    try:
        # set-up is sampled before and after the operations, so its median
        # spans the same stretch of machine time as theirs
        probes = measure_setup(args.workload, args.seed, work / "before")
        sys.path.insert(0, str(SRC))
        import bfpde.cli  # noqa: F401 - imported before the first operation, as in setup_s

        bench = Bench(args.workload, args.seed, work)
        bench.op(bench.cases[0])  # warm-up: checked, not timed
        if args.trace:
            metrics, notes, tracer = per_layer(bench, args.seconds)
        else:
            metrics, notes = end_to_end(bench, args.seconds)
        probes += measure_setup(args.workload, args.seed, work / "after")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = statistics.median(p[0] for p in probes)
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    elif bench.in_process:
        metrics["cli.startup_s"] = (statistics.median(p[1] for p in probes), "s")
    notes.append(f"setup_s is the median of {len(probes)} fresh set-up processes")
    header = {"environment": environment(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans, **header)
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
    print(json.dumps(header))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {unit}")
    correct = bench.failed == 0 and bench.counts_repeat
    return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.workdir)
        return 0
    missing = [str(p) for p in (SRC / "bfpde" / "cli.py", ROOT / "problems") if not p.exists()]
    if missing:
        print(f"error: run from a bfpde checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if "BF_VERIFY_THREADS" in os.environ:
        print("error: unset BF_VERIFY_THREADS; the benchmark measures the default single worker",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
