"""Benchmark of the pulsestab CLI: time to verdict, time to z*, scan throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload standing-verdict --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

The program is driven through its real entry point, `pulsestab.cli.main`,
in process, with each report written to a temporary file inside
`perfbench/out/` and checked by the workload's oracle.

--trace 0 runs the closed loop for --seconds and reports the end-to-end
metrics.  --trace 1 runs the loop untraced for half of --seconds, replays
the same commands with spans around every public call into the layers, and
reports per-layer metrics, each `_s` metric in seconds per evaluated point.
The spans are written to `perfbench/out/trace-<workload>-seed<n>.json`.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
`attempted` counts the CLI commands issued and `failed` those that raised,
exited non-zero or disagreed with the oracle; their ratio is the fail ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

from spans import Tracer, covered_seconds
from workloads import WORKLOADS, Command, Mismatch, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 11  # fresh interpreters timed per run; setup_s is their median
PROBE_TIMEOUT_S = 120

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "WORKBENCH_THREADS",
)


@dataclass
class Outcome:
    command: Command
    wall_s: float
    points: int
    error: str | None


def setup(workload: Workload, outdir: Path) -> float:
    """Import pulsestab and make the workload's warm-up call; return the time."""
    start = time.perf_counter()
    from pulsestab.cli import main as cli_main

    code = cli_main([*workload.warmup, "--output", str(outdir / "warmup.out")])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"warm-up call {' '.join(workload.warmup)} exited {code}")
    return elapsed


def probe_setup(workload: Workload) -> list[float]:
    """Time `setup` in fresh interpreters, so each sample pays the import."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload.name],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def issue(workload: Workload, command: Command, outdir: Path, tracer: Tracer | None = None) -> Outcome:
    """Run one CLI command to completion and check its report."""
    from pulsestab.cli import main as cli_main

    path = outdir / "report.out"
    path.unlink(missing_ok=True)
    argv = [*command.argv, "--output", str(path)]
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli_main(argv)
        else:
            with tracer.command("cli.main"):
                code = cli_main(argv)
    except Exception as exc:  # a command that raises is a failure, not a crash
        return Outcome(command, time.perf_counter() - start, 0, f"raised {exc!r}")
    wall = time.perf_counter() - start
    if code != 0:
        return Outcome(command, wall, 0, f"exit code {code}")
    try:
        points = workload.check(command, path.read_text(encoding="utf-8"))
    except (Mismatch, OSError, KeyError, ValueError) as exc:
        return Outcome(command, wall, 0, f"oracle: {exc}")
    return Outcome(command, wall, points, None)


def closed_loop(workload: Workload, seed: int, seconds: float, outdir: Path):
    """Issue commands one after another until `seconds` have passed and the
    last cycle of the workload's commands is whole."""
    commands = workload.commands(random.Random(seed))
    outcomes = []
    start = time.perf_counter()
    while True:
        outcomes.append(issue(workload, next(commands), outdir))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(outcomes) % workload.cycle == 0:
            return outcomes, elapsed


def report_failures(outcomes: list[Outcome]) -> int:
    failed = [o for o in outcomes if o.error is not None]
    for o in failed:
        print(f"failed: {' '.join(o.command.argv)}: {o.error}", file=sys.stderr)
    return len(failed)


def environment() -> dict:
    """Machine, BLAS, versions and thread settings the numbers were taken with."""
    from importlib import metadata

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    names = set(THREAD_VARS) | {k for k in os.environ if k.endswith("_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "threads": {name: os.environ.get(name) for name in sorted(names)},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, args, outdir: Path) -> dict:
    setup_samples = probe_setup(workload)
    setup(workload, outdir)
    outcomes, elapsed = closed_loop(workload, args.seed, args.seconds, outdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed = report_failures(outcomes)
    walls = [o.wall_s for o in outcomes]
    points = sum(o.points for o in outcomes)
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "grid_n": workload.grid_n,
        "loop": "closed, one caller", "environment": environment(),
        "setup_samples_s": setup_samples, "command_samples": len(walls),
        "command_s": walls, "points": points, "elapsed_s": elapsed,
        "fail_ratio": failed / len(outcomes),
    }))
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            # the median command's rate: one stalled command does not set it
            "points_per_s": metric(statistics.median(o.points / o.wall_s for o in outcomes), "1/s"),
            "command_s.p50": metric(statistics.median(walls), "s"),
            "command_s.max": metric(max(walls), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def layer_metrics(tracer: Tracer, points: int) -> dict:
    """Per-layer metrics from the spans; `_s` metrics are seconds per point."""
    self_s, total_s, calls, layer_self = {}, {}, {}, {}
    for span in tracer.spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        total_s[span.name] = total_s.get(span.name, 0.0) + (span.end - span.start)
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + span.self_s

    def per_point(table: dict, name: str, unit: str = "s") -> dict:
        return metric(table.get(name, 0) / points, unit)

    # cli overhead: command wall time outside the verdict or bisection it drives
    payload = {"spectra.stability_verdict", "index_count.critical_ratio_bisection"}
    overhead = 0.0
    for root in (s for s in tracer.spans if s.name == "cli.main"):
        inner = [(s.start, s.end) for s in tracer.spans
                 if s.parent == root.span_id and s.name in payload]
        overhead += (root.end - root.start) - covered_seconds(inner, root.start, root.end)
    evaluations = [s.evaluations for s in tracer.spans
                   if s.name == "index_count.critical_ratio_bisection"]
    verdict_s = total_s.get("spectra.stability_verdict", 0.0)
    return {
        "waves.sample_s": per_point(self_s, "waves.sample_wave"),
        "discretization.assemble_L_s": per_point(self_s, "discretization.assemble_system_operator_L"),
        "discretization.assemble_Lt_s": per_point(self_s, "discretization.assemble_tilde_L"),
        "discretization.assemble_JL_s": per_point(self_s, "discretization.assemble_JL"),
        "discretization.assemble_scalar_s": per_point(self_s, "discretization.assemble_scalar_operator"),
        "discretization.assemble_L_calls": per_point(calls, "discretization.assemble_system_operator_L", "count"),
        "discretization.matrix_mb": metric(
            max((s.matrix_bytes for s in tracer.spans), default=0) / 1e6, "MB-computed"),
        "spectra.eig_Lt_s": per_point(self_s, "spectra.discrete_spectrum_tilde_L"),
        "spectra.eig_JL_s": per_point(self_s, "spectra.unstable_modes_JL"),
        "spectra.verdict_s": per_point(total_s, "spectra.stability_verdict"),
        "spectra.eig_JL_share": metric(
            self_s.get("spectra.unstable_modes_JL", 0.0) / verdict_s if verdict_s else 0.0, "ratio"),
        "index_count.kdv_solve_s": per_point(self_s, "index_count.kdv_index_numeric"),
        "index_count.hill_solve_s": per_point(self_s, "index_count.hill_index_numeric"),
        "index_count.general_index_s": per_point(self_s, "index_count.general_index_numeric"),
        "index_count.case2_index_s": per_point(total_s, "index_count.case2_index"),
        "index_count.case2_index_calls": per_point(calls, "index_count.case2_index", "count"),
        "index_count.evaluations": metric(
            statistics.median(evaluations) if evaluations else 0, "count"),
        "cli.overhead_s": metric(overhead / points, "s"),
        **{f"{layer}.self_s": per_point(layer_self, layer)
           for layer in ("waves", "discretization", "spectra", "index_count", "cli")},
    }


def sequential_scan(workload: Workload, command: Command, outdir: Path) -> tuple[float, Outcome]:
    """Replay a scan with a one-thread pool, so its verdicts run one after
    another; return their summed stability_verdict time and the outcome."""
    tracer = Tracer()
    tracer.install()
    try:
        with mock.patch.dict(os.environ, {"WORKBENCH_THREADS": "1"}):
            outcome = issue(workload, command, outdir, tracer)
    finally:
        tracer.uninstall()
    verdicts = sum(s.end - s.start for s in tracer.spans if s.name == "spectra.stability_verdict")
    return verdicts, outcome


def per_layer(workload: Workload, args, outdir: Path) -> dict:
    setup(workload, outdir)
    untraced, _ = closed_loop(workload, args.seed, args.seconds / 2, outdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [issue(workload, o.command, outdir, tracer) for o in untraced]
    finally:
        tracer.uninstall()
    tracer.finish()

    outcomes, speedup = untraced + traced, 0.0
    if workload.name == "eta0-scan":
        sequential, outcome = sequential_scan(workload, untraced[0].command, outdir)
        outcomes.append(outcome)
        speedup = sequential / untraced[0].wall_s
    attempted, failed = len(outcomes), report_failures(outcomes)

    points = sum(o.points for o in traced) or 1
    metrics = layer_metrics(tracer, points)
    metrics["cli.scan_speedup"] = metric(speedup, "ratio")
    trace_overhead = sum(o.wall_s for o in traced) - sum(o.wall_s for o in untraced)
    metrics["trace.overhead_s"] = metric(trace_overhead / points, "s")
    metrics["trace.points"] = metric(points, "count")

    record = {"workload": workload.name, "seed": args.seed, "grid_n": workload.grid_n,
              "environment": environment(), "spans": tracer.as_records()}
    (OUT / f"trace-{workload.name}-seed{args.seed}.json").write_text(
        json.dumps(record), encoding="utf-8")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "traced_commands": len(traced),
                      "spans": len(tracer.spans), "fail_ratio": failed / attempted}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), as a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = entry
            rows.append((name, key, entry["value"], entry["unit"]))
        rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
    for name, key, value, unit in rows:
        print(f"{name:18} {key:34} {value:14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pulsestab" / "__init__.py").is_file():
        print(f"perfbench: no pulsestab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        outdir = Path(tmp)
        if args.setup_probe:
            print(repr(setup(WORKLOADS[args.setup_probe], outdir)))
            return 0
        workload = WORKLOADS[args.workload]
        result = (per_layer if args.trace else end_to_end)(workload, args, outdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
