"""Benchmark for kuhn3p: one workload per run, measured or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload tournament-profile --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): tournament-profile,
tournament-modeler and solve.  The package is imported from ``src/`` of
the checkout.  Set-up (importing kuhn3p, making the inputs from the seed,
a warm-up) is repeated SETUP_REPEATS times and its median reported.  The
workload's fixed job then runs again and again until ``--seconds`` have
passed; every run of the job is checked, and timings are medians over
the runs.  Timings are scaled to a reference CPU speed by a calibration
kernel timed between the runs (see calibration.py); the raw factor is
printed.

With ``--trace 0`` the last line of standard output is a JSON object
carrying the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the
job first runs untraced for half the time, then twice under the tracer,
and the object carries the per-layer metrics.  Lines before it print the
same figures, and the workload's own rates, for people.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark cannot run (no kuhn3p source, bad arguments).
"""

from __future__ import annotations

import os

# Single-threaded numeric libraries; this must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
from calibration import REFERENCE_S, Calibration
from workloads import WORKLOADS, Gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

REFERENCE_SEED = 0  # golden digests are recorded for this seed
SETUP_REPEATS = 9
# Layer self times must account for the traced wall time within this share.
TRACE_TOLERANCE = 0.05


class BenchError(Exception):
    """The benchmark cannot run here; the message says why."""


def import_kuhn3p():
    """A fresh import of kuhn3p and its six modules from this checkout's
    src/, module-level tables included."""
    for name in [n for n in sys.modules if n == "kuhn3p" or n.startswith("kuhn3p.")]:
        del sys.modules[name]
    package = importlib.import_module("kuhn3p")
    for layer in tracing.LAYERS:
        importlib.import_module(f"kuhn3p.{layer}")
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported kuhn3p from {origin}, not from {SRC}")
    return package


def set_up(workload: str, seed: int, size: str, workdir: Path, calibration: Calibration):
    """Set up SETUP_REPEATS times; returns the last package and job and
    the median set-up time in raw seconds."""
    golden = json.loads((BENCH / "golden.json").read_text())[size][workload]
    timings = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_kuhn3p()
        job = WORKLOADS[workload](package, seed, size, workdir, golden, seed == REFERENCE_SEED)
        job.warm_up()
        timings.append(time.perf_counter() - start)
        calibration.measure()
    return package, job, statistics.median(timings)


def run_rounds(job, gate: Gate, until: float, minimum: int, calibration: Calibration) -> list[dict]:
    """Run and check the job until the clock passes `until`, at least
    `minimum` times, timing the calibration kernel after each run; stop
    after a run of the job, or its check, that raised."""
    rounds = []
    while len(rounds) < minimum or time.perf_counter() < until:
        try:
            result = job.run()
            job.check(result, gate)
        except Exception as exc:  # wrong or malformed output: a failed check, not a traceback
            gate.require(False, gate.attempt(1), f"{type(exc).__name__}: {exc}")
            break
        rounds.append(result)
        calibration.measure()
    return rounds


def median_of(rounds: list[dict], value) -> float:
    return statistics.median(value(r) for r in rounds)


def end_to_end(rounds: list[dict], setup_s: float, setup_scale: float, scale: float) -> dict:
    """Medians over the runs of the job, in reference seconds."""
    return {
        "setup_s": setup_s * setup_scale,
        "wall_s": median_of(rounds, lambda r: r["wall_s"]) * scale,
        "main_s": median_of(rounds, lambda r: r["main_s"]) * scale,
        "work_per_s": statistics.median(rate for r in rounds for rate in r["work_rates"]) / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def workload_rates(workload: str, rounds: list[dict], scale: float) -> list[tuple[str, float, str]]:
    """The workload's own figures, under the names users know them by."""
    if workload == "solve":
        return [
            ("cfr_iters_per_s", statistics.median(rate for r in rounds for rate in r["work_rates"]) / scale,
             "iterations/s"),
            ("cfr_s_to_eps_1e-3", median_of(rounds, lambda r: r["main_s"]) * scale, "s"),
            ("verify_profiles_per_s",
             median_of(rounds, lambda r: len(r["verified"]) / r["verify_s"]) / scale, "profiles/s"),
        ]
    rates = [("tournament_hands_per_s", median_of(rounds, lambda r: r["hands"] / r["main_s"]) / scale,
              "hands/s")]
    if workload == "tournament-profile":
        rates.append(("replay_hands_per_s",
                      median_of(rounds, lambda r: r["hands"] / r["replay_s"]) / scale, "hands/s"))
    return rates


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))]


def per_layer(snapshots: list[dict], traced: list[dict], untraced: list[dict],
              tracer: tracing.Tracer) -> dict:
    first = snapshots[0]
    self_s = {name: statistics.fmean(s["self_s"][name] for s in snapshots) for name in tracing.NAMES}
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = first["calls"][name]
        metrics[f"{name}.self_s"] = self_s[name]
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for name, v in self_s.items() if name.startswith(layer + "."))
    metrics.update(first["counters"])
    game_calls = sum(first["calls"][name] for name in tracing.NAMES if name.startswith("game."))
    hands = traced[0]["hands"]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    run_match_ms = [1000 * d for d in tracer.durations("harness.run_match")]
    metrics.update({
        "game.calls": game_calls,
        "game.calls_per_hand": game_calls / hands if hands else 0.0,
        "harness.run_match.ms_p50": percentile(run_match_ms, 0.50),
        "harness.run_match.ms_p95": percentile(run_match_ms, 0.95),
        "cli.files_written": traced[0].get("files_written", 0),
        "cli.bytes_written": traced[0].get("bytes_written", 0),
        "equilibrium.cfr.iters_to_eps": traced[0].get("iters_to_eps", 0),
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS),
        "trace.overhead_s": traced_wall - statistics.median(r["wall_s"] for r in untraced),
    })
    return metrics


def self_check(snapshots: list[dict], traced: list[dict], tracer: tracing.Tracer) -> list[str]:
    """The tracer's own consistency: spans nest, layer self times add up
    to the traced wall time, and counts repeat exactly between rounds."""
    problems = tracer.check_spans()[:5]
    for snapshot, result in zip(snapshots, traced):
        attributed = sum(snapshot["self_s"].values())
        if abs(result["wall_s"] - attributed) > TRACE_TOLERANCE * result["wall_s"]:
            problems.append(f"layer self times sum to {attributed:.4f} s of a {result['wall_s']:.4f} s "
                            f"traced job, beyond the {TRACE_TOLERANCE:.0%} tolerance")
    counts = [(s["calls"], s["counters"]) for s in snapshots]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced runs of the same job")
    return problems


def select(metrics: dict, declared: list[dict]) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help=f"input seed (default {REFERENCE_SEED}, the one with golden digests)")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="job size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "kuhn3p" / "__init__.py").is_file():
            raise BenchError(f"no kuhn3p source at {SRC / 'kuhn3p'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(SRC))
        workdir = WORK / args.workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        setup_calibration = Calibration()
        package, job, setup_s = set_up(args.workload, args.seed, args.size, workdir, setup_calibration)
    except Exception as exc:  # set-up failed: one line, not a traceback
        print(f"bench: cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    gate = Gate()
    calibration = Calibration()
    start = time.perf_counter()
    if not args.trace:
        rounds = run_rounds(job, gate, start + args.seconds, 1, calibration)
        metrics = end_to_end(rounds, setup_s, setup_calibration.scale(), calibration.scale()) if rounds else {}
        declared = spec["end_to_end"]
    else:
        rounds = run_rounds(job, gate, start + args.seconds / 2, 1, calibration)
        tracer = tracing.Tracer()
        tracer.install(package)
        traced, snapshots = [], []
        try:
            for _ in range(2):
                traced += run_rounds(job, gate, 0.0, 1, calibration)
                snapshots.append(tracer.take_round())
        finally:
            tracer.uninstall()
        metrics = {}
        if rounds and len(traced) == 2:
            check_op = gate.attempt(1)
            for problem in self_check(snapshots, traced, tracer):
                gate.require(False, check_op, f"trace self-check: {problem}")
            metrics = per_layer(snapshots, traced, rounds, tracer)
            tracer.write(workdir / "trace.json", {"workload": args.workload, "seed": args.seed})
        declared = spec["per_layer"]

    for message, times in list(gate.messages.items())[:20]:
        print(f"bench: check failed ({times}x): {message}", file=sys.stderr)
    correct = not gate.failed and bool(metrics)
    error_rate = len(gate.failed) / gate.attempted if gate.attempted else 1.0
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} untraced runs of the job")
    lines = [(m["name"], metrics[m["name"]], m["unit"]) for m in declared if m["name"] in metrics]
    if metrics and not args.trace:
        lines += workload_rates(args.workload, rounds, calibration.scale())
    for name, value, unit in lines + [("error_rate", error_rate, "ratio")]:
        print(f"  {name} = {value:.6g} {unit}")
    if metrics and not args.trace:
        print(f"  timings above are reference seconds: raw seconds times {calibration.scale():.4f} "
              f"({setup_calibration.scale():.4f} for set-up), the calibration kernel's "
              f"{REFERENCE_S * 1000:g} ms over its median here")
    if metrics:
        print(json.dumps({"correct": correct, "attempted": gate.attempted,
                          "failed": len(gate.failed), "metrics": select(metrics, declared)}))
    for path in (workdir / "out", workdir / "warm"):
        shutil.rmtree(path, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
