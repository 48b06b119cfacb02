"""derivlab benchmark: end-to-end verdict time, memory and failed checks,
or, with ``--trace 1``, per-layer call counts and self times.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roadmap_all --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Each pass of a workload runs in a fresh interpreter (``worker.py``) that
imports derivlab from this checkout's ``src`` with one BLAS thread.  A
run repeats whole passes until ``--seconds`` have gone by, at least one.
``setup_s`` is the median over 12 fresh interpreters of the time from
start until ``derivlab.cli`` is imported, taken in rounds before and
between the passes.  A traced run alternates untraced and traced passes,
up to three pairs, and reports the per-layer metrics of the traced ones
with the tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import SUITES, WORKLOADS  # noqa: E402

SETUP_FIRST_ROUND = 6  # fresh interpreters before the first pass
SETUP_ROUND = 3  # after each pass
SETUP_SAMPLES = 12  # at least this many in a run
TRACE_PAIRS = 3  # at most this many untraced/traced pairs in a traced run
TRACE_BUDGET_S = 100  # and no further pair that would end after this long
BLAS_THREADS = "1"
DEADLINE_S = 170  # a run gives up, printing no result, after this long
MIN_CLI_RUN_COVERAGE = 0.99

# the metrics of the result line; the readable summary adds the others
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SUMMARY_UNITS = {
    **END_TO_END_UNITS,
    "failed_check_share": "share",
    **{f"suite_s.{s}": "s" for s in SUITES},
}

# per-layer metrics: (target, field, unit); fields come from tracing.layer_metrics
LAYER_FIELDS = (
    ("numlin.nullspace", "calls", "count"),
    ("numlin.nullspace", "self_s", "s"),
    ("numlin.nullspace", "bytes_in", "bytes-computed"),
    ("numlin.kron", "self_s", "s"),
    ("numlin.kron", "bytes_out", "bytes-computed"),
    ("numlin.subspace_distance", "self_s", "s"),
    ("derivation.Superoperator.power", "calls", "count"),
    ("derivation.Superoperator.power", "self_s", "s"),
    ("derivation.Superoperator.kernel", "self_s", "s"),
    ("derivation.ad_superoperator", "self_s", "s"),
    ("derivation.kernel_stabilization_report", "self_s", "s"),
    ("commutant.commutant", "calls", "count"),
    ("commutant.commutant", "self_s", "s"),
    ("commutant.commutant", "stack_bytes", "bytes-computed"),
    ("commutant.bicommutant", "self_s", "s"),
    ("commutant.kernel_commutant_check", "self_s", "s"),
    ("gns.gns_construct", "self_s", "s"),
    ("gns.implementing_operator", "self_s", "s"),
    ("gns.implementation_check", "self_s", "s"),
    ("gns.flow_intertwining_residual", "self_s", "s"),
    ("gns.kernel_correspondence_distance", "self_s", "s"),
    ("gns.abstract_kernel_stabilization", "self_s", "s"),
    ("gns.equilibrium_check", "self_s", "s"),
    ("gns.GNSRepresentation.pi", "calls", "count"),
    ("heisenberg.hcr_residual", "self_s", "s"),
    ("heisenberg.commutation_residual", "calls", "count"),
    ("heisenberg.commutation_residual", "self_s", "s"),
    ("heisenberg.rigidity_check", "self_s", "s"),
    ("heisenberg.trace_obstruction", "self_s", "s"),
    ("spectral.spectral_resolution", "calls", "count"),
    ("spectral.spectral_resolution", "self_s", "s"),
    ("cli.generate", "self_s", "s"),
    ("cli.equilibrium_instance", "self_s", "s"),
    ("cli.run", "self_s", "s"),
)

TRACE_UNITS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cost_s": "s",
    "trace.pairs": "count",
    "trace.cli_run_coverage": "share",
}
LAYER_UNITS = {**{f"{t}.{f}": u for t, f, u in LAYER_FIELDS}, **TRACE_UNITS}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(samples: int) -> list[float]:
    """Seconds from interpreter start until derivlab.cli is imported."""
    probe = (
        "import sys; import derivlab.cli as c; "
        "sys.stdout.write(c.__file__ + '\\n'); sys.stdout.flush()"
    )
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", probe],
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line.strip():
                raise BenchError("importing derivlab.cli failed in a fresh interpreter")
        if Path(line.strip()).resolve().parent != SRC / "derivlab":
            raise BenchError(f"derivlab.cli imported from {line.strip()}, not {SRC}")
        times.append(elapsed)
    return times


def run_pass(workload: str, seed: int, trace: int, tmp: Path, deadline: float) -> dict:
    outdir = Path(tempfile.mkdtemp(dir=tmp))
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--outdir", str(outdir),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {DEADLINE_S}s") from exc
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def pass_values(p: dict) -> dict:
    """End-to-end values of one pass, including summary-only ones."""
    expected = sum(c["expected"] for c in p["calls"])
    values = {
        "wall_s": p["wall_s"],
        "checks_per_s": sum(c["reported"] for c in p["calls"]) / p["wall_s"],
        "peak_rss_mb": p["peak_rss_mb"],
        "failed_check_share": sum(c["failed"] for c in p["calls"]) / expected,
    }
    for suite in SUITES:
        seconds = [c["seconds"] for c in p["calls"] if c["suite"] == suite]
        if seconds:
            values[f"suite_s.{suite}"] = sum(seconds)
    return values


def gate(passes: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over all passes' calls."""
    problems = []
    for p in passes:
        for c in p["calls"]:
            if not c["clean"]:
                problems.append(
                    f"{c['suite']} seed {c['seed']}: error={c['error']} "
                    f"missing={len(c['missing'])} unexpected={len(c['unexpected'])} "
                    f"consistent={c['consistent']}"
                )
        trace = p.get("trace")
        if trace and trace["leftover_wrappers"]:
            problems.append(f"wrappers left installed: {trace['leftover_wrappers']}")
        if trace and trace["missing_targets"]:
            # their metrics would read 0, the best value, so the run is not correct
            problems.append(f"traced functions not found: {trace['missing_targets']}")
    attempted = sum(c["expected"] for p in passes for c in p["calls"])
    failed = sum(c["failed"] for p in passes for c in p["calls"])
    return not problems, attempted, failed, problems


def medians(samples: dict, units: dict) -> dict:
    return {
        name: {"value": statistics.median(vals), "unit": units[name], "n": len(vals)}
        for name, vals in samples.items()
    }


def end_to_end(workload: str, seed: int, seconds: int, tmp: Path, deadline: float) -> dict:
    setup = measure_setup(SETUP_FIRST_ROUND)
    passes = []
    started = last = time.monotonic()
    while not passes or (
        # another pass, if it may take as long as all so far, still fits
        last - started < seconds and 2 * last - started < deadline
    ):
        passes.append(run_pass(workload, seed, 0, tmp, deadline))
        setup += measure_setup(SETUP_ROUND)
        last = time.monotonic()
    setup += measure_setup(max(SETUP_SAMPLES - len(setup), 0))
    per_pass = [pass_values(p) for p in passes]
    samples = {"setup_s": setup}
    for name in per_pass[0]:
        samples[name] = [v[name] for v in per_pass]
    correct, attempted, failed, problems = gate(passes)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "problems": problems,
        "samples": samples,
        "metrics": medians(samples, SUMMARY_UNITS),
        "env": passes[0]["env"],
    }


def per_layer(workload: str, seed: int, tmp: Path, deadline: float) -> dict:
    """Pairs of an untraced and a traced pass, the traced one first in
    every other pair, so that machine drift and the order of the passes
    fall alike on both sides of the overhead."""
    untraced, traced = [], []
    started = last = time.monotonic()
    while not traced or (
        len(traced) < TRACE_PAIRS
        # another pair, if it takes as long as the average so far
        and (last - started) * (len(traced) + 1) / len(traced) < TRACE_BUDGET_S
    ):
        for trace in (1, 0) if len(traced) % 2 else (0, 1):
            (traced if trace else untraced).append(run_pass(workload, seed, trace, tmp, deadline))
        last = time.monotonic()
    layers = {
        target: {
            field: statistics.median(p["trace"]["layers"][target][field] for p in traced)
            for field in fields
        }
        for target, fields in traced[0]["trace"]["layers"].items()
    }
    coverage = min(p["trace"]["cli_run_s"] / p["wall_s"] for p in traced)
    samples = {
        "trace.untraced_wall_s": [p["wall_s"] for p in untraced],
        "trace.traced_wall_s": [p["wall_s"] for p in traced],
        "trace.overhead_s": [t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)],
        "trace.span_cost_s": [p["trace"]["span_cost_s"] for p in traced],
    }
    metrics = {
        f"{target}.{field}": {"value": layers[target][field], "unit": unit, "n": len(traced)}
        for target, field, unit in LAYER_FIELDS
    }
    metrics.update(medians(samples, TRACE_UNITS))
    metrics["trace.pairs"] = {"value": len(traced), "unit": "count", "n": 1}
    metrics["trace.cli_run_coverage"] = {"value": coverage, "unit": "share", "n": len(traced)}
    correct, attempted, failed, problems = gate(untraced + traced)
    if coverage < MIN_CLI_RUN_COVERAGE:
        correct = False
        problems.append(f"cli.run spans cover only {coverage:.4f} of the traced wall time")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "passes": len(untraced) + len(traced),
        "problems": problems,
        "spans": traced[0]["trace"]["spans"],
        "layers": layers,
        "metrics": metrics,
        "env": traced[0]["env"],
    }


def print_summary(workload: str, seed: int, result: dict) -> None:
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"# {workload} seed={seed} {env}")
    for name, m in result["metrics"].items():
        print(f"{workload:14s} {name:45s} {m['value']:>16.6g} {m['unit']:15s} n={m['n']}")
    print(
        f"{workload:14s} correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} passes={result['passes']}"
    )
    for problem in result["problems"]:
        print(f"{workload:14s} problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="", help="also write the full results as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "derivlab" / "cli.py").is_file():
        print(f"no derivlab sources under {SRC}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    results = {}
    try:
        for workload in workloads:
            if args.trace:
                result = per_layer(workload, args.seed, tmp, deadline)
            else:
                result = end_to_end(workload, args.seed, args.seconds, tmp, deadline)
            print_summary(workload, args.seed, result)
            results[workload] = result
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            tmp_root.rmdir()

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                       "results": results}, fh, indent=1, sort_keys=True)
    last = {
        key: (all(r[key] for r in results.values()) if key == "correct"
              else sum(r[key] for r in results.values()))
        for key in ("correct", "attempted", "failed")
    }
    # the result line holds the contract's metrics, value and unit only
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    prefix = len(results) > 1
    last["metrics"] = {
        (f"{w}.{name}" if prefix else name): {"value": r["metrics"][name]["value"], "unit": unit}
        for w, r in results.items()
        for name, unit in units.items()
    }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
