"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --outdir DIR

Imports derivlab from the checkout's ``src``, runs the workload's
``cli.run`` calls serially, then scores the reports and prints one JSON
line.  With ``--trace 1`` it installs the span wrappers for the calls and
removes them afterwards; with ``--trace 0`` it never installs one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import (  # noqa: E402
    Instrumentation,
    Tracer,
    layer_metrics,
    per_span_seconds,
    root_span_seconds,
)
from workloads import expected_ids, plan, score_call  # noqa: E402


def run_call(cli, call, report_path: Path):
    """Run one suite through the public API; return (status, error)."""
    config = cli.ExperimentConfig(
        suite=call.suite,
        dims=call.dims,
        n_max=call.n_max,
        seed=call.seed,
        output_path=str(report_path),
    )
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(config), None
    except Exception as exc:  # a failed call is scored, and the pass goes on
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def read_checks(report_path: Path):
    try:
        with open(report_path) as fh:
            return [{"id": c["id"], "pass": c["pass"]} for c in json.load(fh)["checks"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import derivlab.cli as cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "derivlab":
        print(f"derivlab imported from {cli.__file__}, not this checkout", file=sys.stderr)
        return 2

    calls = plan(args.workload, args.seed)
    outdir = Path(args.outdir)
    instrumentation = Instrumentation(Tracer()) if args.trace else contextlib.nullcontext()
    timed = []
    with instrumentation:
        started = time.perf_counter()
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            status, error = run_call(cli, call, outdir / f"report-{i}.json")
            timed.append((call, status, error, time.perf_counter() - t0))
        wall = time.perf_counter() - started

    result = {"wall_s": wall, "calls": []}
    if args.trace:
        result["trace"] = traced_summary(instrumentation)

    for i, (call, status, error, seconds) in enumerate(timed):
        checks = read_checks(outdir / f"report-{i}.json") if error is None else None
        score = score_call(expected_ids(call), status, checks, error)
        result["calls"].append(
            {
                "suite": call.suite,
                "seed": call.seed,
                "seconds": seconds,
                "status": status,
                **vars(score),
                "clean": score.clean,
            }
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def traced_summary(instrumentation: Instrumentation) -> dict:
    spans = instrumentation.tracer.spans
    return {
        "layers": layer_metrics(spans),
        "cli_run_s": root_span_seconds(spans),
        "spans": len(spans),
        # the direct cost of the spans, measured after the wrappers are gone
        "span_cost_s": len(spans) * per_span_seconds(),
        "missing_targets": instrumentation.missing,
        "leftover_wrappers": instrumentation.leftover_wrappers(),
    }


if __name__ == "__main__":
    sys.exit(main())
