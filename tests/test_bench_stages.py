import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_stages.py"
SRC = ROOT / "src"


def _load():
    spec = importlib.util.spec_from_file_location("bench_stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_timings_smoke(tmp_path):
    # as the tool's docstring runs it: a fresh interpreter on one BLAS
    # thread, so that the timings below see neither this process's warm
    # caches nor a second OpenBLAS thread
    out = tmp_path / "stages.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(TOOL), "--dims", "4", "--out", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.read_text())
    assert json.loads(run.stdout) == result
    assert result["env"]["openblas_threads"] == "1"
    seconds = result["seconds"]["4"]
    assert list(seconds) == [
        "kernel_stab_check",
        "commutant_identity_check",
        "br_gns_check",
        "superoperator_build",
        "kernel_tower",
        "kernel_stabilization_report",
        "nullspace",
        "subspace_distance",
        "commutant_check.kernel",
        "commutant_check.hermitian_commutant",
        "commutant_check.closed_forms",
        "gns_construct",
        "implementing_operator",
        "implementation_check",
        "flow_intertwining_residual",
        "kernel_correspondence_distance",
    ]
    heisenberg = result["seconds"]["heisenberg"]
    assert list(result["seconds"]) == ["4", "heisenberg"]
    assert list(heisenberg) == [
        "hcr_residual.line",
        "hcr_residual.circle",
        "heisenberg_grid_checks",
    ]
    for stage in (seconds, heisenberg):
        assert all(0 < s < 1 and math.isfinite(s) for s in stage.values())
    # beside each best-of figure, the median and the number of its calls,
    # and one traced call per stage, under the same keys as the timings
    for field in ("median_s", "calls", "peak_mib"):
        assert list(result[field]) == ["4", "heisenberg"]
        for key, stage in result[field].items():
            assert list(stage) == list(result["seconds"][key])
    for key, best in result["seconds"].items():
        for name, best_s in best.items():
            calls, median = result["calls"][key][name], result["median_s"][key][name]
            assert isinstance(calls, int) and calls >= 3
            # calls are repeated until they fill 0.2 s, and at least three
            # are made, so past three all but the last took less than
            # that together
            assert calls == 3 or best_s * (calls - 1) < 0.2
            assert best_s <= median < 1
    for stage in result["peak_mib"].values():
        assert all(0 < p < 64 and math.isfinite(p) for p in stage.values())


def test_peak_mib_traces_one_call():
    tool = _load()
    calls = []

    def allocate():
        calls.append(np.ones(2**18))  # 2 MiB, kept alive past the call

    assert 2 <= tool._peak_mib(allocate) < 2.5
    assert len(calls) == 1
    assert not tracemalloc.is_tracing()


def test_best_of_stops_at_the_budget():
    best_of = _load()._best_of
    calls = []
    # calls that use the whole time are still made three times
    best, median, count = best_of(lambda: calls.append(1), min_s=0.0)
    assert 0 <= best <= median
    assert count == len(calls) == 3
    # quick calls repeat until they have used min_s, and the fastest counts
    calls.clear()
    best, median, count = best_of(lambda: calls.append(time.sleep(0.002)), min_s=0.05)
    assert count == len(calls)
    assert 2 <= len(calls) <= 25
    assert 0.002 <= best <= median < 0.05


def test_best_of_reports_the_median_call(monkeypatch):
    # on a scripted clock the calls take 0.5, 0.125, 0.25, 0.125 and
    # 0.25 s: the slow first call moves neither the best nor the median
    tool = _load()
    ticks = iter([0, 0.5, 0.5, 0.625, 0.625, 0.875, 0.875, 1.0, 1.0, 1.25])
    monkeypatch.setattr(tool, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    assert tool._best_of(lambda: None, min_s=1.2) == (0.125, 0.25, 5)


def test_whole_check_stages_run_the_checks():
    # each whole-check stage returns the record the suite's check makes
    from derivlab import cli

    n = 4
    table = _load().stages(n)
    d = cli._spectral_instances(n, 8)[1][1]
    omega, g = cli.equilibrium_instance(n, 8)
    expected = {
        "kernel_stab_check": cli.kernel_stab_check("stage", d, 8),
        "commutant_identity_check": cli.commutant_identity_check("stage", d),
        "br_gns_check": cli.br_gns_check("stage", omega, g, 8),
    }
    for name, record in expected.items():
        assert record["pass"], name
        assert table[name]() == record, name


def test_gns_stages_above_the_br_gns_limit(monkeypatch):
    from derivlab import cli, gns
    from derivlab.derivation import ad_superoperator

    # n = 33 would cost seconds per flow evaluation; a lowered limit
    # keeps the dim just above it small
    monkeypatch.setattr(cli, "_BR_GNS_MAX_DIM", 12)
    tool = _load()
    n = cli._BR_GNS_MAX_DIM + 1
    table = tool.stages(n)
    assert {"implementation_check", "flow_intertwining_residual"} <= set(table)
    # the flow stage runs the ladder of br_gns_check
    omega, g = cli.equilibrium_instance(n, 8)
    delta = ad_superoperator(g)
    s = gns.implementing_operator(gns.gns_construct(omega), delta)[0]
    assert table["flow_intertwining_residual"]() == gns.flow_intertwining_residual(
        g, s, 0.5, 1.0
    )
