import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_stages.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_timings_smoke(tmp_path, capsys):
    tool = _load()
    out = tmp_path / "stages.json"
    assert tool.main(["--dims", "4", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == result
    seconds = result["seconds"]["4"]
    assert list(seconds) == [
        "superoperator_build",
        "frame_change",
        "kernel_tower",
        "nullspace",
        "subspace_distance",
        "commutant_check.kernel",
        "commutant_check.hermitian_commutant",
        "commutant_check.projection_commutant",
        "commutant_check.algebra_commutant",
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


def test_best_of_stops_at_the_budget():
    best_of = _load()._best_of
    calls = []
    # a spent budget ends the loop after the first call
    assert best_of(lambda: calls.append(1), repeats=3, budget_s=0.0) >= 0
    assert len(calls) == 1
    # an unspent one runs all the repeats
    calls.clear()
    best_of(lambda: calls.append(1), repeats=5, budget_s=1e9)
    assert len(calls) == 5
