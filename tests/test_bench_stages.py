import importlib.util
import json
import math
import time
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
    start = time.perf_counter()
    assert tool.main(["--dims", "4", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
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
