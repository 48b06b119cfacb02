"""Tests of the benchmark's own logic: span self times, wrapper removal,
check-id accounting and computed byte counts.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from tracing import Instrumentation, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Call, expected_ids, plan, score_call  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# --- self time -------------------------------------------------------------


def test_self_time_nested_and_siblings():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "c", 2.0, 3.0, 1, 0),
        Span(3, "b", 5.0, 9.0, 0, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 6.0, 0, 0),
        Span(2, "b", 4.0, 8.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_run_ids():
    clock = FakeClock()
    tracer = Tracer(clock)
    for run_id in range(2):
        root = tracer.open("cli.run")
        clock.now += 1
        child = tracer.open("numlin.nullspace", size=32)
        clock.now += 2
        tracer.close(child)
        sibling = tracer.open("numlin.nullspace", size=32)
        clock.now += 3
        tracer.close(sibling)
        tracer.close(root)
    spans = tracer.spans
    assert [s.run for s in spans] == [0, 0, 0, 1, 1, 1]
    assert [s.parent for s in spans] == [None, 0, 0, None, 3, 3]
    layers = layer_metrics(spans)
    assert layers["numlin.nullspace"] == {"calls": 4, "self_s": 10.0, "bytes_in": 128}
    assert layers["cli.run"] == {"calls": 2, "self_s": 2.0}
    assert tracing.root_span_seconds(spans) == pytest.approx(12.0)


# --- wrappers --------------------------------------------------------------


def _module(name: str):
    # the package rebinds the attribute ``commutant`` to the function, so
    # ``import derivlab.commutant as m`` would not yield the module
    return importlib.import_module(f"derivlab.{name}")


def _bindings():
    """Every (namespace, attribute, object) binding of a traced target."""
    import derivlab.cli  # noqa: F401  (imports every derivlab module)

    out = []
    for mod in tracing._derivlab_modules():
        for key, value in vars(mod).items():
            out.append((mod, key, value))
            if isinstance(value, type):
                out.extend((value, attr, member) for attr, member in vars(value).items())
    return out


def test_wrappers_cover_every_binding_and_are_removed():
    import derivlab

    commutant_mod, gns_mod, numlin_mod = (_module(m) for m in ("commutant", "gns", "numlin"))

    before = [(ns, key, id(value)) for ns, key, value in _bindings()]
    original_kron = numlin_mod.kron
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        assert inst.missing == []
        # the defining module, modules that imported the name, and the package
        for namespace in (numlin_mod, commutant_mod, gns_mod, derivlab):
            assert namespace.kron is not original_kron
            assert namespace.kron.__wrapped_by_perfbench__
        assert inst.leftover_wrappers()
        derivlab.commutant([np.diag([1.0, 2.0])])
    assert [s.name for s in tracer.spans] == [
        "commutant.commutant",
        "numlin.kron",
        "numlin.kron",
        "numlin.nullspace",
    ]
    assert inst.leftover_wrappers() == []
    assert [(ns, key, id(value)) for ns, key, value in _bindings()] == before


def test_missing_target_makes_the_run_incorrect():
    targets = (("numlin", "no_such_function", None, None),)
    with Instrumentation(Tracer(), targets) as inst:
        assert inst.missing == ["numlin.no_such_function"]
    # its metrics would read 0, the best value, so the gate must refuse the run
    assert layer_metrics([], targets)["numlin.no_such_function"]["calls"] == 0
    p = {"calls": [], "trace": {"leftover_wrappers": [], "missing_targets": inst.missing}}
    correct, _, _, problems = bench.gate([p])
    assert not correct
    assert "numlin.no_such_function" in problems[0]


def test_span_cost_is_positive_and_small():
    cost = tracing.per_span_seconds(calls=2000, repeats=2)
    assert 0.0 < cost < 1e-3


# --- computed bytes --------------------------------------------------------


def test_computed_byte_counts():
    assert tracing.nullspace_bytes_in(np.zeros((4, 9))) == 16 * 36
    assert tracing.kron_bytes_out(np.eye(3), np.zeros((2, 5))) == 16 * 9 * 10
    gens = [np.eye(3), np.eye(3), np.eye(3)]
    assert tracing.commutant_stack_bytes(gens, 1e-10) == 16 * 3 * 3**4


def test_traced_commutant_records_stack_bytes():
    commutant_mod = _module("commutant")
    tracer = Tracer()
    with Instrumentation(tracer):
        commutant_mod.commutant([np.diag([1.0, 2.0, 3.0]), np.eye(3)])
    layers = layer_metrics(tracer.spans)
    assert layers["commutant.commutant"]["stack_bytes"] == 16 * 2 * 3**4
    # the stacked 18 x 9 matrix reaches nullspace
    assert layers["numlin.nullspace"]["bytes_in"] == 16 * 18 * 9
    assert layers["numlin.kron"]["bytes_out"] == 4 * 16 * 81


# --- check-id and failed-share accounting ----------------------------------


IDS = ["s/n=2/simple", "s/n=2/multiplicity", "s/n=3/simple", "s/n=3/multiplicity"]


def _checks(passes):
    return [{"id": cid, "pass": ok} for cid, ok in zip(IDS, passes)]


def test_score_all_pass():
    score = score_call(IDS, 0, _checks([True] * 4))
    assert (score.reported, score.failed, score.clean) == (4, 0, True)


def test_score_counts_fail_verdicts():
    score = score_call(IDS, 1, _checks([True, False, False, True]))
    assert (score.reported, score.failed, score.clean) == (4, 2, True)


def test_score_missing_ids_are_failed():
    score = score_call(IDS, 0, _checks([True, True]))
    assert score.missing == IDS[2:]
    assert (score.reported, score.failed, score.clean) == (2, 2, False)


def test_score_unexpected_and_repeated_ids():
    checks = _checks([True] * 4) + [{"id": "extra", "pass": True}, {"id": IDS[0], "pass": True}]
    score = score_call(IDS, 0, checks)
    assert score.unexpected == ["extra", IDS[0]]
    assert (score.failed, score.clean) == (0, False)


def test_score_exit_status_disagreeing_with_flags_fails_every_check():
    assert score_call(IDS, 0, _checks([True, False, True, True])).failed == 4
    score = score_call(IDS, 1, _checks([True] * 4))
    assert (score.consistent, score.failed, score.clean) == (False, 4, False)


@pytest.mark.parametrize("status", [2, 3])
def test_score_config_and_io_exit_codes_fail_every_check(status):
    score = score_call(IDS, status, None)
    assert (score.failed, score.reported, score.clean) == (4, 0, False)


def test_raised_derivlab_error_counts_every_expected_check(tmp_path):
    from derivlab import cli
    from derivlab.errors import DimensionOverflow

    class RaisingCli:
        ExperimentConfig = cli.ExperimentConfig

        @staticmethod
        def run(config):
            raise DimensionOverflow("kron result exceeds the budget")

    call = Call("kernel_stab", (2, 3), 5, 1)
    status, error = worker.run_call(RaisingCli, call, tmp_path / "report.json")
    assert status is None and error.startswith("DimensionOverflow")
    score = score_call(expected_ids(call), status, None, error)
    assert (score.expected, score.failed, score.clean) == (4, 4, False)
    p = {"wall_s": 1.0, "peak_rss_mb": 1.0,
         "calls": [{"suite": "kernel_stab", "seconds": 1.0, "seed": 1, **vars(score),
                    "clean": score.clean}]}
    assert bench.pass_values(p)["failed_check_share"] == 1.0
    correct, attempted, failed, problems = bench.gate([p])
    assert (correct, attempted, failed) == (False, 4, 4)
    assert "DimensionOverflow" in problems[0]


def test_real_call_matches_expected_ids(tmp_path):
    from derivlab import cli

    call = Call("heisenberg", (2, 3), 5, 4)
    status, error = worker.run_call(cli, call, tmp_path / "report.json")
    score = score_call(expected_ids(call), status, worker.read_checks(tmp_path / "report.json"))
    assert (status, error, score.clean, score.failed) == (0, None, True, 0)


# --- workloads and the benchmark definition --------------------------------


def test_workload_check_counts():
    def count(name):
        return sum(len(expected_ids(c)) for c in plan(name, 7))

    assert count("roadmap_all") == 93
    assert count("superop_large") == 10
    assert count("small_many") == 450
    assert plan("small_many", 7)[-1].seed == 16


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS


def _compare_file(path, threads="1", wall=10.0, correct=True, attempted=20, failed=6,
                  passes=2):
    path.write_text(json.dumps({"seed": 1, "results": {"superop_large": {
        "env": {"numpy": "2.4.6", "blas_threads": threads},
        "correct": correct, "attempted": attempted, "failed": failed, "passes": passes,
        "problems": [] if correct else ["kernel_stab seed 1: missing=2"],
        "metrics": {"wall_s": {"value": wall, "unit": "s", "n": passes}}}}}))
    return str(path)


def test_compare_flags_environment_differences(tmp_path, capsys):
    import compare

    old = _compare_file(tmp_path / "old.json")
    same = _compare_file(tmp_path / "same.json", wall=5.0)
    other = _compare_file(tmp_path / "other.json", threads="2", wall=5.0)
    assert compare.main([old, same]) == 0
    assert "0.500" in capsys.readouterr().out
    assert compare.main([old, other]) == 1
    assert "ENVIRONMENT DIFFERS superop_large: blas_threads '1' -> '2'" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change, message",
    [
        ({"correct": False}, "not correct"),
        # a skipped dimension: fewer checks per pass, and faster
        ({"attempted": 16, "failed": 4}, "attempted per pass 10 -> 8"),
        ({"failed": 8}, "failed per pass 3 -> 4"),
    ],
)
def test_compare_flags_worse_verdicts(tmp_path, capsys, change, message):
    import compare

    old = _compare_file(tmp_path / "old.json")
    new = _compare_file(tmp_path / "new.json", wall=5.0, **change)
    assert compare.main([old, new]) == 1
    assert f"VERDICTS WORSE superop_large: {message}" in capsys.readouterr().out


def test_compare_counts_verdicts_per_pass(tmp_path):
    import compare

    old = _compare_file(tmp_path / "old.json")
    # three passes instead of two, and one fewer failure per pass
    new = _compare_file(tmp_path / "new.json", attempted=30, failed=6, passes=3)
    assert compare.main([old, new]) == 0
