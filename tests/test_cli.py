import dataclasses
import importlib
import json
import re

import numpy as np
import pytest

from derivlab import cli as cli_mod
from derivlab import heisenberg, numlin
from derivlab.cli import (
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    _suite_heisenberg,
    equilibrium_instance,
    generate,
    heisenberg_grid_checks,
    kernel_stab_check,
    main,
    run,
)
from derivlab.errors import BadMultiplicities, ConfigInvalid
from derivlab.gns import state_from_density
from derivlab.numlin import frob, is_hermitian
from derivlab.spectral import spectral_resolution

from conftest import read_matrix_text


class TestGenerate:
    def test_determinism(self):
        a = generate("hermitian", 5, 42)
        b = generate("hermitian", 5, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate("hermitian", 5, 43))

    def test_hermitian(self):
        d = generate("hermitian", 6, 1)
        assert is_hermitian(d)
        res = spectral_resolution(d)
        assert len(res.values) == 6  # simple, well-separated spectrum

    def test_multiplicity_roundtrip(self):
        d = generate("hermitian_with_multiplicity", 3, 2, multiplicities=[2, 1])
        res = spectral_resolution(d)
        assert tuple(res.multiplicities) == (2, 1)

    def test_bad_multiplicities(self):
        with pytest.raises(BadMultiplicities):
            generate("hermitian_with_multiplicity", 3, 0, multiplicities=[2, 2])
        with pytest.raises(BadMultiplicities):
            generate("hermitian_with_multiplicity", 3, 0)
        with pytest.raises(BadMultiplicities):
            generate("hermitian", 3, 0, multiplicities=[2, 1])

    def test_density_is_valid_state(self):
        rho = generate("density", 4, 3)
        omega = state_from_density(rho)
        assert omega.faithful

    def test_equilibrium_instance(self):
        omega, g = equilibrium_instance(4, 9)
        comm = omega.rho @ g - g @ omega.rho
        assert frob(comm) <= 1e-12


class TestConfigValidation:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"suite": "nope"},
            {"dims": ()},
            {"dims": (1, 2)},
            {"dims": (2, 65)},
            {"n_max": 1},
            {"n_max": 9},
            {"format": "xml"},
            {"tolerances": {"rank": 0.0}},
            {"tolerances": {"rank": float("nan")}},
            {"tolerances": {"subspace": float("nan")}},
            {"tolerances": {"subspace": float("inf")}},
            {"tolerances": {"containment": float("inf")}},
            {"dims": (3, 3)},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(**kwargs).validate()


class TestRun:
    def test_kernel_stab_small(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        config = ExperimentConfig(
            suite="kernel_stab", dims=(3,), seed=7, output_path=str(out)
        )
        assert run(config) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["seed"] == 7
        for check in report["checks"]:
            assert check["pass"] is True
            dims = check["details"]["kernel_dims"]
            assert len(set(dims)) == 1
            distances = check["details"]["distances"]
            assert len(distances) == config.n_max
            assert max(distances) == check["residual"]
        assert "PASS" in capsys.readouterr().out

    def test_partial_tolerances_keep_the_other_defaults(self, tmp_path):
        # regression: a partial dict validated, then run died with
        # KeyError: 'subspace'
        out = tmp_path / "report.json"
        config = ExperimentConfig(
            suite="kernel_stab", dims=(2,), tolerances={"rank": 1e-10},
            output_path=str(out),
        )
        config.validate()
        assert run(config) == 0
        reported = json.loads(out.read_text())["meta"]["config"]["tolerances"]
        assert reported == {**DEFAULT_TOLERANCES, "rank": 1e-10}

    def test_kernel_stab_n_max_8(self, tmp_path):
        # regression: the power route failed 9 of these 10 checks at seed 7
        # (n=8/simple passed at 8.0e-9); most from n=11 on had a wrong
        # kernel dimension
        out = tmp_path / "report.json"
        config = ExperimentConfig(
            suite="kernel_stab", dims=(8, 11, 14, 16, 24), n_max=8, seed=7,
            output_path=str(out),
        )
        assert run(config) == 0
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 10
        for check in checks:
            assert check["pass"] is True
            assert check["tolerance"] == 1e-8
            assert len(set(check["details"]["kernel_dims"])) == 1

    def test_every_factored_map_is_real_in_the_frame(self, tmp_path, monkeypatch):
        # every matrix the suites factor is the float64 block of the
        # Hermitian frame (numlin._block_split): none reaches the SVD of
        # an n^2 x n^2 map
        calls = []
        for name in ("_svd_split", "_block_split"):
            original = getattr(numlin, name)

            def recorded(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(numlin, name, recorded)
        config = ExperimentConfig(
            suite="all", dims=tuple(range(2, 8)), output_path=str(tmp_path / "r.json")
        )
        assert run(config) == 0
        assert calls and set(calls) == {"_block_split"}

    def test_determinism_modulo_timing(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            config = ExperimentConfig(
                suite="commutant_identity", dims=(2, 4), seed=11, output_path=str(out)
            )
            assert run(config) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        for r in (r1, r2):
            r["meta"].pop("timestamp")
            r["meta"].pop("wall_clock_s")
        assert r1 == r2

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        config = ExperimentConfig(
            suite="kernel_stab",
            dims=(2,),
            seed=1,
            output_path=str(out),
            format="csv",
        )
        assert run(config) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,pass,residual,tolerance"
        assert len(lines) > 1

    def test_report_content_is_pinned(self, tmp_path):
        # ids, references, rule names and detail keys only: no float is
        # compared, so the pin holds across BLAS builds
        out = tmp_path / "report.json"
        assert main(["run", "--suite", "all", "--dims", "2..4", "--n-max", "3",
                     "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        dims = (2, 3, 4)
        assert [c["id"] for c in checks] == [
            *(f"kernel_stab/n={n}/{k}" for n in dims for k in ("simple", "multiplicity")),
            *(f"commutant_identity/n={n}/{k}" for n in dims
              for k in ("simple", "multiplicity")),
            *(f"br_gns/n={n}/i={i}" for n in dims for i in (0, 1)),
            "heisenberg/convergence/line",
            "heisenberg/convergence/circle",
            "heisenberg/line_residual",
            "heisenberg/obstruction/line",
            "heisenberg/obstruction/circle",
            *(f"heisenberg/{k}/n={n}" for n in dims
              for k in ("obstruction/random", "rigidity")),
        ]
        obstruction = (
            "traceless commutators keep [A,B] at least sqrt(n) away from i times "
            "the identity",
            {"trace", "gap"},
            {"gap", "lower_bound"},
        )
        expected = {
            "kernel_stab": (
                "kernel stabilization of the commutator derivation",
                {"distances", "kernel_dims"},
                {"distances", "expected_dim", "kernel_dims", "multiplicities"},
            ),
            "commutant_identity": (
                "kernel of the derivation equals the commutant of the generator "
                "and of its spectral projections",
                {"kernel_vs_commutant", "kernel_vs_projection_commutant",
                 "commutant_vs_projection_commutant", "algebra_containment",
                 "projection_defect", "dims"},
                {"algebra_containment", "dims", "distances", "identity", "n",
                 "projection_defect"},
            ),
            "br_gns": (
                "equilibrium state implements the derivation as a Hermitian "
                "commutator in its GNS representation",
                {"equilibrium", "symmetry", "implementation", "intertwining",
                 "kernel_correspondence", "distances", "kernel_dims"},
                {"equilibrium", "implementation", "intertwining",
                 "kernel_correspondence", "kernel_dims", "symmetry"},
            ),
            "heisenberg/convergence": (
                "second-order convergence of the commutation residual under grid "
                "refinement",
                {"orders"},
                {"mean_order", "orders"},
            ),
            "heisenberg/line_residual": (
                "commutation residual of the line pair on Gaussian test vectors",
                {"residual"},
                {"n"},
            ),
            "heisenberg/obstruction": obstruction,
            "heisenberg/obstruction/random": obstruction,
            "heisenberg/rigidity": (
                "a commutator with D that commutes with D must vanish",
                {"relative_commutator"},
                {"kernel_dim", "trials"},
            ),
        }
        seen = set()
        for check in checks:
            kind = re.sub(r"/(n=.*|line|circle)$", "", check["id"])
            seen.add(kind)
            assert (
                check["paper_ref"], set(check["margins"]), set(check["details"])
            ) == expected[kind], check["id"]
        assert seen == set(expected)

    def test_any_failure_gives_nonzero_exit(self, tmp_path, monkeypatch):
        def failing_suite(config):
            return [
                cli_mod._check("synthetic/fail", "synthetic failing check",
                               [("residual", 1.0, 1e-9)], {})
            ]

        monkeypatch.setitem(cli_mod._SUITE_RUNNERS, "kernel_stab", failing_suite)
        config = ExperimentConfig(
            suite="kernel_stab", dims=(2,), output_path=str(tmp_path / "r.json")
        )
        assert run(config) == 1

    def test_json_envelope_fields(self, tmp_path):
        out = tmp_path / "report.json"
        config = ExperimentConfig(suite="kernel_stab", dims=(2,), output_path=str(out))
        run(config)
        report = json.loads(out.read_text())
        assert set(report) == {"meta", "checks"}
        meta = report["meta"]
        for key in ("version", "seed", "config", "max_margin", "timestamp"):
            assert key in meta
        for check in report["checks"]:
            for key in ("id", "paper_ref", "pass", "residual", "tolerance", "margin",
                        "margins", "details"):
                assert key in check

    def test_summary_names_the_worst_margin(self, tmp_path, monkeypatch, capsys):
        # a NaN rigidity measurement: max over residuals in mixed units let
        # a NaN slip past, the worst margin is inf and names its check
        rigidity = heisenberg.rigidity_check
        monkeypatch.setattr(
            heisenberg, "rigidity_check",
            lambda *a, **k: dataclasses.replace(rigidity(*a, **k), max_relative_commutator=NAN),
        )
        out = tmp_path / "report.json"
        assert main(["run", "--suite", "heisenberg", "--dims", "2,3", "--out", str(out)]) == 1
        meta = json.loads(out.read_text())["meta"]
        assert meta["max_margin"] == np.inf
        assert "max_residual" not in meta
        summary = capsys.readouterr().out.splitlines()[-1]
        assert "worst margin inf at heisenberg/rigidity/n=2 ->" in summary


def _containers(data) -> set:
    """ids of every dict and list inside data, data included."""
    if isinstance(data, dict):
        return {id(data)}.union(*map(_containers, data.values()))
    if isinstance(data, list):
        return {id(data)}.union(*map(_containers, data))
    return set()


NAN = float("nan")


def _nan_field(field):
    return lambda report: dataclasses.replace(report, **{field: NAN})


def _nan_item(index):
    """values with one entry NaN; the last is where a max that drops NaN misses it."""

    def corrupt(values):
        values = list(values)
        values[index] = NAN
        return tuple(values)

    return corrupt


def _replace_distances(report):
    return dataclasses.replace(report, distances=_nan_item(-1)(report.distances))


# id -> (check kind, module, the measurement the check reads, how it turns NaN)
_NAN_CASES = {
    "kernel_stab/distances": (
        "kernel_stab", "cli", "kernel_stabilization_report", _replace_distances
    ),
    **{
        f"commutant_identity/{field}": (
            "commutant_identity", "cli", "kernel_commutant_check", _nan_field(field)
        )
        for field in ("distance_kernel_commutant", "distance_kernel_projection",
                      "distance_commutant_projection", "algebra_containment",
                      "projection_defect")
    },
    "br_gns/equilibrium": ("br_gns", "cli", "equilibrium_check", lambda x: NAN),
    "br_gns/symmetry": ("br_gns", "cli", "implementing_operator", _nan_item(1)),
    "br_gns/implementation": ("br_gns", "cli", "implementation_check", lambda x: NAN),
    "br_gns/intertwining": ("br_gns", "cli", "flow_intertwining_residual", lambda x: NAN),
    "br_gns/kernel_correspondence": (
        "br_gns", "cli", "kernel_correspondence_distance", lambda x: NAN
    ),
    "br_gns/tower_distances": (
        "br_gns", "cli", "abstract_kernel_stabilization", _replace_distances
    ),
    **{
        f"{kind}/{part}": (kind, "heisenberg", "trace_obstruction", _nan_item(i))
        for kind in ("heisenberg/obstruction", "heisenberg/obstruction/random")
        for i, part in enumerate(("trace", "gap", "lower_bound"))
    },
    "heisenberg/convergence/orders": (
        "heisenberg/convergence", "heisenberg", "hcr_residual",
        lambda r: dataclasses.replace(r, orders=_nan_item(-1)(r.orders)),
    ),
    "heisenberg/line_residual/rows": (
        "heisenberg/line_residual", "heisenberg", "hcr_residual",
        lambda r: dataclasses.replace(r, rows=(*r.rows[:-1], _nan_item(3)(r.rows[-1]))),
    ),
    "heisenberg/rigidity/max_relative_commutator": (
        "heisenberg/rigidity", "heisenberg", "rigidity_check",
        _nan_field("max_relative_commutator"),
    ),
}


class TestCheckFunctions:
    def test_kernel_stab_fails_when_clusters_merge(self):
        # cluster=10 merges the five simple eigenvalues into one cluster, so
        # the check expects dim 25 against a stable 5-dim kernel: every
        # power agrees with ker ad_iD, and only the expected dim catches it
        tol = {**DEFAULT_TOLERANCES, "cluster": 10.0}
        check = kernel_stab_check("kernel_stab/n=5/simple", generate("hermitian", 5, 7), 5, tol)
        assert check["details"]["kernel_dims"] == [5] * 5
        assert check["details"]["expected_dim"] == 25
        assert max(check["details"]["distances"]) <= tol["subspace"]
        assert check["pass"] is False

    def test_heisenberg_runs_share_no_record(self):
        # the grid records are measured once per process; each run gets
        # copies, so altering one report leaves the next one as it was
        config = ExperimentConfig(suite="heisenberg", dims=(2, 3))
        first, second = _suite_heisenberg(config), _suite_heisenberg(config)
        assert first == second
        assert first[:5] == heisenberg_grid_checks()
        assert not _containers(first) & _containers(second)
        first[0]["details"]["orders"].append(0.0)
        first[1]["pass"] = None
        assert _suite_heisenberg(config) == second

    def test_every_record_reports_its_worst_margin_rule(self, tmp_path, monkeypatch):
        # containment=1e-16 fails commutant_identity on defects of about
        # 1e-15 while every distance clears 1e-8.  Every record, failed or
        # not, reports the value and bound of the first rule with the
        # largest value/bound; the rules are recorded as the checks list them
        rules = {}
        check = cli_mod._check

        def recording(check_id, description, listed, details):
            rules[check_id] = listed = list(listed)
            return check(check_id, description, listed, details)

        monkeypatch.setattr(cli_mod, "_check", recording)
        monkeypatch.setattr(cli_mod, "_grid_records", cli_mod.heisenberg_grid_checks)
        out = tmp_path / "report.json"
        assert main(["run", "--suite", "all", "--dims", "2..4",
                     "--tol", "containment=1e-16", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert list(rules) == [c["id"] for c in checks]
        failed = 0
        for record in checks:
            listed = rules[record["id"]]
            assert all(np.isfinite(value) for _, value, _ in listed)
            ratios = [value / bound if bound else (np.inf if value else 0.0)
                      for _, value, bound in listed]
            worst = int(np.argmax(ratios))
            assert (record["residual"], record["tolerance"]) == listed[worst][1:]
            assert record["margin"] == ratios[worst] == max(record["margins"].values())
            assert record["pass"] is all(value <= bound for _, value, bound in listed)
            if record["id"].startswith("commutant_identity/"):
                details = record["details"]
                defect = max(details["algebra_containment"], details["projection_defect"])
                assert max(details["distances"].values()) <= 1e-8
                if not record["pass"]:
                    failed += 1
                    assert (record["residual"], record["tolerance"]) == (defect, 1e-16)
            else:
                assert record["pass"] is True
        assert failed


class TestPassRules:
    def test_margins_and_the_reported_rule(self):
        record = cli_mod._check("x", "synthetic", [
            ("a", 1.0, 4.0), ("b", 3.0, 6.0), ("a", 2.0, 4.0), ("dims", 0, 0),
        ], {})
        assert record["margins"] == {"a": 0.5, "b": 0.5, "dims": 0.0}
        # a name keeps its largest margin; a tie goes to the first listed rule
        assert (record["margin"], record["residual"], record["tolerance"]) == (0.5, 3.0, 6.0)
        assert record["pass"] is True

    @pytest.mark.parametrize(
        "value, bound", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (1, 0)]
    )
    def test_a_non_finite_value_or_a_failed_equality_has_margin_inf(self, value, bound):
        record = cli_mod._check("x", "synthetic", [("ok", 0.5, 1.0), ("bad", value, bound)], {})
        assert record["pass"] is False
        assert record["margins"] == {"ok": 0.5, "bad": np.inf}
        assert record["margin"] == np.inf
        assert record["tolerance"] == bound
        assert record["residual"] == value or np.isnan(value)

    def test_a_value_past_its_bound_fails(self):
        record = cli_mod._check("x", "synthetic", [("a", 2e-8, 1e-8), ("b", -5.0, 1.0)], {})
        assert record["pass"] is False
        assert record["margins"] == {"a": 2.0, "b": -5.0}
        assert (record["residual"], record["tolerance"]) == (2e-8, 1e-8)

    @pytest.mark.parametrize("case", _NAN_CASES)
    def test_a_nan_measurement_fails_its_check(self, monkeypatch, case):
        # every check kind, through the suite runner the CLI calls, with
        # one measurement NaN: a max or a comparison that drops NaN passes
        kind, module, name, corrupt = _NAN_CASES[case]
        target = importlib.import_module(f"derivlab.{module}")
        measure = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *a, **k: corrupt(measure(*a, **k)))
        monkeypatch.setattr(cli_mod, "_grid_records", cli_mod.heisenberg_grid_checks)
        suite = kind.split("/")[0]
        config = ExperimentConfig(suite=suite, dims=(4,), n_max=3)
        records = [
            c for c in cli_mod._SUITE_RUNNERS[suite](config)
            if re.sub(r"/(n=.*|line|circle)$", "", c["id"]) == kind
        ]
        assert records
        for record in records:
            assert record["pass"] is False, record["id"]
            assert record["margin"] == np.inf, record["id"]


class TestMain:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = main(
            ["run", "--suite", "kernel_stab", "--dims", "3", "--n-max", "1",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_br_gns_with_no_checkable_dim_exits_2(self, tmp_path):
        out = tmp_path / "never.json"
        code = main(["run", "--suite", "br_gns", "--dims", "33,34", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, dims, ids, skipped",
        [
            ("br_gns", "2,33", ["br_gns/n=2/i=0", "br_gns/n=2/i=1"], ["br_gns/n=33"]),
            (
                "heisenberg",
                "2,17",
                ["heisenberg/rigidity/n=2", "heisenberg/rigidity/n=17"],
                [],
            ),
            ("kernel_stab", "2,17", [], []),
        ],
    )
    def test_dims_above_a_suite_limit_are_reported(
        self, suite, dims, ids, skipped, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        assert main(["run", "--suite", suite, "--dims", dims, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["skipped"] == skipped
        reported = [c["id"] for c in report["checks"]]
        assert set(ids) <= set(reported)
        assert not [i for i in reported for prefix in skipped if i.startswith(prefix)]
        note = f"; skipped above the dim limits: {', '.join(skipped)}" if skipped else ""
        assert capsys.readouterr().out.splitlines()[-1].endswith(f"-> {out}{note}")

    def test_dims_above_env_budget_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DERIVLAB_MAX_DIM", "8")
        out = tmp_path / "never.json"
        code = main(
            ["run", "--suite", "kernel_stab", "--dims", "4,10", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        ExperimentConfig(suite="kernel_stab", dims=(4, 8)).validate()

    def test_non_integer_env_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DERIVLAB_MAX_DIM", "abc")
        out = tmp_path / "never.json"
        code = main(["run", "--suite", "kernel_stab", "--dims", "2", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "DERIVLAB_MAX_DIM" in capsys.readouterr().err

    @pytest.mark.parametrize("budget, code", [("8", 2), ("9", 0), ("abc", 2)])
    def test_gen_n_shares_the_run_dim_limit(self, budget, code, tmp_path, monkeypatch):
        monkeypatch.setenv("DERIVLAB_MAX_DIM", budget)
        out = tmp_path / "m.txt"
        assert main(["gen", "--kind", "density", "--n", "9", "--out", str(out)]) == code
        assert out.exists() is (code == 0)
        # run dims take the same limit
        config = ExperimentConfig(dims=(9,))
        if code:
            with pytest.raises(ConfigInvalid):
                config.validate()
        else:
            config.validate()

    def test_unknown_tolerance_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = main(
            ["run", "--suite", "kernel_stab", "--dims", "2", "--tol", "bogus=1",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--dims", "x"],
            ["run", "--dims", "2.."],
            ["run", "--dims", "2..12,14"],
            ["run", "--dims", "3,3"],
            ["run", "--tol", "rank=abc"],
            ["run", "--dims", "3", "--tol", "rank=nan"],
            ["run", "--dims", "3", "--tol", "subspace=inf"],
            ["run", "--dims", "3", "--tol", "rank=1e-16,rank=1"],
            ["run", "--dims", "2..10000000000000"],
            ["gen", "--kind", "hermitian", "--n", "0"],
            ["gen", "--kind", "hermitian", "--n", "65"],
            ["gen", "--kind", "hermitian", "--n", "3", "--seed", "-1"],
            ["gen", "--kind", "hermitian_with_multiplicity", "--n", "3",
             "--multiplicities", "2,x"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_malformed_values_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "never.out"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path):
        code = main(
            ["run", "--suite", "kernel_stab", "--dims", "2",
             "--out", str(tmp_path / "no" / "such" / "dir" / "r.json")]
        )
        assert code == 3

    def test_run_small_suite_exits_0(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["run", "--suite", "kernel_stab", "--dims", "2..4", "--seed", "7",
             "--tol", "rank=1e-10,subspace=1e-8", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_gen_writes_text_matrix(self, tmp_path):
        out = tmp_path / "m.txt"
        code = main(["gen", "--kind", "hermitian", "--n", "6", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        m = read_matrix_text(out)
        assert m.shape == (6, 6)
        assert is_hermitian(m)
        assert np.array_equal(m, generate("hermitian", 6, 3))

    def test_gen_with_multiplicities(self, tmp_path):
        out = tmp_path / "m.txt"
        code = main(["gen", "--kind", "hermitian_with_multiplicity", "--n", "3",
                     "--seed", "2", "--multiplicities", "2,1", "--out", str(out)])
        assert code == 0
        res = spectral_resolution(read_matrix_text(out))
        assert tuple(res.multiplicities) == (2, 1)

    def test_gen_derivation_writes_hermitian_generator(self, tmp_path, monkeypatch):
        # only the generator is built: the n^2 x n^2 map would need kron
        def refuse(*args):
            raise AssertionError("gen built a superoperator")

        for module in ("numlin", "commutant", "gns"):
            monkeypatch.setattr(importlib.import_module(f"derivlab.{module}"), "kron", refuse)
        paths = {kind: tmp_path / f"{kind}.txt" for kind in ("derivation", "hermitian")}
        for kind, path in paths.items():
            assert main(["gen", "--kind", kind, "--n", "64", "--seed", "4",
                         "--out", str(path)]) == 0
        assert paths["derivation"].read_bytes() == paths["hermitian"].read_bytes()

    @pytest.mark.parametrize("kind", ["hermitian", "density", "derivation"])
    def test_gen_multiplicities_on_other_kinds_exit_2(self, kind, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code = main(["gen", "--kind", kind, "--n", "3", "--multiplicities", "2,1",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "multiplicities" in err
        assert repr(kind) in err

    def test_gen_bad_multiplicities_exits_2(self, tmp_path):
        code = main(["gen", "--kind", "hermitian_with_multiplicity", "--n", "3",
                     "--seed", "2", "--multiplicities", "2,2",
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2


class TestDimensionBudget:
    def test_env_override(self, monkeypatch):
        from derivlab.derivation import ad_superoperator
        from derivlab.errors import DimensionOverflow

        monkeypatch.setenv("DERIVLAB_MAX_DIM", "4")
        with pytest.raises(DimensionOverflow):
            ad_superoperator(np.eye(6))
        monkeypatch.setenv("DERIVLAB_MAX_DIM", "8")
        ad_superoperator(np.eye(6))

    def test_kernel_stab_route_keeps_the_budget(self, monkeypatch):
        # the tower of ad_iD makes no kron call, so it applies the budget itself
        from derivlab.derivation import kernel_stabilization_report
        from derivlab.errors import DimensionOverflow

        monkeypatch.setenv("DERIVLAB_MAX_DIM", "4")
        with pytest.raises(DimensionOverflow):
            kernel_stabilization_report(np.eye(6), 3)
        monkeypatch.setenv("DERIVLAB_MAX_DIM", "8")
        assert kernel_stabilization_report(np.eye(6), 3).kernel_dims == (36, 36, 36)
