import importlib
import json
import re

import numpy as np
import pytest

from derivlab import numlin
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
        # regression: 6 of the 24 kernel-correspondence kernels of this run
        # fell back to the complex SVD, because the partial trace T of S is
        # Hermitian only to roundoff; every map the suites factor is
        # *-preserving, so each must reach the real Hermitian frame
        frames = []
        real_frame = numlin.real_frame

        def recorded(m, n):
            frames.append(real_frame(m, n))
            return frames[-1]

        # numlin.map_kernels is the one caller, and every kernel goes through it
        monkeypatch.setattr(numlin, "real_frame", recorded)
        config = ExperimentConfig(
            suite="all", dims=tuple(range(2, 8)), output_path=str(tmp_path / "r.json")
        )
        assert run(config) == 0
        assert frames and all(frame is not None for frame in frames)

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
        # ids, references, tolerances and detail keys only: no float is
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
            1e-9,
            {"gap", "lower_bound"},
        )
        expected = {
            "kernel_stab": (
                "kernel stabilization of the commutator derivation",
                1e-8,
                {"distances", "expected_dim", "kernel_dims", "multiplicities"},
            ),
            "commutant_identity": (
                "kernel of the derivation equals the commutant of the generator "
                "and of its spectral projections",
                1e-8,
                {"algebra_containment", "dims", "distances", "identity", "n", "pass",
                 "projection_defect", "tolerances"},
            ),
            "br_gns": (
                "equilibrium state implements the derivation as a Hermitian "
                "commutator in its GNS representation",
                1e-9,
                {"equilibrium", "implementation", "intertwining",
                 "kernel_correspondence", "kernel_dims", "symmetry"},
            ),
            "heisenberg/convergence": (
                "second-order convergence of the commutation residual under grid "
                "refinement",
                0.3,
                {"mean_order", "orders"},
            ),
            "heisenberg/line_residual": (
                "commutation residual of the line pair on Gaussian test vectors",
                2e-3,
                {"n"},
            ),
            "heisenberg/obstruction": obstruction,
            "heisenberg/obstruction/random": obstruction,
            "heisenberg/rigidity": (
                "a commutator with D that commutes with D must vanish",
                1e-8,
                {"kernel_dim", "trials"},
            ),
        }
        seen = set()
        for check in checks:
            kind = re.sub(r"/(n=.*|line|circle)$", "", check["id"])
            seen.add(kind)
            assert (
                check["paper_ref"], check["tolerance"], set(check["details"])
            ) == expected[kind], check["id"]
        assert seen == set(expected)

    def test_any_failure_gives_nonzero_exit(self, tmp_path, monkeypatch):
        from derivlab import cli as cli_mod

        def failing_suite(config):
            return [
                {
                    "id": "synthetic/fail",
                    "paper_ref": "synthetic failing check",
                    "pass": False,
                    "residual": 1.0,
                    "tolerance": 1e-9,
                    "details": {},
                }
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
        for key in ("version", "seed", "config", "timestamp"):
            assert key in meta
        for check in report["checks"]:
            for key in ("id", "paper_ref", "pass", "residual", "tolerance", "details"):
                assert key in check


def _containers(data) -> set:
    """ids of every dict and list inside data, data included."""
    if isinstance(data, dict):
        return {id(data)}.union(*map(_containers, data.values()))
    if isinstance(data, list):
        return {id(data)}.union(*map(_containers, data))
    return set()


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

    def test_commutant_identity_reports_the_rule_nearest_its_bound(self, tmp_path):
        # containment=1e-16 fails on defects of about 1e-15 while every
        # distance clears 1e-8: the report names that defect and its bound
        out = tmp_path / "report.json"
        assert main(["run", "--suite", "commutant_identity", "--dims", "2..8",
                     "--tol", "containment=1e-16", "--out", str(out)]) == 1
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
        assert failed
        for check in failed:
            details = check["details"]
            defect = max(details["algebra_containment"], details["projection_defect"])
            assert max(details["distances"].values()) <= 1e-8
            assert (check["residual"], check["tolerance"]) == (defect, 1e-16)
            assert check["residual"] > check["tolerance"]


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
