import json

import numpy as np
import pytest

from derivlab import numlin
from derivlab.cli import (
    ExperimentConfig,
    equilibrium_instance,
    generate,
    main,
    run,
)
from derivlab.errors import BadMultiplicities, ConfigInvalid
from derivlab.gns import state_from_density
from derivlab.numlin import frob, is_hermitian
from derivlab.spectral import spectral_resolution


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
        assert res.n_clusters == 6  # simple, well-separated spectrum

    def test_multiplicity_roundtrip(self):
        d = generate("hermitian_with_multiplicity", 3, 2, multiplicities=[2, 1])
        res = spectral_resolution(d)
        assert tuple(res.multiplicities) == (2, 1)

    def test_bad_multiplicities(self):
        with pytest.raises(BadMultiplicities):
            generate("hermitian_with_multiplicity", 3, 0, multiplicities=[2, 2])
        with pytest.raises(BadMultiplicities):
            generate("hermitian_with_multiplicity", 3, 0)

    def test_density_is_valid_state(self):
        rho = generate("density", 4, 3)
        omega = state_from_density(rho)
        assert omega.faithful

    def test_derivation_kind(self):
        delta = generate("derivation", 3, 4)
        assert delta.kind == "inner"
        assert delta.ambient_dim == 3

    def test_equilibrium_instance(self):
        omega, delta = equilibrium_instance(4, 9)
        comm = omega.rho @ delta.generator - delta.generator @ omega.rho
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
        code = main(["run", "--suite", "br_gns", "--dims", "13,14", "--out", str(out)])
        assert code == 2
        assert not out.exists()

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
            ["gen", "--kind", "hermitian", "--n", "0"],
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
        m = numlin.read_matrix_text(out)
        assert m.shape == (6, 6)
        assert is_hermitian(m)
        assert np.array_equal(m, generate("hermitian", 6, 3))

    def test_gen_with_multiplicities(self, tmp_path):
        out = tmp_path / "m.txt"
        code = main(["gen", "--kind", "hermitian_with_multiplicity", "--n", "3",
                     "--seed", "2", "--multiplicities", "2,1", "--out", str(out)])
        assert code == 0
        res = spectral_resolution(numlin.read_matrix_text(out))
        assert tuple(res.multiplicities) == (2, 1)

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
