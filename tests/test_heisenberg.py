from types import SimpleNamespace

import numpy as np
import pytest

from derivlab import heisenberg
from derivlab.cli import (
    RIGIDITY_TOL,
    ExperimentConfig,
    _suite_heisenberg,
    heisenberg_grid_checks,
    heisenberg_rigidity_check,
)
from derivlab.errors import GridTooCoarse, ShapeMismatch
from derivlab.heisenberg import (
    SCHRODINGER_LINE,
    commutation_residual,
    hcr_residual,
    periodic_pair,
    rigidity_check,
    schrodinger_pair,
    trace_obstruction,
)
from derivlab.numlin import frob, kron, map_kernels

from conftest import membership_residual, random_hermitian


def hand_averaging(v, periodic):
    """Oracle: (v_{j+1} + v_{j-1}) / 2 with explicit index arithmetic."""
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        up = v[(j + 1) % n] if periodic or j + 1 < n else 0.0
        down = v[(j - 1) % n] if periodic or j - 1 >= 0 else 0.0
        out[j] = (up + down) / 2.0
    return out


class TestSchrodingerPair:
    def test_shapes_and_hermiticity(self):
        pair = schrodinger_pair(64, 10.0)
        assert pair.scheme == SCHRODINGER_LINE
        assert frob(pair.A - pair.A.conj().T) == 0.0
        assert np.allclose(np.diag(pair.B).real, pair.grid)
        assert np.allclose(sorted(np.linalg.eigvalsh(pair.B)), sorted(pair.grid))

    def test_scheme_identity_every_vector(self):
        pair = schrodinger_pair(64, 10.0)
        comm = pair.A @ pair.B - pair.B @ pair.A
        rng = np.random.default_rng(0)
        for _ in range(4):
            v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            expected = 1j * hand_averaging(v, periodic=False)
            assert np.linalg.norm(comm @ v - expected) <= 1e-12 * np.linalg.norm(v)
        # commutation_residual never forms [A, B]; oracle: the dense commutator
        for p in (pair, periodic_pair(64)):
            dense = p.A @ p.B - p.B @ p.A
            vectors = [rng.standard_normal(64) + 1j * rng.standard_normal(64)]
            for v in vectors + list(p.test_domain):
                expected = np.linalg.norm(dense @ v - 1j * v) / np.linalg.norm(v)
                assert abs(commutation_residual(p, v) - expected) <= 1e-12 * expected

    def test_taylor_residual_bound(self):
        pair = schrodinger_pair(256, 10.0)
        for (sigma, mu), v in zip(pair.test_params, pair.test_domain):
            x = pair.grid
            unnorm = np.exp(-((x - mu) ** 2) / (2 * sigma**2))
            second = ((x - mu) ** 2 / sigma**4 - 1.0 / sigma**2) * unnorm
            second /= np.linalg.norm(unnorm)
            bound = (pair.h**2 / 2.0) * np.linalg.norm(second)
            assert commutation_residual(pair, v) <= bound * 1.05

    def test_vectors_unit_and_decaying(self):
        pair = schrodinger_pair(128, 10.0)
        for v in pair.test_domain:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.max(np.abs(v[:5])) <= 1e-8
            assert np.max(np.abs(v[-5:])) <= 1e-8

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            schrodinger_pair(8, 10.0)
        with pytest.raises(GridTooCoarse):
            schrodinger_pair(16, 10.0)  # no sigma fits the decay margin


class TestPeriodicPair:
    def test_contractive_position(self):
        pair = periodic_pair(64)
        assert abs(np.linalg.norm(pair.B, 2) - 63.0 / 64.0) <= 1e-12
        assert np.linalg.norm(pair.B, 2) <= 1.0
        assert frob(pair.A - pair.A.conj().T) == 0.0

    def test_seam_identity(self):
        # oracle: [A, B] = i * cyclic average - (i / 2h)(E_{0,n-1} + E_{n-1,0});
        # the wrap contributes x_{n-1} - x_0 = (n-1)/n instead of the
        # interior step h, hence the extra seam matrix
        n = 32
        pair = periodic_pair(n)
        comm = pair.A @ pair.B - pair.B @ pair.A
        avg = np.zeros((n, n))
        for j in range(n):
            avg[j, (j + 1) % n] = 0.5
            avg[j, (j - 1) % n] = 0.5
        seam = np.zeros((n, n))
        seam[0, n - 1] = 1.0
        seam[n - 1, 0] = 1.0
        expected = 1j * avg - (1j / (2.0 * pair.h)) * seam
        assert frob(comm - expected) <= 1e-12 * frob(expected)

    def test_residual_small_on_test_domain(self):
        pair = periodic_pair(256)
        for v in pair.test_domain:
            assert commutation_residual(pair, v) <= 0.5 * (pair.h * 256 / 16) ** 2

    def test_constant_vector_feels_the_seam(self):
        pair = periodic_pair(128)
        const = np.ones(128) / np.sqrt(128.0)
        assert commutation_residual(pair, const) >= 0.5

    def test_vectors_vanish_at_seam(self):
        pair = periodic_pair(64)
        for v in pair.test_domain:
            assert abs(v[0]) <= 1e-10 and abs(v[-1]) <= 1e-10
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def _assert_one_sided_difference_fails(monkeypatch):
    # negative control: a forward difference is first order, so both
    # convergence checks must leave the [1.7, 2.3] band
    def forward(v, h, periodic):
        up = np.roll(v, -1, axis=0)
        if not periodic:
            up[-1] = 0.0
        return (up - v) / h

    monkeypatch.setattr(heisenberg, "_difference", forward)
    checks = {c["id"]: c for c in heisenberg_grid_checks()}
    for name in ("line", "circle"):
        check = checks[f"heisenberg/convergence/{name}"]
        assert not check["pass"]
        assert abs(check["details"]["mean_order"] - 1.0) <= 0.05


class TestHcrResidual:
    def test_line_convergence(self):
        report = hcr_residual(schrodinger_pair(128, 10.0), refinements=3)
        assert report.grid_sizes == (128, 256, 512)
        assert all(1.7 <= p <= 2.3 for p in report.orders)
        finest = [r[3] for r in report.rows if r[0] == 512]
        assert max(finest) <= 2e-3

    def test_spec_instance_residual(self):
        pair = schrodinger_pair(256, 10.0)
        sigma_one = [
            v for (s, _), v in zip(pair.test_params, pair.test_domain) if s == 1.0
        ]
        assert sigma_one, "the default family includes sigma = 1 Gaussians"
        for v in sigma_one:
            assert commutation_residual(pair, v) <= 5e-3

    def test_circle_convergence(self):
        report = hcr_residual(periodic_pair(128), refinements=3)
        assert all(1.7 <= p <= 2.3 for p in report.orders)

    def test_zero_vector_rejected(self):
        pair = periodic_pair(32)
        with pytest.raises(ValueError):
            commutation_residual(pair, np.zeros(32))

    @pytest.mark.parametrize("shape", [(31,), (1,), (32, 1), (2, 32)])
    def test_vector_of_another_shape_rejected(self, shape):
        # the stencil would broadcast a length-1 vector instead of failing
        with pytest.raises(ShapeMismatch):
            commutation_residual(periodic_pair(32), np.ones(shape))

    def test_residuals_read_no_dense_matrix(self, monkeypatch):
        def refuse(pair):
            raise AssertionError(f"dense matrix read at n={pair.n}")

        for name in ("A", "B"):
            monkeypatch.setattr(heisenberg.DiscretizedPair, name, property(refuse))
        for pair in (schrodinger_pair(128, 10.0), periodic_pair(128)):
            assert hcr_residual(pair, refinements=3).grid_sizes == (128, 256, 512)

    def test_one_sided_difference_fails_convergence(self, monkeypatch):
        _assert_one_sided_difference_fails(monkeypatch)

    def test_one_sided_difference_fails_after_a_suite_run(self, monkeypatch):
        # the suite keeps its grid records for the process, but
        # heisenberg_grid_checks measures afresh on every call
        assert all(c["pass"] for c in _suite_heisenberg(ExperimentConfig(dims=(2,))))
        _assert_one_sided_difference_fails(monkeypatch)

    def test_no_measured_order_fails_convergence(self, monkeypatch):
        # a zero residual gives no order at any doubling: both convergence
        # checks must FAIL on the empty list instead of passing it
        monkeypatch.setattr(heisenberg, "commutation_residual", lambda pair, v: 0.0)
        checks = [
            c for c in heisenberg_grid_checks() if c["id"].startswith("heisenberg/convergence/")
        ]
        assert len(checks) == 2
        for check in checks:
            assert check["details"]["orders"] == []
            assert check["pass"] is False
            assert check["margin"] == np.inf


class TestTraceObstruction:
    def test_equal_matrices(self):
        a = random_hermitian(5, seed=1)
        tr_abs, gap, bound = trace_obstruction(a, a)
        assert tr_abs <= 1e-14
        assert abs(gap - np.sqrt(5)) <= 1e-12
        assert bound == np.sqrt(5)

    def test_discretized_pair(self):
        pair = schrodinger_pair(64, 10.0)
        tr_abs, gap, bound = trace_obstruction(pair.A, pair.B)
        assert gap >= 8.0  # sqrt(64)
        scale = np.linalg.norm(pair.A, 2) * np.linalg.norm(pair.B, 2)
        assert tr_abs <= 1e-9 * 64 * scale

    def test_random_hermitian_pair(self):
        a = random_hermitian(10, seed=2)
        b = random_hermitian(10, seed=3)
        tr_abs, gap, bound = trace_obstruction(a, b)
        assert tr_abs <= 1e-10
        assert gap >= np.sqrt(10) - 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            trace_obstruction(np.eye(2), np.eye(3))


class TestRigidity:
    def test_distinct_diagonal(self):
        report = rigidity_check(np.diag([0.0, 1.0, 2.0]), trials=10)
        assert report.kernel_dim == 3
        assert report.max_relative_commutator <= 1e-10

    def test_identity_vacuous(self):
        report = rigidity_check(np.eye(3), trials=5)
        assert report.kernel_dim == 9
        assert report.max_relative_commutator <= RIGIDITY_TOL

    def test_random_with_multiplicities(self, gapped_hermitian):
        from derivlab.cli import generate

        d = generate(
            "hermitian_with_multiplicity", 8, 6, multiplicities=[2, 2, 1, 1, 1, 1]
        )
        report = rigidity_check(d, trials=50)
        assert report.kernel_dim == 4 + 4 + 4
        assert report.max_relative_commutator <= RIGIDITY_TOL

    def test_nan_sample_fails(self, monkeypatch):
        # one NaN entry in the sampled basis makes every sample NaN; the
        # maximum must stay NaN, which no bound passes
        d = np.diag([0.0, 1.0, 1.0])
        levels = heisenberg.ad_kernel_tower(d, 2)
        basis = levels[1].basis.copy()
        basis[0, 0, 0] = np.nan
        tower = [levels[0], SimpleNamespace(dim=levels[1].dim, basis=basis)]
        monkeypatch.setattr(heisenberg, "ad_kernel_tower", lambda d, k_max, rank_tol: tower)
        assert np.isnan(rigidity_check(d, trials=20).max_relative_commutator)
        check = heisenberg_rigidity_check("heisenberg/rigidity/nan", d, seed=0)
        assert check["pass"] is False

    def test_kleinecke_shirokov_control_fails(self):
        # negative control: for the Jordan block N (not normal) and
        # x = diag(0, ..., n-1), [N, x] = N commutes with N yet is not zero
        n = 4
        nil = np.diag(np.ones(n - 1), 1)
        eye = np.eye(n)
        ad = 1j * (kron(eye, nil) - kron(nil.T, eye))
        comm_n, sq_kernel = map_kernels(ad, n, k_max=2)
        assert (comm_n.dim, sq_kernel.dim) == (4, 7)
        x = np.diag(np.arange(n, dtype=float))
        y = nil @ x - x @ nil
        assert np.array_equal(y, nil)
        assert membership_residual(sq_kernel, x) <= 1e-14
        assert membership_residual(comm_n, y) <= 1e-14
        # heisenberg_rigidity_check takes Hermitian D only, so the
        # measured value is held against its bound directly
        relative = frob(y) / (frob(nil) * frob(x))
        assert relative / RIGIDITY_TOL >= 1e3
