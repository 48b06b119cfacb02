import numpy as np
import pytest

from derivlab.errors import AmbiguousClustering
from derivlab.numlin import frob
from derivlab.spectral import DEFAULT_CLUSTER_TOL, spectral_resolution, unitary_group

from conftest import (
    functional_calculus,
    projection_commutation_check,
    random_hermitian,
    random_matrix,
)


class TestSpectralResolution:
    def test_distinct_diagonal(self):
        res = spectral_resolution(np.diag([0.0, 1.0, 2.0]), cluster_tol=1e-8)
        assert np.allclose(res.values, [0.0, 1.0, 2.0])
        assert list(res.multiplicities) == [1, 1, 1]
        for p in res.projections:
            assert abs(np.trace(p) - 1.0) <= 1e-12

    def test_identity_single_cluster(self):
        res = spectral_resolution(np.eye(3))
        assert len(res.values) == 1
        assert list(res.multiplicities) == [3]
        assert frob(res.projections[0] - np.eye(3)) <= 1e-12

    def test_near_degenerate_merge(self):
        # oracle: the eigenvalues of a diagonal matrix are its entries
        d = np.diag([1.0, 1.0 + 1e-12, 5.0])
        res = spectral_resolution(d, cluster_tol=1e-8)
        assert len(res.values) == 2
        assert list(res.multiplicities) == [2, 1]

    def test_ambiguous_gap(self):
        with pytest.raises(AmbiguousClustering):
            spectral_resolution(np.diag([0.0, 1e-8]), cluster_tol=1e-8)

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (9, 2)])
    def test_resolution_invariants(self, n, seed, gapped_hermitian):
        d = gapped_hermitian(n, seed)
        res = spectral_resolution(d)
        total = np.zeros((n, n), dtype=complex)
        for p, m in zip(res.projections, res.multiplicities):
            assert frob(p @ p - p) <= 1e-10
            assert frob(p - p.conj().T) <= 1e-10
            assert int(round(np.trace(p).real)) == m
            total += p
        assert frob(total - np.eye(n)) <= 1e-10
        for i, p in enumerate(res.projections):
            for q in res.projections[i + 1 :]:
                assert frob(p @ q) <= 1e-10
        scale = max(DEFAULT_CLUSTER_TOL * len(res.values), 1e-9)
        rebuilt = functional_calculus(res, res.values)
        assert frob(d - rebuilt) <= scale * max(1.0, np.linalg.norm(d, 2))
        assert int(np.sum(res.multiplicities)) == n


class TestBorelCalculus:
    """The projections of a resolution of an ungapped random matrix carry
    a functional calculus: f = 1 gives I, f = id gives D, and f -> f(D)
    is multiplicative."""

    def test_constant_one_gives_identity(self):
        res = spectral_resolution(random_hermitian(4, seed=3))
        assert frob(functional_calculus(res, np.ones(len(res.values))) - np.eye(4)) <= 1e-10

    def test_identity_function_rebuilds(self):
        d = random_hermitian(5, seed=4)
        res = spectral_resolution(d)
        assert frob(functional_calculus(res, res.values) - d) <= 1e-9 * max(1.0, frob(d))

    def test_multiplicative(self):
        res = spectral_resolution(random_hermitian(6, seed=5))
        k = len(res.values)
        rng = np.random.default_rng(8)
        f = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        g = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        lhs = functional_calculus(res, f * g)
        rhs = functional_calculus(res, f) @ functional_calculus(res, g)
        assert frob(lhs - rhs) <= 1e-9
        sum_lhs = functional_calculus(res, f + g)
        sum_rhs = functional_calculus(res, f) + functional_calculus(res, g)
        assert frob(sum_lhs - sum_rhs) <= 1e-9


class TestUnitaryGroup:
    def test_t_zero(self):
        res = spectral_resolution(random_hermitian(4, seed=6))
        assert frob(unitary_group(res, 0.0) - np.eye(4)) <= 1e-12

    def test_scalar_exponentials(self):
        res = spectral_resolution(np.diag([0.0, np.pi]))
        u = unitary_group(res, 1.0)
        assert frob(u - np.diag([1.0, -1.0])) <= 1e-12

    def test_inverse_and_group_law(self):
        res = spectral_resolution(random_hermitian(5, seed=7))
        s, t = 0.37, -1.21
        u_s, u_t = unitary_group(res, s), unitary_group(res, t)
        assert frob(u_s @ unitary_group(res, -s) - np.eye(5)) <= 1e-10
        assert frob(u_s @ u_t - unitary_group(res, s + t)) <= 1e-9
        assert frob(u_s.conj().T @ u_s - np.eye(5)) <= 1e-10

    @pytest.mark.parametrize("t", [1e-3, 2.5e-4])
    def test_strong_differentiability(self, t):
        d = random_hermitian(6, seed=8)
        res = spectral_resolution(d)
        quotient = (unitary_group(res, t) - np.eye(6)) / t
        assert frob(quotient - 1j * d) <= frob(d) ** 2 * abs(t)


class TestProjectionCommutation:
    def test_identity_input(self):
        res = spectral_resolution(random_hermitian(4, seed=9))
        assert projection_commutation_check(res, np.eye(4)) <= 1e-14

    def test_projection_input(self):
        res = spectral_resolution(np.diag([0.0, 1.0, 2.0]))
        # [D, P_1] = 0, so both nested commutators vanish
        assert projection_commutation_check(res, res.projections[0]) <= 1e-12

    def test_random_pairs(self):
        worst = 0.0
        for seed in range(100):
            n = 2 + seed % 11
            d = random_hermitian(n, seed=1000 + seed)
            x = random_matrix(n, seed=2000 + seed)
            res = spectral_resolution(d)
            residual = projection_commutation_check(res, x)
            bound = 1e-9 * (1.0 + frob(d) ** 2 * frob(x))
            assert residual <= bound
            worst = max(worst, residual / bound)
        assert worst <= 1.0
