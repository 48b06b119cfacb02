import importlib
import tracemalloc

import numpy as np
import pytest

from derivlab.cli import DEFAULT_DISTANCE_TOL, _spectral_instances, kernel_stab_check
from derivlab.derivation import (
    DEFAULT_T_GRID,
    Superoperator,
    ad_apply,
    ad_kernel_tower,
    ad_superoperator,
    difference_quotient_check,
    flow,
    kernel_stabilization_report,
    pairing_derivative_check,
)
from derivlab.errors import ZeroT
from derivlab.numlin import (
    OperatorSubspace,
    commutator_frame_block,
    frob,
    from_frame,
    hermitian_tridiagonal,
    kernel_tower,
    kron,
    nullspace,
    subspace_distance,
    vec,
)
from derivlab.spectral import spectral_resolution

from conftest import (
    eigenbasis_kernel_oracle,
    frame_matrix,
    frame_route_kernels,
    iterated_commutator,
    matrix_unit,
    membership_residual,
    random_hermitian,
    random_matrix,
    reduction_cases,
    superoperator_stabilization_report,
    unvec,
)


class TestAdSuperoperator:
    def test_identity_generator_is_zero(self):
        sop = ad_superoperator(np.eye(3))
        assert frob(sop.matrix) == 0.0

    def test_unit_eigenvector(self):
        d = np.diag([0.0, 1.0, 2.0])
        x = matrix_unit(3, 0, 2)
        out = unvec(ad_superoperator(d).matrix @ vec(x), 3)
        assert frob(out - (-2j) * x) <= 1e-14

    def test_matrix_action_matches_direct_commutator(self):
        d = random_hermitian(5, seed=21)
        x = random_matrix(5, seed=22)
        sop = ad_superoperator(d)
        direct = ad_apply(d, x)  # oracle: i(Dx - xD) without vectorization
        out = unvec(sop.matrix @ vec(x), 5)
        assert frob(out - direct) <= 1e-12 * max(1.0, frob(direct))

    def test_spectrum_is_eigenvalue_differences(self):
        d = random_hermitian(4, seed=23)
        w = np.linalg.eigvalsh(d)
        # sort key quantizes the real part at the matching tolerance: the
        # computed real parts are pure roundoff around 0
        key = lambda z: (round(z.real / 1e-8), z.imag)
        expected = sorted((1j * (wr - wc) for wr in w for wc in w), key=key)
        actual = sorted(np.linalg.eigvals(ad_superoperator(d).matrix), key=key)
        assert np.max(np.abs(np.array(actual) - np.array(expected))) <= 1e-8


class TestIteratedCommutator:
    def test_kernel_element_maps_to_zero(self):
        d = np.diag([0.0, 1.0, 2.0])
        x = np.diag([3.0, -1.0, 2.0])
        assert frob(iterated_commutator(d, x, 1)) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_integer_diagonal_exact(self, k):
        # oracle: entries are exactly (i (d_r - d_c))^k x_rc, and every
        # intermediate product is integer-valued, so equality is exact
        d_vals = np.array([0, 1, 2, 3, 4])
        d = np.diag(d_vals).astype(complex)
        rng = np.random.default_rng(31)
        x = rng.integers(-9, 10, size=(5, 5)).astype(complex)
        expected = np.empty((5, 5), dtype=complex)
        for r in range(5):
            for c in range(5):
                expected[r, c] = (1j * (d_vals[r] - d_vals[c])) ** k * x[r, c]
        assert np.array_equal(iterated_commutator(d, x, k), expected)

    def test_matches_superoperator_power(self):
        d = random_hermitian(4, seed=32)
        x = random_matrix(4, seed=33)
        sop = ad_superoperator(d)
        via_power = unvec(np.linalg.matrix_power(sop.matrix, 3) @ vec(x), 4)
        direct = iterated_commutator(d, x, 3)
        assert frob(direct - via_power) <= 1e-9 * max(1.0, frob(direct))

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            iterated_commutator(np.eye(2), np.eye(2), 0)


class TestDerivationKernel:
    def test_distinct_diagonal_kernel_is_diagonal(self):
        kernel = ad_kernel_tower(np.diag([0.0, 1.0, 2.0]), 1)[-1]
        assert kernel.dim == 3
        for b in kernel.basis:
            assert frob(b - np.diag(np.diag(b))) <= 1e-10

    def test_multiplicity_counts(self):
        kernel = ad_kernel_tower(np.diag([1.0, 1.0, 2.0]), 1)[-1]
        assert kernel.dim == 2**2 + 1**2

    def test_zero_generator_full_space(self):
        kernel = ad_kernel_tower(np.zeros((3, 3)), 1)[-1]
        assert kernel.dim == 9

    def test_contains_identity(self):
        kernel = ad_kernel_tower(random_hermitian(5, seed=41), 1)[-1]
        assert membership_residual(kernel, np.eye(5)) <= 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_eigenbasis_oracle(self, k, gapped_hermitian):
        d = gapped_hermitian(6, 42)
        oracle = eigenbasis_kernel_oracle(d)
        assert subspace_distance(ad_kernel_tower(d, k)[-1], oracle) <= 1e-8


class TestKernelStabilization:
    def test_distinct_diagonal(self):
        report = kernel_stabilization_report(np.diag([0.0, 1.0, 2.0]), 4)
        assert report.kernel_dims == (3, 3, 3, 3)
        assert max(report.distances) <= 1e-8
        assert kernel_stab_check("kernel_stab/diag", np.diag([0.0, 1.0, 2.0]), 4)["pass"]

    def test_identity(self):
        report = kernel_stabilization_report(np.eye(3), 3)
        assert report.kernel_dims == (9, 9, 9)
        assert max(report.distances) <= 1e-12

    def test_double_eigenvalue_instance(self, gapped_hermitian):
        from derivlab.cli import generate

        d = generate(
            "hermitian_with_multiplicity", 8, 5, multiplicities=[2, 1, 1, 1, 1, 1, 1]
        )
        report = kernel_stabilization_report(d, 5)
        # oracle: ker ad^k is spanned by eigen-units with equal eigenvalues,
        # independent of k, so dim = sum of squared multiplicities
        assert report.kernel_dims == (10, 10, 10, 10, 10)
        assert kernel_stab_check("kernel_stab/double", d, 5)["pass"]

    def test_normal_map_measures_one_distance(self, monkeypatch, gapped_hermitian):
        # the tower repeats ker(map) as one object, so one distance serves
        # every level, equal bit for bit to measuring each level apart
        sop = ad_superoperator(gapped_hermitian(5, 43))
        tower = sop.kernel_tower(8)
        apart = tuple(subspace_distance(k, tower[0]) for k in tower)
        module = importlib.import_module("derivlab.derivation")
        calls = []

        def counted(s1, s2):
            calls.append((s1, s2))
            return subspace_distance(s1, s2)

        monkeypatch.setattr(module, "subspace_distance", counted)
        report = superoperator_stabilization_report(sop, 8)
        assert len(calls) == 1
        assert report.distances == apart
        assert report.kernel_dims == (5,) * 8

    def test_invertible_map_has_empty_kernels(self):
        # failures are report content, so an empty kernel must not raise
        report = superoperator_stabilization_report(Superoperator(2, 2 * np.eye(4)), 3)
        assert report.kernel_dims == (0, 0, 0)
        assert report.distances == (0.0, 0.0, 0.0)


def _power_route_kernel(sop, k, rank_tol=1e-10):
    """The former route, kept as an oracle: one SVD of the k-th matrix
    power, whose singular values |lambda_r - lambda_c|^k push its error
    up as eps (spread/gap)^k."""
    return OperatorSubspace.from_vec_columns(
        sop.ambient_dim,
        nullspace(np.linalg.matrix_power(sop.matrix, k), rank_tol, scale=1.0),
    )


class TestKernelTower:
    def test_jordan_control_fails(self):
        # negative control: x -> Nx - xN for the 4x4 Jordan block N is not
        # normal, its kernels grow with the power, and the report must
        # say so with a wide margin.  kernel_stab_check takes Hermitian D
        # only, so the distances are held against its bound directly
        nil = np.diag(np.ones(3), 1)
        eye = np.eye(4)
        sop = Superoperator(4, kron(eye, nil) - kron(nil.T, eye))
        report = superoperator_stabilization_report(sop, 5)
        assert report.kernel_dims == (4, 7, 10, 12, 14)
        within = [dist <= DEFAULT_DISTANCE_TOL for dist in report.distances]
        assert within == [True, False, False, False, False]
        assert min(report.distances[1:]) / DEFAULT_DISTANCE_TOL >= 1e3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_power_route_and_eigenbasis_oracle(self, n):
        # the power route's own error reaches 3.7e-12 at n=6, k=5, so its
        # distances are compared up to k=4 and its dims up to k=5
        for _, d in _spectral_instances(n, 7):
            sop = ad_superoperator(d)
            tower = sop.kernel_tower(5)
            oracle = eigenbasis_kernel_oracle(d)
            for k, kernel in enumerate(tower, start=1):
                power = _power_route_kernel(sop, k)
                assert kernel.dim == power.dim == oracle.dim
                assert subspace_distance(kernel, oracle) <= 1e-12
                if k <= 4:
                    assert subspace_distance(kernel, power) <= 1e-12

    def test_report_and_derivation_kernel_use_the_tower(self, gapped_hermitian):
        d = gapped_hermitian(5, 43)
        tower = ad_superoperator(d).kernel_tower(4)
        report = kernel_stabilization_report(d, 4)
        assert report.kernel_dims == tuple(k.dim for k in tower)
        assert subspace_distance(ad_kernel_tower(d, 4)[-1], tower[3]) <= 1e-14


def _complex_route_tower(sop, k_max, rank_tol=1e-10):
    """The kernel tower of the map's complex matrix at scale 1."""
    return [
        OperatorSubspace.from_vec_columns(sop.ambient_dim, q)
        for q in kernel_tower(sop.matrix, k_max, rank_tol, scale=1.0)
    ]


class TestHermitianFrameRoute:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_ad_is_exactly_real_in_the_frame(self, n):
        t = from_frame(np.eye(n * n), n)
        for _, d in _spectral_instances(n, 21):
            m = ad_superoperator(d).matrix
            frame = frame_matrix(m, n)
            assert not frame.imag.any()
            assert frob(frame - t.conj().T @ m @ t) <= 1e-13 * max(1.0, frob(m))

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_real_and_complex_routes_agree(self, n):
        # the complex SVD of Superoperator.kernel_tower against the float64
        # SVD of the same map in the frame
        for _, d in _spectral_instances(n, 22):
            sop = ad_superoperator(d)
            tower = sop.kernel_tower(8)
            oracle = frame_route_kernels(sop.matrix, n, 8)
            assert [k.dim for k in tower] == [k.dim for k in oracle]
            for k_complex, k_real in zip(tower, oracle):
                assert subspace_distance(k_complex, k_real) <= 1e-12

    def test_jordan_control_stays_complex(self):
        nil = np.diag(np.ones(3), 1)
        eye = np.eye(4)
        sop = Superoperator(4, kron(eye, nil) - kron(nil.T, eye))
        assert frame_matrix(sop.matrix, 4).imag.any()
        for k_map, k_complex in zip(sop.kernel_tower(5), _complex_route_tower(sop, 5)):
            assert np.array_equal(k_map.basis, k_complex.basis)

    def test_generator_hermitian_only_to_roundoff_stays_complex(self, gapped_hermitian):
        d = gapped_hermitian(5, 23)
        d = d + 1e-13 * random_matrix(5, seed=24)  # within is_hermitian's 1e-12
        sop = ad_superoperator(d)
        assert frame_matrix(sop.matrix, 5).imag.any()
        for k_map, k_complex in zip(sop.kernel_tower(3), _complex_route_tower(sop, 3)):
            assert np.array_equal(k_map.basis, k_complex.basis)


_REDUCTION_CASES = reduction_cases()


class TestAdKernelTower:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_block_is_the_frame_matrix_of_ad(self, n):
        # the frame matrix of i[T, .] is [[0, -Q^T], [Q, 0]], sym then antisym
        d = _REDUCTION_CASES["one_by_one"] if n == 1 else _spectral_instances(n, 31)[0][1]
        t = hermitian_tridiagonal(d)[1]
        q = commutator_frame_block(t)
        sym = n * (n + 1) // 2
        assert q.shape == (n * n - sym, sym) and q.dtype == np.float64
        assert np.max(np.count_nonzero(q, axis=0), initial=0) <= 5
        frame = frame_matrix(ad_superoperator(t).matrix, n)
        assert not frame.imag.any()
        frame = frame.real
        assert not frame[:sym, :sym].any() and not frame[sym:, sym:].any()
        assert np.max(np.abs(frame[sym:, :sym] - q), initial=0.0) <= 1e-14 * max(1.0, frob(t))
        assert np.max(np.abs(frame[:sym, sym:] + q.T), initial=0.0) <= 1e-14 * max(1.0, frob(t))

    @pytest.mark.parametrize("case", sorted(_REDUCTION_CASES))
    def test_matches_the_superoperator_route(self, case):
        d = _REDUCTION_CASES[case]
        tower = ad_kernel_tower(d, 8)
        oracle = ad_superoperator(d).kernel_tower(8)
        assert [k.dim for k in tower] == [k.dim for k in oracle]
        for level, dense in zip(tower, oracle):
            assert subspace_distance(level, dense) <= 1e-12
        # ad_iD is normal: every level is the one object of ker ad_iD
        assert all(level is tower[0] for level in tower)

    @pytest.mark.parametrize("n", [16, 24])
    def test_traced_peak_stays_below_two_complex_superoperators(self, n):
        # the report and the whole check stay under one complex n^2 x n^2
        # array: the dense route peaked at about 3.5, and the block SVD
        # with the tower's dense range bases at about 1.5
        for _, d in _spectral_instances(n, 7):
            for run in (
                lambda: kernel_stabilization_report(d, 8),
                lambda: kernel_stab_check("kernel_stab/peak", d, 8),
            ):
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 16 * n**4


class TestDerivationAlgebra:
    @pytest.mark.parametrize("seed", range(5))
    def test_leibniz_rule(self, seed):
        d = random_hermitian(4, seed=100 + seed)
        x = random_matrix(4, seed=200 + seed)
        y = random_matrix(4, seed=300 + seed)
        lhs = ad_apply(d, x @ y)
        rhs = ad_apply(d, x) @ y + x @ ad_apply(d, y)
        assert frob(lhs - rhs) <= 1e-10 * max(1.0, frob(lhs))

    @pytest.mark.parametrize("seed", range(5))
    def test_star_derivation(self, seed):
        d = random_hermitian(4, seed=400 + seed)
        x = random_matrix(4, seed=500 + seed)
        assert frob(ad_apply(d, x.conj().T) - ad_apply(d, x).conj().T) <= 1e-12

    def test_kernel_is_unital_star_algebra(self, gapped_hermitian):
        kernel = ad_kernel_tower(gapped_hermitian(5, 77), 1)[-1]
        assert membership_residual(kernel, np.eye(5)) <= 1e-9
        for a in kernel.basis[:3]:
            assert membership_residual(kernel, a.conj().T) <= 1e-9
            for b in kernel.basis[:3]:
                assert membership_residual(kernel, a @ b) <= 1e-9

    def test_kernel_dim_is_sum_of_squared_multiplicities(self, gapped_hermitian):
        from derivlab.cli import generate

        for n, mult in [(4, [2, 2]), (5, [3, 1, 1]), (6, [2, 2, 2])]:
            d = generate("hermitian_with_multiplicity", n, 11, multiplicities=mult)
            res = spectral_resolution(d)
            assert sorted(res.multiplicities) == sorted(mult)
            assert ad_kernel_tower(d, 1)[-1].dim == sum(m**2 for m in mult)


class TestFlow:
    def test_t_zero(self):
        d = random_hermitian(4, seed=51)
        x = random_matrix(4, seed=52)
        res = spectral_resolution(d)
        assert frob(flow(res, x, 0.0) - x) <= 1e-12

    def test_kernel_elements_are_fixed(self, gapped_hermitian):
        d = gapped_hermitian(4, 53)
        res = spectral_resolution(d)
        kernel = ad_kernel_tower(d, 1)[-1]
        for t in (0.3, -1.7, 4.0):
            for b in kernel.basis[:3]:
                assert frob(flow(res, b, t) - b) <= 1e-9

    def test_scalar_conjugation(self):
        res = spectral_resolution(np.diag([0.0, 1.0]))
        x = matrix_unit(2, 0, 1)
        for t in (0.4, 1.9):
            # oracle: e^{it*0} * 1 * e^{-it*1} = e^{-it}
            assert frob(flow(res, x, t) - np.exp(-1j * t) * x) <= 1e-12

    def test_norm_preservation(self):
        d = random_hermitian(5, seed=54)
        x = random_matrix(5, seed=55)
        res = spectral_resolution(d)
        assert abs(frob(flow(res, x, 0.83)) - frob(x)) <= 1e-9


class TestDifferenceQuotient:
    def test_kernel_element_zero_residual(self, gapped_hermitian):
        d = gapped_hermitian(4, 61)
        res = spectral_resolution(d)
        kernel = ad_kernel_tower(d, 1)[-1]
        report = difference_quotient_check(res, d, kernel.basis[0])
        assert max(report.residuals) <= 1e-10
        assert report.passed

    def test_first_order_convergence(self):
        d = random_hermitian(4, seed=62)
        x = random_matrix(4, seed=63)
        res = spectral_resolution(d)
        report = difference_quotient_check(
            res, d, x, t_list=[1e-2, 5e-3, 2.5e-3]
        )
        ratios = [
            report.residuals[i] / report.residuals[i + 1]
            for i in range(len(report.residuals) - 1)
        ]
        for ratio in ratios:
            assert abs(ratio - 2.0) <= 0.2
        assert report.passed

    def test_scalar_lipschitz_is_exact(self):
        d = np.diag([0.0, 1.0])
        res = spectral_resolution(d)
        x = matrix_unit(2, 0, 1)
        report = difference_quotient_check(res, d, x, t_list=[0.5, 0.1, 1e-3])
        for t, ratio in zip(report.t_values, report.lipschitz_ratios):
            # oracle: ||alpha_t(x) - x|| = |e^{-it} - 1| <= |t| exactly
            assert abs(ratio * abs(t) - abs(np.exp(-1j * t) - 1.0)) <= 1e-12
            assert ratio * abs(t) <= abs(t)

    def test_bounds_hold_on_default_grid(self):
        d = random_hermitian(5, seed=64)
        x = random_matrix(5, seed=65)
        res = spectral_resolution(d)
        report = difference_quotient_check(res, d, x)
        assert report.t_values == tuple(DEFAULT_T_GRID)
        for r, rb in zip(report.residuals, report.residual_bounds):
            assert r <= rb
        for l, lb in zip(report.lipschitz_ratios, report.lipschitz_bounds):
            assert l <= lb
        assert report.monotone

    def test_zero_t_rejected(self):
        d = np.eye(2)
        res = spectral_resolution(d)
        with pytest.raises(ZeroT):
            difference_quotient_check(res, d, np.eye(2), t_list=[0.0, 1e-2])


class TestPairingDerivative:
    def test_kernel_element(self, gapped_hermitian):
        d = gapped_hermitian(3, 71)
        res = spectral_resolution(d)
        kernel = ad_kernel_tower(d, 1)[-1]
        h = np.array([1.0, 0.0, 0.0])
        k = np.array([0.0, 1.0, 0.0])
        assert pairing_derivative_check(res, d, kernel.basis[0], h, k, 0.2, 1e-3) <= 1e-12

    def test_scalar_case(self):
        d = np.diag([0.0, 1.0])
        res = spectral_resolution(d)
        x = matrix_unit(2, 0, 1)
        h = np.array([0.0, 1.0])
        k = np.array([1.0, 0.0])
        delta = 1e-3
        residual = pairing_derivative_check(res, d, x, h, k, 0.0, delta)
        # oracle: the pairing is s -> e^{-is}; the central difference of it
        # misses the derivative -i by exactly |1 - sin(delta)/delta|
        assert abs(residual - abs(1.0 - np.sin(delta) / delta)) <= 1e-14
        assert residual <= delta**2

    def test_quadratic_convergence(self):
        d = random_hermitian(6, seed=72)
        x = random_matrix(6, seed=73)
        res = spectral_resolution(d)
        rng = np.random.default_rng(74)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        k = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        r1 = pairing_derivative_check(res, d, x, h, k, 0.3, 1e-3)
        r2 = pairing_derivative_check(res, d, x, h, k, 0.3, 5e-4)
        assert abs(r1 / r2 - 4.0) <= 1.0
        bound = frob(d) ** 3 * frob(x) * np.linalg.norm(h) * np.linalg.norm(k)
        assert r1 <= bound * (1e-3) ** 2
