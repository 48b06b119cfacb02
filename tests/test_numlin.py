import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from derivlab import numlin
from derivlab.errors import (
    AmbientMismatch,
    DimensionOverflow,
    NotHermitian,
    ShapeMismatch,
)
from derivlab.numlin import (
    OperatorSubspace,
    as_cmatrix,
    containment_residual,
    expm,
    frob,
    from_frame,
    hermitian_eig,
    block_kernel_tower,
    hermitian_tridiagonal,
    kernel_tower,
    kron,
    map_kernels,
    nullspace,
    real_frame,
    subspace_distance,
    vec,
)

from conftest import (
    from_spanning,
    matrix_unit,
    membership_residual,
    random_hermitian,
    random_matrix,
    read_matrix_text,
    reduction_cases,
    unvec,
)


class TestHermitianEig:
    def test_identity(self):
        w, u = hermitian_eig(np.eye(3))
        assert np.allclose(w, [1, 1, 1])
        assert frob(u.conj().T @ u - np.eye(3)) <= 1e-10

    def test_diagonal_is_permuted_ascending(self):
        w, u = hermitian_eig(np.diag([2.0, 0.0, 1.0]))
        assert np.allclose(w, [0, 1, 2])
        # columns of u are (up to phase) permutation vectors
        assert np.allclose(np.abs(u), np.eye(3)[:, [1, 2, 0]])

    def test_reconstruction_random(self):
        m = random_hermitian(5, seed=11)
        w, u = hermitian_eig(m)
        rebuilt = u @ np.diag(w) @ u.conj().T  # oracle: direct multiplication
        assert frob(m - rebuilt) <= 1e-10 * max(1.0, frob(m))
        assert frob(u.conj().T @ u - np.eye(5)) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


_REDUCTION_CASES = reduction_cases()


class TestHermitianTridiagonal:
    @pytest.mark.parametrize("case", sorted(_REDUCTION_CASES))
    def test_unitary_reduction_to_real_tridiagonal(self, case):
        d = _REDUCTION_CASES[case]
        n = d.shape[0]
        eps = np.finfo(float).eps
        w, t = hermitian_tridiagonal(d)
        assert frob(w.conj().T @ w - np.eye(n)) <= 10 * n * eps
        assert frob(w @ t @ w.conj().T - d) <= 10 * n * eps * frob(d)
        assert t.dtype == np.float64
        assert np.array_equal(t, t.T)
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
        assert not np.any(t[~band])

    def test_reduced_matrices_keep_their_form(self):
        # a diagonal matrix needs no reflection and no phase
        w, t = hermitian_tridiagonal(np.diag([3.0, -1.0, 0.5]))
        assert np.array_equal(w, np.eye(3))
        assert np.array_equal(t, np.diag([3.0, -1.0, 0.5]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_tridiagonal(matrix_unit(3, 0, 2))


class TestNullspace:
    def test_zero_matrix_full_space(self):
        basis = nullspace(np.zeros((3, 3)))
        assert basis.shape == (3, 3)

    def test_diagonal_single_zero(self):
        basis = nullspace(np.diag([1.0, 0.0, 2.0]))
        assert basis.shape == (3, 1)
        assert abs(abs(basis[1, 0]) - 1.0) <= 1e-12

    def test_rank_one_projector(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        m = np.outer(u, u.conj())
        basis = nullspace(m)
        assert basis.shape == (4, 3)
        # oracle: the orthogonal complement of u
        assert np.max(np.abs(u.conj() @ basis)) <= 1e-12
        assert np.max(np.abs(m @ basis)) <= 1e-10

    @pytest.mark.parametrize("diag", [[3.0, 0.0, 0.0, -2.0], [1e-3, 0.0, 5.0]])
    def test_diagonal_soundness(self, diag):
        d = np.array(diag)
        expected = int(np.sum(d == 0.0))
        basis = nullspace(np.diag(d), rank_tol=1e-10)
        assert basis.shape[1] == expected

    def test_wide_matrix(self):
        m = np.array([[1.0, 0.0, 0.0]])
        basis = nullspace(m)
        assert basis.shape == (3, 2)
        assert np.max(np.abs(m @ basis)) <= 1e-12

    def test_residual_contract(self):
        m = random_matrix(6, seed=17)
        m = m @ np.diag([1, 1, 1, 0, 0, 1]) @ np.linalg.inv(m)
        basis = nullspace(m, rank_tol=1e-8)
        smax = np.linalg.norm(m, 2)
        for j in range(basis.shape[1]):
            assert np.linalg.norm(m @ basis[:, j]) <= 1e-8 * smax


def _projector_gap(q1, q2):
    # Frobenius distance between the projectors onto two column spans
    return frob(q1 @ q1.conj().T - q2 @ q2.conj().T)


def _normal_with_kernel_dim_3():
    u = np.linalg.qr(random_matrix(6, seed=5))[0]
    return u @ np.diag([0, 0, 1, 2j, -3, 0]) @ u.conj().T


class TestKernelTower:
    def test_jordan_block_grows_one_per_power(self):
        # oracle: N e_j = e_{j-1}, so ker N^k = span(e_0, ..., e_{k-1})
        n = np.diag(np.ones(3), 1)
        tower = kernel_tower(n, 6)
        assert [q.shape[1] for q in tower] == [1, 2, 3, 4, 4, 4]
        for k, q in enumerate(tower, start=1):
            assert _projector_gap(q, np.eye(4)[:, : min(k, 4)]) <= 1e-12

    def test_first_kernel_is_nullspace(self):
        m = random_matrix(6, seed=17)
        m = m @ np.diag([1, 1, 1, 0, 0, 1]) @ np.linalg.inv(m)
        q = kernel_tower(m, 1, rank_tol=1e-8)[0]
        assert _projector_gap(q, nullspace(m, rank_tol=1e-8)) <= 1e-10

    def test_similar_jordan_form_matches_power_route(self):
        # J_3 (+) J_2 (+) diag(1.5, -2) conjugated by a well-conditioned S:
        # dim ker M^k = min(k, 3) + min(k, 2) = 2, 4, 5, 5, 5
        jordan = np.zeros((7, 7), dtype=complex)
        jordan[0, 1] = jordan[1, 2] = jordan[3, 4] = 1.0
        jordan[5, 5], jordan[6, 6] = 1.5, -2.0
        s = np.eye(7) + 0.2 * random_matrix(7, seed=3)
        m = s @ jordan @ np.linalg.inv(s)
        tower = kernel_tower(m, 5)
        assert [q.shape[1] for q in tower] == [2, 4, 5, 5, 5]
        for k, q in enumerate(tower, start=1):
            oracle = nullspace(np.linalg.matrix_power(m, k))
            assert _projector_gap(q, oracle) <= 1e-10
            assert np.linalg.norm(np.linalg.matrix_power(m, k) @ q) <= 1e-10

    @pytest.mark.parametrize("t", [1e-3, 1e-6])
    def test_range_near_kernel_does_not_grow(self, t):
        # M = [[0, 1], [0, t]]: range (1, t) makes an angle ~t with
        # ker M = span(e_0), and ker M^k = ker M for t != 0.  At t = 1e-6,
        # 1 - cos ~ 5e-13 would pass a cosine cut of 1e-10; the sine ~1e-6
        # does not.
        m = np.array([[0.0, 1.0], [0.0, t]])
        tower = kernel_tower(m, 3)
        assert [q.shape[1] for q in tower] == [1, 1, 1]
        for k, q in enumerate(tower, start=1):
            oracle = nullspace(np.linalg.matrix_power(m, k))
            assert _projector_gap(q, oracle) <= 1e-12
        m[1, 1] = 0.0
        assert [q.shape[1] for q in kernel_tower(m, 3)] == [1, 2, 2]

    @pytest.mark.parametrize(
        "m, dims, svds",
        [
            (_normal_with_kernel_dim_3(), [3] * 8, 2),
            (np.diag(np.ones(1), 1), [1, 2, 2], 3),
            (np.diag(np.ones(3), 1), [1, 2, 3, 4, 4, 4], 5),
        ],
        ids=["normal", "nilpotent-2", "jordan-4"],
    )
    def test_svds_per_tower(self, monkeypatch, m, dims, svds):
        # each level is a function of the one before: a normal M is at its
        # fixed point after the SVD of Q* U_r for Q = ker M, and every
        # level is the array of ker M; a growing tower takes one SVD per
        # level until the SVD that finds its fixed point, whose array the
        # remaining levels repeat
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(numlin.np.linalg, "svd", counted)
        tower = kernel_tower(m, len(dims))
        assert [q.shape[1] for q in tower] == dims
        assert len(calls) == svds
        repeats = [q is tower[0] for q in tower[1:]]
        assert all(repeats) if svds == 2 else not any(repeats)

    def test_zero_and_invertible_maps(self):
        assert [q.shape[1] for q in kernel_tower(np.zeros((3, 3)), 3)] == [3, 3, 3]
        assert [q.shape[1] for q in kernel_tower(np.eye(3), 3)] == [0, 0, 0]

    def test_rejections(self):
        with pytest.raises(ValueError):
            kernel_tower(np.eye(2), 0)
        with pytest.raises(ValueError):
            kernel_tower(np.eye(2), 2, rank_tol=0.0)
        with pytest.raises(ShapeMismatch):
            kernel_tower(np.ones((2, 3)), 2)


def _assembled(q):
    # A = [[0, -Q^T], [Q, 0]], the matrix block_kernel_tower never forms
    rows, cols = q.shape
    a = np.zeros((rows + cols, rows + cols))
    a[cols:, :cols] = q
    a[:cols, cols:] = -q.T
    return a


_RNG = np.random.default_rng(61)
_BLOCKS = {
    "wide": _RNG.standard_normal((6, 10)),
    "rank-deficient": _RNG.standard_normal((6, 3)) @ _RNG.standard_normal((3, 10)),
    "zero": np.zeros((3, 6)),
    "n=1": np.zeros((0, 1)),  # the block of ad_iT for a 1 x 1 T
}


class TestBlockKernelTower:
    @pytest.mark.parametrize("case", sorted(_BLOCKS))
    def test_block_split_is_the_dense_split(self, case):
        q = _BLOCKS[case]
        a = _assembled(q)
        u_r, s_r, v_r, v_0 = numlin._block_split(q, 1e-10)
        dense = numlin._svd_split(a, 1e-10, 1.0)
        assert s_r.size == dense[1].size
        if s_r.size:
            assert np.max(np.abs(np.sort(s_r)[::-1] - dense[1])) <= 1e-13 * dense[1][0]
        assert v_0.shape[1] == dense[3].shape[1]
        assert _projector_gap(v_0, dense[3]) <= 1e-12
        # the split factors A: A V_r = U_r S_r, A V_0 = 0, all orthonormal
        assert frob(a @ v_r - u_r * s_r) <= 1e-13 * max(1.0, frob(a))
        assert frob(a @ v_0) <= 1e-13 * max(1.0, frob(a))
        for basis in (u_r, np.hstack([v_r, v_0])):
            assert frob(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-13
        tower = block_kernel_tower(q, 4)
        oracle = kernel_tower(a, 4, scale=1.0)
        assert [k.shape[1] for k in tower] == [k.shape[1] for k in oracle]
        for level, dense_level in zip(tower, oracle):
            assert level.dtype == np.float64
            assert _projector_gap(level, dense_level) <= 1e-12

    def test_rejections(self):
        with pytest.raises(ValueError):
            block_kernel_tower(np.ones((1, 3)), 0)
        with pytest.raises(ValueError):
            block_kernel_tower(np.ones((1, 3)), 2, rank_tol=0.0)
        with pytest.raises(ValueError, match="finite"):
            block_kernel_tower(np.array([[np.nan, 0.0, 1.0]]), 2)


class TestRealInputs:
    def test_real_input_gives_real_bases(self):
        m = np.diag([1.0, 0.0, 2.0, 0.0])
        m[0, 1] = 1.0
        basis = nullspace(m)
        assert basis.dtype == np.float64 and basis.shape == (4, 2)
        assert nullspace(np.zeros((3, 3))).dtype == np.float64
        tower = kernel_tower(np.diag(np.ones(3), 1), 3)
        assert [q.dtype for q in tower] == [np.float64] * 3
        assert [q.shape[1] for q in tower] == [1, 2, 3]

    def test_other_inputs_stay_complex(self):
        assert nullspace(np.diag([1, 0, 2])).dtype == np.complex128
        assert kernel_tower(np.diag([1.0 + 0j, 0.0]), 2)[0].dtype == np.complex128

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_real_input_must_be_finite(self, bad):
        with pytest.raises(ValueError):
            nullspace(np.array([[1.0, bad], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            kernel_tower(np.array([[1.0, bad], [0.0, 0.0]]), 2)

    def test_complex_input_is_not_copied(self):
        a = random_matrix(4, seed=3)
        assert np.shares_memory(a, numlin._as_matrix(a))
        real = np.eye(3)
        assert np.shares_memory(real, numlin._as_matrix(real))


class TestExpm:
    """numlin.expm against scipy.linalg.expm and closed forms."""

    def test_zero_matrix_is_identity(self):
        with np.errstate(all="raise"):  # no log2(0) on the way
            e = expm(np.zeros((3, 3)))
        assert frob(e - np.eye(3)) <= 1e-15

    def test_one_by_one(self):
        for z in (0.3 - 2.0j, 3.0 + 40.0j):
            assert abs(expm([[z]])[0, 0] - np.exp(z)) <= 1e-14 * abs(np.exp(z))

    def test_nilpotent_jordan_block_is_a_finite_series(self):
        n = 6
        for c in (1.0, 20.0):  # below and above theta_13: no squaring, then squaring
            nil = c * np.diag(np.ones(n - 1), 1)
            series = sum(
                np.linalg.matrix_power(nil, k) / math.factorial(k) for k in range(n)
            )
            assert frob(expm(nil) - series) <= 1e-14 * frob(series)

    @pytest.mark.parametrize("norm", [50.0, 400.0])
    def test_skew_hermitian_gives_unitary(self, norm):
        h = random_hermitian(8, seed=21)
        h *= norm / np.linalg.norm(h, 1)  # far above theta_13: s squarings run
        u = expm(1j * h)
        assert frob(u.conj().T @ u - np.eye(8)) <= 1e-12
        w, v = hermitian_eig(h)
        oracle = (v * np.exp(1j * w)) @ v.conj().T
        assert frob(u - oracle) <= 1e-12
        assert frob(u - scipy.linalg.expm(1j * h)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_inverse_is_exp_of_minus(self, n):
        x = random_matrix(n, seed=n)
        assert frob(expm(x) @ expm(-x) - np.eye(n)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 5.0, 30.0])
    def test_matches_scipy(self, scale):
        x = random_matrix(7, seed=31, scale=scale / 7)
        oracle = scipy.linalg.expm(x)
        assert frob(expm(x) - oracle) <= 1e-13 * frob(oracle)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            expm([[np.nan]])


class TestHermitianFrame:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_round_trip_is_unitary(self, n):
        t = from_frame(np.eye(n * n), n)
        assert frob(t.conj().T @ t - np.eye(n * n)) <= 1e-14
        assert frob(t @ t.conj().T - np.eye(n * n)) <= 1e-14
        # every column is the vec of a Hermitian matrix, bit for bit
        for column in t.T:
            x = unvec(column, n)
            assert np.array_equal(x, x.conj().T)
        # x -> a x a^T for real a sends Hermitian matrices to Hermitian ones
        a = random_matrix(n, seed=n).real
        m = kron(a, a)
        frame = real_frame(m, n)
        assert frame.dtype == np.float64
        assert frob(t @ frame @ t.conj().T - m) <= 1e-13 * frob(m)
        assert frob(from_frame(frame, n) - m @ t) <= 1e-13 * frob(m)

    def test_blocks_are_changed_one_by_one(self):
        n = 3
        a, b = random_matrix(n, seed=1).real, random_matrix(n, seed=2).real
        blocks = [kron(a, a), kron(b, b)]
        stacked = real_frame(np.vstack(blocks), n)
        assert stacked.shape == (2 * n * n, n * n)
        assert np.array_equal(stacked, np.vstack([real_frame(x, n) for x in blocks]))

    def test_maps_that_are_not_star_preserving_get_none(self):
        n = 3
        a = random_matrix(n, seed=4).real
        assert real_frame(kron(np.eye(n), a), n) is None  # x -> a x
        assert real_frame(1j * kron(a, a), n) is None  # x -> i a x a^T


def _ad(d):
    # the matrix of x -> i(Dx - xD), written out here
    eye = np.eye(d.shape[0])
    return 1j * (kron(eye, d) - kron(d.T, eye))


class TestMapKernels:
    def test_normal_map_repeats_one_subspace(self):
        kernels = map_kernels(_ad(np.diag([0.0, 0.0, 1.0, 3.0])), 4, k_max=4)
        assert all(k is kernels[0] for k in kernels)
        assert kernels[0].dim == 2**2 + 1 + 1
        # factored in the real frame: the basis is Hermitian, bit for bit
        assert all(np.array_equal(b, b.conj().T) for b in kernels[0].basis)

    def test_jordan_map_grows(self):
        nil = np.diag(np.ones(3), 1)
        eye = np.eye(4)
        m = kron(eye, nil) - kron(nil.T, eye)
        kernels = map_kernels(m, 4, k_max=5)
        assert [k.dim for k in kernels] == [4, 7, 10, 12, 14]
        assert len({id(k) for k in kernels}) == 5
        for k, kernel in enumerate(kernels, start=1):
            # oracle: the matrix power annihilates every basis vector
            power = np.linalg.matrix_power(m, k)
            assert np.linalg.norm(power @ kernel.vectors().T) <= 1e-10

    def test_tower_past_the_stabilization_index_does_not_shrink(self):
        # draw 3 of the seed-0 sweep of integer upper-triangular D (n = 5):
        # exact rational arithmetic gives dims 5, 8, 11, 12, 13, 13, ...
        # Past k = 5 rounding drops some candidates, and a tower that does
        # not stop there shrinks: 5, 8, 11, 12, 13, 12, 11, 10, 5, 8.
        d = np.array(
            [
                [0, 3, 6, 4, 4],
                [0, 1, -7, 1, 4],
                [0, 0, 1, -4, -1],
                [0, 0, 0, 1, 8],
                [0, 0, 0, 0, 0],
            ],
            dtype=float,
        )
        eye = np.eye(5)
        m = kron(eye, d) - kron(d.T, eye)
        kernels = map_kernels(m, 5, k_max=10)
        assert [k.dim for k in kernels] == [5, 8, 11, 12, 13] + [13] * 5
        assert all(k is kernels[4] for k in kernels[5:])
        for k, kernel in enumerate(kernels[:6], start=1):
            power = np.linalg.matrix_power(m, k)
            assert np.linalg.norm(power @ kernel.vectors().T) <= 1e-9 * frob(power)

    def test_stack_only_at_k_max_1(self):
        # {diag(0, 1, 1)}' and {diag(0, 0, 1)}' meet in the diagonal matrices
        stack = np.vstack([_ad(np.diag([0.0, 1.0, 1.0])), _ad(np.diag([0.0, 0.0, 1.0]))])
        (kernel,) = map_kernels(stack, 3)
        assert kernel.dim == 3
        for b in kernel.basis:
            assert frob(b - np.diag(np.diag(b))) <= 1e-12
        with pytest.raises(ShapeMismatch):
            map_kernels(stack, 3, k_max=2)

    def test_other_maps_factor_the_complex_matrix(self):
        a = random_matrix(3, seed=4)
        m = kron(np.eye(3), a) - kron(a.T, np.eye(3))  # x -> [a, x]
        assert real_frame(m, 3) is None
        (kernel,) = map_kernels(m, 3)
        assert np.array_equal(kernel.vectors().T, nullspace(m, scale=1.0))

    def test_roundoff_map_has_full_kernel(self):
        # the scale floor 1: singular values of 1e-14 rank as zero
        kernels = map_kernels(1e-14 * _ad(np.diag([0.0, 1.0, 2.0])), 3, k_max=2)
        assert [k.dim for k in kernels] == [9, 9]


class TestKronVec:
    def test_kron_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
        assert np.array_equal(
            kron(np.diag([1.0, 2.0]), np.eye(2)), np.diag([1.0, 1.0, 2.0, 2.0])
        )

    def test_vec_identity_random(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        direct = vec(b @ x @ a.T)  # oracle: brute-force triple product
        assert np.linalg.norm(kron(a, b) @ vec(x) - direct) <= 1e-12 * np.linalg.norm(direct)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_vec_kron_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        a, x, b = (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(3)
        )
        lhs = vec(a @ x @ b)
        rhs = kron(b.T, a) @ vec(x)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))

    def test_matches_np_kron(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        for x, y in ((a, b), (b, a), (a.real, b.real), (a, b.real)):
            product = kron(x, y)
            # two float64 factors stay real; any other pair is complex
            assert product.dtype == np.result_type(x, y)
            assert np.array_equal(product, np.kron(x, y))

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("DERIVLAB_MAX_DIM", "2")
        with pytest.raises(DimensionOverflow):
            kron(np.eye(3), np.eye(3))
        monkeypatch.delenv("DERIVLAB_MAX_DIM")
        kron(np.eye(3), np.eye(3))

    def test_vec_convention(self):
        assert np.array_equal(vec(np.eye(2)), np.array([1, 0, 0, 1]))
        # E_01 in M_2 lands at index 2 under column stacking
        e01 = matrix_unit(2, 0, 1)
        v = vec(e01)
        assert v[2] == 1.0 and np.sum(np.abs(v)) == 1.0

    def test_unvec_roundtrip(self):
        x = random_matrix(4, seed=9)
        assert np.array_equal(unvec(vec(x), 4), x)

    def test_unvec_shape(self):
        with pytest.raises(ShapeMismatch):
            unvec(np.zeros(5), 2)


class TestOperatorSubspace:
    def test_gram_validation(self):
        bad = np.stack([np.eye(2), np.eye(2)])  # linearly dependent, not orthonormal
        with pytest.raises(ValueError):
            OperatorSubspace(2, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_is_rejected(self, bad):
        # the Gram check alone passes a NaN: no comparison with NaN is true
        basis = np.eye(2)[None] / np.sqrt(2)
        basis[0, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            OperatorSubspace(2, basis)

    def test_from_spanning_dedupes(self):
        s = from_spanning(2, [np.eye(2), 2.0 * np.eye(2)])
        assert s.dim == 1

    def test_projection(self):
        s = from_spanning(2, [matrix_unit(2, 0, 0)])
        x = np.array([[3.0, 1.0], [0.0, 2.0]])
        # x - P(x) = [[0, 1], [0, 2]]
        assert abs(membership_residual(s, x) - np.sqrt(5)) <= 1e-15
        assert membership_residual(s, matrix_unit(2, 0, 0)) <= 1e-12


class TestSubspaceDistance:
    def test_self_distance(self):
        s = from_spanning(
            3, [random_matrix(3, seed=i) for i in range(4)]
        )
        assert subspace_distance(s, s) <= 1e-12

    def test_orthogonal_lines(self):
        s1 = from_spanning(2, [matrix_unit(2, 0, 0)])
        s2 = from_spanning(2, [matrix_unit(2, 0, 1)])
        assert abs(subspace_distance(s1, s2) - np.sqrt(2)) <= 1e-12

    def test_reorthonormalized_copy(self):
        mats = [random_matrix(3, seed=i + 20) for i in range(3)]
        s1 = from_spanning(3, mats)
        rng = np.random.default_rng(0)
        mixing = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        mixed = [
            sum(mixing[i, j] * mats[j] for j in range(3)) for i in range(3)
        ]
        s2 = from_spanning(3, mixed)
        assert subspace_distance(s1, s2) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        spaces = []
        for k in range(3):
            mats = [
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(2)
            ]
            spaces.append(from_spanning(2, mats))
        d01 = subspace_distance(spaces[0], spaces[1])
        d10 = subspace_distance(spaces[1], spaces[0])
        d02 = subspace_distance(spaces[0], spaces[2])
        d12 = subspace_distance(spaces[1], spaces[2])
        assert abs(d01 - d10) <= 1e-10
        assert d02 <= d01 + d12 + 1e-10

    def test_containment(self):
        big = from_spanning(
            2, [matrix_unit(2, 0, 0), matrix_unit(2, 0, 1)]
        )
        small = from_spanning(2, [matrix_unit(2, 0, 0)])
        assert containment_residual(small, big) <= 1e-12
        assert containment_residual(big, small) >= 0.5

    def test_empty_subspace(self):
        empty = OperatorSubspace(2, np.zeros((0, 2, 2)))
        scalars = from_spanning(2, [np.eye(2)])
        assert abs(subspace_distance(empty, scalars) - 1.0) <= 1e-15
        assert abs(subspace_distance(scalars, empty) - 1.0) <= 1e-15
        assert subspace_distance(empty, empty) == 0.0
        assert containment_residual(empty, scalars) == 0.0
        assert abs(containment_residual(scalars, empty) - 1.0) <= 1e-15
        x = random_matrix(2, seed=5)
        # P(x) = 0, so the whole of x is off the subspace
        assert abs(membership_residual(empty, x) - frob(x)) <= 1e-15

    def test_ambient_mismatch(self):
        s2 = from_spanning(2, [np.eye(2)])
        s3 = from_spanning(3, [np.eye(3)])
        with pytest.raises(AmbientMismatch):
            subspace_distance(s2, s3)


class TestSerialization:
    def test_text_roundtrip(self, tmp_path):
        m = random_matrix(4, seed=33)
        path = tmp_path / "m.txt"
        numlin.write_matrix_text(path, m)
        assert np.array_equal(read_matrix_text(path), m)

    def test_text_header_check(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n")
        with pytest.raises(ShapeMismatch):
            read_matrix_text(path)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_cmatrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            as_cmatrix([[np.inf, 0.0], [0.0, 1.0]])
