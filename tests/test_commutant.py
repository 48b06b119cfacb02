import dataclasses
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest

from derivlab.cli import (
    DEFAULT_CONTAINMENT_TOL,
    DEFAULT_DISTANCE_TOL,
    _spectral_instances,
    commutant_identity_check,
    generate,
)
from derivlab.commutant import (
    bicommutant,
    commutant,
    commutation_matrix,
    hermitian_commutant,
    kernel_commutant_check,
    projection_algebras,
    projection_defect,
)
from derivlab.derivation import ad_kernel_tower, ad_superoperator
from derivlab.errors import DimensionOverflow, NotHermitian, ShapeMismatch
from derivlab.numlin import (
    OperatorSubspace,
    containment_residual,
    frob,
    from_frame,
    hermitian_tridiagonal,
    nullspace,
    subspace_distance,
)
from derivlab.spectral import spectral_resolution

from conftest import (
    complex_eigh_commutant_oracle,
    eigenbasis_kernel_oracle,
    frame_matrix,
    frame_route_kernels,
    from_spanning,
    matrix_unit,
    membership_residual,
    random_hermitian,
    random_matrix,
)


def brute_force_commutant_dim(gens):
    """Independent oracle: solve [g, x] = 0 as a real linear system in the
    2 n^2 real unknowns (Re x, Im x)."""
    n = gens[0].shape[0]
    rows = []
    for g in gens:
        for r in range(n):
            for c in range(n):
                # entry (r, c) of gx - xg as a linear functional of x
                coeff = np.zeros((n, n), dtype=complex)
                coeff[:, c] += g[r, :]
                coeff[r, :] -= g[:, c]
                flat = coeff.reshape(-1)
                rows.append(np.concatenate([flat.real, -flat.imag]))
                rows.append(np.concatenate([flat.imag, flat.real]))
    system = np.array(rows)
    rank = np.linalg.matrix_rank(system, tol=1e-10)
    return (2 * n * n - rank) // 2  # complex dimension


class TestCommutant:
    def test_identity_generator_full_algebra(self):
        assert commutant([np.eye(3)]).dim == 9

    def test_diagonal_generator(self):
        space = commutant([np.diag([0.0, 1.0, 2.0])])
        assert space.dim == 3
        for b in space.basis:
            assert frob(b - np.diag(np.diag(b))) <= 1e-10

    def test_irreducible_pair(self):
        x = matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)
        z = np.diag([1.0, -1.0])
        space = commutant([x, z])
        assert space.dim == 1
        assert space.dim == brute_force_commutant_dim([x, z])
        assert membership_residual(space, np.eye(2) / np.sqrt(2)) <= 1e-10

    def test_contains_identity(self):
        space = commutant([random_hermitian(4, seed=1)])
        assert membership_residual(space, np.eye(4) / 2.0) <= 1e-9

    def test_matches_brute_force_on_random_generators(self):
        gens = [random_matrix(3, seed=2), random_hermitian(3, seed=3)]
        assert commutant(gens).dim == brute_force_commutant_dim(gens)

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            commutant([])
        with pytest.raises(ShapeMismatch):
            commutant([np.eye(2), np.eye(3)])


def _complex_route_commutant(gens, rank_tol=1e-10):
    """The commutant from one SVD of the complex stack of i[g, .]."""
    stacked = np.vstack([1j * commutation_matrix(g) for g in gens])
    return OperatorSubspace.from_vec_columns(
        gens[0].shape[0], nullspace(stacked, rank_tol, scale=1.0)
    )


class TestHermitianFrameRoute:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_commutation_stack_is_real_in_the_frame(self, n):
        t = from_frame(np.eye(n * n), n)
        gens = [d for _, d in _spectral_instances(n, 31)]
        stacked = np.vstack([1j * commutation_matrix(g) for g in gens])
        frame = frame_matrix(stacked, n)
        assert not frame.imag.any()
        for block, real_block in zip(stacked.reshape(2, n * n, n * n), np.split(frame, 2)):
            assert frob(real_block - t.conj().T @ block @ t) <= 1e-13 * max(1.0, frob(block))

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_real_and_complex_routes_agree(self, n):
        # commutant's complex SVD against the float64 SVD of the same
        # stack in the frame; the instances are exactly Hermitian
        for _, d in _spectral_instances(n, 32):
            for gens in ([d], [d, _spectral_instances(n, 33)[0][1]]):
                stacked = np.vstack([1j * commutation_matrix(g) for g in gens])
                (oracle,) = frame_route_kernels(stacked, n)
                comm = commutant(gens)
                assert comm.dim == oracle.dim
                assert subspace_distance(comm, oracle) <= 1e-12

    def test_non_hermitian_list_stays_complex(self):
        gens = [random_matrix(3, seed=34), random_hermitian(3, seed=35)]
        assert frame_matrix(np.vstack([1j * commutation_matrix(g) for g in gens]), 3).imag.any()
        assert np.array_equal(commutant(gens).basis, _complex_route_commutant(gens).basis)


class TestBicommutant:
    def test_identity_generates_scalars(self):
        space = bicommutant([np.eye(3)])
        assert space.dim == 1
        assert membership_residual(space, np.eye(3) / np.sqrt(3)) <= 1e-10

    def test_projections_of_distinct_diagonal(self):
        res = spectral_resolution(np.diag([0.0, 1.0, 2.0]))
        space = bicommutant(list(res.projections))
        # oracle: the span of the three projections is already an algebra
        oracle = from_spanning(3, list(res.projections))
        assert space.dim == 3
        assert subspace_distance(space, oracle) <= 1e-8

    def test_nilpotent_generator_gives_full_algebra(self):
        # oracle: two-step nullspace after adjoining the adjoint:
        # {E01, E10}' = scalars, and scalars' = M_2
        space = bicommutant([matrix_unit(2, 0, 1)])
        assert space.dim == 4

    def test_contains_generators(self):
        gens = [random_hermitian(3, seed=5), random_matrix(3, seed=6)]
        space = bicommutant(gens)
        for g in gens:
            assert membership_residual(space, g) <= 1e-9 * max(1.0, frob(g))

    def test_idempotent(self):
        gens = [random_hermitian(4, seed=7)]
        once = bicommutant(gens)
        twice = bicommutant(list(once.basis))
        assert subspace_distance(once, twice) <= 1e-8


class TestOrderReversalAndStability:
    def test_order_reversal(self):
        a = random_hermitian(3, seed=11)
        b = random_hermitian(3, seed=12)
        small = commutant([a, b])
        large = commutant([a])
        assert containment_residual(small, large) <= 1e-9

    def test_triple_commutant(self):
        gens = [random_hermitian(3, seed=13), random_matrix(3, seed=14)]
        gens = gens + [g.conj().T for g in gens]
        prime = commutant(gens)
        triple = commutant(list(bicommutant(gens).basis))
        assert subspace_distance(prime, triple) <= 1e-8


class TestKernelCommutantCheck:
    def test_distinct_diagonal(self):
        d = np.diag([0.0, 1.0, 2.0])
        report = kernel_commutant_check(d)
        assert (
            report.kernel_dim
            == report.commutant_dim
            == report.projection_commutant_dim
            == 3
        )
        assert commutant_identity_check("commutant_identity/diag", d)["pass"]

    def test_identity(self):
        report = kernel_commutant_check(np.eye(3))
        assert report.kernel_dim == report.commutant_dim == 9
        assert report.algebra_dim == 1
        assert report.algebra_containment <= 1e-8
        assert commutant_identity_check("commutant_identity/eye", np.eye(3))["pass"]

    def test_random_simple_spectrum(self, gapped_hermitian):
        d = gapped_hermitian(7, 15)
        report = kernel_commutant_check(d)
        assert report.kernel_dim == 7  # oracle: simple spectrum => diagonals
        assert commutant_identity_check("commutant_identity/simple", d)["pass"]

    def test_one_reduction_serves_kernel_and_commutant(self, monkeypatch):
        # D is reduced to (W, T) once, and both routes read that one pair:
        # the only commutation matrix built is the float64 one of T, for
        # {D}'.  Both measure as the standalone routes do, bit for bit
        d = _spectral_instances(5, 3)[1][1]
        kernel, comm = ad_kernel_tower(d, 1)[0], hermitian_commutant(d)
        module = importlib.import_module("derivlab.commutant")
        reductions, built = [], []
        reduce, build = module.hermitian_tridiagonal, module.commutation_matrix

        def recorded_reduction(h):
            reductions.append(reduce(h))
            return reductions[-1]

        def recorded(g):
            built.append(g)
            return build(g)

        monkeypatch.setattr(module, "hermitian_tridiagonal", recorded_reduction)
        monkeypatch.setattr(module, "commutation_matrix", recorded)
        report = kernel_commutant_check(d)
        assert len(reductions) == 1
        assert len(built) == 1 and built[0] is reductions[0][1]
        assert built[0].dtype == np.float64
        assert (report.kernel_dim, report.commutant_dim) == (kernel.dim, comm.dim)
        assert report.distance_kernel_commutant == subspace_distance(kernel, comm)

    def test_kernel_route_is_the_block_svd(self, monkeypatch):
        # ker ad_iD is one SVD of the n(n-1)/2 x n(n+1)/2 block of ad_iT;
        # map_kernels does not run
        module = importlib.import_module("derivlab.commutant")
        shapes, svd = [], np.linalg.svd

        def recorded(m, *args, **kwargs):
            shapes.append((m.shape, m.dtype))
            return svd(m, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("the general route of ad_iD was called")

        monkeypatch.setattr(np.linalg, "svd", recorded)
        monkeypatch.setattr(module, "map_kernels", refused)
        for n in (2, 6):
            for _, d in _spectral_instances(n, 4):
                shapes.clear()
                kernel_commutant_check(d)
                assert shapes == [((n * (n - 1) // 2, n * (n + 1) // 2), np.float64)]

    def test_commutation_matrix_is_freed_before_the_kernel_svd(self, monkeypatch):
        # on the dense side of {D}' the float64 n^2 x n^2 matrix is gone
        # when the block SVD runs; on the block side no n^2 x n^2 matrix
        # is built at all, and the traced peak stays under one complex
        # n^4 array (with the dense {D}' route it is about 1.5)
        module = importlib.import_module("derivlab.commutant")
        build, svd = module.commutation_matrix, np.linalg.svd
        built, alive = [], []

        def kept(g):
            m = build(g)
            built.append(weakref.ref(m))
            return m

        def factored(m, *args, **kwargs):
            alive.append([ref() is not None for ref in built])
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(module, "commutation_matrix", kept)
        monkeypatch.setattr(np.linalg, "svd", factored)
        kernel_commutant_check(_spectral_instances(4, 3)[1][1])
        assert alive == [[False]]
        monkeypatch.setattr(np.linalg, "svd", svd)
        calls = []

        def recorded(name):
            return lambda *args: calls.append(name)

        monkeypatch.setattr(module, "kron", recorded("kron"))
        monkeypatch.setattr(module, "commutation_matrix", recorded("commutation_matrix"))
        for n in (16, 24):
            d = _spectral_instances(n, 7)[1][1]
            tracemalloc.start()
            try:
                kernel_commutant_check(d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert calls == []
            assert peak <= 16 * n**4

    def test_two_factorizations(self, monkeypatch):
        # one Householder reduction, then ker ad_iD is the one SVD of the
        # real block, and {D}' the eigvalsh of T and two LU solves of the
        # float64 n^2 x n^2 matrix; {P_i}' and P_D'' come from n x n eighs.
        # No n^2-sized matrix goes through eigh or svd
        d = _spectral_instances(6, 3)[1][1]
        k = len(spectral_resolution(d).values)
        module = importlib.import_module("derivlab.commutant")
        reductions = []
        calls = {name: [] for name in ("svd", "eigh", "eigvalsh", "solve")}
        reduce = module.hermitian_tridiagonal

        def counted_reduction(h):
            reductions.append(h.shape)
            return reduce(h)

        def counted(name):
            call = getattr(np.linalg, name)

            def wrapped(m, *args, **kwargs):
                calls[name].append((m.shape, m.dtype))
                return call(m, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(module, "hermitian_tridiagonal", counted_reduction)
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        kernel_commutant_check(d)
        assert reductions == [(6, 6)]
        assert calls["svd"] == [((15, 21), np.float64)]
        # the spectral resolution's eigh, then one batched call over the
        # projections
        assert calls["eigh"] == [((6, 6), np.complex128), ((k, 6, 6), np.complex128)]
        assert calls["eigvalsh"] == [((6, 6), np.float64)]
        assert calls["solve"] == [((36, 36), np.float64)] * 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_kernel_matches_the_frame_svd_oracle(self, monkeypatch, n):
        # the kernel the check measures against the SVD of the complex
        # ad_iD in the Hermitian frame, which the check no longer takes
        module = importlib.import_module("derivlab.commutant")
        towers, tower = [], module.tridiagonal_kernel_tower

        def recorded(*args):
            towers.append(tower(*args))
            return towers[-1]

        monkeypatch.setattr(module, "tridiagonal_kernel_tower", recorded)
        for _, d in _spectral_instances(n, 3):
            towers.clear()
            kernel_commutant_check(d)
            oracle = ad_superoperator(d).kernel()
            assert [level.dim for level in towers[0]] == [oracle.dim]
            assert subspace_distance(towers[0][0], oracle) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5, 8, 16])
    @pytest.mark.parametrize("fault", ["flipped_sign", "identity_w"])
    def test_reduction_faults_fail_the_check(self, monkeypatch, n, fault):
        # negative control: a faulty reduction moves ker ad_iD and {D}'
        # together, so their distance stays at roundoff, but {P_i}' never
        # sees (W, T) and both distances to it expose the fault
        module = importlib.import_module("derivlab.commutant")
        reduce = module.hermitian_tridiagonal

        def faulty(h):
            w, t = reduce(h)
            if fault == "identity_w":
                return np.eye(len(t), dtype=np.complex128), t
            t = t.copy()
            t[0, 1] = t[1, 0] = -t[0, 1]  # S T S for S = diag(1, -1, ..., -1)
            return w, t

        monkeypatch.setattr(module, "hermitian_tridiagonal", faulty)
        for _, d in _spectral_instances(n, 3):
            check = commutant_identity_check("commutant_identity/faulty", d)
            assert check["pass"] is False
            assert check["residual"] >= 1e3 * check["tolerance"]
            distances = check["details"]["distances"]
            assert distances["kernel_vs_commutant"] <= DEFAULT_DISTANCE_TOL
            for key in ("kernel_vs_projection_commutant", "commutant_vs_projection_commutant"):
                assert distances[key] >= 1e3 * DEFAULT_DISTANCE_TOL

    def test_json_identity_field(self):
        # the details are the report's fields alone: the verdict lives in
        # the record, the tolerances in meta.config
        check = commutant_identity_check("commutant_identity/eye", np.eye(2))
        assert check["details"] == kernel_commutant_check(np.eye(2)).to_json_dict()
        assert check["details"]["identity"] == "ker=MD_prime"
        assert check["pass"] is True


_NAMED_SPECTRA = {
    "scalar": np.eye(4),
    "distinct_diagonal": np.diag([0.0, 1.0, 2.0]),
    "multiplicity": np.diag([1.0, 1.0, 2.0]),
    "star_algebra": generate("hermitian_with_multiplicity", 5, 9, multiplicities=[2, 2, 1]),
}


class TestSingleGeneratorRoutes:
    @pytest.mark.parametrize("case", [*range(2, 9), *_NAMED_SPECTRA], ids=str)
    def test_match_stacked_oracles(self, case):
        # the k-generator stack, the full-basis bicommutant and the span of
        # the projections are the oracles of the closed forms
        if isinstance(case, int):
            spectra = [d for _, d in _spectral_instances(case, 8)]
        else:
            spectra = [_NAMED_SPECTRA[case]]
        for d in spectra:
            n = d.shape[0]
            res = spectral_resolution(d)
            projections = list(res.projections)
            pc, algebra = projection_algebras(res)
            stacked = commutant(projections)
            assert pc.dim == stacked.dim == np.sum(res.multiplicities**2)
            assert subspace_distance(pc, stacked) <= 1e-10
            assert algebra.dim == len(res.values)
            assert subspace_distance(algebra, bicommutant(projections)) <= 1e-10
            assert subspace_distance(algebra, from_spanning(n, projections)) <= 1e-10
            # P_D'' is a *-algebra with identity
            assert membership_residual(algebra, np.eye(n) / np.sqrt(n)) <= 1e-9
            for a in algebra.basis:
                assert membership_residual(algebra, a.conj().T) <= 1e-9
                for b in algebra.basis:
                    assert membership_residual(algebra, a @ b) <= 1e-9

    @pytest.mark.parametrize("n", [2, 5, 8, 12, 13, 16, 24])
    def test_hermitian_commutant_matches_svd_route(self, n):
        for _, d in _spectral_instances(n, 9):
            comm = hermitian_commutant(d)
            oracle = complex_eigh_commutant_oracle(d)
            assert comm.dim == oracle.dim
            assert subspace_distance(comm, oracle) <= 1e-10
            assert subspace_distance(comm, commutant([d])) <= 1e-10
            assert subspace_distance(comm, eigenbasis_kernel_oracle(d)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_block_solver_solves_the_shifted_system(self, n):
        # the block QR is a backward stable solve with M - sigma I, also at
        # the near-singular shift: inverse iteration alone would forgive
        # an orthogonal error on the right-hand side, this residual does not
        module = importlib.import_module("derivlab.commutant")
        t = hermitian_tridiagonal(_spectral_instances(n, 5)[1][1])[1]
        b = np.random.default_rng(n).standard_normal((n * n, 3))
        eps = np.finfo(float).eps
        for shift in (0.37, eps):
            a = commutation_matrix(t) - shift * np.eye(n * n)
            y = module._block_solver(t, shift)(b)
            assert frob(a @ y - b) <= 1e2 * eps * frob(a) * frob(y)

    def test_hermitian_commutant_is_deterministic(self):
        # the start block of the inverse iteration has a fixed seed, so the
        # global RNG state between two calls does not reach the basis, on
        # either side of the route selection
        for n in (8, 16):
            d = _spectral_instances(n, 4)[1][1]
            first = hermitian_commutant(d)
            np.random.default_rng().standard_normal(8)
            np.random.standard_normal(8)
            assert np.array_equal(first.basis, hermitian_commutant(d).basis)

    @pytest.mark.parametrize("n", [6, 12, 16])
    @pytest.mark.parametrize("gap", [1e-4, 1e-6])
    def test_hermitian_commutant_on_a_near_degenerate_spectrum(self, n, gap):
        # pairs of equal eigenvalues in [0, 1], one pair split by the gap:
        # the frame SVD oracle and the route each err by about eps/gap.
        # The bound 10 eps/gap holds for the full eigh of I (x) T - T (x) I
        # (at most 6 eps/gap on these draws) and fails for a single dense
        # solve in place of two (30 eps/gap and more on the worst draw);
        # n = 16 takes the block QR
        values = np.repeat(np.linspace(0.0, 1.0, n // 2), 2)
        values[1] += gap
        for seed in range(4):
            rng = np.random.default_rng(seed)
            u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            d = (u * values) @ u.conj().T
            comm, oracle = hermitian_commutant(d), ad_superoperator(d).kernel()
            assert comm.dim == oracle.dim == n + 2 * (n // 2 - 1)
            assert subspace_distance(comm, oracle) <= 10 * np.finfo(float).eps / gap

    @pytest.mark.parametrize(
        "d, dim",
        [
            (np.zeros((3, 3)), 9),
            (np.eye(4), 16),
            (np.diag([0.0, 1.0, 1.0, 2.0]), 6),
            (np.diag([0.0, 0.5, 0.5 + 2.0**-52]), 5),
            (np.zeros((14, 14)), 196),
            (np.eye(14), 196),
            (np.diag(np.repeat([0.0, 1.0, 1.5, 2.0], [5, 4, 3, 2])), 54),
            (np.diag([*np.linspace(0.0, 0.5, 13), 0.5 + 2.0**-52]), 16),
        ],
        ids=[
            "zero", "identity", "diagonal", "gap_at_the_shift",
            "zero_14", "identity_14", "diagonal_14", "gap_at_the_shift_14",
        ],
    )
    def test_hermitian_commutant_on_exact_structure(self, d, dim):
        # I (x) T - T (x) I is exactly 0 or exactly diagonal here: only the
        # shift keeps the solves nonsingular, the dense LU at n <= 12 and
        # the block QR above.  In the gap_at_the_shift cases a gap equals
        # eps, the first shift, so the shift must move off it
        comm = hermitian_commutant(d)
        gram = np.einsum("aij,bij->ab", comm.basis.conj(), comm.basis)
        assert comm.dim == dim
        assert frob(gram - np.eye(dim)) <= 1e-12
        assert subspace_distance(comm, eigenbasis_kernel_oracle(d)) <= 1e-12

    def test_hermitian_commutant_keeps_the_dimension_budget(self, monkeypatch):
        # the real commutation matrix of T goes through numlin.kron's
        # budget; the block QR, which forms none, keeps the same budget
        monkeypatch.setenv("DERIVLAB_MAX_DIM", "4")
        with pytest.raises(DimensionOverflow):
            hermitian_commutant(np.eye(6))
        monkeypatch.setenv("DERIVLAB_MAX_DIM", "13")
        with pytest.raises(DimensionOverflow):
            hermitian_commutant(np.eye(16))

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_hermitian_commutant_footprint(self, n):
        # the block QR holds O(n^3): its panels' Q and the three block
        # diagonals of R.  The dense route's n^2 x n^2 matrix and its LU
        # copy took at least 386 n^3 bytes
        for _, d in _spectral_instances(n, 7):
            tracemalloc.start()
            try:
                hermitian_commutant(d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 256 * n**3

    def test_hermitian_commutant_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_commutant(matrix_unit(2, 0, 1))

    def test_projection_defect(self):
        d = _spectral_instances(5, 3)[1][1]
        projections = spectral_resolution(d).projections
        assert projection_defect(projections) <= 1e-13
        # dropping a rank-1 projection leaves ||sum P - I|| = 1
        assert abs(projection_defect(projections[:-1]) - 1.0) <= 1e-12
        # two non-orthogonal rank-1 projections
        u = np.array([1.0, 0.0])
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        skew = [np.outer(u, u), np.outer(v, v)]
        assert projection_defect(skew) >= 0.5

    def test_incomplete_projections_fail_the_check(self, monkeypatch):
        # negative control: a resolution that lost one projection
        def lossy(d, cluster_tol):
            res = spectral_resolution(d, cluster_tol)
            return dataclasses.replace(
                res,
                values=res.values[:-1],
                projections=res.projections[:-1],
                multiplicities=res.multiplicities[:-1],
            )

        # the package rebinds the name "commutant" to the function
        module = importlib.import_module("derivlab.commutant")
        monkeypatch.setattr(module, "spectral_resolution", lossy)
        d = _spectral_instances(4, 3)[0][1]
        check = commutant_identity_check("commutant_identity/lossy", d)
        report = check["details"]
        assert check["pass"] is False
        assert report["projection_defect"] >= 1e3 * DEFAULT_CONTAINMENT_TOL
        # the closed form spans the blocks of the listed projections only,
        # so {P_i}' loses the lost block's m^2 elements: the distances see
        # the loss as well
        m = spectral_resolution(d).multiplicities[-1]
        assert report["dims"]["kernel"] - report["dims"]["projection_commutant"] == m * m
        assert report["distances"]["kernel_vs_projection_commutant"] >= 1e3 * DEFAULT_DISTANCE_TOL

    @pytest.mark.parametrize("n", [4, 6, 9])
    @pytest.mark.parametrize("kind", [0, 1], ids=["simple", "multiplicity"])
    def test_merged_clusters_fail_the_check(self, monkeypatch, n, kind):
        # negative control: a resolution that merged its two lowest clusters
        def merging(d, cluster_tol):
            res = spectral_resolution(d, cluster_tol)
            return dataclasses.replace(
                res,
                values=np.concatenate([[res.values[:2].mean()], res.values[2:]]),
                projections=np.concatenate(
                    [res.projections[:1] + res.projections[1:2], res.projections[2:]]
                ),
                multiplicities=np.concatenate(
                    [[res.multiplicities[:2].sum()], res.multiplicities[2:]]
                ),
            )

        module = importlib.import_module("derivlab.commutant")
        monkeypatch.setattr(module, "spectral_resolution", merging)
        d = _spectral_instances(n, 3)[kind][1]
        m0, m1 = spectral_resolution(d).multiplicities[:2]
        check = commutant_identity_check("commutant_identity/merged", d)
        report = check["details"]
        assert check["pass"] is False
        distance = report["distances"]["kernel_vs_projection_commutant"]
        assert distance >= 1e3 * DEFAULT_DISTANCE_TOL
        # {P}' gains the two off-diagonal blocks between the merged eigenspaces
        dims = report["dims"]
        assert dims["projection_commutant"] - dims["kernel"] == 2 * m0 * m1
        # the merged family is still orthogonal and complete: only the
        # distances see the merge
        assert report["projection_defect"] <= DEFAULT_CONTAINMENT_TOL
