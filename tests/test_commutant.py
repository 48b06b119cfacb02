import dataclasses
import importlib
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
from derivlab.derivation import ad_superoperator
from derivlab.errors import DimensionOverflow, NotHermitian, ShapeMismatch
from derivlab.numlin import (
    OperatorSubspace,
    containment_residual,
    frob,
    from_frame,
    nullspace,
    real_frame,
    subspace_distance,
)
from derivlab.spectral import spectral_resolution

from conftest import (
    complex_eigh_commutant_oracle,
    eigenbasis_kernel_oracle,
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
    """The commutant from the complex stack of i[g, .], without the frame."""
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
        frame = real_frame(stacked, n)
        assert frame is not None and frame.dtype == np.float64
        for block, real_block in zip(stacked.reshape(2, n * n, n * n), np.split(frame, 2)):
            assert frob(real_block - t.conj().T @ block @ t) <= 1e-13 * max(1.0, frob(block))

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_real_and_complex_routes_agree(self, n):
        for _, d in _spectral_instances(n, 32):
            for gens in ([d], [d, _spectral_instances(n, 33)[0][1]]):
                real, oracle = commutant(gens), _complex_route_commutant(gens)
                assert real.dim == oracle.dim
                assert subspace_distance(real, oracle) <= 1e-12
                # the real route's basis is Hermitian, bit for bit
                assert all(np.array_equal(b, b.conj().T) for b in real.basis)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_projections_take_the_real_route(self, n):
        # each P = B B* is Hermitian only to roundoff; commutant factors
        # its exact Hermitian part, so the list reaches the real frame
        res = spectral_resolution(_spectral_instances(n, 36)[1][1])
        projections = list(res.projections)
        real, oracle = commutant(projections), _complex_route_commutant(projections)
        assert all(np.array_equal(b, b.conj().T) for b in real.basis)
        assert real.dim == oracle.dim
        assert subspace_distance(real, oracle) <= 1e-12

    def test_non_hermitian_list_stays_complex(self):
        gens = [random_matrix(3, seed=34), random_hermitian(3, seed=35)]
        assert real_frame(np.vstack([1j * commutation_matrix(g) for g in gens]), 3) is None
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

    def test_one_commutation_matrix_serves_kernel_and_commutant(self, monkeypatch):
        # C(D) is built once, for the kernel route only: {D}' builds the
        # real commutation matrix of the tridiagonal T instead.  Both
        # measure as the standalone routes do, bit for bit
        d = _spectral_instances(5, 3)[1][1]
        kernel, comm = ad_superoperator(d).kernel(), hermitian_commutant(d)
        module = importlib.import_module("derivlab.commutant")
        built, factored = [], []
        map_kernels = module.map_kernels

        def recorded(g):
            built.append(g)
            return commutation_matrix(g)

        def recorded_kernels(m, *args, **kwargs):
            factored.append(m)
            return map_kernels(m, *args, **kwargs)

        monkeypatch.setattr(module, "commutation_matrix", recorded)
        monkeypatch.setattr(module, "map_kernels", recorded_kernels)
        report = kernel_commutant_check(d)
        assert sum(np.array_equal(g, d) for g in built) == 1
        assert [g.dtype for g in built if not np.array_equal(g, d)] == [np.float64]
        assert len(factored) == 1
        assert np.array_equal(factored[0], 1j * commutation_matrix(d))
        assert (report.kernel_dim, report.commutant_dim) == (kernel.dim, comm.dim)
        assert report.distance_kernel_commutant == subspace_distance(kernel, comm)

    def test_kernel_route_stays_on_the_frame_svd(self, monkeypatch):
        # {D}' already reduces D to T, so the kernel must not: one
        # map_kernels call on the n^2 x n^2 map, and no block SVD of ad_iT
        numlin = importlib.import_module("derivlab.numlin")
        module = importlib.import_module("derivlab.commutant")
        shapes, map_kernels = [], module.map_kernels

        def recorded(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return map_kernels(m, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("the block route of ad_iT was called")

        monkeypatch.setattr(module, "map_kernels", recorded)
        monkeypatch.setattr(numlin, "_block_split", refused)
        for _, d in _spectral_instances(6, 4):
            shapes.clear()
            kernel_commutant_check(d)
            assert shapes == [(36, 36)]

    def test_commutation_matrix_is_freed_before_the_kernel_svd(self, monkeypatch):
        # the complex map of ad_iD is alive only until the frame gather
        # has read it; the SVD sees the real frame matrix alone
        numlin = importlib.import_module("derivlab.numlin")
        real_frame, nullspace = numlin.real_frame, numlin.nullspace
        read, alive = [], []

        def gathered(m, n):
            read.append(weakref.ref(m))
            return real_frame(m, n)

        def factored(m, *args, **kwargs):
            alive.append((m.dtype, read[-1]() is not None))
            return nullspace(m, *args, **kwargs)

        monkeypatch.setattr(numlin, "real_frame", gathered)
        monkeypatch.setattr(numlin, "nullspace", factored)
        kernel_commutant_check(_spectral_instances(4, 3)[1][1])
        assert alive == [(np.float64, False)]

    def test_two_factorizations(self, monkeypatch):
        # ker ad_iD is the one SVD and {D}' the one eigh of an n^2 x n^2
        # matrix, a float64 one; {P_i}' and P_D'' come from n x n eighs
        d = _spectral_instances(6, 3)[1][1]
        k = len(spectral_resolution(d).values)
        module = importlib.import_module("derivlab.commutant")
        kernels, eighs = [], []
        map_kernels, eigh = module.map_kernels, np.linalg.eigh

        def counted_kernels(m, *args, **kwargs):
            kernels.append(m.shape)
            return map_kernels(m, *args, **kwargs)

        def counted_eigh(m, *args, **kwargs):
            eighs.append((m.shape, m.dtype))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(module, "map_kernels", counted_kernels)
        monkeypatch.setattr(module.np.linalg, "eigh", counted_eigh)
        kernel_commutant_check(d)
        assert kernels == [(36, 36)]
        # the spectral resolution's eigh, {D}' of the real tridiagonal
        # form, then one batched call over the projections
        assert eighs == [
            ((6, 6), np.complex128),
            ((36, 36), np.float64),
            ((k, 6, 6), np.complex128),
        ]

    def test_json_identity_field(self):
        # the check adds its verdict and tolerances to the report's fields
        data = commutant_identity_check("commutant_identity/eye", np.eye(2))["details"]
        assert data["identity"] == "ker=MD_prime"
        assert data["pass"] is True
        assert set(data["tolerances"]) == {"rank", "subspace", "containment"}


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

    @pytest.mark.parametrize("n", [2, 5, 8, 12, 16])
    def test_hermitian_commutant_matches_svd_route(self, n):
        for _, d in _spectral_instances(n, 9):
            comm = hermitian_commutant(d)
            oracle = complex_eigh_commutant_oracle(d)
            assert comm.dim == oracle.dim
            assert subspace_distance(comm, oracle) <= 1e-10
            assert subspace_distance(comm, commutant([d])) <= 1e-10
            assert subspace_distance(comm, eigenbasis_kernel_oracle(d)) <= 1e-10

    def test_hermitian_commutant_keeps_the_dimension_budget(self, monkeypatch):
        # the real commutation matrix of T goes through numlin.kron's budget
        monkeypatch.setenv("DERIVLAB_MAX_DIM", "4")
        with pytest.raises(DimensionOverflow):
            hermitian_commutant(np.eye(6))

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
