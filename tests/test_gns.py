import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from derivlab import cli, gns, numlin
from derivlab.cli import (
    DEFAULT_DISTANCE_TOL,
    EQUILIBRIUM_TOL,
    br_gns_check,
    equilibrium_instance,
)
from derivlab.commutant import commutant
from derivlab.derivation import Superoperator, ad_kernel_tower, ad_superoperator
from derivlab.errors import (
    NotDensity,
    NotEquilibrium,
    NotFaithful,
    NotHermitian,
)
from derivlab.gns import (
    abstract_kernel_stabilization,
    equilibrium_check,
    flow_intertwining_residual,
    gns_construct,
    implementation_check,
    implementing_operator,
    kernel_correspondence_distance,
    state_from_density,
)
from derivlab.numlin import (
    DEFAULT_RANK_TOL,
    frob,
    subspace_distance,
    vec,
)

from conftest import (
    embed,
    expectation,
    from_spanning,
    matrix_unit,
    random_hermitian,
    random_matrix,
    unvec,
)


def tracial_state(n):
    return state_from_density(np.eye(n) / n)


class TestState:
    def test_tracial(self):
        omega = tracial_state(3)
        assert omega.n == 3
        assert omega.faithful
        assert abs(expectation(omega, np.eye(3)) - 1.0) <= 1e-12

    def test_pure_state_not_faithful(self):
        omega = state_from_density(matrix_unit(2, 0, 0))
        assert not omega.faithful

    def test_faithful_iff_min_eigenvalue_clears_the_tolerance(self):
        # FAITHFULNESS_TOL is 1e-10
        assert state_from_density(np.diag([1.0 - 1e-9, 1e-9])).faithful
        assert not state_from_density(np.diag([1.0 - 1e-11, 1e-11])).faithful

    def test_rejections(self):
        with pytest.raises(NotDensity):
            state_from_density(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(NotDensity):
            state_from_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(NotDensity):
            state_from_density(np.diag([1.5, -0.5]))  # negative eigenvalue


class TestDerivationConstruction:
    def test_zero_generator(self):
        delta = ad_superoperator(np.zeros((2, 2)))
        assert frob(delta.matrix) == 0.0

    def test_scalar_commutator(self):
        delta = ad_superoperator(np.diag([0.0, 1.0]))
        b = matrix_unit(2, 0, 1)
        # oracle: [i diag(0,1), E01] = i(0 - 1) E01
        assert frob(unvec(delta.matrix @ vec(b), 2) - (-1j) * b) <= 1e-14

    def test_star_compatibility(self):
        delta = ad_superoperator(random_hermitian(4, seed=1))
        x = random_matrix(4, seed=2)
        image = unvec(delta.matrix @ vec(x), 4)
        image_of_adjoint = unvec(delta.matrix @ vec(x.conj().T), 4)
        assert frob(image_of_adjoint - image.conj().T) <= 1e-12

    def test_rejects_non_hermitian_generator(self):
        with pytest.raises(NotHermitian):
            ad_superoperator(matrix_unit(2, 0, 1))

    def test_inner_kind_and_ambient_dim(self):
        delta = ad_superoperator(random_hermitian(3, seed=3))
        assert delta.ambient_dim == 3


class TestEquilibrium:
    def test_tracial_state_always_equilibrium(self):
        omega = tracial_state(3)
        delta = ad_superoperator(random_hermitian(3, seed=6))
        assert equilibrium_check(omega, delta) <= 1e-12

    def test_commuting_diagonal_pair(self):
        omega = state_from_density(np.diag([0.7, 0.3]))
        delta = ad_superoperator(np.diag([0.0, 1.0]))
        assert equilibrium_check(omega, delta) <= 1e-12

    def test_noncommuting_residual_value(self):
        omega = state_from_density(np.diag([0.7, 0.3]))
        delta = ad_superoperator(matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0))
        # oracle: max entry of i[rho, a] = 0.7 - 0.3 times the off-diagonal
        assert abs(equilibrium_check(omega, delta) - 0.4) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_iff_state_commutes(self, seed):
        omega, g = equilibrium_instance(4, seed)
        delta = ad_superoperator(g)
        comm = omega.rho @ g - g @ omega.rho
        assert equilibrium_check(omega, delta) <= 1e-10
        assert frob(comm) <= 1e-9
        # perturbed generator breaks both sides of the equivalence
        bad_g = g + 0.5 * (matrix_unit(4, 0, 1) + matrix_unit(4, 1, 0))
        bad = ad_superoperator(bad_g)
        bad_comm = omega.rho @ bad_g - bad_g @ omega.rho
        assert equilibrium_check(omega, bad) > 1e-10
        assert frob(bad_comm) > 1e-9

    def test_state_and_map_on_different_algebras(self):
        # the GNS pipeline pairs the two only here and in implementing_operator
        omega = tracial_state(3)
        delta = ad_superoperator(np.diag([0.0, 1.0]))
        with pytest.raises(NotEquilibrium):
            equilibrium_check(omega, delta)
        with pytest.raises(NotEquilibrium):
            implementing_operator(gns_construct(omega), delta)


class TestGNSConstruction:
    def test_tracial_two_by_two(self):
        rep = gns_construct(tracial_state(2))
        assert rep.hilbert_dim == 4
        f = vec(rep.factor.T)
        assert abs(np.vdot(f, f) - 1.0) <= 1e-12

    def test_inner_product_reproduces_state(self):
        omega = state_from_density(np.diag([0.7, 0.3]))
        rep = gns_construct(omega)
        e00 = matrix_unit(2, 0, 0)
        # oracle: tr(rho E00* E00) = rho_00 = 0.7
        val = np.vdot(embed(rep, e00), embed(rep, e00))
        assert abs(val - 0.7) <= 1e-12

    def test_inner_products_match_state_on_random_pairs(self):
        omega, _ = equilibrium_instance(3, 7)
        rep = gns_construct(omega)
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = np.vdot(embed(rep, b), embed(rep, a))
            rhs = expectation(omega, b.conj().T @ a)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_pi_is_unital_homomorphism(self):
        omega, _ = equilibrium_instance(3, 9)
        rep = gns_construct(omega)
        assert frob(rep.pi(np.eye(3)) - np.eye(9)) <= 1e-10
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        # oracle: left multiplication is associative
        assert frob(rep.pi(a @ b) - rep.pi(a) @ rep.pi(b)) <= 1e-9

    def test_pi_star_representation(self):
        omega, _ = equilibrium_instance(3, 11)
        rep = gns_construct(omega)
        a = random_matrix(3, seed=12)
        assert frob(rep.pi(a.conj().T) - rep.pi(a).conj().T) <= 1e-9

    def test_cyclicity_and_faithfulness(self):
        omega, _ = equilibrium_instance(3, 13)
        rep = gns_construct(omega)
        columns = np.stack(
            [embed(rep, matrix_unit(3, r, c)) for r in range(3) for c in range(3)]
        ).T
        sing = np.linalg.svd(columns, compute_uv=False)
        assert sing.min() > 1e-8  # span of pi(a) f is everything
        pi_columns = np.stack(
            [vec(rep.pi(matrix_unit(3, r, c))) for r in range(3) for c in range(3)]
        ).T
        assert np.linalg.svd(pi_columns, compute_uv=False).min() > 1e-8

    def test_state_vector_identity(self):
        omega, _ = equilibrium_instance(4, 14)
        rep = gns_construct(omega)
        f = vec(rep.factor.T)
        for r in range(4):
            for c in range(4):
                a = matrix_unit(4, r, c)
                lhs = np.vdot(f, rep.pi(a) @ f)
                assert abs(lhs - expectation(omega, a)) <= 1e-10

    def test_rejects_non_faithful(self):
        with pytest.raises(NotFaithful):
            gns_construct(state_from_density(matrix_unit(2, 0, 0)))

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_factor_inverse_is_upper_triangular(self, n):
        rep = gns_construct(equilibrium_instance(n, 17)[0])
        assert not np.tril(rep.factor_inv, -1).any()
        assert frob(rep.factor @ rep.factor_inv - np.eye(n)) <= 1e-12


class TestImplementingOperator:
    def test_zero_derivation(self):
        rep = gns_construct(tracial_state(2))
        s, symmetry = implementing_operator(rep, ad_superoperator(np.zeros((2, 2))))
        assert frob(s) <= 1e-12
        assert symmetry <= 1e-12

    def test_tracial_spectrum(self):
        rep = gns_construct(tracial_state(2))
        delta = ad_superoperator(np.diag([0.0, 1.0]))
        s, symmetry = implementing_operator(rep, delta)
        assert symmetry <= 1e-12
        # oracle: eigenvalue differences of the generator
        assert np.allclose(sorted(np.linalg.eigvalsh(s)), [-1.0, 0.0, 0.0, 1.0])

    def test_tracial_spectrum_random_generator(self):
        a = random_hermitian(3, seed=15)
        rep = gns_construct(tracial_state(3))
        s, _ = implementing_operator(rep, ad_superoperator(a))
        w = np.linalg.eigvalsh(a)
        expected = sorted(float(wr - wc) for wr in w for wc in w)
        assert np.allclose(sorted(np.linalg.eigvalsh((s + s.conj().T) / 2)), expected)

    def test_requires_equilibrium(self):
        # S is Hermitian only under an equilibrium state; br_gns_check
        # FAILs the pair with every measurement instead of raising
        omega = state_from_density(np.diag([0.7, 0.3]))
        g = matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)
        check = br_gns_check("br_gns/n=2/control", omega, g, 5)
        comm = frob(omega.rho @ g - g @ omega.rho)
        assert check["pass"] is False
        assert check["details"]["equilibrium"] >= 1e3 * EQUILIBRIUM_TOL
        assert check["details"]["symmetry"] >= 1e3 * EQUILIBRIUM_TOL
        assert comm <= check["details"]["symmetry"] <= 100 * comm

    def test_implementation_identity(self):
        rep = gns_construct(tracial_state(2))
        delta = ad_superoperator(np.diag([0.0, 1.0]))
        s, _ = implementing_operator(rep, delta)
        assert implementation_check(delta, s) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_random_equilibrium_instances(self, seed):
        omega, g = equilibrium_instance(3, 20 + seed)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, symmetry = implementing_operator(rep, delta)
        assert symmetry <= 1e-9
        assert implementation_check(delta, s) <= 1e-9

    def test_flow_intertwining(self):
        omega, g = equilibrium_instance(3, 30)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        for t in (-1.0, 0.25, 1.0):
            assert flow_intertwining_residual(g, s, t) <= 1e-8

    def test_kernel_correspondence(self):
        omega, g = equilibrium_instance(4, 31)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        kernel = ad_kernel_tower(g, 1)[0]
        assert kernel_correspondence_distance(delta, s, kernel=kernel) <= 1e-8


class TestAbstractStabilization:
    def test_inner_distinct(self):
        report = abstract_kernel_stabilization(np.diag([0.0, 1.0, 2.0]), 4)
        assert report.kernel_dims == (3, 3, 3, 3)
        assert all(dist <= DEFAULT_DISTANCE_TOL for dist in report.distances)

    def test_zero_map(self):
        report = abstract_kernel_stabilization(np.zeros((3, 3)), 3)
        assert report.kernel_dims == (9, 9, 9)

    def test_multiplicity_two_two(self):
        from derivlab.cli import generate

        a = generate("hermitian_with_multiplicity", 4, 16, multiplicities=[2, 2])
        report = abstract_kernel_stabilization(a, 5)
        assert report.kernel_dims == (8, 8, 8, 8, 8)
        assert all(dist <= DEFAULT_DISTANCE_TOL for dist in report.distances)


def units_one_by_one(n):
    return [matrix_unit(n, r, c) for c in range(n) for r in range(n)]


def dense_gram_factor(omega):
    """The dense Cholesky factor R of the n^2 x n^2 Gram matrix rho^T (x) I
    and its inverse, built without the factored representation."""
    n = omega.n
    r = np.linalg.cholesky(np.kron(omega.rho.T, np.eye(n))).conj().T
    return r, np.linalg.inv(r)


def dense_pi(r, r_inv, a):
    n = int(round(np.sqrt(r.shape[0])))
    return r @ np.kron(np.eye(n), a) @ r_inv


def oracle_implementation(pi, n, delta, s):
    worst = 0.0
    for unit in units_one_by_one(n):
        pa = pi(unit)
        lhs = pi(unvec(delta.matrix @ vec(unit), n))
        rhs = 1j * (s @ pa - pa @ s)
        worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=0))))
    return worst


def oracle_intertwining(pi, n, delta, s, t):
    u = scipy.linalg.expm(1j * t * s)
    u_inv = scipy.linalg.expm(-1j * t * s)
    propagated = scipy.linalg.expm(t * delta.matrix)
    worst = 0.0
    for unit in units_one_by_one(n):
        lhs = u @ pi(unit) @ u_inv
        rhs = pi(unvec(propagated @ vec(unit), n))
        worst = max(worst, frob(lhs - rhs))
    return worst


def oracle_kernel_correspondence(pi, n, delta, s):
    d = n * n
    range_stack = np.stack([vec(pi(u)) for u in units_one_by_one(n)]).T
    q, _ = np.linalg.qr(range_stack)
    basis = [unvec(q[:, j], d) for j in range(q.shape[1])]
    images = np.stack([vec(1j * (s @ b - b @ s)) for b in basis]).T
    restricted = q.conj().T @ images
    _, sing, null = np.linalg.svd(restricted)
    rank = int(np.sum(sing > DEFAULT_RANK_TOL * max(sing[0], 1.0)))
    kernel = [sum(z * b for z, b in zip(row.conj(), basis)) for row in null[rank:]]
    pushed = [pi(b) for b in delta.kernel(DEFAULT_RANK_TOL).basis]
    return subspace_distance(
        from_spanning(d, kernel),
        from_spanning(d, pushed),
    )


def perturbed(s, n, seed):
    """S + 1e-3 (I (x) X): the added term is pi(X), so the implementation
    identity, the flow and the kernel correspondence all break by O(1e-3)."""
    return s + 1e-3 * np.kron(np.eye(n), random_hermitian(n, seed))


class TestBatchedChecks:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_match_per_unit_oracle(self, n):
        omega, g = equilibrium_instance(n, 40 + n)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        r, r_inv = dense_gram_factor(omega)

        def pi(a):
            return dense_pi(r, r_inv, a)

        # the factored representation agrees with the dense R kron(I, a) R^-1
        stack = np.stack([random_matrix(n, seed=k) for k in range(3)])
        assert np.max(np.abs(rep.pi(stack[0]) - pi(stack[0]))) <= 1e-12
        assert np.max(np.abs(embed(rep, stack[1]) - r @ vec(stack[1]))) <= 1e-12
        assert np.max(np.abs(vec(rep.factor.T) - r @ vec(np.eye(n)))) <= 1e-12
        s, symmetry = implementing_operator(rep, delta)
        dense_s = -1j * (r @ delta.matrix @ r_inv)
        assert np.max(np.abs(s - dense_s)) <= 1e-12
        assert abs(symmetry - frob(dense_s - dense_s.conj().T)) <= 1e-12
        # the perturbed operators make each residual O(1e-3), so
        # agreement to 1e-12 is not just two roundoff-sized numbers;
        # the non-Hermitian one also tells column norms from row norms
        skewed = s + 1e-3 * np.kron(np.eye(n), random_matrix(n, seed=80 + n))
        kernel = ad_kernel_tower(g, 1)[0]
        for op in (s, perturbed(s, n, 50 + n), skewed):
            assert abs(
                implementation_check(delta, op)
                - oracle_implementation(pi, n, delta, op)
            ) <= 1e-12
            for t in (0.5, 1.0):
                assert abs(
                    flow_intertwining_residual(g, op, t)
                    - oracle_intertwining(pi, n, delta, op, t)
                ) <= 1e-12
            corr = kernel_correspondence_distance(delta, op, kernel=kernel)
            if op is skewed:  # its partial trace is not Hermitian
                assert np.isnan(corr)
            else:
                assert abs(corr - oracle_kernel_correspondence(pi, n, delta, op)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_detects_perturbed_operator(self, n):
        omega, g = equilibrium_instance(n, 60 + n)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        bad = perturbed(s, n, 70 + n)
        assert implementation_check(delta, bad) > 1e-6
        assert flow_intertwining_residual(g, bad, 1.0) > 1e-6
        assert kernel_correspondence_distance(delta, bad, kernel=ad_kernel_tower(g, 1)[0]) > 1e-6


def n6_implementation_check(n, delta, s):
    """The implementation residual through one zero-filled n^6 array of
    every column of every unit, res[r, c, p, i, q, j]."""
    s4 = s.reshape(n, n, n, n)
    res = np.zeros((n,) * 6, dtype=np.complex128)
    derived = delta.matrix.reshape(n, n, n, n).transpose(3, 2, 1, 0)
    np.einsum("rcpipj->rcpij", res)[...] = -1j * derived[:, :, None]
    np.einsum("rcpiqc->rcpiq", res)[...] -= s4.transpose(3, 0, 1, 2)[:, None]
    np.einsum("rcprqj->rcpqj", res)[...] += s4.transpose(1, 0, 2, 3)[None]
    return float(np.sqrt(np.max(np.sum(np.abs(res) ** 2, axis=(2, 3)))))


def n6_flow_intertwining_residual(n, delta, s, t):
    """The flow residual of every unit through one n^6 product,
    diff[p, i, r, c, q, j], with U^-1 from a second expm and the
    propagator from scipy's expm of the n^2 x n^2 map, not from V =
    exp(itg) as the check takes it."""
    d = n * n
    u = scipy.linalg.expm(1j * t * s)
    u_inv = scipy.linalg.expm(-1j * t * s)
    propagated = scipy.linalg.expm(t * delta.matrix)
    columns = u.reshape(d, n, n).swapaxes(1, 2).reshape(d * n, n)
    diff = (columns @ u_inv.reshape(n, n * d)).reshape((n,) * 6)
    flowed = propagated.reshape(n, n, n, n).transpose(3, 2, 1, 0)
    np.einsum("pircpj->pircj", diff)[...] -= flowed.transpose(2, 0, 1, 3)
    return float(np.sqrt(np.max(np.sum(np.abs(diff) ** 2, axis=(0, 1, 4, 5)))))


def operators_under_test(s, n):
    """S, S + 1e-3 (I (x) X) with X Hermitian and S + 1e-3 (I (x) Y) with
    Y not: the perturbations make each residual O(1e-3), and the
    non-Hermitian one makes U non-unitary.  S and both perturbations
    vanish off the diagonal blocks except in columns j = c, so a dense
    perturbation also reaches the off-block mass of the columns j != c."""
    return {
        "S": s,
        "hermitian": perturbed(s, n, 90 + n),
        "skewed": s + 1e-3 * np.kron(np.eye(n), random_matrix(n, seed=95 + n)),
        "dense": s + 1e-3 * random_matrix(n * n, seed=100 + n),
    }


def oracle_cases(n, seed):
    """(name, generator, map, operator) for every operator of
    ``operators_under_test`` and for a map that is no derivation, which
    has no generator.  For a true derivation every column j != c of the
    implementation residual is bounded by a column j = c, so only such a
    map lets the off-block mass of the columns j != c set the max."""
    omega, g = equilibrium_instance(n, seed)
    delta = ad_superoperator(g)
    s, _ = implementing_operator(gns_construct(omega), delta)
    ops = operators_under_test(s, n)
    noisy = Superoperator(n, delta.matrix + 1e-2 * random_matrix(n * n, seed=n))
    cases = [(name, g, delta, op) for name, op in ops.items()]
    return cases + [("not a derivation", None, noisy, ops["dense"])]


class TestChunkedChecks:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9, 12])
    def test_match_n6_oracle(self, n):
        # the flow check takes its products in groups of n // 4 rows r
        # of units, one row below n = 8 and three at n = 12.  The
        # implementation check works in one piece; the flow check takes
        # ad_ig only, so the map that is no derivation meets it alone
        for name, g, d, op in oracle_cases(n, 110 + n):
            assert abs(
                implementation_check(d, op) - n6_implementation_check(n, d, op)
            ) <= 1e-12, name
            if g is None:
                continue
            flowed = {t: n6_flow_intertwining_residual(n, d, op, t) for t in (-1.0, 0.5, 1.0)}
            for t, expected in flowed.items():
                assert abs(flow_intertwining_residual(g, op, t) - expected) <= 1e-12, (name, t)
            # the ladder squares the exponentials of t = 0.5 for t = 1
            assert abs(
                flow_intertwining_residual(g, op, 0.5, 1.0) - max(flowed[0.5], flowed[1.0])
            ) <= 1e-12, name
            for times in [(), (0.5, 1.5), (1.0, 0.5), (0.5, 1.0, 3.0), (-1.0, 2.0)]:
                with pytest.raises(ValueError):
                    flow_intertwining_residual(g, op, *times)

    def test_one_row_chunks_match_n6_oracle(self):
        # at n = 5 the flow check forms its products one row r of units
        # at a time, five groups in all
        n = 5
        omega, g = equilibrium_instance(n, 120)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        for name, op in operators_under_test(s, n).items():
            assert abs(
                flow_intertwining_residual(g, op, 0.5)
                - n6_flow_intertwining_residual(n, delta, op, 0.5)
            ) <= 1e-12, name

    def test_split_rows_match_n6_oracle(self):
        # every time and the ladder, row group by row group at n = 5; a
        # second call repeats the first to the bit
        n = 5
        omega, g = equilibrium_instance(n, 125)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        for name, op in operators_under_test(s, n).items():
            flowed = {t: n6_flow_intertwining_residual(n, delta, op, t) for t in (-1.0, 0.5, 1.0)}
            for t, expected in flowed.items():
                assert abs(flow_intertwining_residual(g, op, t) - expected) <= 1e-12, (name, t)
            whole = flow_intertwining_residual(g, op, 0.5, 1.0)
            assert abs(whole - max(flowed[0.5], flowed[1.0])) <= 1e-12, name
            assert flow_intertwining_residual(g, op, 0.5, 1.0) == whole, name

    def test_footprint_at_n12(self):
        # the n^6 arrays of the unchunked checks took about 50 MiB here,
        # and rows of whole units under a 16 MiB budget 9.4 MiB
        n = 12
        omega, g = equilibrium_instance(n, 130)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        for check in (
            lambda: implementation_check(delta, s),
            lambda: flow_intertwining_residual(g, s, 1.0),
        ):
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 2**20


def commuting_generator(n, kind, seed):
    """A Hermitian g in a complex Haar eigenbasis u, with a simple
    spectrum or a repeated one (eigenvalues 1 and 2, the first of
    multiplicity n // 2), or g = 0.7 I exactly, and u."""
    rng = np.random.default_rng([seed, n])
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    values = {
        "simple": np.sort(rng.uniform(-2.0, 2.0, size=n)),
        "multiplicity": np.where(np.arange(n) < n // 2, 1.0, 2.0),
        "scalar": np.full(n, 0.7),
    }[kind]
    if kind == "scalar":
        return 0.7 * np.eye(n), u
    g = u @ np.diag(values) @ u.conj().T
    return (g + g.conj().T) / 2, u


def correspondence_partial(n, kind, state, seed):
    """T / n for the S that implements ad_ig under a state that commutes
    with g (equilibrium) or a random faithful one (not)."""
    g, u = commuting_generator(n, kind, seed)
    rng = np.random.default_rng([seed, n, 1])
    if state == "equilibrium":
        rho = u @ np.diag(rng.uniform(0.5, 1.5, size=n)) @ u.conj().T
    else:
        x = random_matrix(n, seed=seed + n)
        rho = x @ x.conj().T + 0.5 * np.eye(n)
    rho = (rho + rho.conj().T) / 2
    omega = state_from_density(rho / np.trace(rho).real)
    s, _ = implementing_operator(gns_construct(omega), ad_superoperator(g))
    return np.einsum("jpjr->pr", s.reshape(n, n, n, n)) / n, g


class TestCorrespondenceKernel:
    @pytest.mark.parametrize("state", ["equilibrium", "not equilibrium"])
    @pytest.mark.parametrize("kind", ["simple", "multiplicity", "scalar"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_eigen_route_matches_the_commutant(self, n, kind, state):
        h, g = correspondence_partial(n, kind, state, 180)
        # T = n g - tr(g) I under every faithful state
        assert frob(h - (g - np.trace(g) / n * np.eye(n))) <= 1e-13 * max(1.0, frob(g))
        kernel = gns._commutator_kernel(h, DEFAULT_RANK_TOL)
        reference = commutant([h], DEFAULT_RANK_TOL)
        assert kernel.dim == reference.dim
        assert subspace_distance(kernel, reference) <= 1e-12
        expected = {"simple": n, "multiplicity": (n // 2) ** 2 + (n - n // 2) ** 2,
                    "scalar": n * n}[kind]
        assert kernel.dim == expected
        defects = np.linalg.norm(h @ kernel.basis - kernel.basis @ h, axis=(1, 2))
        assert defects.max() <= 1e-12 * frob(h)

    @pytest.mark.parametrize("kind", ["simple", "multiplicity"])
    def test_conjugate_free_basis_fails(self, kind):
        # the eigenvectors are complex, so u_a u_b^T in place of u_a u_b*
        # leaves the commutant: this instance tells the two apart
        n = 5
        h, _ = correspondence_partial(n, kind, "equilibrium", 185)
        kernel = gns._commutator_kernel(h, DEFAULT_RANK_TOL)
        values, u = np.linalg.eigh(h)
        assert np.abs(u.imag).max() > 0.1
        pairs = [(a, b) for a in range(n) for b in range(n) if abs(values[a] - values[b]) <= 1e-8]
        conjugated = [np.outer(u[:, a], u[:, b].conj()) for a, b in pairs]
        assert subspace_distance(kernel, from_spanning(n, conjugated)) <= 1e-12
        unconjugated = np.stack([np.outer(u[:, a], u[:, b]) for a, b in pairs])
        defects = np.linalg.norm(h @ unconjugated - unconjugated @ h, axis=(1, 2))
        assert defects.max() >= 1e-2 * frob(h)
        assert subspace_distance(kernel, from_spanning(n, unconjugated)) >= 0.5

    def test_non_hermitian_partial_trace_gives_nan(self, monkeypatch):
        # the skewed operator of the oracle tests has a non-Hermitian T:
        # no kernel of i[T / n, .] is computed, and nothing is factored
        n = 4
        omega, g = equilibrium_instance(n, 190)
        delta = ad_superoperator(g)
        s, _ = implementing_operator(gns_construct(omega), delta)
        skewed = s + 1e-3 * np.kron(np.eye(n), random_matrix(n, seed=191))
        kernel = ad_kernel_tower(g, 1)[0]
        assert kernel_correspondence_distance(delta, s, kernel=kernel) <= 1e-12

        def refused(*args):
            raise AssertionError("a kernel of i[T / n, .] was computed")

        monkeypatch.setattr(gns, "_commutator_kernel", refused)
        assert np.isnan(kernel_correspondence_distance(delta, skewed, kernel=kernel))

    def test_br_gns_fails_a_non_hermitian_partial_trace(self, monkeypatch):
        # an S whose T / n is not Hermitian FAILs the correspondence rule
        # with margin inf, beside its symmetry rule
        n = 4
        omega, g = equilibrium_instance(n, 192)
        implement = cli.implementing_operator

        def skewed(rep, delta):
            s, _ = implement(rep, delta)
            s = s + 1e-3 * np.kron(np.eye(n), random_matrix(n, seed=193))
            return s, frob(s - s.conj().T)

        monkeypatch.setattr(cli, "implementing_operator", skewed)
        check = br_gns_check(f"br_gns/n={n}/i=0", omega, g, 5)
        assert check["pass"] is False
        assert np.isnan(check["details"]["kernel_correspondence"])
        assert check["margins"]["kernel_correspondence"] == np.inf


class TestCorrespondenceFootprint:
    @pytest.mark.parametrize("n", [12, 16])
    def test_peak_within_one_copy_of_s(self, n):
        # the n^2 x n^2 stack of commutant([T / n]) and its frame took
        # several copies of S; the eigen route holds n x n arrays and the
        # given ker ad_ig
        omega, g = equilibrium_instance(n, 195 + n)
        delta = ad_superoperator(g)
        s, _ = implementing_operator(gns_construct(omega), delta)
        kernel = ad_kernel_tower(g, 1)[0]
        tracemalloc.start()
        try:
            kernel_correspondence_distance(delta, s, kernel=kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= s.nbytes


class TestImplementationFootprint:
    @pytest.mark.parametrize("n", [12, 16])
    def test_peak_within_three_copies_of_s(self, n):
        # every array of the check has at most n^4 entries, as S has;
        # arrays of n^5 entries, one per column of every unit, would pass
        # 3 s.nbytes at n = 12
        omega, g = equilibrium_instance(n, 160 + n)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        tracemalloc.start()
        try:
            implementation_check(delta, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * s.nbytes


class TestOneFactorizationPerInstance:
    def test_br_gns_check_factors_the_map_once(self, monkeypatch):
        # one SVD, of the real block of ad_ig, whose tower gives ker
        # ad_ig; the commutant of T / n comes from its n x n eigh, and
        # nothing factors an n^2 x n^2 matrix
        n = 6
        omega, g = equilibrium_instance(n, 140)
        calls = []
        for name in ("_svd_split", "_block_split"):
            split = getattr(numlin, name)

            def counted(m, *args, name=name, split=split):
                calls.append((name, np.shape(m)))
                return split(m, *args)

            monkeypatch.setattr(numlin, name, counted)
        assert br_gns_check(f"br_gns/n={n}/i=0", omega, g, 5)["pass"]
        assert calls == [("_block_split", (n * (n - 1) // 2, n * (n + 1) // 2))]

    def test_tower_kernel_is_the_map_kernel(self):
        omega, g = equilibrium_instance(5, 145)
        delta = ad_superoperator(g)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        report = abstract_kernel_stabilization(g, 5)
        assert report.kernel.dim == report.kernel_dims[0] == delta.kernel().dim
        assert subspace_distance(report.kernel, delta.kernel()) <= 1e-12
        assert abs(
            kernel_correspondence_distance(delta, s, kernel=report.kernel)
            - kernel_correspondence_distance(delta, s, kernel=delta.kernel())
        ) <= 1e-12


class TestPropagatorConvention:
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("fault", ["-g", "g^T"])
    def test_wrong_generator_fails_the_flow_check(self, monkeypatch, n, fault):
        # negative control: with the true S, a propagator built from -g
        # or from g^T in place of g must fail, so that a sign or a
        # transpose slip in V cannot pass beside a matching slip in S.
        # V = exp(itg) is the check's only n x n exponential
        omega, g = equilibrium_instance(n, 170 + n)
        assert br_gns_check(f"br_gns/n={n}/i=0", omega, g, 5)["pass"]
        expm = gns.expm
        wrong = {"-g": np.negative, "g^T": np.transpose}[fault]
        monkeypatch.setattr(gns, "expm", lambda x: expm(wrong(x) if len(x) == n else x))
        check = br_gns_check(f"br_gns/n={n}/{fault}", omega, g, 5)
        assert check["pass"] is False
        # only the flow check fails, and the report names it
        margins = check["margins"]
        assert margins.pop("intertwining") >= 1e3
        assert max(margins.values()) <= 1.0
        assert check["residual"] == check["details"]["intertwining"]

    def test_rejects_non_hermitian_generator(self):
        omega, g = equilibrium_instance(3, 175)
        s, _ = implementing_operator(gns_construct(omega), ad_superoperator(g))
        with pytest.raises(NotHermitian):
            flow_intertwining_residual(g + 1e-3j * np.eye(3), s, 1.0)


class TestNegativeControls:
    @pytest.mark.parametrize("n", [4, 9])
    def test_rotated_state_is_not_equilibrium(self, n):
        # exp(i eps X) rho exp(-i eps X) with eps = 1e-3 leaves
        # ||[rho, g]|| about 1e-3, far above the equilibrium tolerance
        omega, g = equilibrium_instance(n, 140 + n)
        v = scipy.linalg.expm(1e-3j * random_hermitian(n, seed=150 + n))
        rho = v @ omega.rho @ v.conj().T
        rotated = state_from_density((rho + rho.conj().T) / 2)
        comm = frob(rotated.rho @ g - g @ rotated.rho)
        assert 1e-5 <= comm <= 1e-2
        # the check FAILs the pair through both equilibrium measurements
        check = br_gns_check(f"br_gns/n={n}/rotated", rotated, g, 5)
        assert check["pass"] is False
        assert check["details"]["equilibrium"] >= 1e3 * EQUILIBRIUM_TOL
        assert check["details"]["symmetry"] >= 1e3 * EQUILIBRIUM_TOL
        assert comm <= check["details"]["symmetry"] <= 100 * comm
