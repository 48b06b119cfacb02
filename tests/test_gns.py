import numpy as np
import pytest
import scipy.linalg

from derivlab.cli import equilibrium_instance
from derivlab.derivation import ad_superoperator
from derivlab.errors import (
    NotDensity,
    NotDerivation,
    NotEquilibrium,
    NotFaithful,
    NotHermitian,
)
from derivlab.gns import (
    abstract_derivation,
    abstract_kernel_stabilization,
    analytic_norm_series,
    equilibrium_check,
    flow_intertwining_residual,
    gns_construct,
    implementation_check,
    implementing_operator,
    inner_derivation,
    kernel_correspondence_distance,
    state_from_density,
)
from derivlab.numlin import (
    DEFAULT_RANK_TOL,
    OperatorSubspace,
    frob,
    subspace_distance,
    unvec,
    vec,
)

from conftest import matrix_unit, random_hermitian, random_matrix


def tracial_state(n):
    return state_from_density(np.eye(n) / n)


class TestState:
    def test_tracial(self):
        omega = tracial_state(3)
        assert omega.faithful
        assert abs(omega.expectation(np.eye(3)) - 1.0) <= 1e-12

    def test_pure_state_not_faithful(self):
        omega = state_from_density(matrix_unit(2, 0, 0))
        assert not omega.faithful

    def test_expectation_values(self):
        omega = state_from_density(np.diag([0.7, 0.3]))
        # oracle: direct trace
        assert abs(omega.expectation(np.diag([2.0, 4.0])) - (1.4 + 1.2)) <= 1e-12

    def test_rejections(self):
        with pytest.raises(NotDensity):
            state_from_density(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(NotDensity):
            state_from_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(NotDensity):
            state_from_density(np.diag([1.5, -0.5]))  # negative eigenvalue


class TestDerivationConstruction:
    def test_zero_generator(self):
        delta = inner_derivation(np.zeros((2, 2)))
        assert frob(delta.map.matrix) == 0.0

    def test_scalar_commutator(self):
        delta = inner_derivation(np.diag([0.0, 1.0]))
        b = matrix_unit(2, 0, 1)
        # oracle: [i diag(0,1), E01] = i(0 - 1) E01
        assert frob(delta.map.apply(b) - (-1j) * b) <= 1e-14

    def test_star_compatibility(self):
        delta = inner_derivation(random_hermitian(4, seed=1))
        x = random_matrix(4, seed=2)
        assert frob(delta.map.apply(x.conj().T) - delta.map.apply(x).conj().T) <= 1e-12

    def test_rejects_non_hermitian_generator(self):
        with pytest.raises(NotHermitian):
            inner_derivation(matrix_unit(2, 0, 1))

    def test_abstract_accepts_true_derivation(self):
        mat = ad_superoperator(random_hermitian(3, seed=3)).matrix
        delta = abstract_derivation(mat)
        assert delta.kind == "abstract"

    def test_abstract_rejects_near_derivation(self):
        mat = ad_superoperator(random_hermitian(3, seed=4)).matrix
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(mat.shape) * 1e-3
        with pytest.raises(NotDerivation):
            abstract_derivation(mat + noise)


class TestEquilibrium:
    def test_tracial_state_always_equilibrium(self):
        omega = tracial_state(3)
        delta = inner_derivation(random_hermitian(3, seed=6))
        assert equilibrium_check(omega, delta) <= 1e-12

    def test_commuting_diagonal_pair(self):
        omega = state_from_density(np.diag([0.7, 0.3]))
        delta = inner_derivation(np.diag([0.0, 1.0]))
        assert equilibrium_check(omega, delta) <= 1e-12

    def test_noncommuting_residual_value(self):
        omega = state_from_density(np.diag([0.7, 0.3]))
        delta = inner_derivation(matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0))
        # oracle: max entry of i[rho, a] = 0.7 - 0.3 times the off-diagonal
        assert abs(equilibrium_check(omega, delta) - 0.4) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_iff_state_commutes(self, seed):
        omega, delta = equilibrium_instance(4, seed)
        comm = omega.rho @ delta.generator - delta.generator @ omega.rho
        assert equilibrium_check(omega, delta) <= 1e-10
        assert frob(comm) <= 1e-9
        # perturbed generator breaks both sides of the equivalence
        bad = inner_derivation(
            delta.generator + 0.5 * (matrix_unit(4, 0, 1) + matrix_unit(4, 1, 0))
        )
        bad_comm = omega.rho @ bad.generator - bad.generator @ omega.rho
        assert equilibrium_check(omega, bad) > 1e-10
        assert frob(bad_comm) > 1e-9


class TestGNSConstruction:
    def test_tracial_two_by_two(self):
        rep = gns_construct(tracial_state(2))
        assert rep.hilbert_dim == 4
        assert abs(rep.inner(rep.cyclic_vector, rep.cyclic_vector) - 1.0) <= 1e-12

    def test_inner_product_reproduces_state(self):
        omega = state_from_density(np.diag([0.7, 0.3]))
        rep = gns_construct(omega)
        e00 = matrix_unit(2, 0, 0)
        # oracle: tr(rho E00* E00) = rho_00 = 0.7
        val = rep.inner(rep.embed(e00), rep.embed(e00))
        assert abs(val - 0.7) <= 1e-12

    def test_inner_products_match_state_on_random_pairs(self):
        omega, _ = equilibrium_instance(3, 7)
        rep = gns_construct(omega)
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = rep.inner(rep.embed(a), rep.embed(b))
            rhs = omega.expectation(b.conj().T @ a)
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
            [rep.embed(matrix_unit(3, r, c)) for r in range(3) for c in range(3)]
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
        for r in range(4):
            for c in range(4):
                a = matrix_unit(4, r, c)
                lhs = rep.inner(rep.pi(a) @ rep.cyclic_vector, rep.cyclic_vector)
                assert abs(lhs - omega.expectation(a)) <= 1e-10

    def test_rejects_non_faithful(self):
        with pytest.raises(NotFaithful):
            gns_construct(state_from_density(matrix_unit(2, 0, 0)))


class TestImplementingOperator:
    def test_zero_derivation(self):
        rep = gns_construct(tracial_state(2))
        s, symmetry = implementing_operator(rep, inner_derivation(np.zeros((2, 2))))
        assert frob(s) <= 1e-12
        assert symmetry <= 1e-12

    def test_tracial_spectrum(self):
        rep = gns_construct(tracial_state(2))
        delta = inner_derivation(np.diag([0.0, 1.0]))
        s, symmetry = implementing_operator(rep, delta)
        assert symmetry <= 1e-12
        # oracle: eigenvalue differences of the generator
        assert np.allclose(sorted(np.linalg.eigvalsh(s)), [-1.0, 0.0, 0.0, 1.0])

    def test_tracial_spectrum_random_generator(self):
        a = random_hermitian(3, seed=15)
        rep = gns_construct(tracial_state(3))
        s, _ = implementing_operator(rep, inner_derivation(a))
        w = np.linalg.eigvalsh(a)
        expected = sorted(float(wr - wc) for wr in w for wc in w)
        assert np.allclose(sorted(np.linalg.eigvalsh((s + s.conj().T) / 2)), expected)

    def test_requires_equilibrium(self):
        omega = state_from_density(np.diag([0.7, 0.3]))
        delta = inner_derivation(matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0))
        rep = gns_construct(omega)
        with pytest.raises(NotEquilibrium):
            implementing_operator(rep, delta)

    def test_implementation_identity(self):
        rep = gns_construct(tracial_state(2))
        delta = inner_derivation(np.diag([0.0, 1.0]))
        s, _ = implementing_operator(rep, delta)
        assert implementation_check(rep, delta, s) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_random_equilibrium_instances(self, seed):
        omega, delta = equilibrium_instance(3, 20 + seed)
        rep = gns_construct(omega)
        s, symmetry = implementing_operator(rep, delta)
        assert symmetry <= 1e-9
        assert implementation_check(rep, delta, s) <= 1e-9

    def test_flow_intertwining(self):
        omega, delta = equilibrium_instance(3, 30)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        for t in (-1.0, 0.25, 1.0):
            assert flow_intertwining_residual(rep, delta, s, t) <= 1e-8

    def test_kernel_correspondence(self):
        omega, delta = equilibrium_instance(4, 31)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        assert kernel_correspondence_distance(rep, delta, s) <= 1e-8


class TestAbstractStabilization:
    def test_inner_distinct(self):
        delta = inner_derivation(np.diag([0.0, 1.0, 2.0]))
        report = abstract_kernel_stabilization(delta, 4)
        assert report.kernel_dims == (3, 3, 3, 3)
        assert report.passed

    def test_zero_map(self):
        delta = inner_derivation(np.zeros((3, 3)))
        report = abstract_kernel_stabilization(delta, 3)
        assert report.kernel_dims == (9, 9, 9)

    def test_multiplicity_two_two(self):
        from derivlab.cli import generate

        a = generate("hermitian_with_multiplicity", 4, 16, multiplicities=[2, 2])
        report = abstract_kernel_stabilization(inner_derivation(a), 5)
        assert report.kernel_dims == (8, 8, 8, 8, 8)
        assert report.passed


class TestAnalyticSeries:
    def test_zero_derivation(self):
        delta = inner_derivation(np.zeros((2, 2)))
        a = random_matrix(2, seed=17)
        sums = analytic_norm_series(delta, a, 1.0, 6)
        assert np.allclose(sums, frob(a))

    def test_unit_norm_chain_converges_to_e(self):
        delta = inner_derivation(np.diag([0.0, 1.0]))
        a = matrix_unit(2, 0, 1)
        sums = analytic_norm_series(delta, a, 1.0, 16)
        # oracle: ||delta^k(a)|| = 1 for every k, so the series is e
        import math

        partial_e = sum(1.0 / math.factorial(k) for k in range(17))
        assert abs(sums[-1] - partial_e) <= 1e-12
        assert abs(sums[-1] - np.e) <= 1e-12

    def test_norm_bound(self):
        omega, delta = equilibrium_instance(3, 18)
        a = random_matrix(3, seed=19)
        t = 0.7
        sums = analytic_norm_series(delta, a, t, 20)
        assert np.all(np.diff(sums) >= -1e-15)
        assert sums[0] >= frob(a) - 1e-12
        assert sums[-1] <= frob(a) * np.exp(t * delta.map.norm()) + 1e-9


def units_one_by_one(n):
    return [matrix_unit(n, r, c) for c in range(n) for r in range(n)]


def oracle_implementation(rep, delta, s):
    worst = 0.0
    for unit in units_one_by_one(rep.n):
        pa = rep.pi(unit)
        lhs = rep.pi(delta.map.apply(unit))
        rhs = 1j * (s @ pa - pa @ s)
        worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=0))))
    return worst


def oracle_intertwining(rep, delta, s, t):
    u = scipy.linalg.expm(1j * t * s)
    u_inv = scipy.linalg.expm(-1j * t * s)
    propagated = scipy.linalg.expm(t * delta.map.matrix)
    worst = 0.0
    for unit in units_one_by_one(rep.n):
        lhs = u @ rep.pi(unit) @ u_inv
        rhs = rep.pi(unvec(propagated @ vec(unit), rep.n))
        worst = max(worst, frob(lhs - rhs))
    return worst


def oracle_kernel_correspondence(rep, delta, s):
    d = rep.hilbert_dim
    range_stack = np.stack([vec(rep.pi(u)) for u in units_one_by_one(rep.n)]).T
    q, _ = np.linalg.qr(range_stack)
    basis = [unvec(q[:, j], d) for j in range(q.shape[1])]
    restricted = np.array(
        [[np.vdot(c, 1j * (s @ b - b @ s)) for b in basis] for c in basis]
    )
    _, sing, null = np.linalg.svd(restricted)
    rank = int(np.sum(sing > DEFAULT_RANK_TOL * max(sing[0], 1.0)))
    kernel = [sum(z * b for z, b in zip(row.conj(), basis)) for row in null[rank:]]
    pushed = [rep.pi(b) for b in delta.map.kernel(DEFAULT_RANK_TOL).basis]
    return subspace_distance(
        OperatorSubspace.from_spanning(d, kernel),
        OperatorSubspace.from_spanning(d, pushed),
    )


def perturbed(s, n, seed):
    """S + 1e-3 (I (x) X): the added term is pi(X), so the implementation
    identity, the flow and the kernel correspondence all break by O(1e-3)."""
    return s + 1e-3 * np.kron(np.eye(n), random_hermitian(n, seed))


class TestBatchedChecks:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_match_per_unit_oracle(self, n):
        omega, delta = equilibrium_instance(n, 40 + n)
        rep = gns_construct(omega)
        # the stacked pi agrees with the dense R kron(I, a) R^-1
        stack = np.stack([random_matrix(n, seed=k) for k in range(3)])
        dense = [
            rep.gram_factor @ np.kron(np.eye(n), a) @ rep.gram_factor_inv
            for a in stack
        ]
        assert np.max(np.abs(rep.pi(stack) - dense)) <= 1e-12
        s, _ = implementing_operator(rep, delta)
        # the perturbed operator makes each residual O(1e-3), so agreement
        # to 1e-12 is not just two roundoff-sized numbers
        for op in (s, perturbed(s, n, 50 + n)):
            assert abs(
                implementation_check(rep, delta, op)
                - oracle_implementation(rep, delta, op)
            ) <= 1e-12
            for t in (0.5, 1.0):
                assert abs(
                    flow_intertwining_residual(rep, delta, op, t)
                    - oracle_intertwining(rep, delta, op, t)
                ) <= 1e-12
            assert abs(
                kernel_correspondence_distance(rep, delta, op)
                - oracle_kernel_correspondence(rep, delta, op)
            ) <= 1e-12

    @pytest.mark.parametrize("n", [3, 6])
    def test_detects_perturbed_operator(self, n):
        omega, delta = equilibrium_instance(n, 60 + n)
        rep = gns_construct(omega)
        s, _ = implementing_operator(rep, delta)
        bad = perturbed(s, n, 70 + n)
        assert implementation_check(rep, delta, bad) > 1e-6
        assert flow_intertwining_residual(rep, delta, bad, 1.0) > 1e-6
        assert kernel_correspondence_distance(rep, delta, bad) > 1e-6
