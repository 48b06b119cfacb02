"""States on M_n, the GNS construction, and the operator implementing a
derivation under an equilibrium state.

Conventions.  A state is omega(a) = tr(rho a) for a density matrix rho.
The GNS inner product <a, b> = omega(b* a) is linear in the first slot.
Derivations are normalized as delta(x) = [i g, x] for a Hermitian
generator g; the implementing operator S is defined on the dense (here:
full) domain pi(M_n) f by S pi(a) f = -i pi(delta(a)) f, which makes S
Hermitian exactly when omega is an equilibrium state, and gives the
implementation identity pi(delta(a)) = [iS, pi(a)].

The GNS Gram matrix rho^T (x) I has Cholesky factor R = L* (x) I with
L = chol(rho^T), so pi(a) = I (x) a in GNS coordinates; the checks use
that closed form and the n x n factor L*, never an n^2 x n^2 factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .commutant import commutation_matrix
from .derivation import (
    DEFAULT_DISTANCE_TOL,
    Superoperator,
    ad_superoperator,
    kernel_stabilization_report,
    superoperator_stabilization_report,
)
from .errors import NotDensity, NotDerivation, NotEquilibrium, NotFaithful, ShapeMismatch
from .numlin import (
    DEFAULT_RANK_TOL,
    as_cmatrix,
    frob,
    hermitian_eig,
    is_hermitian,
    kron,
    require_hermitian,
    subspace_distance,
    vec,
)

FAITHFULNESS_TOL = 1e-10
EQUILIBRIUM_TOL = 1e-9
LEIBNIZ_TOL = 1e-9
STAR_TOL = 1e-10


@dataclass(frozen=True)
class State:
    """A state on M_n, stored through its density matrix."""

    rho: np.ndarray = field(repr=False)
    n: int
    faithful: bool
    min_eigenvalue: float

    def expectation(self, a) -> complex:
        return complex(np.trace(self.rho @ as_cmatrix(a)))


def state_from_density(rho, faithfulness_tol: float = FAITHFULNESS_TOL) -> State:
    """Validate a density matrix and wrap it as a State.

    Rejects non-Hermitian matrices, trace away from 1 by more than 1e-12,
    and eigenvalues below -1e-12.  The faithful flag records whether the
    smallest eigenvalue clears faithfulness_tol.
    """
    rho = as_cmatrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise NotDensity(f"density matrix must be square, got {rho.shape}")
    if not is_hermitian(rho):
        raise NotDensity("density matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-12:
        raise NotDensity(f"trace {tr} is not 1")
    w, _ = hermitian_eig(rho)
    if w.min() < -1e-12:
        raise NotDensity(f"negative eigenvalue {w.min():.3e}")
    return State(
        rho=rho,
        n=rho.shape[0],
        faithful=bool(w.min() > faithfulness_tol),
        min_eigenvalue=float(w.min()),
    )


@dataclass(frozen=True)
class Derivation:
    """A derivation of M_n: its superoperator plus provenance.

    kind is "inner" (map = ad_ig for a Hermitian generator) or "abstract"
    (a raw superoperator validated against the Leibniz rule and adjoint
    compatibility at construction).
    """

    ambient_dim: int
    map: Superoperator
    kind: str
    generator: np.ndarray | None = field(default=None, repr=False)


def _validate_derivation(sop: Superoperator, rng=None):
    rng = rng or np.random.default_rng(20240401)
    n = sop.ambient_dim
    for _ in range(4):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        leibniz = sop.apply(x @ y) - sop.apply(x) @ y - x @ sop.apply(y)
        if frob(leibniz) > LEIBNIZ_TOL * (1.0 + frob(x) * frob(y)):
            raise NotDerivation(
                f"Leibniz residual {frob(leibniz):.3e} on a random pair"
            )
        star = sop.apply(x.conj().T) - sop.apply(x).conj().T
        if frob(star) > STAR_TOL * max(1.0, frob(x)):
            raise NotDerivation(f"adjoint-compatibility residual {frob(star):.3e}")


def inner_derivation(a) -> Derivation:
    """The derivation x -> [i a, x] of a Hermitian generator a."""
    a = require_hermitian(a)
    return Derivation(
        ambient_dim=a.shape[0],
        map=ad_superoperator(a),
        kind="inner",
        generator=a,
    )


def abstract_derivation(matrix) -> Derivation:
    """Wrap a raw n^2 x n^2 matrix as a derivation, rejecting maps that
    fail the Leibniz or adjoint checks (every derivation of M_n is inner,
    so near-derivations are detectable)."""
    matrix = as_cmatrix(matrix)
    n2 = matrix.shape[0]
    n = int(round(np.sqrt(n2)))
    if n * n != n2 or matrix.shape[1] != n2:
        raise NotDerivation(f"matrix of shape {matrix.shape} is not n^2 x n^2")
    sop = Superoperator(n, matrix, "abstract derivation")
    _validate_derivation(sop)
    return Derivation(ambient_dim=n, map=sop, kind="abstract")


def equilibrium_check(omega: State, delta: Derivation) -> float:
    """Max of |omega(delta(b))| over the n^2 matrix units b.

    For an inner derivation this residual is the largest entry of
    i[rho, generator]; it vanishes iff the state commutes with the
    generator.
    """
    if omega.n != delta.ambient_dim:
        raise NotEquilibrium(
            f"state on M_{omega.n} cannot pair with a derivation of "
            f"M_{delta.ambient_dim}"
        )
    # tr(rho delta(E_rc)) for all units rc in one matrix-vector product
    weights = vec(omega.rho.T) @ delta.map.matrix
    return float(np.max(np.abs(weights)))


@dataclass(frozen=True)
class GNSRepresentation:
    """The GNS triple (pi, H, f) of a faithful state on M_n.

    H is M_n with inner product omega(b* a).  Its Gram matrix on vec
    coordinates is rho^T (x) I, whose Cholesky factor is R = L* (x) I
    with L = chol(rho^T); the coordinates of a are R vec(a) =
    vec(a (L*)^T), and pi(a) = R (I (x) a) R^-1 = I (x) a exactly.  Only
    the n x n factor L* and its inverse are stored; f is the class of the
    identity.
    """

    hilbert_dim: int
    state: State
    factor: np.ndarray = field(repr=False)
    factor_inv: np.ndarray = field(repr=False)
    cyclic_vector: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.state.n

    def embed(self, a) -> np.ndarray:
        """Coordinates of pi(a) f, i.e. of the class of a."""
        return vec(as_cmatrix(a) @ self.factor.T)

    def pi(self, a) -> np.ndarray:
        """The representation: left multiplication by a in GNS coordinates,
        which is I (x) a.  Takes one n x n matrix or a (k, n, n) stack."""
        n, d = self.n, self.hilbert_dim
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim not in (2, 3) or a.shape[-2:] != (n, n):
            raise ShapeMismatch(f"expected {n}x{n} matrices, got shape {a.shape}")
        # I (x) [a_0; a_1; ...] holds row block p of I (x) a_k at rows (p, k)
        blocks = kron(np.eye(n), a.reshape(-1, n)).reshape(n, -1, n, d)
        return blocks.swapaxes(0, 1).reshape(a.shape[:-2] + (d, d))

    def inner(self, u, v) -> complex:
        """Hilbert-space inner product, linear in the first argument."""
        return complex(np.vdot(v, u))


def gns_construct(omega: State) -> GNSRepresentation:
    """Build the GNS representation of a faithful state.

    The Gram matrix of the matrix units under omega(b* a) is rho^T (x) I;
    it factors through the n x n Cholesky factor of rho^T, which turns
    M_n into coordinates where the inner product is standard.
    Non-faithful states are rejected (no quotient).
    """
    if not omega.faithful:
        raise NotFaithful(
            f"minimal eigenvalue {omega.min_eigenvalue:.3e} is below the "
            f"faithfulness tolerance; the quotient construction is unsupported"
        )
    n = omega.n
    try:
        lower = np.linalg.cholesky(omega.rho.T)
    except np.linalg.LinAlgError as exc:
        raise NotFaithful(f"Gram matrix is not positive definite: {exc}") from exc
    factor = lower.conj().T
    return GNSRepresentation(
        hilbert_dim=n * n,
        state=omega,
        factor=factor,
        factor_inv=scipy.linalg.solve_triangular(factor, np.eye(n), lower=False),
        cyclic_vector=vec(factor.T),
    )


def implementing_operator(
    gns: GNSRepresentation, delta: Derivation
) -> tuple[np.ndarray, float]:
    """The operator S with S pi(a) f = -i pi(delta(a)) f, plus its
    symmetry defect ||S - S*||.

    S = -i R M R^-1 for the map matrix M of any derivation; with R =
    L* (x) I the factors act on the column index of the vec coordinates
    only.  Requires an equilibrium state (residual <= 1e-9); under that
    hypothesis S is Hermitian up to roundoff and satisfies
    pi(delta(a)) = [iS, pi(a)].
    """
    residual = equilibrium_check(gns.state, delta)
    if residual > EQUILIBRIUM_TOL:
        raise NotEquilibrium(
            f"equilibrium residual {residual:.3e} exceeds {EQUILIBRIUM_TOL:.1e}"
        )
    n, d = gns.n, gns.hilbert_dim
    left = (gns.factor @ delta.map.matrix.reshape(n, -1)).reshape(d, n, n)
    s = -1j * np.matmul(gns.factor_inv.T, left).reshape(d, d)
    return s, frob(s - s.conj().T)


def _norms(x, spec: str) -> np.ndarray:
    """Euclidean norms over the axes of x that the einsum spec
    "axes->kept" drops.  Summed through a float view of x, so no
    temporary of its size is made."""
    axes, kept = spec.split("->")
    parts = x.view(np.float64).reshape(x.shape + (2,))
    return np.sqrt(np.einsum(f"{axes}z,{axes}z->{kept}", parts, parts))


def _unit_blocks(matrix, n: int) -> np.ndarray:
    """Images of the matrix units under the map with this vec-coordinate
    matrix, as blocks[r, c, i, j] = L(E_rc)[i, j]."""
    return matrix.reshape(n, n, n, n).transpose(3, 2, 1, 0)


def implementation_check(gns: GNSRepresentation, delta: Derivation, s) -> float:
    """Max over matrix units a and basis vectors h of
    ||pi(delta(a)) h - [iS, pi(a)] h||."""
    n = gns.n
    s4 = as_cmatrix(s).reshape(n, n, n, n)
    # -i (pi(delta(a)) - [iS, pi(a)]) has the same column norms; for
    # a = E_rc it is -i I (x) delta(a) - S (I (x) a) + (I (x) a) S, held
    # as res[r, c, p, i, q, j] at row p n + i and column q n + j
    res = np.zeros((n,) * 6, dtype=np.complex128)
    derived = _unit_blocks(delta.map.matrix, n)
    np.einsum("rcpipj->rcpij", res)[...] = -1j * derived[:, :, None]
    # S (I (x) E_rc): the columns r + nl of S, moved to columns c + nl
    np.einsum("rcpiqc->rcpiq", res)[...] -= s4.transpose(3, 0, 1, 2)[:, None]
    # (I (x) E_rc) S: the rows c + nl of S, moved to rows r + nl
    np.einsum("rcprqj->rcpqj", res)[...] += s4.transpose(1, 0, 2, 3)[None]
    # column norms = residual on every coordinate basis vector h
    return float(np.max(_norms(res, "rcpiqj->rcqj")))


def flow_intertwining_residual(
    gns: GNSRepresentation, delta: Derivation, s, t: float
) -> float:
    """Max over matrix units a of
    ||exp(iSt) pi(a) exp(-iSt) - pi(exp(t map)(a))||."""
    n, d = gns.n, gns.hilbert_dim
    s = as_cmatrix(s)
    u = scipy.linalg.expm(1j * t * s)
    u_inv = scipy.linalg.expm(-1j * t * s)
    propagated = scipy.linalg.expm(t * delta.map.matrix)
    # U (I (x) E_rc) U^-1 = sum_l U[:, r + nl] U^-1[c + nl, :], so every
    # unit comes from one product, held as diff[p, i, r, c, q, j]
    columns = u.reshape(d, n, n).swapaxes(1, 2).reshape(d * n, n)
    diff = (columns @ u_inv.reshape(n, n * d)).reshape((n,) * 6)
    flowed = _unit_blocks(propagated, n)
    np.einsum("pircpj->pircj", diff)[...] -= flowed.transpose(2, 0, 1, 3)
    return float(np.max(_norms(diff, "pircqj->rc")))


def kernel_correspondence_distance(
    gns: GNSRepresentation, delta: Derivation, s, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Distance between the kernel of [iS, .] restricted to the range of
    pi and the image under pi of ker(map).

    [iS, .] preserves the range of pi (that is the implementation
    identity).  The range has the orthonormal basis I (x) E_u / sqrt(n),
    in which the restriction is i (I (x) T - T^T (x) I) / n for the
    partial trace T[p, r] = sum_j S[p + nj, r + nj].  a -> I (x) a /
    sqrt(n) is an isometry from M_n onto that range, so both kernels are
    compared in M_n, with unchanged projector distance.
    """
    n = gns.n
    partial = np.einsum("jpjr->pr", as_cmatrix(s).reshape(n, n, n, n))
    restricted = Superoperator(n, 1j / n * commutation_matrix(partial))
    return subspace_distance(restricted.kernel(rank_tol), delta.map.kernel(rank_tol))


def abstract_kernel_stabilization(
    delta: Derivation,
    n_max: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    distance_tol: float = DEFAULT_DISTANCE_TOL,
):
    """Kernel stabilization report of a derivation: for an inner one,
    ``kernel_stabilization_report`` of its generator, which adds the
    spectrum and multiplicities; otherwise
    ``superoperator_stabilization_report`` of its map."""
    if delta.generator is not None:
        return kernel_stabilization_report(delta.generator, n_max, rank_tol, distance_tol)
    return superoperator_stabilization_report(delta.map, n_max, rank_tol, distance_tol)


def analytic_norm_series(delta: Derivation, a, t: float, k_max: int) -> np.ndarray:
    """Partial sums of sum_k t^k / k! ||delta^k(a)|| for k <= k_max.

    Bounded by ||a|| exp(t ||map||), so every matrix is an analytic
    vector at finite dimension.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    a = as_cmatrix(a)
    term = a
    total = frob(a)
    partial = [total]
    factorial = 1.0
    for k in range(1, k_max + 1):
        term = delta.map.apply(term)
        factorial *= k
        total += t**k / factorial * frob(term)
        partial.append(total)
    return np.asarray(partial)
