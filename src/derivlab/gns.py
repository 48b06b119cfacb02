"""States on M_n, the GNS construction, and the operator implementing a
derivation under an equilibrium state.

Conventions.  A state is omega(a) = tr(rho a) for a density matrix rho.
The GNS inner product <a, b> = omega(b* a) is linear in the first slot.
Every derivation of M_n is inner, so each is held with its Hermitian
generator g as delta(x) = [i g, x].  The implementing operator S is
defined on the dense (here: full) domain pi(M_n) f by
S pi(a) f = -i pi(delta(a)) f, which makes S Hermitian exactly when
omega is an equilibrium state, and gives the implementation identity
pi(delta(a)) = [iS, pi(a)].

The GNS Gram matrix rho^T (x) I has Cholesky factor R = L* (x) I with
L = chol(rho^T), so pi(a) = I (x) a in GNS coordinates; the checks use
that closed form and the n x n factor L*, never an n^2 x n^2 factor.
The implementation and flow checks visit the n^2 matrix units in chunks
of rows r, each within a fixed byte budget (_CHUNK_BYTES), and keep a
running max; the implementation residual is assembled from its three
structural terms, O(n^5) entries in all, and the flow residual from one
product per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .commutant import commutant
from .derivation import (
    DEFAULT_DISTANCE_TOL,
    Superoperator,
    ad_superoperator,
    superoperator_stabilization_report,
)
from .errors import NotDensity, NotEquilibrium, NotFaithful, ShapeMismatch
from .numlin import (
    DEFAULT_RANK_TOL,
    as_cmatrix,
    expm,
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
# byte budget of the implementation and flow checks, which gather the
# matrix units in chunks of rows r and keep a running max
_CHUNK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class State:
    """A state on M_n, stored through its density matrix."""

    rho: np.ndarray = field(repr=False)
    min_eigenvalue: float

    @property
    def n(self) -> int:
        return self.rho.shape[0]

    @property
    def faithful(self) -> bool:
        return self.min_eigenvalue > FAITHFULNESS_TOL


def state_from_density(rho) -> State:
    """Validate a density matrix and wrap it as a State.

    Rejects non-Hermitian matrices, trace away from 1 by more than 1e-12,
    and eigenvalues below -1e-12.  The state is faithful when its
    smallest eigenvalue clears FAITHFULNESS_TOL.
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
    return State(rho=rho, min_eigenvalue=float(w.min()))


@dataclass(frozen=True)
class Derivation:
    """An inner derivation x -> [i g, x] of M_n: its Hermitian generator g
    and the superoperator ad_ig.  Every derivation of M_n is inner, so
    the generator is always present."""

    map: Superoperator
    generator: np.ndarray = field(repr=False)

    @property
    def ambient_dim(self) -> int:
        return self.map.ambient_dim


def inner_derivation(a) -> Derivation:
    """The derivation x -> [i a, x] of a Hermitian generator a."""
    a = require_hermitian(a)
    return Derivation(map=ad_superoperator(a), generator=a)


def equilibrium_check(omega: State, delta: Derivation) -> float:
    """Max of |omega(delta(b))| over the n^2 matrix units b.

    This residual is the largest entry of i[rho, generator]; it vanishes
    iff the state commutes with the generator.
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

    state: State
    factor: np.ndarray = field(repr=False)
    factor_inv: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.state.n

    @property
    def hilbert_dim(self) -> int:
        return self.n * self.n

    @property
    def cyclic_vector(self) -> np.ndarray:
        """f = pi(I) f, the coordinates of the class of the identity."""
        return vec(self.factor.T)

    def pi(self, a) -> np.ndarray:
        """The representation: left multiplication by a in GNS coordinates,
        which is I (x) a."""
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (self.n, self.n):
            raise ShapeMismatch(f"expected a {self.n}x{self.n} matrix, got shape {a.shape}")
        return kron(np.eye(self.n), a)

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
    try:
        lower = np.linalg.cholesky(omega.rho.T)
    except np.linalg.LinAlgError as exc:
        raise NotFaithful(f"Gram matrix is not positive definite: {exc}") from exc
    factor = lower.conj().T
    # LU of an upper-triangular matrix does not pivot, so the inverse
    # stays exactly upper triangular
    return GNSRepresentation(state=omega, factor=factor, factor_inv=np.linalg.inv(factor))


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


def _mass(x, spec: str) -> np.ndarray:
    """Squared Euclidean norms over the axes of x that the einsum spec
    "axes->kept" drops.  Summed through a float view of x, so no
    temporary of its size is made."""
    axes, kept = spec.split("->")
    parts = x.view(np.float64).reshape(x.shape + (2,))
    return np.einsum(f"{axes}z,{axes}z->{kept}", parts, parts)


def _unit_blocks(matrix, n: int) -> np.ndarray:
    """Images of the matrix units under the map with this vec-coordinate
    matrix, as blocks[r, c, i, j] = L(E_rc)[i, j]."""
    return matrix.reshape(n, n, n, n).transpose(3, 2, 1, 0)


def _unit_chunks(n: int, row_bytes: int) -> list:
    """Slices of the row index r of the matrix units E_rc, so that the
    arrays of one chunk, row_bytes per row r, fill at most half of
    _CHUNK_BYTES; the other half is left for the d x d operators the
    checks hold besides."""
    rows = max(1, _CHUNK_BYTES // (2 * row_bytes))
    return [slice(r, min(r + rows, n)) for r in range(0, n, rows)]


def implementation_check(gns: GNSRepresentation, delta: Derivation, s) -> float:
    """Max over matrix units a and basis vectors h of
    ||pi(delta(a)) h - [iS, pi(a)] h||."""
    n = gns.n
    s4 = as_cmatrix(s).reshape(n, n, n, n)
    derived = _unit_blocks(delta.map.matrix, n)
    # -i (pi(delta(a)) - [iS, pi(a)]) has the same column norms; for
    # a = E_rc, its column q n + j holds at row p n + i the terms
    # T1 = -i delta(a)[i, j] if p = q, T2 = -S[pn + i, qn + r] if j = c,
    # and T3 = S[pn + c, qn + j] if i = r.  For j != c the rows p != q
    # hold T3 alone, whose mass does not depend on r; it is summed with
    # the blocks p = q masked, since subtracting them from the total
    # would cancel
    s_mass = s4.real**2 + s4.imag**2
    np.einsum("pcpj->cpj", s_mass)[...] = 0.0
    off_block = s_mass.sum(axis=0)
    on_block = np.einsum("qcqj->cqj", s4)
    on_column = np.einsum("rcic->rci", derived)

    def chunk_mass(rows):
        k = rows.stop - rows.start
        # j != c: block p = q of the column, T1 + T3, as col[r, c, q, i, j]
        col = np.empty((k, n, n, n, n), dtype=np.complex128)
        col[...] = -1j * derived[rows, :, None]
        np.einsum("rcqrj->rcqj", col[:, :, :, rows])[...] += on_block
        mass = _mass(col, "rcqij->rcqj") + off_block
        # j = c: the dense column, as col[r, c, q, p, i]
        col[...] = -s4.transpose(3, 2, 0, 1)[rows, None]
        np.einsum("rcqqi->rcqi", col)[...] -= 1j * on_column[rows, :, None]
        np.einsum("rcqpr->rcqp", col[..., rows])[...] += np.einsum("pcqc->cqp", s4)
        np.einsum("rcqc->rcq", mass)[...] = _mass(col, "rcqpi->rcq")
        return mass.max()

    # a running max over chunks, each freed before the next is built
    return float(np.sqrt(max(map(chunk_mass, _unit_chunks(n, 16 * n**4)))))


def flow_intertwining_residual(
    gns: GNSRepresentation, delta: Derivation, s, t: float
) -> float:
    """Max over matrix units a of
    ||exp(iSt) pi(a) exp(-iSt) - pi(exp(t map)(a))||."""
    n, d = gns.n, gns.hilbert_dim
    u = expm(1j * t * as_cmatrix(s))
    # exp(X)^-1 = exp(-X) for every square X; one inverse is cheaper
    # than a second expm
    u_inv = np.linalg.inv(u).reshape(n, n * d)
    flowed = _unit_blocks(expm(t * delta.map.matrix), n)
    # U (I (x) E_rc) U^-1 = sum_l U[:, r + nl] U^-1[c + nl, :], so the
    # units of a chunk of rows r come from one product, held as
    # diff[p, i, r, c, q, j]
    columns = u.reshape(d, n, n)

    def chunk_mass(rows):
        k = rows.stop - rows.start
        diff = columns[:, :, rows].swapaxes(1, 2).reshape(d * k, n) @ u_inv
        diff = diff.reshape(n, n, k, n, n, n)
        np.einsum("pircpj->pircj", diff)[...] -= flowed[rows].transpose(2, 0, 1, 3)
        return _mass(diff, "pircqj->rc").max()

    return float(np.sqrt(max(map(chunk_mass, _unit_chunks(n, 16 * n**5)))))


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
    compared in M_n, with unchanged projector distance; the first kernel
    is ``commutant([T / n])``.
    """
    n = gns.n
    partial = np.einsum("jpjr->pr", as_cmatrix(s).reshape(n, n, n, n))
    return subspace_distance(commutant([partial / n], rank_tol), delta.map.kernel(rank_tol))


def abstract_kernel_stabilization(
    delta: Derivation,
    n_max: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    distance_tol: float = DEFAULT_DISTANCE_TOL,
):
    """Kernel stabilization report of the map a derivation holds:
    ``superoperator_stabilization_report`` of delta.map.  It reads neither
    the generator nor its spectral resolution, so the report's spectrum
    and multiplicities stay unset; perfbench traces it by this name."""
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
