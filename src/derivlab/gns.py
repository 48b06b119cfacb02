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
The implementation residual is a max of column norms, each summed from
masked sums of squares of entries of S and of the map's unit images and
from squares of residual entries formed explicitly: O(n^4) work, and no
array larger than S.  The flow check visits the n^2 matrix units in
chunks whose arrays fit half of one fixed byte budget (_CHUNK_BYTES): a
chunk groups whole rows r of units while one row fits, and cuts a row
over that along the column block q of the residual, summing the squared
norms of a row's runs per unit before the max.  The flow residual of
E_rc is split by column block q of U (I (x) E_rc) U^-1 = A_r B_c: its
rows p != q have the norm of R_rq B_cq, with R_rq the triangular factor
of a QR of A_r without the rows of block q, and its rows p = q are
formed and subtracted.  That takes n^2 small QRs and about 2 n^6
multiply-adds, and no Gram matrix, whose norm identity would lose every
digit below sqrt(eps).  A doubling ladder of times t, 2t, ... takes the
exponentials once, at t, and squares them.
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
    OperatorSubspace,
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
# byte budget of the flow check: the arrays of one chunk of matrix units
# fill at most half of it, 1 MiB, so that a chunk can stay in a 2 MiB
# per-core L2 cache; the other half is left for the d x d operators
_CHUNK_BYTES = 2 * 2**20


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
    temporary of its size is made; the view needs x C-contiguous."""
    axes, kept = spec.split("->")
    parts = x.view(np.float64).reshape(x.shape + (2,))
    return np.einsum(f"{axes}z,{axes}z->{kept}", parts, parts)


def _unit_blocks(matrix, n: int) -> np.ndarray:
    """Images of the matrix units under the map with this vec-coordinate
    matrix, as blocks[r, c, i, j] = L(E_rc)[i, j]."""
    return matrix.reshape(n, n, n, n).transpose(3, 2, 1, 0)


def _unit_chunks(n: int) -> list:
    """Chunks (rows, part) of the matrix units E_rc for the flow check:
    slices of r and of the column block q, 32 n^3 bytes per (r, q).
    Whole rows are grouped while they fill at most half of _CHUNK_BYTES;
    a row over that is cut into runs of blocks that do, down to one."""
    half = _CHUNK_BYTES // 2
    rows = half // (32 * n**4)
    if rows:
        return [(slice(r, min(r + rows, n)), slice(0, n)) for r in range(0, n, rows)]
    run = max(1, half // (32 * n**3))
    return [
        (slice(r, r + 1), slice(b, min(b + run, n)))
        for r in range(n)
        for b in range(0, n, run)
    ]


def implementation_check(gns: GNSRepresentation, delta: Derivation, s) -> float:
    """Max over matrix units a and basis vectors h of
    ||pi(delta(a)) h - [iS, pi(a)] h||."""
    n = gns.n
    s4 = as_cmatrix(s).reshape(n, n, n, n)
    derived = _unit_blocks(delta.map.matrix, n)
    # -i (pi(delta(a)) - [iS, pi(a)]) has the same column norms; for
    # a = E_rc, its column q n + j holds at row p n + i the terms
    # -i delta(a)[i, j] if p = q, -S[pn + i, qn + r] if j = c, and
    # S[pn + c, qn + j] if i = r.  Each squared norm adds masked sums of
    # squares, off[i, q, j] of |S[pn + i, qn + j]|^2 over p != q, i != j
    # and below[r, c, j] of |delta(a)[i, j]|^2 over i != r, to squares of
    # entries formed explicitly, so nothing is subtracted from a total
    s_mass = s4.real**2 + s4.imag**2
    np.einsum("pipj->pij", s_mass)[...] = 0.0
    np.einsum("piqi->piq", s_mass)[...] = 0.0
    off = s_mass.sum(axis=0)
    d_mass = derived.real**2 + derived.imag**2
    np.einsum("rcrj->rcj", d_mass)[...] = 0.0
    below = d_mass.sum(axis=2)
    del s_mass, d_mass
    # j = c: the rows p != q hold -S[pn + i, qn + r] for i != r and
    # split[p, q, r, c] = S[pn + c, qn + c] - S[pn + r, qn + r] at i = r;
    # the block p = q is block[r, c, q, i]
    diagonal = np.einsum("pkqk->pqk", s4)
    split = np.subtract(diagonal[:, :, None, :], diagonal[:, :, :, None], order="C")
    np.einsum("pprc->prc", split)[...] = 0.0
    unit_mass = off.sum(axis=0).T[:, None] + _mass(split, "pqrc->rcq")
    del split
    block = np.subtract(-1j * np.einsum("rcic->rci", derived)[:, :, None],
                        np.einsum("qiqr->rqi", s4)[:, None], order="C")
    np.einsum("rcqr->rcq", block)[...] += np.einsum("qcqc->cq", s4)
    unit_mass += _mass(block, "rcqi->rcq")
    del block
    # j != c: the rows p != q hold S[pn + c, qn + j] alone; the block
    # p = q holds -i delta(a)[i, j] for i != r and on_row[r, c, q, j] at i = r
    on_row = np.add(-1j * np.einsum("rcrj->rcj", derived)[:, :, None],
                    np.einsum("qcqj->cqj", s4), order="C")
    mass = _mass(on_row, "rcqj->rcqj")
    del on_row
    mass += below[:, :, None]
    mass += off
    np.einsum("rcqc->rcq", mass)[...] = unit_mass
    return float(np.sqrt(mass.max()))


def _flow_mass(n: int, u, u_inv, propagator) -> float:
    """Max over units E_rc of ||U (I (x) E_rc) U^-1 - I (x) F_rc||^2 with
    F_rc the image of E_rc under the propagator.

    U (I (x) E_rc) U^-1 = A_r B_c for the columns A_r = U[:, (l, r)] and
    the rows B_c = U^-1[(l, c), :] over l, so column block q of the
    residual is A_r B_cq with F_rc subtracted on its rows p = q.  Its rows
    p != q have the norm of R_rq B_cq, where R_rq is the n x n triangular
    factor of a QR of A_r without the rows of block q."""
    # a[r, p, i, l] = U[pn + i, ln + r] and b[q, l, c n + j] = U^-1[ln + c, qn + j]
    a = u.reshape(n, n, n, n).transpose(3, 0, 1, 2)
    b = np.ascontiguousarray(u_inv.reshape(n, n, n, n).transpose(2, 0, 1, 3))
    b = b.reshape(n, n, n * n)
    flowed = _unit_blocks(propagator, n).transpose(0, 2, 1, 3)
    # the blocks p != q of A_r, then block q
    order = np.array([[p for p in range(n) if p != q] + [q] for q in range(n)])
    units = np.arange(n)
    mass = np.zeros((n, n))
    # a chunk covers units rows x every c and the column blocks q of its
    # part; diff[q, r, h, i, c, j] holds R_rq B_cq at h = 0 and
    # A_rq B_cq - F_rc at h = 1, 32 n^3 bytes per (r, q)
    for rows, part in _unit_chunks(n):
        blocks = a[units[rows, None], order[part, None]]
        k_q, k_r = blocks.shape[:2]
        left = np.empty((k_q, k_r, 2, n, n), dtype=np.complex128)
        left[:, :, 0] = np.linalg.qr(blocks[:, :, :-1].reshape(k_q, k_r, -1, n), mode="r")
        left[:, :, 1] = blocks[:, :, -1]
        diff = np.matmul(left.reshape(k_q, -1, n), b[part]).reshape(k_q, k_r, 2, n, n, n)
        diff[:, :, 1] -= flowed[rows]
        # summed over q in order, so that cutting a row along q moves no
        # bit of the result
        partial = _mass(diff, "qrhicj->qrc")
        mass[rows] = np.add.reduce(np.concatenate([mass[rows][None], partial]))
    return mass.max()


def flow_intertwining_residual(
    gns: GNSRepresentation, delta: Derivation, s, *times: float
) -> float:
    """Max over matrix units a and the given times t of
    ||exp(iSt) pi(a) exp(-iSt) - pi(exp(t map)(a))||.

    The times form a doubling ladder t, 2t, 4t, ...: the exponentials
    are taken at the first time only and squared for each next one, as
    exp(2X) = exp(X)^2."""
    if not times or any(b != 2 * a for a, b in zip(times, times[1:])):
        raise ValueError(f"times {times} are not a doubling ladder t, 2t, 4t, ...")
    u = expm(1j * times[0] * as_cmatrix(s))
    # exp(X)^-1 = exp(-X) for every square X; one inverse is cheaper
    # than a second expm
    u_inv = np.linalg.inv(u)
    propagator = expm(times[0] * delta.map.matrix)
    worst = _flow_mass(gns.n, u, u_inv, propagator)
    for _ in times[1:]:
        u, u_inv, propagator = u @ u, u_inv @ u_inv, propagator @ propagator
        worst = max(worst, _flow_mass(gns.n, u, u_inv, propagator))
    return float(np.sqrt(worst))


def kernel_correspondence_distance(
    gns: GNSRepresentation,
    delta: Derivation,
    s,
    rank_tol: float = DEFAULT_RANK_TOL,
    kernel: OperatorSubspace | None = None,
) -> float:
    """Distance between the kernel of [iS, .] restricted to the range of
    pi and the image under pi of ker(map).

    [iS, .] preserves the range of pi (that is the implementation
    identity).  The range has the orthonormal basis I (x) E_u / sqrt(n),
    in which the restriction is i (I (x) T - T^T (x) I) / n for the
    partial trace T[p, r] = sum_j S[p + nj, r + nj].  a -> I (x) a /
    sqrt(n) is an isometry from M_n onto that range, so both kernels are
    compared in M_n, with unchanged projector distance; the first kernel
    is ``commutant([T / n])``.  A caller that holds ker(map) at rank_tol
    already, as the first level of the map's kernel tower, passes it as
    ``kernel`` and saves factoring the map again.
    """
    n = gns.n
    partial = np.einsum("jpjr->pr", as_cmatrix(s).reshape(n, n, n, n))
    if kernel is None:
        kernel = delta.map.kernel(rank_tol)
    return subspace_distance(commutant([partial / n], rank_tol), kernel)


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
