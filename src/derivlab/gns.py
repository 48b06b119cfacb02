"""States on M_n, the GNS construction, and the operator implementing a
derivation under an equilibrium state.

Conventions.  A state is omega(a) = tr(rho a) for a density matrix rho.
The GNS inner product <a, b> = omega(b* a) is linear in the first slot.
Every derivation of M_n is inner, so each is held as its superoperator,
ad_ig of a Hermitian g, delta(x) = [i g, x].  The implementing operator S is
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
array larger than S.  The flow of ad_ig is x -> V x V* with V =
exp(itg), so the flow check takes one n x n exponential for it and
never the map's matrix.  The flow residual of E_rc is
U (I (x) E_rc) U^-1 - I (x) V E_rc V* = [A_r, -C_r] [B_c; D_c], for n
columns A_r of U = exp(iSt), n rows B_c of U^-1, C_r = I (x) V[:, r]
and D_c = I (x) V*[c, :].  Its norm is that of R_r [B_c; D_c] for the
2n x 2n triangular factor R_r of one Householder QR of [A_r, -C_r] per
row r: n QRs and about n^6 multiply-adds, and no Gram matrix, whose
norm identity would lose every digit below sqrt(eps).  The check visits
the n^2 matrix units in chunks whose arrays fit half of one fixed byte
budget (_CHUNK_BYTES): a chunk groups whole rows r of units while one
row fits, and cuts a row over that along c, each unit complete within
its chunk.  A doubling ladder of times t, 2t, ... takes the
exponentials once, at t, and squares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .commutant import commutant
from .derivation import Superoperator, _stabilization_report, ad_kernel_tower
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


def _require_pairing(n: int, delta: Superoperator):
    if n != delta.ambient_dim:
        raise NotEquilibrium(
            f"state on M_{n} cannot pair with a derivation of M_{delta.ambient_dim}"
        )


def equilibrium_check(omega: State, delta: Superoperator) -> float:
    """Max of |omega(delta(b))| over the n^2 matrix units b.

    For delta = ad_ig this residual is the largest entry of i[rho, g]; it
    vanishes iff the state commutes with the generator.
    """
    _require_pairing(omega.n, delta)
    # tr(rho delta(E_rc)) for all units rc in one matrix-vector product
    weights = vec(omega.rho.T) @ delta.matrix
    return float(np.max(np.abs(weights)))


@dataclass(frozen=True)
class GNSRepresentation:
    """The GNS triple (pi, H, f) of a faithful state on M_n.

    H is M_n with inner product omega(b* a).  Its Gram matrix on vec
    coordinates is rho^T (x) I, whose Cholesky factor is R = L* (x) I
    with L = chol(rho^T); the coordinates of a are R vec(a) =
    vec(a (L*)^T), and pi(a) = R (I (x) a) R^-1 = I (x) a exactly.  Only
    the n x n factor L* and its inverse are stored.  The cyclic vector f,
    the class of the identity, has the coordinates vec((L*)^T).
    """

    factor: np.ndarray = field(repr=False)
    factor_inv: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.factor.shape[0]

    @property
    def hilbert_dim(self) -> int:
        return self.n * self.n

    def pi(self, a) -> np.ndarray:
        """The representation: left multiplication by a in GNS coordinates,
        which is I (x) a."""
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (self.n, self.n):
            raise ShapeMismatch(f"expected a {self.n}x{self.n} matrix, got shape {a.shape}")
        return kron(np.eye(self.n), a)


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
    return GNSRepresentation(factor=factor, factor_inv=np.linalg.inv(factor))


def implementing_operator(
    gns: GNSRepresentation, delta: Superoperator
) -> tuple[np.ndarray, float]:
    """The operator S with S pi(a) f = -i pi(delta(a)) f, plus its
    symmetry defect ||S - S*||.

    S = -i R M R^-1 for the map matrix M of any derivation; with R =
    L* (x) I the factors act on the column index of the vec coordinates
    only.  S satisfies pi(delta(a)) = [iS, pi(a)] under every faithful
    state, and is Hermitian exactly when omega is an equilibrium state;
    the symmetry defect measures how far it is from that.
    """
    _require_pairing(gns.n, delta)
    n, d = gns.n, gns.hilbert_dim
    left = (gns.factor @ delta.matrix.reshape(n, -1)).reshape(d, n, n)
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
    slices of r and of c, 32 n^3 bytes per (r, c).
    Whole rows are grouped while they fill at most half of _CHUNK_BYTES;
    a row over that is cut into runs of units that do, down to one."""
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


def implementation_check(delta: Superoperator, s) -> float:
    """Max over matrix units a and basis vectors h of
    ||pi(delta(a)) h - [iS, pi(a)] h||."""
    n = delta.ambient_dim
    s4 = as_cmatrix(s).reshape(n, n, n, n)
    derived = _unit_blocks(delta.matrix, n)
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


def _flow_mass(u, u_inv, v) -> float:
    """Max over units E_rc of ||U (I (x) E_rc) U^-1 - I (x) V E_rc V*||^2.

    U (I (x) E_rc) U^-1 = A_r B_c for the columns A_r = U[:, (l, r)] and
    the rows B_c = U^-1[(l, c), :] over l, and I (x) V E_rc V* = C_r D_c
    for C_r = I (x) V[:, r] and D_c = I (x) V*[c, :].  So the residual is
    [A_r, -C_r] [B_c; D_c], with the norm of R_r [B_c; D_c] for the
    triangular factor R_r = [[R11, R12], [0, R22]] of a QR of [A_r, -C_r].
    The rows R11 B_c + R12 D_c are formed, so what cancels cancels
    explicitly; the rows R22 D_c, outer products, have the norm
    ||R22|| ||V[:, c]||."""
    n = v.shape[0]
    d = n * n
    # a[r, pn + i, l] = U[pn + i, ln + r] and b[c, l, qn + j] = U^-1[ln + c, qn + j]
    a = u.reshape(d, n, n).transpose(2, 0, 1)
    b = u_inv.reshape(n, n, d).transpose(1, 0, 2)
    v_star = v.conj().T
    column_mass = np.sum(np.abs(v) ** 2, axis=0)
    units = np.arange(n)
    mass = np.empty((n, n))
    factored = None
    # a chunk covers the units of rows x part; top[r, c, m, q, j] holds
    # the rows R11 B_c + R12 D_c, 16 n^3 bytes per (r, c), and as much
    # again for the term R12 D_c.  Each R11 B_c is its own product of the
    # same shape under every budget, so the chunks move no bit
    for rows, part in _unit_chunks(n):
        if rows != factored:  # one QR per row, shared by the row's runs
            factored = rows
            k = len(units[rows])
            left = np.zeros((k, d, 2 * n), dtype=np.complex128)
            left[:, :, :n] = a[rows]
            left.reshape(k, n, n, 2 * n)[:, units, :, n + units] = -v[:, rows].T
            r = np.linalg.qr(left, mode="r")
            del left
            r11 = r[:, None, :n, :n]
            r12 = r[:, None, :n, n:, None]
            low = np.sum(np.abs(r[:, n:, n:]) ** 2, axis=(1, 2))[:, None]
        top = np.matmul(r11, b[part]).reshape(k, -1, n, n, n)
        top += r12 * v_star[part, None, None, :]
        mass[rows, part] = _mass(top, "rcmqj->rc") + low * column_mass[part]
    return mass.max()


def flow_intertwining_residual(g, s, *times: float) -> float:
    """Max over matrix units a and the given times t of
    ||exp(iSt) pi(a) exp(-iSt) - pi(exp(t ad_ig)(a))||.

    The flow of ad_ig is x -> V x V* with V = exp(itg), from one n x n
    exponential; S is taken as given, so the two sides share nothing.
    The times form a doubling ladder t, 2t, 4t, ...: the exponentials
    are taken at the first time only and squared for each next one, as
    exp(2X) = exp(X)^2."""
    if not times or any(b != 2 * a for a, b in zip(times, times[1:])):
        raise ValueError(f"times {times} are not a doubling ladder t, 2t, 4t, ...")
    u = expm(1j * times[0] * as_cmatrix(s))
    # exp(X)^-1 = exp(-X) for every square X; one inverse is cheaper
    # than a second expm
    u_inv = np.linalg.inv(u)
    v = expm(1j * times[0] * require_hermitian(g))
    worst = _flow_mass(u, u_inv, v)
    for _ in times[1:]:
        u, u_inv, v = u @ u, u_inv @ u_inv, v @ v
        worst = max(worst, _flow_mass(u, u_inv, v))
    return float(np.sqrt(worst))


def kernel_correspondence_distance(
    delta: Superoperator,
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
    n = delta.ambient_dim
    partial = np.einsum("jpjr->pr", as_cmatrix(s).reshape(n, n, n, n))
    if kernel is None:
        kernel = delta.kernel(rank_tol)
    return subspace_distance(commutant([partial / n], rank_tol), kernel)


def abstract_kernel_stabilization(
    g,
    n_max: int,
    rank_tol: float = DEFAULT_RANK_TOL,
):
    """Kernel stabilization report of ad_ig, from the Householder
    reduction of g (``ad_kernel_tower``).  It reads no spectral
    resolution, so the report's multiplicities stay unset; perfbench
    traces it by this name."""
    return _stabilization_report(ad_kernel_tower(g, n_max, rank_tol))
