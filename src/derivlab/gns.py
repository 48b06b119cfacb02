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
and D_c = I (x) V*[c, :].  Its norm is that of R_r L_c, for the 2n x 2n
triangular factor R_r of a Householder QR of X_r = [A_r, -C_r] and the
conjugate transpose L_c of that of Y_c* for Y_c = [B_c; D_c]: 2n QRs of
about 4 n^4 multiply-adds each, n^2 products of 2n x 2n matrices, 8 n^5,
and no Gram matrix, whose norm identity would lose every digit below
sqrt(eps).  The products are taken for groups of n // 4 rows r, so that
from n = 4 on none holds more than the n^4 entries of U.  A doubling
ladder of times t, 2t, ... takes the exponentials once, at t, and
squares them.  The kernel correspondence compares ker ad_ig with the
commutant of T / n, T the partial trace of S, from the n x n eigh of
T / n; a T / n that is not Hermitian gives NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .derivation import Superoperator, _stabilization_report, ad_kernel_tower
from .errors import NotDensity, NotEquilibrium, NotFaithful, ShapeMismatch
from .numlin import (
    DEFAULT_RANK_TOL,
    OperatorSubspace,
    _numerical_rank,
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
    X_r Y_c for X_r = [A_r, -C_r] and Y_c = [B_c; D_c].  With R_r the
    triangular factor of a QR of X_r, and L_c the conjugate transpose of
    that of a QR of Y_c*, the residual is Q_r R_r L_c Q'_c* for
    orthonormal columns Q_r and Q'_c, so it has the norm of the 2n x 2n
    product R_r L_c.  The products are formed, so what cancels cancels
    explicitly."""
    n = v.shape[0]
    d = n * n
    units = np.arange(n)
    stack = np.zeros((n, d, 2 * n), dtype=np.complex128)
    # X_r: stack[r, pn + i, l] = U[pn + i, ln + r], stack[r, ln + i, n + l] = -V[i, r]
    stack[:, :, :n] = u.reshape(d, n, n).transpose(2, 0, 1)
    stack.reshape(n, n, n, 2 * n)[:, units, :, n + units] = -v.T
    r = np.linalg.qr(stack, mode="r")
    # Y_c* in the same places: conj(U^-1[ln + c, qn + j]), and V[j, c] at (ln + j, n + l)
    stack[:, :, :n] = u_inv.conj().reshape(n, n, d).transpose(1, 2, 0)
    stack.reshape(n, n, n, 2 * n)[:, units, :, n + units] = v.T
    # lower[i, c, j] = L_c[i, j], so that one product serves a group of rows r
    lower = np.linalg.qr(stack, mode="r").conj().transpose(2, 0, 1).reshape(2 * n, -1)
    del stack
    mass = np.empty((n, n))
    # a group of rows holds 4 n^3 entries per row, at most the n^4 of U from n = 4 on
    rows = max(1, n // 4)
    for start in range(0, n, rows):
        group = r[start:start + rows]
        products = (group.reshape(-1, 2 * n) @ lower).reshape(len(group), 2 * n, n, 2 * n)
        mass[start:start + rows] = _mass(products, "ricj->rc")
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
    *,
    kernel: OperatorSubspace,
) -> float:
    """Distance between the kernel of [iS, .] restricted to the range of
    pi and ``kernel``, the image under pi of ker(map) at rank_tol (the
    first level of the map's kernel tower).

    [iS, .] preserves the range of pi (that is the implementation
    identity).  The range has the orthonormal basis I (x) E_u / sqrt(n),
    in which the restriction is i (I (x) T - T^T (x) I) / n for the
    partial trace T[p, r] = sum_j S[p + nj, r + nj].  a -> I (x) a /
    sqrt(n) is an isometry from M_n onto that range, so both kernels are
    compared in M_n, with unchanged projector distance; the first kernel
    is ker i[T / n, .] (``_commutator_kernel``).  A T / n that
    ``is_hermitian`` rejects gives NaN, which the check's rule FAILs.  An
    S from ``implementing_operator`` has T = n g - tr(g) I under every
    faithful state, Hermitian with g, equilibrium or not; so only an S
    that is not Hermitian gets NaN, and its ``symmetry`` rule FAILs too.
    """
    n = delta.ambient_dim
    h = np.einsum("jpjr->pr", as_cmatrix(s).reshape(n, n, n, n)) / n
    if not is_hermitian(h):
        return float("nan")
    return subspace_distance(_commutator_kernel(h, rank_tol), kernel)


def _commutator_kernel(h, rank_tol: float) -> OperatorSubspace:
    """ker i[h, .] on M_n for an h that ``is_hermitian`` accepts, at the
    scale-1 rank rule (``numlin._numerical_rank``).

    With eigh((h + h*) / 2) = (l, u), the map X -> i[h, X] is normal on
    the HS space, with the singular values |l_a - l_b| and the singular
    vectors u_a u_b*: the kernel is spanned by the u_a u_b* whose
    |l_a - l_b| the rule ranks zero.  Only n x n arrays."""
    n = h.shape[0]
    values, vectors = hermitian_eig((h + h.conj().T) / 2)
    gaps = np.abs(values[:, None] - values).ravel()
    order = np.argsort(-gaps, kind="stable")
    a, b = np.divmod(order[_numerical_rank(gaps[order], rank_tol, 1.0):], n)
    return OperatorSubspace(n, vectors.T[a, :, None] * vectors.T[b, None, :].conj())


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
