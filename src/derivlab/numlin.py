"""Dense complex linear algebra substrate.

Matrices are plain complex128 ndarrays, apart from the float64 matrices
of the Hermitian frame below.  Subspaces of the matrix space
M_n carry the Hilbert-Schmidt geometry <a, b> = tr(b* a).  One global
vectorization convention is used everywhere: column stacking,

    vec(X)[i + n*j] = X[i, j],      vec(A X B) = kron(B.T, A) vec(X).

The Hermitian frame is the unitary n^2 x n^2 matrix T whose columns are
vec(E_kk) for every k, then vec(E_ij + E_ji)/sqrt(2) for i < j, then
vec(i(E_ij - E_ji))/sqrt(2) for i < j (pairs in ``np.triu_indices``
order): an HS-orthonormal basis of Hermitian matrices.  A map on M_n
that sends Hermitian matrices to Hermitian matrices, phi(x*) = phi(x)*
(ad_iD for Hermitian D, i[g, .] for Hermitian g), has a real matrix
T* M T with the singular values of M, and its kernels are T applied to
real kernels.  ``real_frame`` forms T* M T by gathers, and
``from_frame`` maps frame vectors back to vec coordinates.

All matrix norms written ||.|| in residual bounds are Frobenius norms
(the Hilbert-Schmidt norm), which keeps every Taylor-type bound in this
package a provable inequality.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbientMismatch,
    DimensionOverflow,
    NoConvergence,
    NotHermitian,
    ShapeMismatch,
)

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_RTOL = 1e-12
_DEFAULT_MAX_DIM = 64


def max_ambient_dim() -> int:
    """Largest matrix dimension n for which n^2 x n^2 superoperators may
    be materialized.  Overridden by the DERIVLAB_MAX_DIM environment
    variable."""
    raw = os.environ.get("DERIVLAB_MAX_DIM")
    if raw is None:
        return _DEFAULT_MAX_DIM
    return int(raw)


def _finite_matrix(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_cmatrix(data) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    return _finite_matrix(np.asarray(data, dtype=np.complex128))


def _as_matrix(data) -> np.ndarray:
    # as_cmatrix, except that a float64 array stays real
    m = np.asarray(data)
    if m.dtype != np.float64:
        m = m.astype(np.complex128, copy=False)
    return _finite_matrix(m)


def frob(m) -> float:
    return float(np.linalg.norm(m))


def is_hermitian(m) -> bool:
    m = np.asarray(m)
    return frob(m - m.conj().T) <= HERMITIAN_RTOL * max(1.0, frob(m))


def require_hermitian(m) -> np.ndarray:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"square matrix required, got {m.shape}")
    if not is_hermitian(m):
        raise NotHermitian(
            f"||M - M*|| = {frob(m - m.conj().T):.3e} exceeds tolerance"
        )
    return m


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, U) with eigenvalues w ascending and U unitary such that
    M = U diag(w) U*.  Raises NotHermitian on asymmetric input and
    NoConvergence if the underlying iteration fails.
    """
    m = require_hermitian(m)
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # iteration cap exceeded
        raise NoConvergence(str(exc)) from exc
    return w, u


def _numerical_rank(s: np.ndarray, rank_tol: float, scale: float) -> int:
    # the one rank rule: sigma counts when sigma > rank_tol * max(sigma_max, scale)
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > rank_tol * max(smax, scale)))


def _svd_split(m, rank_tol: float, scale: float) -> tuple:
    # (U_r, S_r, V_r, V_0): M = U_r S_r V_r* on its numerical range, V_0 spans ker M
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    m = _as_matrix(m)
    # reduced SVD loses nullspace directions when the matrix is wide
    u, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    rank = _numerical_rank(s, rank_tol, scale)
    return u[:, :rank], s[:rank], vh[:rank].conj().T, vh[rank:].conj().T


def nullspace(m, rank_tol: float = DEFAULT_RANK_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of ker M as columns of an (n, d) array.

    A singular value counts as zero when sigma <= rank_tol * max(sigma_max,
    scale): with the default scale = 0 the zero matrix returns the full
    space, and ``map_kernels`` passes scale = 1 so that a map of pure
    roundoff (e.g. ad of a near-scalar operator) collapses to the full
    space instead of ranking its noise.  A float64 matrix is factored in
    real arithmetic and gets a real basis.
    """
    return _svd_split(m, rank_tol, scale)[3]


def kernel_tower(
    m, k_max: int, rank_tol: float = DEFAULT_RANK_TOL, scale: float = 0.0
) -> list:
    """Orthonormal bases of ker M, ker M^2, ..., ker M^k_max (as columns),
    all from one SVD of the square matrix M; M^k is never formed.

    With M = U_r S_r V_r* on its numerical range (the rank rule of
    ``nullspace``) and V_0 spanning ker M, a vector V_0 a + V_r b lies in
    ker M^(k+1) iff M applied to it, U_r S_r b, lies in ker M^k.  So if Q
    spans ker M^k, then ker M^(k+1) = V_0 + V_r S_r^-1 W, where W holds the
    unit vectors w with U_r w inside span Q: the right singular vectors of
    the small matrix Q* U_r with singular value 1.  A candidate joins only
    when its sine, the norm of the residual (I - QQ*) U_r w formed
    explicitly, is at most rank_tol; a cosine near 1 is never thresholded,
    because 1 - cos loses every digit below sqrt(eps).

    For a normal M the range is orthogonal to the kernel, every sine is 1
    and the tower is ker M repeated: a level that adds nothing to ker M is
    the array of ker M itself.  A nilpotent part makes it grow.  A float64
    M gives real bases.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeMismatch(f"kernel towers need a square matrix, got {shape}")
    u_r, s_r, v_r, v_0 = _svd_split(m, rank_tol, scale)
    if s_r.size == 0 or v_0.shape[1] == 0:  # M = 0 or M invertible: nothing grows
        return [v_0] * k_max
    tower = [v_0]
    for _ in range(k_max - 1):
        q = tower[-1]
        cosines = q.conj().T @ u_r
        w = np.linalg.svd(cosines, full_matrices=False)[2].conj().T
        sines = np.linalg.norm(u_r @ w - q @ (cosines @ w), axis=0)
        joined = w[:, sines <= rank_tol]
        if joined.shape[1] == 0:
            tower.append(v_0)
            continue
        grown = np.linalg.qr(joined / s_r[:, None])[0]
        tower.append(np.hstack([v_0, v_r @ grown]))
    return tower


@functools.lru_cache(maxsize=None)
def _frame_order(n: int) -> tuple:
    # vec indices of E_kk, of E_ij and of E_ji (i < j), in frame order,
    # and the ends of the diagonal and upper runs
    i, j = np.triu_indices(n, 1)
    order = np.concatenate([np.arange(n) * (n + 1), i + n * j, j + n * i])
    order.setflags(write=False)  # shared by every caller through the cache
    return order, (n, n + i.size)


_SQRT_HALF = np.sqrt(0.5)


def _frame_side(g: np.ndarray, ends: tuple, axis: int, phase: complex) -> np.ndarray:
    # in place on rows (or columns) gathered in frame order: the diagonal
    # run stays, (upper, lower) -> ((upper + lower), phase (upper - lower))
    # / sqrt 2; one temporary of the pair size
    _, upper, lower = np.split(g, ends, axis=axis)
    difference = upper - lower
    upper += lower
    upper *= _SQRT_HALF
    np.multiply(difference, phase * _SQRT_HALF, out=lower)
    return g


def real_frame(m, n: int):
    """T* M T (module docstring) of each n^2-row block of M, as a float64
    array, when it is exactly real; None otherwise.

    Exactly real means a zero imaginary part, bit for bit.  That holds
    when M[r', s'] = conj(M[r, s]) exactly, where ' swaps the two matrix
    indices of a vec index: true of ad_iD and of i[g, .] built from an
    exactly Hermitian D or g, because the gather adds each entry to its
    conjugate.  A map that is *-preserving only to roundoff, or not at
    all, gets None and stays on the complex route.  Costs one gather per
    side, O(n^4).
    """
    order, ends = _frame_order(n)
    m = np.asarray(m)
    rows = _frame_side(m.reshape(-1, n * n, n * n)[:, order], ends, 1, -1j)
    frame = _frame_side(rows[:, :, order], ends, 2, 1j).reshape(m.shape)
    del rows
    if np.any(frame.imag):
        return None
    return np.ascontiguousarray(frame.real)  # a copy: frees the complex array


def from_frame(v, n: int) -> np.ndarray:
    """T v: frame coordinates (columns) back to complex vec coordinates.
    A real v gives vecs of Hermitian matrices."""
    order, (d, u) = _frame_order(n)
    v = np.asarray(v)
    out = np.empty(v.shape, dtype=np.complex128)
    out[order] = np.concatenate(
        [v[:d], (v[d:u] + 1j * v[u:]) * _SQRT_HALF, (v[d:u] - 1j * v[u:]) * _SQRT_HALF]
    )
    return out


# Pade [13/13] numerator coefficients b_0..b_13 and the 1-norm bound
# theta_13 below which it needs no scaling (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005): scale A
    by 2^-s so that ||A||_1 <= theta_13, solve (V - U) R = V + U for the
    odd part U and even part V of the approximant, and square R s times.
    Below ||A||_1 = theta_9 ~ 2.1 Higham's algorithm picks a lower degree;
    degree 13 is as accurate there, only slower, and the flow check's
    matrices lie above it."""
    a = as_cmatrix(a)
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0 else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def kron(a, b) -> np.ndarray:
    """Kronecker product with the package-wide memory budget applied.

    Built as one broadcast product, whose entries are those of np.kron
    bit for bit, without np.kron's general n-d set-up per call."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    budget = max_ambient_dim() ** 4
    if rows * cols > budget:
        raise DimensionOverflow(
            f"kron result {rows}x{cols} exceeds the {budget}-entry budget (DERIVLAB_MAX_DIM)"
        )
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def vec(x) -> np.ndarray:
    """Column-stacking vectorization: vec(X)[i + n*j] = X[i, j]."""
    return np.asarray(x, dtype=np.complex128).reshape(-1, order="F")


def unvec(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != n * n:
        raise ShapeMismatch(f"vector of length {v.size} is not n^2 for n={n}")
    return v.reshape((n, n), order="F")


@dataclass(frozen=True)
class OperatorSubspace:
    """A subspace of M_n given by a Hilbert-Schmidt-orthonormal basis.

    ``basis`` is a (dim, n, n) stack; mutating it voids the invariants.
    """

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 3 or b.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise ShapeMismatch(
                f"basis stack of shape {b.shape} does not match ambient "
                f"dimension {self.ambient_dim}"
            )
        if b.shape[0] > self.ambient_dim**2:
            raise ShapeMismatch("more basis elements than the ambient dimension")
        object.__setattr__(self, "basis", b)
        rows = self.vectors()
        if frob(rows.conj() @ rows.T - np.eye(self.dim)) > 1e-10:
            raise ValueError("basis is not orthonormal in the HS inner product")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def vectors(self) -> np.ndarray:
        """Basis as rows of a (dim, n^2) array in vec coordinates."""
        return self.basis.transpose(0, 2, 1).reshape(self.dim, self.ambient_dim**2)

    @classmethod
    def from_vec_columns(cls, ambient_dim: int, columns: np.ndarray):
        """Wrap orthonormal vec-coordinate columns (e.g. from nullspace)."""
        # column j unvecs to X_j[i, l] = columns[i + n l, j]
        n = ambient_dim
        return cls(n, columns.T.reshape(-1, n, n).transpose(0, 2, 1))


def map_kernels(m, n: int, k_max: int = 1, rank_tol: float = DEFAULT_RANK_TOL) -> tuple:
    """ker M, ..., ker M^k_max of a map M on M_n (or, at k_max = 1, of a
    stack of maps) as OperatorSubspaces, by ``nullspace`` or ``kernel_tower``
    at scale 1: a map of pure roundoff has full kernel.  A *-preserving map
    (exactly real ``real_frame``) is factored as that real matrix, at about
    half the cost and memory, with the same singular values; any other map
    stays complex.  Levels repeating ker M are one object, wrapped once.
    """
    frame = real_frame(m, n)
    factored = m if frame is None else frame
    if k_max == 1:
        bases = [nullspace(factored, rank_tol, scale=1.0)]
    else:
        bases = kernel_tower(factored, k_max, rank_tol, scale=1.0)
    subspaces = {}  # by id: kernel_tower repeats ker M as one array
    for q in bases:
        if id(q) not in subspaces:
            columns = q if frame is None else from_frame(q, n)
            subspaces[id(q)] = OperatorSubspace.from_vec_columns(n, columns)
    return tuple(subspaces[id(q)] for q in bases)


def _check_same_ambient(s1: OperatorSubspace, s2: OperatorSubspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def _offspace_mass(a_rows: np.ndarray, b_rows: np.ndarray) -> float:
    # ||(I - P_b) P_a||_F^2 = sum_j ||(I - P_b) a_j||^2 over the basis of a;
    # the residual vectors are formed explicitly, which avoids the
    # catastrophic cancellation of the cross-Gram trace formula
    coeffs = b_rows.conj() @ a_rows.T
    residual = a_rows - coeffs.T @ b_rows
    return float(np.linalg.norm(residual) ** 2)


def subspace_distance(s1: OperatorSubspace, s2: OperatorSubspace) -> float:
    """Frobenius distance ||P1 - P2|| between the orthogonal projectors.

    Uses ||P1 - P2||^2 = ||(I - P2) P1||^2 + ||(I - P1) P2||^2, computed
    from residual vectors; the n^2 x n^2 projectors are never
    materialized and equal subspaces give ~1e-15 rather than ~sqrt(eps).
    """
    _check_same_ambient(s1, s2)
    b1, b2 = s1.vectors(), s2.vectors()
    return float(np.sqrt(_offspace_mass(b1, b2) + _offspace_mass(b2, b1)))


def containment_residual(inner: OperatorSubspace, outer: OperatorSubspace) -> float:
    """||(I - P_outer) P_inner|| — zero iff inner is contained in outer."""
    _check_same_ambient(inner, outer)
    return float(np.sqrt(_offspace_mass(inner.vectors(), outer.vectors())))


def write_matrix_text(path, m):
    """Plain-text matrix format: "n m" header, then n*m lines "re im" in
    row-major order, 17 significant digits (round-trip stable)."""
    m = as_cmatrix(m)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            z = m[i, j]
            lines.append(f"{z.real:.17g} {z.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

