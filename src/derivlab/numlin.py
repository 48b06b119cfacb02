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
real kernels; ``from_frame`` maps frame vectors back to vec coordinates.
For a real symmetric g, i[g, .] maps the n(n+1)/2 real symmetric frame
elements to the n(n-1)/2 imaginary antisymmetric ones and back, so its
frame matrix is [[0, -Q^T], [Q, 0]]: ``commutator_frame_block`` builds Q
for a tridiagonal g, and ``block_kernel_tower`` takes ker A = ker A^k
from one SVD of Q.

All matrix norms written ||.|| in residual bounds are Frobenius norms
(the Hilbert-Schmidt norm), which keeps every Taylor-type bound in this
package a provable inequality.
"""

from __future__ import annotations

import functools
import math
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


def _check_ambient_budget(n: int):
    # for routes that form no n^2 x n^2 array but stay within the budget of ``kron``
    if n > max_ambient_dim():
        raise DimensionOverflow(
            f"the superoperator of an n={n} matrix exceeds the budget (DERIVLAB_MAX_DIM)"
        )


def _finite_matrix(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
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


def hermitian_tridiagonal(h) -> tuple[np.ndarray, np.ndarray]:
    """(W, T) with W unitary and T real symmetric tridiagonal, H = W T W*.

    n - 2 Householder reflections (Golub and Van Loan, Matrix
    Computations, sec. 8.3) reduce H to a Hermitian tridiagonal matrix;
    each costs one rank-2 Hermitian update of the trailing block and one
    rank-1 update of W, and a column that is already reduced gets none.
    A diagonal matrix of phases then makes the off-diagonal real and
    nonnegative.  O(n^3); the columns of W are not eigenvectors of H.
    """
    a = require_hermitian(h).copy()
    n = a.shape[0]
    w = np.eye(n, dtype=np.complex128)
    for k in range(n - 2):
        x = a[k + 1:, k]
        tail = np.vdot(x[1:], x[1:]).real
        if tail == 0:
            continue
        first = complex(x[0])
        head = abs(first)
        norm = math.sqrt(head * head + tail)
        # H = I - u u* with ||u||^2 = 2 sends x to alpha e_1, |alpha| = ||x||,
        # with the phase that keeps u[0] from cancelling; only that entry
        # of the column is read again
        alpha = -norm * (first / head if head else 1.0)
        scale = math.sqrt(2 / ((head + norm) ** 2 + tail))
        u = x * scale
        u[0] -= alpha * scale
        a[k + 1, k] = alpha
        # H A H = A - u p* - p u*, with p = A u - (u* A u / 2) u
        block = a[k + 1:, k + 1:]
        p = block @ u
        p -= np.vdot(u, p).real / 2 * u
        outer = u[:, None] * p.conj()
        block -= outer
        block -= outer.conj().T
        right = w[:, k + 1:]
        right -= (right @ u)[:, None] * u.conj()
    off = a.diagonal(-1)
    t = np.zeros((n, n))
    t.flat[:: n + 1] = a.diagonal().real
    t.flat[1:: n + 1] = t.flat[n:: n + 1] = np.abs(off)
    # conj(phi_(k+1)) off_k phi_k = |off_k| when phi_(k+1) = phi_k off_k / |off_k|
    phases = np.ones(n, dtype=np.complex128)
    np.cumprod(np.exp(1j * np.angle(off)), out=phases[1:])
    return w * phases, t


def _numerical_rank(s: np.ndarray, rank_tol: float, scale: float) -> int:
    # the one rank rule: sigma counts when sigma > rank_tol * max(sigma_max, scale)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > rank_tol * max(smax, scale)))


def _svd_split(m, rank_tol: float, scale: float) -> tuple:
    # (S_r, V_0, ranges): V_0 spans ker M, M = U_r S_r V_r* with (U_r, V_r) = ranges()
    m = _as_matrix(m)
    # reduced SVD loses nullspace directions when the matrix is wide
    u, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    rank = _numerical_rank(s, rank_tol, scale)
    return s[:rank], vh[rank:].conj().T, lambda: (u[:, :rank], vh[:rank].conj().T)


def nullspace(m, rank_tol: float = DEFAULT_RANK_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of ker M as columns of an (n, d) array.

    A singular value counts as zero when sigma <= rank_tol * max(sigma_max,
    scale): with the default scale = 0 the zero matrix returns the full
    space, and ``map_kernels`` passes scale = 1 so that a map of pure
    roundoff (e.g. ad of a near-scalar operator) collapses to the full
    space instead of ranking its noise.  A float64 matrix is factored in
    real arithmetic and gets a real basis.
    """
    return _svd_split(m, rank_tol, scale)[1]


def _block_split(q, rank_tol: float) -> np.ndarray:
    # ker A for A = [[0, -Q^T], [Q, 0]] and a float64 Q, at scale 1, from
    # one full SVD of Q (``block_kernel_tower``)
    rows, cols = q.shape
    u, s, vh = np.linalg.svd(q)  # full: the kernels need all of U and V
    rank = _numerical_rank(s, rank_tol, 1.0)
    size = rows + cols
    v_0 = np.zeros((size, size - 2 * rank))
    v_0[:cols, : cols - rank] = vh[rank:].T
    v_0[cols:, cols - rank:] = u[:, rank:]
    return v_0


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

    Since ker M^k lies in ker M^(k+1), and ker M^(k+1) = ker M^k makes
    every later level equal too, the first level whose candidates do not
    grow it is the fixed point: the remaining levels are that array.  So
    rounding that drops a candidate past the stabilization index cannot
    make the tower shrink.  For a normal M the range is orthogonal to the
    kernel, every sine is 1 and ker M is the fixed point, so a normal M
    costs at most two SVDs at any k_max.  A nilpotent part makes the
    tower grow.  A float64 M gives real bases.
    """
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeMismatch(f"kernel towers need a square matrix, got {shape}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    s_r, v_0, ranges = _svd_split(m, rank_tol, scale)
    if k_max == 1 or s_r.size == 0 or v_0.shape[1] == 0:  # one level, M = 0 or invertible
        return [v_0] * k_max
    u_r, v_r = ranges()
    tower = [v_0]
    while len(tower) < k_max:
        q = tower[-1]
        cosines = q.conj().T @ u_r
        w = np.linalg.svd(cosines, full_matrices=False)[2].conj().T
        sines = np.linalg.norm(u_r @ w - q @ (cosines @ w), axis=0)
        joined = w[:, sines <= rank_tol]
        if v_0.shape[1] + joined.shape[1] <= q.shape[1]:  # the fixed point
            tower += [q] * (k_max - len(tower))
            break
        grown = np.linalg.qr(joined / s_r[:, None])[0]
        tower.append(np.hstack([v_0, v_r @ grown]))
    return tower


def block_kernel_tower(q, k_max: int, rank_tol: float = DEFAULT_RANK_TOL) -> list:
    """``kernel_tower`` of A = [[0, -Q^T], [Q, 0]] for a float64 Q, from
    one full SVD of Q; A itself is never formed.

    Each singular triple (u, sigma, v) of Q gives A [v; 0] = sigma [0; u]
    and A [0; u] = sigma [-v; 0], so the singular values of A are those of
    Q, each twice, and ker A = [ker Q; 0] + [0; ker Q^T].  The rank rule
    is that of ``map_kernels``: ``nullspace``'s at scale 1.  A is real
    antisymmetric, hence normal, so ker A^k = ker A: every level is the one
    array ker A.  The growth loop of ``kernel_tower`` joins nothing here for
    rank_tol < 1 - 2e-15: the sine of each candidate of its first pass, the
    part of a unit range vector off ker A, read 1 within 2.0e-15 over the
    168 towers of ``run --suite all --n-max 8`` at dims 2..24 and 32 (at
    rank_tol >= 1 the rank is 0).  For a square Q of order p this SVD costs
    about an eighth of the one of the 2p x 2p A.
    """
    q = _finite_matrix(np.asarray(q, dtype=np.float64))
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return [_block_split(q, rank_tol)] * k_max


def map_distinct(fn, items) -> tuple:
    """fn(x) for each x of items, called once per distinct object: the
    levels of a tower that repeat its fixed point share one result."""
    done = {}
    for x in items:
        if id(x) not in done:
            done[id(x)] = fn(x)
    return tuple(done[id(x)] for x in items)


@functools.lru_cache(maxsize=None)
def _frame_order(n: int) -> tuple:
    # vec indices of E_kk, of E_ij and of E_ji (i < j), in frame order,
    # and the ends of the diagonal and upper runs
    i, j = np.triu_indices(n, 1)
    order = np.concatenate([np.arange(n) * (n + 1), i + n * j, j + n * i])
    order.setflags(write=False)  # shared by every caller through the cache
    return order, (n, n + i.size)


_SQRT_HALF = np.sqrt(0.5)


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


@functools.lru_cache(maxsize=None)
def _block_pattern(n: int) -> tuple:
    # the entries of ``commutator_frame_block``: flat positions in Q, the
    # entry of the parameters (diagonal of T, then its superdiagonal) each
    # one reads, and its coefficient; a position may repeat, and sums
    i, j = np.triu_indices(n, 1)
    row = np.zeros((n, n), dtype=np.intp)  # Q row of the pair (i, j), i < j
    row[i, j] = np.arange(i.size)
    k = np.arange(n - 1)
    col = n + np.arange(i.size)
    root2 = math.sqrt(2.0)
    # (Q rows, Q columns, parameters, coefficient) runs, b_p = T[p, p + 1]:
    # sqrt 2 [T, E_kk] has b_(k-1) at (k - 1, k) and -b_k at (k, k + 1);
    # [T, E_pq + E_qp] at (x, y), x < y, is T[x, p] [y = q] - T[q, y] [x = p]
    runs = [
        (row[k, k + 1], k + 1, n + k, root2),
        (row[k, k + 1], k, n + k, -root2),
        (row[i, j], col, i, 1.0),
        (row[i, j], col, j, -1.0),
    ]
    for x, y, keep, param, sign in (
        (i - 1, j, i >= 1, n + i - 1, 1.0),
        (i + 1, j, i + 1 < j, n + i, 1.0),
        (i, j - 1, j - 1 > i, n + j - 1, -1.0),
        (i, j + 1, j + 1 < n, n + j, -1.0),
    ):
        runs.append((row[x[keep], y[keep]], col[keep], param[keep], sign))
    flat = np.concatenate([r * (n + i.size) + c for r, c, _, _ in runs])
    source = np.concatenate([p for _, _, p, _ in runs])
    coef = np.concatenate([np.full(r.size, w) for r, _, _, w in runs])
    for a in (flat, source, coef):
        a.setflags(write=False)  # shared by every caller through the cache
    return flat, source, coef, (i.size, n + i.size)


def commutator_frame_block(t) -> np.ndarray:
    """The float64 block Q of i[T, .] in the Hermitian frame, for a real
    symmetric tridiagonal T.

    i[T, .] sends real symmetric matrices to i times real antisymmetric
    ones and back, so its frame matrix is [[0, -Q^T], [Q, 0]], with Q of
    size n(n-1)/2 x n(n+1)/2: Q[(i, j), b] = sqrt 2 [T, s_b][i, j] for
    i < j and the symmetric frame elements s_b.  Each column has at most
    five entries, read straight from the two diagonals of T; the n^2 x n^2
    map is never formed, but the budget of ``kron`` (DERIVLAB_MAX_DIM)
    still bounds n.
    """
    n = t.shape[0]
    _check_ambient_budget(n)
    flat, source, coef, shape = _block_pattern(n)
    params = np.concatenate([t.diagonal(), t.diagonal(1)])
    q = np.bincount(flat, coef * params[source], shape[0] * shape[1])
    return q.astype(np.float64, copy=False).reshape(shape)  # an empty count is int64


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
    bit for bit, without np.kron's general n-d set-up per call.  Two
    float64 factors give a float64 product; any other pair is complex."""
    a = _as_matrix(a)
    b = _as_matrix(b)
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


def unvec_columns(columns: np.ndarray, n: int) -> np.ndarray:
    """The (d, n, n) stack whose j-th matrix is the unvec of column j of an
    (n^2, d) array: X_j[i, l] = columns[i + n l, j]; the dtype is kept."""
    return columns.T.reshape(-1, n, n).transpose(0, 2, 1)


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
        if not np.all(np.isfinite(b)):
            raise ValueError("basis entries must be finite")
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
        return cls(ambient_dim, unvec_columns(columns, ambient_dim))


def map_kernels(m, n: int, k_max: int = 1, rank_tol: float = DEFAULT_RANK_TOL) -> tuple:
    """ker M, ..., ker M^k_max of a map M on M_n (or, at k_max = 1, of a
    stack of maps) as OperatorSubspaces, by ``nullspace`` or ``kernel_tower``
    at scale 1: a map of pure roundoff has full kernel.  Levels repeating
    the fixed point are one object, wrapped once.
    """
    if k_max == 1:
        bases = [nullspace(m, rank_tol, scale=1.0)]
    else:
        bases = kernel_tower(m, k_max, rank_tol, scale=1.0)
    return map_distinct(lambda q: OperatorSubspace.from_vec_columns(n, q), bases)


def tridiagonal_kernel_tower(w, t, k_max: int, rank_tol: float = DEFAULT_RANK_TOL) -> tuple:
    """ker ad_iD, ..., ker ad_iD^k_max as OperatorSubspaces, for D = W T W*
    from ``hermitian_tridiagonal``: ker ad_iD^k = W (ker ad_iT^k) W*.  In
    the Hermitian frame ad_iT is [[0, -Q^T], [Q, 0]], Q =
    ``commutator_frame_block(T)``, and one SVD of Q (``block_kernel_tower``)
    gives ker ad_iT, which is every level; no n^2 x n^2 array is formed.
    It maps back by ``from_frame`` and one batched W K W*, once."""
    n = t.shape[0]
    levels = block_kernel_tower(commutator_frame_block(t), k_max, rank_tol)

    def conjugated(q):
        return OperatorSubspace(n, w @ unvec_columns(from_frame(q, n), n) @ w.conj().T)

    return map_distinct(conjugated, levels)


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

