"""Dense complex linear algebra substrate.

Matrices are plain complex128 ndarrays.  Subspaces of the matrix space
M_n carry the Hilbert-Schmidt geometry <a, b> = tr(b* a).  One global
vectorization convention is used everywhere: column stacking,

    vec(X)[i + n*j] = X[i, j],      vec(A X B) = kron(B.T, A) vec(X).

All matrix norms written ||.|| in residual bounds are Frobenius norms
(the Hilbert-Schmidt norm), which keeps every Taylor-type bound in this
package a provable inequality.
"""

from __future__ import annotations

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


def as_cmatrix(data) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def frob(m) -> float:
    return float(np.linalg.norm(m))


def is_hermitian(m, rtol: float = HERMITIAN_RTOL) -> bool:
    m = np.asarray(m)
    return frob(m - m.conj().T) <= rtol * max(1.0, frob(m))


def require_hermitian(m, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"square matrix required, got {m.shape}")
    if not is_hermitian(m, rtol):
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


def nullspace(m, rank_tol: float = DEFAULT_RANK_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of ker M as columns of an (n, d) array.

    A singular value is treated as zero when sigma <= rank_tol *
    max(sigma_max, scale); with the default scale = 0 the threshold is
    purely relative and the zero matrix returns the full space.  Kernel
    computations pass scale = 1 so that matrices consisting of pure
    roundoff (e.g. the commutator map of a near-scalar operator) collapse
    to the full space instead of ranking their noise.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    m = as_cmatrix(m)
    rows, cols = m.shape
    # reduced SVD loses nullspace directions when the matrix is wide
    u, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    if max(s[0] if s.size else 0.0, scale) == 0.0:
        return np.eye(cols, dtype=np.complex128)
    return vh[_numerical_rank(s, rank_tol, scale):].conj().T


def _numerical_rank(s: np.ndarray, rank_tol: float, scale: float) -> int:
    # the one rank rule: sigma counts when sigma > rank_tol * max(sigma_max, scale)
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > rank_tol * max(smax, scale)))


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
    and the tower is ker M repeated; a nilpotent part makes it grow.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"kernel towers need a square matrix, got {m.shape}")
    u, s, vh = np.linalg.svd(m)
    rank = _numerical_rank(s, rank_tol, scale)
    u_r, s_r, v_r = u[:, :rank], s[:rank], vh[:rank].conj().T
    v_0 = vh[rank:].conj().T
    if rank == 0 or rank == s.size:  # M = 0 or M invertible: nothing grows
        return [v_0] * k_max
    tower = [v_0]
    for _ in range(k_max - 1):
        q = tower[-1]
        cosines = q.conj().T @ u_r
        w = np.linalg.svd(cosines, full_matrices=False)[2].conj().T
        sines = np.linalg.norm(u_r @ w - q @ (cosines @ w), axis=0)
        grown = np.linalg.qr(w[:, sines <= rank_tol] / s_r[:, None])[0]
        tower.append(np.hstack([v_0, v_r @ grown]))
    return tower


def kron(a, b) -> np.ndarray:
    """Kronecker product with the package-wide memory budget applied."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    budget = max_ambient_dim() ** 4
    if (a.shape[0] * b.shape[0]) * (a.shape[1] * b.shape[1]) > budget:
        raise DimensionOverflow(
            f"kron result {a.shape[0] * b.shape[0]}x{a.shape[1] * b.shape[1]} "
            f"exceeds the {budget}-entry budget (DERIVLAB_MAX_DIM)"
        )
    return np.kron(a, b)


def vec(x) -> np.ndarray:
    """Column-stacking vectorization: vec(X)[i + n*j] = X[i, j]."""
    return np.asarray(x, dtype=np.complex128).reshape(-1, order="F")


def unvec(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != n * n:
        raise ShapeMismatch(f"vector of length {v.size} is not n^2 for n={n}")
    return v.reshape((n, n), order="F")


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(b* a), linear in the first slot."""
    return complex(np.vdot(np.asarray(b), np.asarray(a)))


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
        if b.shape[0]:
            rows = self.vectors()
            gram = rows.conj() @ rows.T
            if frob(gram - np.eye(b.shape[0])) > 1e-10:
                raise ValueError("basis is not orthonormal in the HS inner product")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def vectors(self) -> np.ndarray:
        """Basis as rows of a (dim, n^2) array in vec coordinates."""
        return self.basis.transpose(0, 2, 1).reshape(self.dim, -1)

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of a matrix onto the subspace."""
        v = vec(x)
        coeffs = self.vectors().conj() @ v
        return unvec(self.vectors().T @ coeffs, self.ambient_dim)

    def membership_residual(self, x) -> float:
        """||x - P(x)|| — zero iff x lies in the subspace."""
        return frob(np.asarray(x, dtype=np.complex128) - self.project(x))

    @classmethod
    def from_spanning(cls, ambient_dim: int, mats, rank_tol: float = 1e-12):
        """Orthonormalize an arbitrary spanning family (SVD-based, so
        linearly dependent input is fine)."""
        rows = np.array([vec(as_cmatrix(m)) for m in mats]).reshape(len(mats), ambient_dim**2)
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        # the rows of vh, unconjugated, span the rows vec(m)
        return cls.from_vec_columns(ambient_dim, vh[: _numerical_rank(s, rank_tol, 0.0)].T)

    @classmethod
    def from_vec_columns(cls, ambient_dim: int, columns: np.ndarray):
        """Wrap orthonormal vec-coordinate columns (e.g. from nullspace)."""
        # column j unvecs to X_j[i, l] = columns[i + n l, j]
        n = ambient_dim
        return cls(n, columns.T.reshape(-1, n, n).transpose(0, 2, 1))


def _check_same_ambient(s1: OperatorSubspace, s2: OperatorSubspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def _offspace_mass(a_rows: np.ndarray, b_rows: np.ndarray) -> float:
    # ||(I - P_b) P_a||_F^2 = sum_j ||(I - P_b) a_j||^2 over the basis of a;
    # the residual vectors are formed explicitly, which avoids the
    # catastrophic cancellation of the cross-Gram trace formula
    if a_rows.shape[0] == 0:
        return 0.0
    if b_rows.shape[0] == 0:
        return float(np.linalg.norm(a_rows) ** 2)
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


def read_matrix_text(path) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ShapeMismatch("matrix file is missing its header")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * rows * cols:
        raise ShapeMismatch(
            f"expected {2 * rows * cols} numbers for a {rows}x{cols} matrix, "
            f"found {len(body)}"
        )
    flat = np.array(
        [float(body[2 * k]) + 1j * float(body[2 * k + 1]) for k in range(rows * cols)]
    )
    return flat.reshape(rows, cols)


def matrix_to_json(m) -> list:
    """Nested-list encoding with [re, im] pairs per entry."""
    m = as_cmatrix(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ShapeMismatch("matrix JSON must be a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]
