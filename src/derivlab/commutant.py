"""Commutants, bicommutants, and the identity ker ad_iD = {D}' = P_D'.

The two spectral objects of the identity, the commutant {P_i}' of the
spectral projections and the algebra P_D'' they generate, have closed
forms in the eigenvectors of each P_i (``projection_algebras``).  ker
ad_iD and {D}' share one reduction D = W T W*, T real tridiagonal, then
part: an SVD of the real block of ad_iT on one side; on the other, a rank
rule on the n^2 differences of the eigenvalues of T and two shifted
solves with I (x) T - T (x) I, by a dense LU up to n = 12 and above it
by a QR of its block tridiagonal form that never forms the n^2 x n^2
matrix.  {P_i}' never sees (W, T), so a faulty reduction shows against
it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .numlin import (
    DEFAULT_RANK_TOL,
    OperatorSubspace,
    _check_ambient_budget,
    _numerical_rank,
    as_cmatrix,
    containment_residual,
    frob,
    hermitian_tridiagonal,
    is_hermitian,
    kron,
    map_kernels,
    subspace_distance,
    tridiagonal_kernel_tower,
    unvec_columns,
)
from .spectral import DEFAULT_CLUSTER_TOL, SpectralResolution, spectral_resolution


def commutation_matrix(g: np.ndarray) -> np.ndarray:
    """The matrix of x -> [g, x]: vec([g, x]) = (I (x) g - g^T (x) I) vec(x),
    float64 for a float64 g (``kron``)."""
    eye = np.eye(g.shape[0])
    return kron(eye, g) - kron(g.T, eye)


def commutant(gens, rank_tol: float = DEFAULT_RANK_TOL) -> OperatorSubspace:
    """Orthonormal basis of {x : [g, x] = 0 for every generator g}.

    One SVD of the vertically stacked complex maps i[g, .]
    (``numlin.map_kernels``); the identity always belongs to the result.
    """
    mats = [as_cmatrix(g) for g in gens]
    if not mats:
        raise ShapeMismatch("generator list must be nonempty")
    n = mats[0].shape[0]
    for g in mats:
        if g.shape != (n, n):
            raise ShapeMismatch("generators must be square and of equal size")
    # map_kernels' scale floor: generators proportional to I commute with everything
    stack = 1j * np.vstack([commutation_matrix(g) for g in mats])
    return map_kernels(stack, n, rank_tol=rank_tol)[0]


def bicommutant(gens) -> OperatorSubspace:
    """Commutant applied twice.

    Non-self-adjoint generator lists are first augmented with their
    adjoints so that the first commutant is a *-algebra.
    """
    mats = [as_cmatrix(g) for g in gens]
    augmented = list(mats)
    for g in mats:
        if not is_hermitian(g):
            augmented.append(g.conj().T)
    first = commutant(augmented)
    return commutant(list(first.basis))


def hermitian_commutant(h, rank_tol: float = DEFAULT_RANK_TOL) -> OperatorSubspace:
    """{H}' for one Hermitian H, by inverse iteration: a route independent
    of the SVD in ``commutant`` and of the Hermitian frame.

    ``numlin.hermitian_tridiagonal`` gives H = W T W* with W unitary and
    T real symmetric tridiagonal, so {H}' = W {T}' W*, and {T}' is the
    kernel of the float64 symmetric matrix M = I (x) T - T (x) I.  The
    spectrum of M is {l_i - l_j} for the eigenvalues l of T (a Kronecker
    sum; Horn and Johnson, Topics in Matrix Analysis, thm 4.4.5), so the
    dimension k of the kernel comes from the n^2 values |l_i - l_j| and
    the rank rule of ``commutant`` at scale 1 (``numlin._numerical_rank``).
    The kernel is then two steps of block inverse iteration (Ipsen, SIAM
    Review 39(2), 1997): a fixed-seed Gaussian n^2 x k block goes through
    two solves with M - sigma I, a QR after each, where sigma =
    eps max(l_max - l_min, 1), halved while it equals some |l_i - l_j|.
    Up to n = 12 the solves are two LU solves of the dense M - sigma I;
    above, one block QR of it (``_block_solver``, O(n^4) time and O(n^3)
    memory) serves both.  Only eigenvalues of T are read, no eigenvector
    of H or of M.  ``kernel_commutant_check`` reuses the reduction."""
    return _tridiagonal_commutant(*hermitian_tridiagonal(h), rank_tol)


# n from which {T}' takes the block QR of ``_block_solver``: below it the
# n LAPACK QRs cost more than the two dense LU solves.  One call on the
# simple-spectrum suite instance, best of 60, one BLAS thread (x86_64):
# n = 6 0.48 against 0.18 ms, n = 12 1.02 against 0.91 ms, n = 13 1.22
# against 1.27 ms, n = 16 1.59 against 2.79 ms
_BLOCK_QR_MIN_DIM = 13


def _tridiagonal_commutant(w, t, rank_tol: float) -> OperatorSubspace:
    n = t.shape[0]
    values = np.linalg.eigvalsh(t)
    gaps = np.sort(np.abs(values[:, None] - values), axis=None)[::-1]
    dim = gaps.size - _numerical_rank(gaps, rank_tol, 1.0)
    # the shift keeps M - sigma I nonsingular when M is exactly 0 or
    # diagonal, as long as no entry of a diagonal M, a gap, equals it
    shift = np.finfo(np.float64).eps * max(values[-1] - values[0], 1.0)
    while shift in gaps:
        shift /= 2
    solve = (_block_solver if n >= _BLOCK_QR_MIN_DIM else _dense_solver)(t, shift)
    x = np.random.default_rng(0).standard_normal((n * n, dim))
    # one solve alone can leave a hundred times the error of two
    for _ in range(2):
        x = np.linalg.qr(solve(x))[0]
    return OperatorSubspace(n, w @ unvec_columns(x, n) @ w.conj().T)


def _dense_solver(t, shift: float):
    # x -> (M - shift I)^-1 x by LU of the float64 M = I (x) T - T (x) I
    m = commutation_matrix(t)
    m.flat[:: m.shape[0] + 1] -= shift
    return lambda x: np.linalg.solve(m, x)


def _block_solver(t, shift: float):
    """x -> (M - shift I)^-1 x for M = I (x) T - T (x) I and a real
    symmetric tridiagonal T, from a Householder QR of M - shift I by
    block columns; M is never formed.

    In vec order block j is column j of X, and M vec(X) = vec(TX - XT),
    so M is block tridiagonal: its diagonal blocks are T - t_jj I and the
    blocks coupling j and j + 1 are -t_(j,j+1) I.  One complete QR per
    2n x n panel (block j over block j + 1) eliminates the coupling
    below the diagonal; the fill of R stays within two block
    superdiagonals.  Orthogonal elimination needs no pivoting, so the
    near-singular shift is safe.  O(n^4) time and O(n^3) memory, against
    O(n^6) and O(n^4) for the dense LU; each solve applies the Q^T of
    the panels pair by pair, then runs block back-substitution.
    """
    n = t.shape[0]
    _check_ambient_budget(n)
    eye = np.eye(n)
    coupling = np.append(-t.diagonal(1), 0.0)  # -t_(j,j+1); none past block n - 1

    def block_row(j):  # block row j of M - shift I, block columns j - 1 to j + 1
        return np.hstack([coupling[j - 1] * eye, t - (t[j, j] + shift) * eye, coupling[j] * eye])

    panels, r = [], np.empty((n, n, 3 * n))  # block row j of R: R_jj, R_j,j+1, R_j,j+2
    rows = np.zeros((2 * n, 3 * n))  # block rows j and j + 1, block columns j to j + 2
    rows[:n, :2 * n] = block_row(0)[:, n:]
    for j in range(n):
        # below the last block row, zeros, which its panel's Q leaves be
        rows[n:] = block_row(j + 1) if j + 1 < n else 0
        q, upper = np.linalg.qr(rows[:, :n], mode="complete")
        rest = q.T @ rows[:, n:]
        r[j, :, :n], r[j, :, n:] = upper[:n], rest[:n]
        rows[:n, :2 * n], rows[:n, 2 * n:] = rest[n:], 0
        panels.append(q)

    def solve(x):
        k = x.shape[1]
        y = np.zeros((n + 2, n, k))
        y[:n] = x.reshape(n, n, k)
        for j, q in enumerate(panels):
            pair = y[j:j + 2].reshape(2 * n, k)
            pair[...] = q.T @ pair
        for j in range(n - 1, -1, -1):
            rhs = y[j] - r[j, :, n:2 * n] @ y[j + 1] - r[j, :, 2 * n:] @ y[j + 2]
            y[j] = np.linalg.solve(r[j, :, :n], rhs)
        return y[:n].reshape(n * n, k)

    return solve


def projection_defect(projections) -> float:
    """max(||P_i P_j - delta_ij P_i||, ||sum P_i - I||) over the family:
    zero iff the P_i are orthogonal projections that sum to I."""
    p = np.asarray(projections, dtype=np.complex128)
    worst = frob(p.sum(axis=0) - np.eye(p.shape[1]))
    for i, p_i in enumerate(p):
        products = p_i @ p
        products[i] -= p_i
        worst = max(worst, float(np.max(np.linalg.norm(products, axis=(1, 2)))))
    return worst


def projection_algebras(res: SpectralResolution) -> tuple:
    """({P_1, ..., P_k}', P_D'') of a spectral resolution, in closed form.

    For orthogonal projections that sum to I, x commutes with every P_i
    iff x = sum P_i x P_i, so {P_i}' = span{u_a u_b* : a, b in one
    cluster}, u an orthonormal basis of ran P_i: its m_i eigenvectors of
    eigenvalue 1 from eigh(P_i), one batched call over the P_i.  These
    sum(m_i^2) elements are HS-orthonormal.  The algebra the P_i generate
    is their span, and the P_i / ||P_i|| are orthonormal because
    P_i P_j = 0.  Both rely on the family being orthogonal and complete,
    which ``projection_defect`` measures.
    """
    n = res.projections.shape[1]
    blocks = []
    for u, m in zip(np.linalg.eigh(res.projections)[1], res.multiplicities):
        u = u[:, n - m:]
        blocks.append(np.einsum("ia,jb->abij", u, u.conj()).reshape(-1, n, n))
    norms = np.linalg.norm(res.projections, axis=(1, 2))
    return (
        OperatorSubspace(n, np.concatenate(blocks)),
        OperatorSubspace(n, res.projections / norms[:, None, None]),
    )


@dataclass(frozen=True)
class KernelCommutantReport:
    """Pairwise distances among ker ad_iD, {D}', and the commutant of the
    spectral projections, plus containment of the algebra they span and
    the orthogonality/completeness defect of the projections: measurements
    only, the pass rule lives in ``cli.commutant_identity_check``."""

    ambient_dim: int
    kernel_dim: int
    commutant_dim: int
    projection_commutant_dim: int
    algebra_dim: int
    distance_kernel_commutant: float
    distance_kernel_projection: float
    distance_commutant_projection: float
    algebra_containment: float
    projection_defect: float

    def to_json_dict(self) -> dict:
        return {
            "identity": "ker=MD_prime",
            "n": self.ambient_dim,
            "dims": {
                "kernel": self.kernel_dim,
                "commutant": self.commutant_dim,
                "projection_commutant": self.projection_commutant_dim,
                "algebra": self.algebra_dim,
            },
            "distances": {
                "kernel_vs_commutant": self.distance_kernel_commutant,
                "kernel_vs_projection_commutant": self.distance_kernel_projection,
                "commutant_vs_projection_commutant": self.distance_commutant_projection,
            },
            "algebra_containment": self.algebra_containment,
            "projection_defect": self.projection_defect,
        }


def kernel_commutant_check(
    d,
    rank_tol: float = DEFAULT_RANK_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> KernelCommutantReport:
    """Measure three realizations of the same subspace against each other —
    the kernel of ad_iD, the commutant of {D}, and the commutant of the
    spectral projections (closed form from the n x n eigh of each
    projection, which needs the projections to be orthogonal and
    complete, so their defect is reported too) — and how far the algebra
    the projections span sits outside the kernel.

    One Householder reduction D = W T W* (``hermitian_tridiagonal``)
    serves the first two, which then part: ker ad_iD is one SVD of the
    n(n-1)/2 x n(n+1)/2 real block of ad_iT (``tridiagonal_kernel_tower``),
    {D}' a rank rule on the eigenvalues of T and two shifted solves with
    the float64 I (x) T - T (x) I, by dense LU up to n = 12 and by one
    block QR above (``hermitian_commutant``).
    A faulty reduction moves both together, but not {P_i}', which comes
    from the spectral resolution alone: their distances to it show it."""
    d = as_cmatrix(d)
    res = spectral_resolution(d, cluster_tol)
    w, t = hermitian_tridiagonal(d)
    comm = _tridiagonal_commutant(w, t, rank_tol)
    kernel = tridiagonal_kernel_tower(w, t, 1, rank_tol)[0]
    proj_comm, algebra = projection_algebras(res)
    return KernelCommutantReport(
        ambient_dim=d.shape[0],
        kernel_dim=kernel.dim,
        commutant_dim=comm.dim,
        projection_commutant_dim=proj_comm.dim,
        algebra_dim=algebra.dim,
        distance_kernel_commutant=subspace_distance(kernel, comm),
        distance_kernel_projection=subspace_distance(kernel, proj_comm),
        distance_commutant_projection=subspace_distance(comm, proj_comm),
        algebra_containment=containment_residual(algebra, kernel),
        projection_defect=projection_defect(res.projections),
    )
