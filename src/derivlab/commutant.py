"""Commutants, bicommutants, and the algebra generated by a spectral
resolution, together with the identity ker ad_iD = {D}' = P_D'."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .numlin import (
    DEFAULT_RANK_TOL,
    OperatorSubspace,
    as_cmatrix,
    containment_residual,
    frob,
    is_hermitian,
    kron,
    map_kernels,
    require_hermitian,
    subspace_distance,
)
from .spectral import DEFAULT_CLUSTER_TOL, SpectralResolution, spectral_resolution

# fixed draws for the generic elements below, so every report reproduces
_WEIGHTS_SEED = 20180801
_ALGEBRA_SEED = 20180802


def commutation_matrix(g: np.ndarray) -> np.ndarray:
    """The matrix of x -> [g, x]: vec([g, x]) = (I (x) g - g^T (x) I) vec(x)."""
    eye = np.eye(g.shape[0])
    return kron(eye, g) - kron(g.T, eye)


def commutant(gens, rank_tol: float = DEFAULT_RANK_TOL) -> OperatorSubspace:
    """Orthonormal basis of {x : [g, x] = 0 for every generator g}.

    One SVD of the vertically stacked maps i[g, .] (``numlin.map_kernels``);
    the identity always belongs to the result.  A generator that
    ``is_hermitian`` accepts counts as its exact Hermitian part (g + g*)/2;
    when every one does, the stack is real in the Hermitian frame and that
    real matrix is factored instead, with the same singular values.  Other
    lists stay complex.
    """
    mats = [as_cmatrix(g) for g in gens]
    if not mats:
        raise ShapeMismatch("generator list must be nonempty")
    n = mats[0].shape[0]
    for g in mats:
        if g.shape != (n, n):
            raise ShapeMismatch("generators must be square and of equal size")
    mats = [(g + g.conj().T) / 2 if is_hermitian(g) else g for g in mats]
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
    """{H}' for one Hermitian H, from eigh of the Hermitian matrix
    I (x) H - H^T (x) I: the eigenvectors whose |eigenvalue| is at most
    rank_tol * max(largest |eigenvalue|, 1), the rank rule of ``commutant``.
    An eigensolver, so a route independent of the SVD in ``commutant``.

    It stays a complex eigh of the untransformed matrix, although that
    matrix is real in the Hermitian frame: the kernel of ad_iD and {P_i}'
    both go through the frame change and a real SVD, so a {D}' that
    shares neither the algorithm nor the frame code with them lets
    ``kernel_commutant_check`` catch a fault in either."""
    h = require_hermitian(h)
    return _eigh_commutant(commutation_matrix(h), h.shape[0], rank_tol)


def _eigh_commutant(c: np.ndarray, n: int, rank_tol: float) -> OperatorSubspace:
    # {H}' from the commutation matrix c of H, as ``hermitian_commutant``
    w, v = np.linalg.eigh(c)
    cut = rank_tol * max(float(np.max(np.abs(w))), 1.0)
    return OperatorSubspace.from_vec_columns(n, v[:, np.abs(w) <= cut])


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


def projection_commutant(
    res: SpectralResolution, rank_tol: float = DEFAULT_RANK_TOL
) -> OperatorSubspace:
    """{P_1, ..., P_k}' of the spectral projections from one generator.

    For orthogonal projections that sum to I and distinct reals c_i,
    {P_i}' = {sum c_i P_i}' exactly.  The c_i are i + u_i with u_i drawn
    from a fixed seed in [-1/4, 1/4]: gaps of at least 1/2, and no affine
    image of the eigenvalues of D, so the generator is not D in disguise.
    The projections of a ``SpectralResolution`` are orthogonal and
    complete by construction; ``projection_defect`` measures it.
    """
    k = len(res.projections)
    weights = np.arange(k) + np.random.default_rng(_WEIGHTS_SEED).uniform(-0.25, 0.25, k)
    g = np.tensordot(weights, np.asarray(res.projections), axes=1)
    return commutant([g], rank_tol)


def algebra_commutant(
    algebra: OperatorSubspace, rank_tol: float = DEFAULT_RANK_TOL
) -> OperatorSubspace:
    """Commutant of a *-algebra given by a basis, from two of its elements.

    A finite-dimensional *-algebra is a direct sum of full matrix blocks,
    and two generic Hermitian elements generate it (Burnside's theorem,
    blockwise; generic spectra also separate inequivalent blocks), so its
    commutant is the commutant of those two: a stack of 2 maps rather than
    one per basis element.  The elements are X + X* and i(X - X*) for X a
    combination of the basis with coefficients from a fixed seed.
    """
    rng = np.random.default_rng(_ALGEBRA_SEED)
    coeffs = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    x = np.tensordot(coeffs, algebra.basis, axes=1)
    return commutant([x + x.conj().T, 1j * (x - x.conj().T)], rank_tol)


def spectral_vn_algebra(res: SpectralResolution) -> OperatorSubspace:
    """Bicommutant of the spectral projections; equals their linear span,
    so its dimension is the number of clusters."""
    return algebra_commutant(projection_commutant(res))


@dataclass(frozen=True)
class KernelCommutantReport:
    """Pairwise distances among ker ad_iD, {D}', and the commutant of the
    spectral projections, plus containment of the generated algebra and
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
    the kernel of ad_iD (real SVD in the Hermitian frame), the commutant
    of {D} (complex eigh), and the commutant of the spectral projections
    (one generator, real SVD in the frame, which needs the projections to
    be orthogonal and complete, so their defect is reported too) — and
    how far the algebra generated by the projections sits outside the
    kernel.  One projection commutant serves the distances and the
    algebra, and one commutation matrix C of D serves the first two
    routes: ``hermitian_commutant``'s eigh reads C, then C becomes the
    matrix iC of ad_iD in place, so no second n^2 x n^2 array is built."""
    d = as_cmatrix(d)
    res = spectral_resolution(d, cluster_tol)
    c = commutation_matrix(d)
    comm = _eigh_commutant(c, d.shape[0], rank_tol)
    c *= 1j
    kernel = map_kernels(c, d.shape[0], rank_tol=rank_tol)[0]
    del c  # freed before the projection routes build their stacks
    proj_comm = projection_commutant(res, rank_tol)
    algebra = algebra_commutant(proj_comm, rank_tol)
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
