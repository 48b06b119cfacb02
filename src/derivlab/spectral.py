"""Spectral resolutions of Hermitian matrices and their functional calculus.

A resolution groups numerically near-degenerate eigenvalues into clusters;
projections onto individual ill-separated eigenspaces are unstable, but the
sum over a cluster is stable, so clusters are the unit of bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousClustering, MissingValue
from .numlin import as_cmatrix, frob, hermitian_eig

DEFAULT_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class SpectralResolution:
    """Clustered eigenvalues with orthogonal spectral projections.

    values[i] is the cluster representative (mean of the merged
    eigenvalues), projections[i] the rank-multiplicities[i] orthogonal
    projection onto the clustered eigenspace, and source_norm the
    operator norm of the resolved matrix.
    """

    values: np.ndarray
    projections: np.ndarray = field(repr=False)
    multiplicities: np.ndarray
    source_norm: float
    cluster_tol: float

    @property
    def n_clusters(self) -> int:
        return len(self.values)

    def reconstruct(self) -> np.ndarray:
        """Sum of value * projection over all clusters."""
        return np.einsum("k,kij->ij", self.values.astype(complex), self.projections)


def spectral_resolution(d, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralResolution:
    """Eigendecompose a Hermitian matrix and merge near-degenerate
    eigenvalues.

    Greedy ascending pass: a gap <= cluster_tol * max(1, ||D||_op) keeps
    two eigenvalues in one cluster, a larger gap starts a new one.  A gap
    within 1e-15 of the threshold is ambiguous and raises, forcing the
    caller to perturb cluster_tol.
    """
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be nonnegative")
    w, u = hermitian_eig(d)
    op_norm = float(np.max(np.abs(w))) if w.size else 0.0
    threshold = cluster_tol * max(1.0, op_norm)

    gaps = np.diff(w)
    if np.any(np.abs(gaps - threshold) <= 1e-15):
        raise AmbiguousClustering(
            f"an eigenvalue gap coincides with the clustering threshold "
            f"{threshold:.3e}; perturb cluster_tol"
        )

    boundaries = [0] + [i + 1 for i, g in enumerate(gaps) if g > threshold] + [len(w)]
    values, projections, multiplicities = [], [], []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        block = u[:, lo:hi]
        values.append(float(np.mean(w[lo:hi])))
        projections.append(block @ block.conj().T)
        multiplicities.append(hi - lo)

    return SpectralResolution(
        values=np.asarray(values),
        projections=np.stack(projections),
        multiplicities=np.asarray(multiplicities, dtype=int),
        source_norm=op_norm,
        cluster_tol=cluster_tol,
    )


def borel_calculus(res: SpectralResolution, values) -> np.ndarray:
    """Apply a function to the resolution: sum f(lambda_i) P_i.

    The function is supplied as its finite list of values at the cluster
    representatives — the only observable data at finite dimension.
    """
    values = np.asarray(values, dtype=complex).reshape(-1)
    if values.size != res.n_clusters:
        raise MissingValue(
            f"need {res.n_clusters} function values, got {values.size}"
        )
    return np.einsum("k,kij->ij", values, res.projections)


def indicator_values(res: SpectralResolution, intervals) -> np.ndarray:
    """0/1 values of the indicator of a finite union of closed intervals
    [a, b], evaluated at the cluster representatives."""
    out = np.zeros(res.n_clusters)
    for a, b in intervals:
        out = np.maximum(out, (res.values >= a) & (res.values <= b))
    return out


def spectral_projection(res: SpectralResolution, intervals) -> np.ndarray:
    """Spectral projection for a union of intervals: a member of the
    family of all spectral projections of the resolved matrix."""
    return borel_calculus(res, indicator_values(res, intervals))


def unitary_group(res: SpectralResolution, t: float) -> np.ndarray:
    """One-parameter unitary group u(t) = sum exp(i t lambda_i) P_i."""
    return borel_calculus(res, np.exp(1j * t * res.values))


def projection_commutation_check(res: SpectralResolution, x) -> float:
    """Max over spectral projections P of ||[P,[D,x]] - [D,[P,x]]||.

    Both nested commutators agree identically, so the return value is a
    pure roundoff residual.
    """
    x = as_cmatrix(x)
    d = res.reconstruct()
    dx = d @ x - x @ d
    worst = 0.0
    for p in res.projections:
        lhs = p @ dx - dx @ p
        px = p @ x - x @ p
        rhs = d @ px - px @ d
        worst = max(worst, frob(lhs - rhs))
    return worst
