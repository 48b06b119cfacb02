"""Spectral resolutions of Hermitian matrices and their unitary group.

A resolution groups numerically near-degenerate eigenvalues into clusters;
projections onto individual ill-separated eigenspaces are unstable, but the
sum over a cluster is stable, so clusters are the unit of bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousClustering
from .numlin import hermitian_eig

DEFAULT_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class SpectralResolution:
    """Clustered eigenvalues with orthogonal spectral projections.

    values[i] is the cluster representative (mean of the merged
    eigenvalues) and projections[i] the rank-multiplicities[i] orthogonal
    projection onto the clustered eigenspace.
    """

    values: np.ndarray
    projections: np.ndarray = field(repr=False)
    multiplicities: np.ndarray


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
    )


def unitary_group(res: SpectralResolution, t: float) -> np.ndarray:
    """One-parameter unitary group u(t) = sum exp(i t lambda_i) P_i."""
    return np.einsum("k,kij->ij", np.exp(1j * t * res.values), res.projections)
