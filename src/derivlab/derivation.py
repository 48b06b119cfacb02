"""The commutator derivation ad_iD as a superoperator, its powers and
kernels, the flow alpha_t, and the differentiability checks.

At finite dimension every matrix is differentiable along the flow
alpha_t(x) = u(t) x u(-t): the uniform and weak notions of the derivative
coincide and are both realized by the bounded commutator map
x -> i(Dx - xD).  One object therefore carries both roles here, and the
difference-quotient check below certifies the limit in the strongest
(norm) sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .commutant import commutation_matrix
from .errors import ZeroT
from .numlin import (
    DEFAULT_RANK_TOL,
    OperatorSubspace,
    as_cmatrix,
    frob,
    hermitian_tridiagonal,
    map_distinct,
    map_kernels,
    require_hermitian,
    subspace_distance,
    tridiagonal_kernel_tower,
)
from .spectral import DEFAULT_CLUSTER_TOL, SpectralResolution, spectral_resolution, unitary_group

# geometric grid exposing first-order convergence without over/underflow
DEFAULT_T_GRID = tuple(1e-2 * 2.0**-j for j in range(7))


@dataclass(frozen=True)
class Superoperator:
    """A linear map on M_n stored as its n^2 x n^2 matrix acting on vec(x)."""

    ambient_dim: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = as_cmatrix(self.matrix)
        n2 = self.ambient_dim**2
        if m.shape != (n2, n2):
            raise ValueError(
                f"superoperator matrix {m.shape} does not match ambient "
                f"dimension {self.ambient_dim}"
            )
        object.__setattr__(self, "matrix", m)

    def power(self, k: int) -> "Superoperator":
        if k < 1:
            raise ValueError("power requires k >= 1")
        return Superoperator(self.ambient_dim, np.linalg.matrix_power(self.matrix, k))

    def kernel(self, rank_tol: float = DEFAULT_RANK_TOL) -> OperatorSubspace:
        return self.kernel_tower(1, rank_tol)[0]

    def kernel_tower(self, k_max: int, rank_tol: float = DEFAULT_RANK_TOL) -> tuple:
        """Kernels of the map's powers 1..k_max from one SVD of the map,
        in the Hermitian frame when the map is *-preserving
        (``numlin.map_kernels``)."""
        return map_kernels(self.matrix, self.ambient_dim, k_max, rank_tol)


def ad_superoperator(d) -> Superoperator:
    """The superoperator of x -> i(Dx - xD) for Hermitian D.

    Under column stacking its matrix is i(I (x) D - D^T (x) I), i times
    ``commutant.commutation_matrix``; the spectrum is
    {i(lambda_r - lambda_c)} over eigenvalue pairs of D.
    """
    d = require_hermitian(d)
    return Superoperator(d.shape[0], 1j * commutation_matrix(d))


def ad_apply(d, x) -> np.ndarray:
    """Direct commutator formula i(Dx - xD), bypassing the superoperator."""
    d = as_cmatrix(d)
    x = as_cmatrix(x)
    return 1j * (d @ x - x @ d)


def ad_kernel_tower(d, k_max: int, rank_tol: float = DEFAULT_RANK_TOL) -> tuple:
    """ker ad_iD, ..., ker ad_iD^k_max for Hermitian D: ``tridiagonal_kernel_tower``
    of the Householder reduction D = W T W* (``hermitian_tridiagonal``)."""
    return tridiagonal_kernel_tower(*hermitian_tridiagonal(d), k_max, rank_tol)


@dataclass(frozen=True)
class KernelStabilizationReport:
    """Kernel dimensions and distances to the first kernel for the powers
    k = 1..len(kernel_dims): measurements only, the pass rule lives in
    the check functions of ``cli``.  ``kernel`` holds that first kernel,
    ker(map)."""

    kernel_dims: tuple
    distances: tuple
    multiplicities: tuple | None = None
    kernel: OperatorSubspace | None = field(default=None, repr=False, compare=False)


def _stabilization_report(kernels, multiplicities=None) -> KernelStabilizationReport:
    # dims and distances to the first level, each distinct level measured
    # once: a tower that repeats ker(map) takes one distance.  Every level
    # contains the first by construction, so a distance measures growth
    # only; a growing kernel is report content, never an exception
    if len(kernels) < 2:
        raise ValueError("n_max must be >= 2")
    base = kernels[0]
    return KernelStabilizationReport(
        kernel_dims=tuple(k.dim for k in kernels),
        distances=map_distinct(lambda k: subspace_distance(k, base), kernels),
        multiplicities=multiplicities,
        kernel=base,
    )


def kernel_stabilization_report(
    d,
    n_max: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> KernelStabilizationReport:
    """Kernel stabilization of ad_iD: dims and distances for k <= n_max,
    from ``ad_kernel_tower``, and the eigenvalue multiplicities of D."""
    res = spectral_resolution(d, cluster_tol)
    return _stabilization_report(
        ad_kernel_tower(d, n_max, rank_tol),
        multiplicities=tuple(int(m) for m in res.multiplicities),
    )


def flow(res: SpectralResolution, x, t: float) -> np.ndarray:
    """alpha_t(x) = u(t) x u(-t) for the unitary group of the resolution."""
    u_plus = unitary_group(res, t)
    u_minus = unitary_group(res, -t)
    return u_plus @ as_cmatrix(x) @ u_minus


@dataclass(frozen=True)
class DifferenceQuotientReport:
    """Difference-quotient residuals r(t) = ||(alpha_t(x) - x)/t - ad_iD(x)||
    and Lipschitz ratios ||alpha_t(x) - x|| / |t| on a t-grid.

    Bounds (Frobenius norms): r(t) <= ||D||^2 ||x|| |t| and the ratio is
    at most ||ad_iD(x)|| + ||D||^2 ||x|| |t|.  Pass thresholds are fields
    of the report, not test-only constants.
    """

    t_values: tuple
    residuals: tuple
    lipschitz_ratios: tuple
    residual_bounds: tuple
    lipschitz_bounds: tuple
    monotone: bool
    passed: bool


def difference_quotient_check(
    res: SpectralResolution, d, x, t_list=DEFAULT_T_GRID
) -> DifferenceQuotientReport:
    d = as_cmatrix(d)
    x = as_cmatrix(x)
    t_values = [float(t) for t in t_list]
    if any(t == 0.0 for t in t_values):
        raise ZeroT("difference quotients need t != 0")
    derivative = ad_apply(d, x)
    d_norm = frob(d)
    x_norm = frob(x)
    ad_norm = frob(derivative)

    residuals, ratios, r_bounds, l_bounds = [], [], [], []
    for t in t_values:
        moved = flow(res, x, t)
        residuals.append(frob((moved - x) / t - derivative))
        ratios.append(frob(moved - x) / abs(t))
        r_bounds.append(d_norm**2 * x_norm * abs(t))
        l_bounds.append(ad_norm + d_norm**2 * x_norm * abs(t))

    order = np.argsort(np.abs(t_values))[::-1]  # largest |t| first
    ordered = [residuals[i] for i in order]
    # slack absorbs roundoff when the residuals themselves are noise
    # (x in the kernel), where monotonicity is vacuous
    slack = 1e-12 * max(1.0, d_norm**2 * x_norm)
    monotone = all(a >= b - slack for a, b in zip(ordered[:-1], ordered[1:]))
    passed = monotone and all(
        r <= rb + 1e-14 and l <= lb + 1e-12
        for r, rb, l, lb in zip(residuals, r_bounds, ratios, l_bounds)
    )
    return DifferenceQuotientReport(
        t_values=tuple(t_values),
        residuals=tuple(residuals),
        lipschitz_ratios=tuple(ratios),
        residual_bounds=tuple(r_bounds),
        lipschitz_bounds=tuple(l_bounds),
        monotone=monotone,
        passed=passed,
    )


def pairing_derivative_check(
    res: SpectralResolution, d, x, h, k, t: float, delta: float
) -> float:
    """Central-difference residual for d/ds <alpha_s(x) h, k> at s = t
    against <alpha_t(ad_iD(x)) h, k>.

    The residual is O(delta^2) with constant ||D||^3 ||x|| ||h|| ||k||.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = as_cmatrix(x)
    h = np.asarray(h, dtype=complex).reshape(-1)
    k = np.asarray(k, dtype=complex).reshape(-1)

    def pairing(s):
        return complex(np.vdot(k, flow(res, x, s) @ h))

    central = (pairing(t + delta) - pairing(t - delta)) / (2.0 * delta)
    exact = complex(np.vdot(k, flow(res, ad_apply(d, x), t) @ h))
    return abs(central - exact)
