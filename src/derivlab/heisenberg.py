"""Discretized position/momentum pairs, commutation-relation residuals,
the trace obstruction, and the rigidity of near-commuting commutators.

Momentum is discretized by central differences rather than spectrally:
the commutator with a diagonal position matrix then reduces to an exact
shift-average identity, which gives the residual checks a closed-form
scheme-level oracle.  One banded stencil, ``_difference``, carries the
scheme: on the line it pads with zeros (Dirichlet), so the difference
matrix is skew-symmetric, i*C is Hermitian with no boundary correction
and the identity holds on every row; on the circle it wraps cyclically.
Residuals apply the stencil to each vector in O(n); the dense n x n
matrices of a pair are built only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .derivation import ad_kernel_tower
from .errors import GridTooCoarse, ShapeMismatch
from .numlin import DEFAULT_RANK_TOL, as_cmatrix, frob, require_hermitian

SCHRODINGER_LINE = "schrodinger_line"
PERIODIC_INTERVAL = "periodic_interval"

# decay margin: a Gaussian sits 6.2 sigma clear of the boundary, which
# puts its tail below 1e-8 at the 5 outermost grid sites
_GAUSS_CLEARANCE = 6.2
_MIN_SITES_PER_SIGMA = 4.0


@dataclass(frozen=True)
class DiscretizedPair:
    """A discretized momentum/position pair (A, B) with its test vectors.

    A = i*C (central differences) and B = diag(grid) are dense n x n
    matrices built on first read; residuals never read them.
    test_domain holds unit vectors playing the role of the dense subspace
    on which [A, B] k = i k is probed; test_params records the continuum
    parameters so the same functions can be resampled on finer grids.
    """

    n: int
    grid: np.ndarray = field(repr=False)
    test_domain: list = field(repr=False)
    scheme: str
    h: float
    test_params: tuple = ()
    half_width: float = 0.0

    def _momentum(self, v) -> np.ndarray:
        """A v = i C v by the stencil, along axis 0 of v."""
        return 1j * _difference(v, self.h, self.scheme == PERIODIC_INTERVAL)

    @cached_property
    def A(self) -> np.ndarray:
        return self._momentum(np.eye(self.n))

    @cached_property
    def B(self) -> np.ndarray:
        return np.diag(self.grid).astype(complex)


def _difference(v, h: float, periodic: bool) -> np.ndarray:
    """Central differences (v_{j+1} - v_{j-1}) / 2h along axis 0, with zero
    (Dirichlet) padding on the line and a cyclic wrap on the circle."""
    if periodic:
        up, down = np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
    else:
        up, down = np.zeros_like(v), np.zeros_like(v)
        up[:-1], down[1:] = v[1:], v[:-1]
    return (up - down) / (2.0 * h)


def _pair(scheme: str, grid: np.ndarray, h: float, params, profiles, half_width=0.0):
    return DiscretizedPair(
        n=grid.size,
        grid=grid,
        test_domain=[v / np.linalg.norm(v) for v in profiles],
        scheme=scheme,
        h=h,
        test_params=tuple(params),
        half_width=half_width,
    )


def _gaussian_params(n: int, half_width: float) -> list:
    h = 2.0 * half_width / (n - 1)
    params = []
    for scale in (1.0, 1.2):
        sigma = max(_MIN_SITES_PER_SIGMA * h, half_width / 10.0) * scale
        slack = half_width - _GAUSS_CLEARANCE * sigma - 5.0 * h
        if slack <= 0:
            continue
        mu_cap = min(slack, half_width / 4.0)
        for mu in np.linspace(-mu_cap, mu_cap, 4):
            params.append((float(sigma), float(mu)))
    return params


def schrodinger_pair(n: int, half_width: float, params=None) -> DiscretizedPair:
    """Position and momentum on a uniform grid over [-L, L].

    B-role position Q = diag(x_j); momentum P = i*C with C the Dirichlet
    central-difference matrix, Hermitian by construction.  Test vectors
    are unit-normalized Gaussians whose tails fall below 1e-8 within five
    sites of either boundary; raises GridTooCoarse when no default
    Gaussian is resolvable (sigma >= 4h) on the requested grid.
    """
    if n < 16:
        raise GridTooCoarse(f"need at least 16 grid points, got {n}")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    h = 2.0 * half_width / (n - 1)
    grid = -half_width + h * np.arange(n)

    if params is None:
        params = _gaussian_params(n, half_width)
    params = [tuple(p) for p in params]
    if not params:
        raise GridTooCoarse(
            f"no default Gaussian with sigma >= 4h = {4 * h:.3g} fits inside "
            f"the decay margin at n={n}"
        )
    profiles = [np.exp(-((grid - mu) ** 2) / (2.0 * sigma**2)) for sigma, mu in params]
    return _pair(SCHRODINGER_LINE, grid, h, params, profiles, half_width)


# (center, width): supports [c - w, c + w] stay clear of the seam at 0, 1
_BUMP_PARAMS = tuple((c, w) for w in (0.22, 0.3) for c in (0.32, 0.45, 0.55, 0.68))


def periodic_pair(n: int, params=None) -> DiscretizedPair:
    """Bounded position and periodic momentum on the unit circle grid.

    B = diag(j/n) is contractive (norm (n-1)/n); A = i*C with cyclic
    central differences.  Test vectors are smooth bumps
    exp(1 - 1/(1 - s^2)) supported away from the wrap-around seam, so
    they vanish identically near j = 0 and j = n-1.
    """
    if n < 16:
        raise GridTooCoarse(f"need at least 16 grid points, got {n}")
    h = 1.0 / n
    grid = np.arange(n) / n

    if params is None:
        params = [(c, w) for c, w in _BUMP_PARAMS if w >= _MIN_SITES_PER_SIGMA * h]
    params = [tuple(p) for p in params]
    if not params:
        raise GridTooCoarse(f"no default bump is resolvable at n={n}")

    profiles = []
    for center, width in params:
        s = (grid - center) / width
        v = np.zeros(n)
        inside = np.abs(s) < 1.0
        v[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        profiles.append(v)
    return _pair(PERIODIC_INTERVAL, grid, h, params, profiles)


def _refine(pair: DiscretizedPair, factor: int) -> DiscretizedPair:
    if pair.scheme == SCHRODINGER_LINE:
        return schrodinger_pair(factor * pair.n, pair.half_width, params=pair.test_params)
    return periodic_pair(factor * pair.n, params=pair.test_params)


def commutation_residual(pair: DiscretizedPair, v) -> float:
    """Relative residual ||[A, B] v - i v|| / ||v||, in O(n): A(Bv) - B(Av)
    by the stencil, with Bv = grid * v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (pair.n,):
        raise ShapeMismatch(f"need a vector of length {pair.n}, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("residual of the zero vector is undefined")
    image = pair._momentum(pair.grid * v) - pair.grid * pair._momentum(v)
    return float(np.linalg.norm(image - 1j * v) / norm)


@dataclass(frozen=True)
class HcrResidualReport:
    """Residual table across grid refinements with observed orders.

    rows: (n, h, vector_id, residual, order_estimate or None); the order
    for a row compares it with the same vector on the previous grid.
    """

    grid_sizes: tuple
    rows: tuple
    orders: tuple
    mean_order: float


def hcr_residual(pair: DiscretizedPair, refinements: int = 3) -> HcrResidualReport:
    """Residuals ||[A,B]k - ik|| / ||k|| on the test vectors across grids
    n, 2n, 4n, ... with the observed convergence order per doubling
    (central differences give order 2)."""
    if refinements < 1:
        raise ValueError("refinements must be >= 1")
    pairs = [pair] + [_refine(pair, 2**j) for j in range(1, refinements)]
    residuals = [
        [commutation_residual(p, v) for v in p.test_domain] for p in pairs
    ]

    rows, orders = [], []
    for level, p in enumerate(pairs):
        for vid in range(len(p.test_domain)):
            order = None
            if level > 0:
                prev, cur = residuals[level - 1][vid], residuals[level][vid]
                if cur > 0 and prev > 0:
                    order = float(np.log2(prev / cur))
                    orders.append(order)
            rows.append((p.n, p.h, vid, residuals[level][vid], order))

    return HcrResidualReport(
        grid_sizes=tuple(p.n for p in pairs),
        rows=tuple(rows),
        orders=tuple(orders),
        mean_order=float(np.mean(orders)) if orders else float("nan"),
    )


def trace_obstruction(a, b) -> tuple[float, float, float]:
    """(|tr [A,B]|, ||[A,B] - iI||_F, sqrt(n)).

    Commutators of matrices are traceless, so [A, B] = iI is unattainable:
    the Frobenius gap is bounded below by sqrt(n) because
    |tr(M - iI)| = n for traceless M and |tr X| <= sqrt(n) ||X||_F.
    """
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"need equal square matrices, got {a.shape} and {b.shape}")
    n = a.shape[0]
    comm = a @ b - b @ a
    gap = frob(comm - 1j * np.eye(n))
    return float(abs(np.trace(comm))), float(gap), float(np.sqrt(n))


@dataclass(frozen=True)
class RigidityReport:
    """Samples from ker(ad_iD^2) and the sizes of their commutators with D.

    Every sample x already has [D, x] commuting with D; the rigidity
    statement is that this forces [D, x] itself to vanish.
    """

    trials: int
    kernel_dim: int
    max_relative_commutator: float


def rigidity_check(
    d,
    trials: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    seed: int = 0,
) -> RigidityReport:
    """Sample x from ker(ad_iD^2) and measure the largest
    ||[D, x]|| / (||D|| ||x||), which rigidity forces to zero.  The samples
    come from the second level of ``ad_kernel_tower``, all drawn at
    once and measured by one stacked commutator.  A NaN sample makes the
    maximum NaN, which no bound passes; a zero D gives 0.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = require_hermitian(d)
    sq_kernel = ad_kernel_tower(d, 2, rank_tol)[1]
    # per trial, the real then the imaginary parts, as paired draws give them
    parts = np.random.default_rng(seed).standard_normal((trials, 2, sq_kernel.dim))
    x = np.tensordot(parts[:, 0] + 1j * parts[:, 1], sq_kernel.basis, axes=1)
    commutators = np.linalg.norm(d @ x - x @ d, axis=(1, 2))
    scale = frob(d) * np.linalg.norm(x, axis=(1, 2))
    relative = np.divide(
        commutators, scale, out=np.zeros_like(commutators), where=scale != 0
    )
    return RigidityReport(
        trials=trials,
        kernel_dim=sq_kernel.dim,
        max_relative_commutator=float(np.max(relative)),
    )
