"""Discretized position/momentum pairs, commutation-relation residuals,
the trace obstruction, and the rigidity of near-commuting commutators.

Momentum is discretized by central differences rather than spectrally:
the commutator with a diagonal position matrix then reduces to an exact
shift-average identity, which gives the residual checks a closed-form
scheme-level oracle.  On the line the difference matrix is built directly
in its skew-symmetric (Dirichlet) form, so i*C is Hermitian with no
boundary correction and the identity holds on every row.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .derivation import ad_superoperator
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

    test_domain holds unit vectors playing the role of the dense subspace
    on which [A, B] k = i k is probed; test_params records the continuum
    parameters so the same functions can be resampled on finer grids.
    """

    n: int
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    grid: np.ndarray = field(repr=False)
    test_domain: list = field(repr=False)
    scheme: str
    h: float
    test_params: tuple = ()
    half_width: float = 0.0


def _central_difference(n: int, h: float, periodic: bool) -> np.ndarray:
    """Skew-symmetric central-difference matrix: (Cv)_j = (v_{j+1} - v_{j-1}) / 2h
    with zero (Dirichlet) padding on the line, cyclic wrap on the circle."""
    c = np.zeros((n, n))
    for j in range(n - 1):
        c[j, j + 1] = 1.0 / (2.0 * h)
        c[j + 1, j] = -1.0 / (2.0 * h)
    if periodic:
        c[0, n - 1] = -1.0 / (2.0 * h)
        c[n - 1, 0] = 1.0 / (2.0 * h)
    return c


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

    vectors = []
    for sigma, mu in params:
        v = np.exp(-((grid - mu) ** 2) / (2.0 * sigma**2))
        vectors.append(v / np.linalg.norm(v))

    q = np.diag(grid).astype(complex)
    p = 1j * _central_difference(n, h, periodic=False)
    return DiscretizedPair(
        n=n,
        A=p,
        B=q,
        grid=grid,
        test_domain=vectors,
        scheme=SCHRODINGER_LINE,
        h=h,
        test_params=tuple(params),
        half_width=half_width,
    )


def _bump_params() -> list:
    # supports [c - w, c + w] stay clear of the seam at 0 and 1
    return [
        (c, w)
        for w in (0.22, 0.3)
        for c in (0.32, 0.45, 0.55, 0.68)
    ]


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
        params = [(c, w) for c, w in _bump_params() if w >= _MIN_SITES_PER_SIGMA * h]
    params = [tuple(p) for p in params]
    if not params:
        raise GridTooCoarse(f"no default bump is resolvable at n={n}")

    vectors = []
    for center, width in params:
        s = (grid - center) / width
        v = np.zeros(n)
        inside = np.abs(s) < 1.0
        v[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        vectors.append(v / np.linalg.norm(v))

    b = np.diag(grid).astype(complex)
    a = 1j * _central_difference(n, h, periodic=True)
    return DiscretizedPair(
        n=n,
        A=a,
        B=b,
        grid=grid,
        test_domain=vectors,
        scheme=PERIODIC_INTERVAL,
        h=h,
        test_params=tuple(params),
    )


def _refine(pair: DiscretizedPair, factor: int) -> DiscretizedPair:
    if pair.scheme == SCHRODINGER_LINE:
        return schrodinger_pair(factor * pair.n, pair.half_width, params=pair.test_params)
    return periodic_pair(factor * pair.n, params=pair.test_params)


def commutation_residual(pair: DiscretizedPair, v) -> float:
    """Relative residual ||[A, B] v - i v|| / ||v||."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("residual of the zero vector is undefined")
    image = pair.A @ (pair.B @ v) - pair.B @ (pair.A @ v)
    return float(np.linalg.norm(image - 1j * v) / norm)


@dataclass(frozen=True)
class HcrResidualReport:
    """Residual table across grid refinements with observed orders.

    rows: (n, h, vector_id, residual, order_estimate or None); the order
    for a row compares it with the same vector on the previous grid.
    """

    scheme: str
    grid_sizes: tuple
    rows: tuple
    orders: tuple
    mean_order: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,h,vector_id,residual,order_estimate\n")
        for n, h, vid, res, order in self.rows:
            tail = "" if order is None else f"{order:.6g}"
            buf.write(f"{n},{h:.17g},{vid},{res:.17g},{tail}\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "identity": "HCR_residuals",
            "scheme": self.scheme,
            "grid_sizes": list(self.grid_sizes),
            "rows": [
                {
                    "n": n,
                    "h": h,
                    "vector_id": vid,
                    "residual": res,
                    "order_estimate": order,
                }
                for n, h, vid, res, order in self.rows
            ],
            "orders": list(self.orders),
            "mean_order": self.mean_order,
        }


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
        scheme=pair.scheme,
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

    ambient_dim: int
    trials: int
    kernel_dim: int
    max_relative_commutator: float
    max_commutant_membership_residual: float
    passed: bool
    commutator_tol: float
    rank_tol: float


def rigidity_check(
    d,
    trials: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    commutator_tol: float = 1e-8,
    seed: int = 0,
) -> RigidityReport:
    """Sample x from ker(ad_iD^2) and verify ||[D, x]|| <= tol ||D|| ||x||.

    Also confirms the membership route: [D, x] projects onto the
    commutant {D}' with no loss (it lies there by construction), and is
    then forced to be zero.  Both subspaces come from one kernel tower of
    ad_iD: {D}' = ker ad_iD and the samples' ker ad_iD^2.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = require_hermitian(d)
    comm_d, sq_kernel = ad_superoperator(d).kernel_tower(2, rank_tol)
    rng = np.random.default_rng(seed)

    d_norm = frob(d)
    worst_rel = 0.0
    worst_membership = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal(sq_kernel.dim) + 1j * rng.standard_normal(
            sq_kernel.dim
        )
        x = np.tensordot(coeffs, sq_kernel.basis, axes=1)
        x_norm = frob(x)
        if x_norm == 0:
            continue
        y = d @ x - x @ d
        scale = d_norm * x_norm
        worst_rel = max(worst_rel, frob(y) / scale if scale > 0 else 0.0)
        # [D, x] commutes with D, so projecting onto {D}' must recover it
        worst_membership = max(
            worst_membership,
            comm_d.membership_residual(y) / scale if scale > 0 else 0.0,
        )

    passed = worst_rel <= commutator_tol
    return RigidityReport(
        ambient_dim=d.shape[0],
        trials=trials,
        kernel_dim=sq_kernel.dim,
        max_relative_commutator=worst_rel,
        max_commutant_membership_residual=worst_membership,
        passed=passed,
        commutator_tol=commutator_tol,
        rank_tol=rank_tol,
    )
