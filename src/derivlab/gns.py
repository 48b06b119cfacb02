"""States on M_n, the GNS construction, and the operator implementing a
derivation under an equilibrium state.

Conventions.  A state is omega(a) = tr(rho a) for a density matrix rho.
The GNS inner product <a, b> = omega(b* a) is linear in the first slot.
Derivations are normalized as delta(x) = [i g, x] for a Hermitian
generator g; the implementing operator S is defined on the dense (here:
full) domain pi(M_n) f by S pi(a) f = -i pi(delta(a)) f, which makes S
Hermitian exactly when omega is an equilibrium state, and gives the
implementation identity pi(delta(a)) = [iS, pi(a)].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .derivation import Superoperator, ad_superoperator, superoperator_stabilization_report
from .errors import NotDensity, NotDerivation, NotEquilibrium, NotFaithful, ShapeMismatch
from .numlin import (
    DEFAULT_RANK_TOL,
    OperatorSubspace,
    as_cmatrix,
    frob,
    hermitian_eig,
    kron,
    require_hermitian,
    subspace_distance,
    vec,
)
from .spectral import spectral_resolution

FAITHFULNESS_TOL = 1e-10
EQUILIBRIUM_TOL = 1e-9
LEIBNIZ_TOL = 1e-9
STAR_TOL = 1e-10


@dataclass(frozen=True)
class State:
    """A state on M_n, stored through its density matrix."""

    rho: np.ndarray = field(repr=False)
    n: int
    faithful: bool
    min_eigenvalue: float

    def expectation(self, a) -> complex:
        return complex(np.trace(self.rho @ as_cmatrix(a)))


def state_from_density(rho, faithfulness_tol: float = FAITHFULNESS_TOL) -> State:
    """Validate a density matrix and wrap it as a State.

    Rejects non-Hermitian matrices, trace away from 1 by more than 1e-12,
    and eigenvalues below -1e-12.  The faithful flag records whether the
    smallest eigenvalue clears faithfulness_tol.
    """
    rho = as_cmatrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise NotDensity(f"density matrix must be square, got {rho.shape}")
    if frob(rho - rho.conj().T) > 1e-12 * max(1.0, frob(rho)):
        raise NotDensity("density matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-12:
        raise NotDensity(f"trace {tr} is not 1")
    w, _ = hermitian_eig(rho)
    if w.min() < -1e-12:
        raise NotDensity(f"negative eigenvalue {w.min():.3e}")
    return State(
        rho=rho,
        n=rho.shape[0],
        faithful=bool(w.min() > faithfulness_tol),
        min_eigenvalue=float(w.min()),
    )


@dataclass(frozen=True)
class Derivation:
    """A derivation of M_n: its superoperator plus provenance.

    kind is "inner" (map = ad_ig for a Hermitian generator) or "abstract"
    (a raw superoperator validated against the Leibniz rule and adjoint
    compatibility at construction).
    """

    ambient_dim: int
    map: Superoperator
    kind: str
    generator: np.ndarray | None = field(default=None, repr=False)


def _validate_derivation(sop: Superoperator, rng=None):
    rng = rng or np.random.default_rng(20240401)
    n = sop.ambient_dim
    for _ in range(4):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        leibniz = sop.apply(x @ y) - sop.apply(x) @ y - x @ sop.apply(y)
        if frob(leibniz) > LEIBNIZ_TOL * (1.0 + frob(x) * frob(y)):
            raise NotDerivation(
                f"Leibniz residual {frob(leibniz):.3e} on a random pair"
            )
        star = sop.apply(x.conj().T) - sop.apply(x).conj().T
        if frob(star) > STAR_TOL * max(1.0, frob(x)):
            raise NotDerivation(f"adjoint-compatibility residual {frob(star):.3e}")


def inner_derivation(a) -> Derivation:
    """The derivation x -> [i a, x] of a Hermitian generator a."""
    a = require_hermitian(a)
    return Derivation(
        ambient_dim=a.shape[0],
        map=ad_superoperator(a),
        kind="inner",
        generator=a,
    )


def abstract_derivation(matrix) -> Derivation:
    """Wrap a raw n^2 x n^2 matrix as a derivation, rejecting maps that
    fail the Leibniz or adjoint checks (every derivation of M_n is inner,
    so near-derivations are detectable)."""
    matrix = as_cmatrix(matrix)
    n2 = matrix.shape[0]
    n = int(round(np.sqrt(n2)))
    if n * n != n2 or matrix.shape[1] != n2:
        raise NotDerivation(f"matrix of shape {matrix.shape} is not n^2 x n^2")
    sop = Superoperator(n, matrix, "abstract derivation")
    _validate_derivation(sop)
    return Derivation(ambient_dim=n, map=sop, kind="abstract")


def equilibrium_check(omega: State, delta: Derivation) -> float:
    """Max of |omega(delta(b))| over the n^2 matrix units b.

    For an inner derivation this residual is the largest entry of
    i[rho, generator]; it vanishes iff the state commutes with the
    generator.
    """
    if omega.n != delta.ambient_dim:
        raise NotEquilibrium(
            f"state on M_{omega.n} cannot pair with a derivation of "
            f"M_{delta.ambient_dim}"
        )
    # tr(rho delta(E_rc)) for all units rc in one matrix-vector product
    weights = vec(omega.rho.T) @ delta.map.matrix
    return float(np.max(np.abs(weights)))


@dataclass(frozen=True)
class GNSRepresentation:
    """The GNS triple (pi, H, f) of a faithful state on M_n.

    H is M_n with inner product omega(b* a), orthonormalized through the
    Gram factor R (so coordinates of a are R vec(a)); pi acts by left
    multiplication expressed in those coordinates; f is the class of the
    identity.
    """

    hilbert_dim: int
    state: State
    gram_factor: np.ndarray = field(repr=False)
    gram_factor_inv: np.ndarray = field(repr=False)
    cyclic_vector: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.state.n

    def embed(self, a) -> np.ndarray:
        """Coordinates of pi(a) f, i.e. of the class of a."""
        return self.gram_factor @ vec(a)

    def pi(self, a) -> np.ndarray:
        """The representation: left multiplication by a in GNS coordinates.

        Takes one n x n matrix or a (k, n, n) stack.  kron(I, a) is block
        diagonal, so R kron(I, a) R^-1 = sum_j R[:, jn:(j+1)n] a
        R^-1[jn:(j+1)n, :], which is one product per factor.
        """
        n, d = self.n, self.hilbert_dim
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim not in (2, 3) or a.shape[-2:] != (n, n):
            raise ShapeMismatch(f"expected {n}x{n} matrices, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        blocks = np.matmul(self.gram_factor.reshape(d * n, n), a)
        return blocks.reshape(a.shape[:-2] + (d, d)) @ self.gram_factor_inv

    def inner(self, u, v) -> complex:
        """Hilbert-space inner product, linear in the first argument."""
        return complex(np.vdot(v, u))


def gns_construct(omega: State) -> GNSRepresentation:
    """Build the GNS representation of a faithful state.

    The Gram matrix of the matrix units under omega(b* a) is rho^T (x) I;
    its Cholesky factor turns M_n into coordinates where the inner
    product is standard.  Non-faithful states are rejected (no quotient).
    """
    if not omega.faithful:
        raise NotFaithful(
            f"minimal eigenvalue {omega.min_eigenvalue:.3e} is below the "
            f"faithfulness tolerance; the quotient construction is unsupported"
        )
    n = omega.n
    gram = kron(omega.rho.T, np.eye(n))
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NotFaithful(f"Gram matrix is not positive definite: {exc}") from exc
    r = lower.conj().T
    r_inv = scipy.linalg.solve_triangular(r, np.eye(n * n), lower=False)
    f = r @ vec(np.eye(n))
    return GNSRepresentation(
        hilbert_dim=n * n,
        state=omega,
        gram_factor=r,
        gram_factor_inv=r_inv,
        cyclic_vector=f,
    )


def implementing_operator(
    gns: GNSRepresentation, delta: Derivation
) -> tuple[np.ndarray, float]:
    """The operator S with S pi(a) f = -i pi(delta(a)) f, plus its
    symmetry defect ||S - S*||.

    Requires an equilibrium state (residual <= 1e-9); under that
    hypothesis S is Hermitian up to roundoff and satisfies
    pi(delta(a)) = [iS, pi(a)].
    """
    residual = equilibrium_check(gns.state, delta)
    if residual > EQUILIBRIUM_TOL:
        raise NotEquilibrium(
            f"equilibrium residual {residual:.3e} exceeds {EQUILIBRIUM_TOL:.1e}"
        )
    s = -1j * (gns.gram_factor @ delta.map.matrix @ gns.gram_factor_inv)
    return s, frob(s - s.conj().T)


def _unit_images(gns: GNSRepresentation) -> np.ndarray:
    """pi of the n^2 matrix units as one (n^2, d, d) stack in vec order:
    entry u is pi(unvec(e_u)), so by linearity pi(L(E_u)) for a map L
    with matrix M on vec coordinates is sum_v M[v, u] entry v."""
    n = gns.n
    return gns.pi(np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1))


def _norms(stack, out: str) -> np.ndarray:
    """Euclidean norms in a (k, d, d) stack: of each matrix (out="u") or
    of each column (out="uj").  Summed through a float view of the stack,
    so no temporary of its size is made."""
    parts = stack.view(np.float64).reshape(stack.shape + (2,))
    return np.sqrt(np.einsum(f"uijc,uijc->{out}", parts, parts))


def implementation_check(gns: GNSRepresentation, delta: Derivation, s) -> float:
    """Max over matrix units a and basis vectors h of
    ||pi(delta(a)) h - [iS, pi(a)] h||."""
    s = as_cmatrix(s)
    images = _unit_images(gns)
    # -i (pi(delta(a)) - [iS, pi(a)]) has the same column norms; scaling by
    # -i is exact, and it leaves two plain products to subtract in place
    diff = np.tensordot(delta.map.matrix, images, axes=(0, 0))
    diff *= -1j
    diff -= s @ images
    diff += images @ s
    # column norms = residual on every coordinate basis vector h
    return float(np.max(_norms(diff, "uj")))


def flow_intertwining_residual(
    gns: GNSRepresentation, delta: Derivation, s, t: float
) -> float:
    """Max over matrix units a of
    ||exp(iSt) pi(a) exp(-iSt) - pi(exp(t map)(a))||."""
    s = as_cmatrix(s)
    u = scipy.linalg.expm(1j * t * s)
    u_inv = scipy.linalg.expm(-1j * t * s)
    propagated = scipy.linalg.expm(t * delta.map.matrix)
    images = _unit_images(gns)
    rhs = np.tensordot(propagated, images, axes=(0, 0))
    lhs = np.matmul(u @ images, u_inv, out=images)
    lhs -= rhs
    return float(np.max(_norms(lhs, "u")))


def kernel_correspondence_distance(
    gns: GNSRepresentation, delta: Derivation, s, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Distance between the kernel of [iS, .] restricted to the range of
    pi and the image under pi of ker(map).

    [iS, .] preserves the range of pi (that is the implementation
    identity), so the restriction is computed in an orthonormal basis of
    that range; both sides are compared as subspaces of the d x d matrix
    space, d = hilbert_dim.
    """
    s = as_cmatrix(s)
    n = gns.n
    d = gns.hilbert_dim

    # Orthonormal basis of the range of pi as the columns of q.  The
    # d x d matrices are flattened row-major, which makes basis[:, :, j]
    # a view of column j; any fixed flattening only permutes coordinates.
    q, _ = np.linalg.qr(_unit_images(gns).reshape(n * n, d * d).T)
    basis = q.reshape(d, d, -1)

    # matrix of [iS, .] in the range basis: q^H [S B_j - B_j S]_j
    image = (s @ q.reshape(d, -1)).reshape(d * d, -1)
    image -= np.matmul(s.T, basis).reshape(d * d, -1)
    restricted = 1j * (q.conj().T @ image)

    _, sing, null = np.linalg.svd(restricted)
    smax = sing[0] if sing.size else 0.0
    rank = int(np.sum(sing > rank_tol * max(smax, 1.0)))
    kernel_mats = np.tensordot(basis, null[rank:].conj(), axes=(2, 1))
    restricted_kernel = OperatorSubspace.from_spanning(
        d, np.moveaxis(kernel_mats, -1, 0)
    )

    map_kernel = delta.map.kernel(rank_tol)
    pushed = OperatorSubspace.from_spanning(d, gns.pi(map_kernel.basis))
    return subspace_distance(restricted_kernel, pushed)


def abstract_kernel_stabilization(
    delta: Derivation,
    n_max: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    distance_tol: float = 1e-8,
):
    """Kernel stabilization report for an arbitrary derivation's map."""
    spectrum = multiplicities = None
    if delta.kind == "inner" and delta.generator is not None:
        res = spectral_resolution(delta.generator)
        spectrum = tuple(float(v) for v in res.values)
        multiplicities = tuple(int(m) for m in res.multiplicities)
    return superoperator_stabilization_report(
        delta.map,
        n_max,
        rank_tol=rank_tol,
        distance_tol=distance_tol,
        spectrum=spectrum,
        multiplicities=multiplicities,
    )


def analytic_norm_series(delta: Derivation, a, t: float, k_max: int) -> np.ndarray:
    """Partial sums of sum_k t^k / k! ||delta^k(a)|| for k <= k_max.

    Bounded by ||a|| exp(t ||map||), so every matrix is an analytic
    vector at finite dimension.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    a = as_cmatrix(a)
    term = a
    total = frob(a)
    partial = [total]
    factorial = 1.0
    for k in range(1, k_max + 1):
        term = delta.map.apply(term)
        factorial *= k
        total += t**k / factorial * frob(term)
        partial.append(total)
    return np.asarray(partial)
