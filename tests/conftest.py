import numpy as np
import pytest

from derivlab.cli import _spectral_instances, generate
from derivlab.derivation import _stabilization_report
from derivlab.errors import ShapeMismatch
from derivlab.numlin import (
    OperatorSubspace,
    _frame_order,
    as_cmatrix,
    frob,
    from_frame,
    hermitian_eig,
    kernel_tower,
    nullspace,
)


def random_hermitian(n, seed, scale=1.0):
    """Plain GUE-style Hermitian matrix (no gap control); use
    cli.generate for instances whose kernel ranks must be unambiguous."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2.0


def reduction_cases():
    """Hermitian D by name: the spectral suites' pair at n = 2..16, and the
    shapes that take the special paths of numlin.hermitian_tridiagonal."""
    cases = {f"spectral-{n}-{name}": d for n in range(2, 17) for name, d in _spectral_instances(n, 5)}
    blocks = np.zeros((5, 5), dtype=complex)
    blocks[:2, :2] = random_hermitian(2, seed=40)
    blocks[2:, 2:] = random_hermitian(3, seed=41)
    first_zero = random_hermitian(5, seed=42)
    first_zero[1, 0] = first_zero[0, 1] = 0.0
    cases.update(
        one_by_one=np.array([[2.5]]),
        diagonal=np.diag([3.0, -1.0, 0.5, 2.0]),
        block_diagonal=blocks,  # column 1 has nothing below the subdiagonal
        scalar=4.0 * np.eye(6),
        first_entry_zero=first_zero,
    )
    return cases


def random_matrix(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def matrix_unit(n, r, c):
    e = np.zeros((n, n), dtype=complex)
    e[r, c] = 1.0
    return e


def unvec(v, n: int) -> np.ndarray:
    """The inverse of ``numlin.vec``: the n x n matrix X with
    vec(X)[i + n*j] = X[i, j]."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != n * n:
        raise ShapeMismatch(f"vector of length {v.size} is not n^2 for n={n}")
    return v.reshape((n, n), order="F")


def functional_calculus(res, values):
    """sum f(lambda_i) P_i over the clusters of a spectral resolution, for
    the values of f at the cluster representatives."""
    return np.einsum("k,kij->ij", np.asarray(values, dtype=complex), res.projections)


def projection_commutation_check(res, x) -> float:
    """Max over spectral projections P of ||[P,[D,x]] - [D,[P,x]]||.

    Both nested commutators agree identically, so the return value is a
    pure roundoff residual.
    """
    x = as_cmatrix(x)
    d = functional_calculus(res, res.values)
    dx = d @ x - x @ d
    worst = 0.0
    for p in res.projections:
        lhs = p @ dx - dx @ p
        px = p @ x - x @ p
        rhs = d @ px - px @ d
        worst = max(worst, frob(lhs - rhs))
    return worst


def iterated_commutator(d, x, k):
    """k-fold nested commutator of x with iD, by repeated direct
    commutation i(Dx - xD).  For diagonal integer D the entries are
    exactly (i (d_r - d_c))^k x_rc, with no rounding on integer data."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = np.asarray(d, dtype=complex)
    out = np.asarray(x, dtype=complex)
    for _ in range(k):
        out = 1j * (d @ out - out @ d)
    return out


def expectation(omega, a):
    """omega(a) = tr(rho a)."""
    return complex(np.trace(omega.rho @ np.asarray(a, dtype=complex)))


def embed(rep, a):
    """GNS coordinates of the class of a, R vec(a) = vec(a (L*)^T) for the
    stored factor L* of the representation, column-stacked."""
    return (np.asarray(a, dtype=complex) @ rep.factor.T).reshape(-1, order="F")


def from_spanning(ambient_dim, mats):
    """HS-orthonormal basis of the span of a family of n x n matrices, by
    an SVD of their vecs, so linearly dependent input is fine: a singular
    value counts when it exceeds 1e-12 times the largest."""
    n = ambient_dim
    rows = np.array([np.asarray(m, dtype=complex).reshape(-1, order="F") for m in mats])
    _, s, vh = np.linalg.svd(rows.reshape(len(mats), n * n), full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size else 0
    # the rows of vh, unconjugated, span the rows vec(m); row v unvecs to
    # X[i, j] = v[i + n j]
    return OperatorSubspace(n, vh[:rank].reshape(-1, n, n).transpose(0, 2, 1))


def membership_residual(space, x):
    """||x - P(x)|| for the orthogonal projection P onto an
    OperatorSubspace, from its orthonormal vec rows: zero iff x lies in it."""
    v = np.asarray(x, dtype=complex).reshape(-1, order="F")
    rows = space.vectors()
    return float(np.linalg.norm(v - rows.T @ (rows.conj() @ v)))


def read_matrix_text(path):
    """Parse the text format of ``numlin.write_matrix_text``: an "n m"
    header, then n*m lines "re im" in row-major order."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ShapeMismatch("matrix file is missing its header")
    rows, cols = int(tokens[0]), int(tokens[1])
    values = np.array(tokens[2:], dtype=float)
    if values.size != 2 * rows * cols:
        raise ShapeMismatch(
            f"expected {2 * rows * cols} numbers for a {rows}x{cols} matrix, "
            f"found {values.size}"
        )
    return (values[0::2] + 1j * values[1::2]).reshape(rows, cols)


def eigenbasis_kernel_oracle(d, k_unused=None, cluster_tol=1e-8):
    """Independent construction of ker ad_iD: in an eigenbasis of D the
    commutator scales the unit E_rc by (lambda_r - lambda_c), so the
    kernel is spanned by the units whose eigenvalues coincide (up to
    clustering).  Valid for every power k, which is the point."""
    w, u = hermitian_eig(d)
    threshold = cluster_tol * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    # cluster ids by the same greedy ascending rule
    ids = np.zeros(len(w), dtype=int)
    for i in range(1, len(w)):
        ids[i] = ids[i - 1] + (1 if w[i] - w[i - 1] > threshold else 0)
    mats = []
    n = d.shape[0]
    for r in range(n):
        for c in range(n):
            if ids[r] == ids[c]:
                mats.append(np.outer(u[:, r], u[:, c].conj()))
    return from_spanning(n, mats)


def complex_eigh_commutant_oracle(h, rank_tol=1e-10):
    """{H}' from the complex eigh of the Hermitian n^2 x n^2 matrix
    I (x) H - H^T (x) I itself, with no reduction and no frame: the
    eigenvectors whose |eigenvalue| is at most
    rank_tol * max(largest |eigenvalue|, 1)."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    w, v = np.linalg.eigh(np.kron(eye, h) - np.kron(h.T, eye))
    cut = rank_tol * max(float(np.max(np.abs(w))), 1.0)
    return OperatorSubspace.from_vec_columns(h.shape[0], v[:, np.abs(w) <= cut])


def frame_matrix(m, n):
    """T* M T for the Hermitian frame T of ``numlin`` (its module
    docstring), for each n^2-row block of M, by gathers: rows, then
    columns, in frame order, each (E_ij, E_ji) pair turned into
    ((upper + lower), phase (upper - lower)) / sqrt 2.  Every entry is
    added to its conjugate, so a *-preserving map built from exactly
    Hermitian data, such as ad_iD or a stack of i[g, .], comes out with
    an imaginary part that is zero bit for bit."""
    order, (d, u) = _frame_order(n)
    half = np.sqrt(0.5)

    def side(a, phase):  # along axis 1
        upper, lower = a[:, d:u], a[:, u:]
        pairs = [(upper + lower) * half, phase * half * (upper - lower)]
        return np.concatenate([a[:, :d], *pairs], axis=1)

    gathered = np.asarray(m, dtype=complex).reshape(-1, n * n, n * n)[:, order][:, :, order]
    rows = side(gathered, -1j)
    return side(rows.transpose(0, 2, 1), 1j).transpose(0, 2, 1).reshape(np.shape(m))


def frame_route_kernels(m, n, k_max=1, rank_tol=1e-10):
    """ker M, ..., ker M^k_max of a *-preserving map M on M_n (at k_max =
    1, of a stack of maps) by the real route: the exactly real
    ``frame_matrix`` of M, factored in float64 by ``numlin.nullspace`` or
    ``numlin.kernel_tower`` at scale 1, and mapped back by
    ``numlin.from_frame``.  The same singular values as the complex
    matrix that ``numlin.map_kernels`` factors, in other arithmetic."""
    frame = frame_matrix(m, n)
    assert not frame.imag.any(), "the map is not *-preserving bit for bit"
    real = np.ascontiguousarray(frame.real)
    if k_max == 1:
        bases = [nullspace(real, rank_tol, scale=1.0)]
    else:
        bases = kernel_tower(real, k_max, rank_tol, scale=1.0)
    return [OperatorSubspace.from_vec_columns(n, from_frame(q, n)) for q in bases]


def superoperator_stabilization_report(sop, n_max, rank_tol=1e-10):
    """The stabilization report of any map on M_n, from one SVD of its
    complex n^2 x n^2 matrix (``Superoperator.kernel_tower``): the route
    for a map that is no ad_iD of a Hermitian D, such as a Jordan control."""
    return _stabilization_report(sop.kernel_tower(n_max, rank_tol))


@pytest.fixture
def gapped_hermitian():
    return lambda n, seed: generate("hermitian", n, seed)
