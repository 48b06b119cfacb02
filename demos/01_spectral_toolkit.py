#!/usr/bin/env python3
"""Spectral resolutions, functional calculus, and the unitary group.

Builds a Hermitian matrix with a deliberately near-degenerate eigenvalue
pair, shows how clustering merges it into one stable projection, drives
the functional calculus sum f(lambda_i) P_i in plain numpy (constants,
the identity function, an indicator, the one-parameter unitary group),
and prints the verdict of the kernel stabilization check on the same
matrix: the merged pair counts as one eigenvalue of multiplicity 2 in
the kernel dimension.
"""

import numpy as np

from derivlab import spectral_resolution, unitary_group
from derivlab.cli import kernel_stab_check
from derivlab.numlin import frob

rng = np.random.default_rng(1)

# a 5x5 Hermitian matrix whose two smallest eigenvalues differ by 1e-12
values = np.array([1.0, 1.0 + 1e-12, 2.5, 4.0, 6.0])
g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
q, _ = np.linalg.qr(g)
d = q @ np.diag(values) @ q.conj().T
d = (d + d.conj().T) / 2

res = spectral_resolution(d, cluster_tol=1e-8)


def calculus(f_values):
    """sum f(lambda_i) P_i for the values of f at the cluster representatives."""
    return np.einsum("k,kij->ij", np.asarray(f_values, dtype=complex), res.projections)


print("cluster representatives:", np.round(res.values, 6))
print("multiplicities:        ", [int(m) for m in res.multiplicities])
print("reconstruction error:  ", frob(d - calculus(res.values)))

# functional calculus: f = 1 gives the identity, f = id rebuilds D
print("\n|| f=1 applied - I ||   =", frob(calculus(np.ones(len(res.values))) - np.eye(5)))
print("|| f=id applied - D ||  =", frob(calculus(res.values) - d))

# an indicator of [2, 5] picks out the middle clusters
p = calculus((res.values >= 2.0) & (res.values <= 5.0))
print("rank of the [2,5] spectral projection:", round(np.trace(p).real))

# the unitary group e^{itD}: group law and unitarity
u_s, u_t = unitary_group(res, 0.7), unitary_group(res, -0.2)
print("\ngroup law defect:", frob(u_s @ u_t - unitary_group(res, 0.5)))
print("unitarity defect:", frob(u_s.conj().T @ u_s - np.eye(5)))

# clustering decides the kernel dimension: the merged pair has
# multiplicity 2, so ker ad_iD^k has dimension 2^2 + 1 + 1 + 1 = 7 for
# every k; the check `derivlab run --suite kernel_stab` makes
check = kernel_stab_check("kernel_stab/demo", d, n_max=6)
details = check["details"]
print("\nkernel dims through power 6:", tuple(details["kernel_dims"]),
      "expected", details["expected_dim"])
print("stabilization verdict:", "PASS" if check["pass"] else "FAIL")
