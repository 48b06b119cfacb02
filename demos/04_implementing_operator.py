#!/usr/bin/env python3
"""From an equilibrium state to a Hermitian implementing operator.

A state omega with omega(delta(a)) = 0 for every a turns the GNS
representation of omega into a stage where the derivation delta acts as a
commutator with a single Hermitian operator S.  The script builds the
representation, extracts S, and confirms the implementation identity, the
flow intertwining, and kernel stabilization transported through pi.
"""

import numpy as np

from derivlab import (
    ad_superoperator,
    equilibrium_check,
    gns_construct,
    implementation_check,
    implementing_operator,
    state_from_density,
)
from derivlab.cli import br_gns_check
from derivlab.gns import flow_intertwining_residual, kernel_correspondence_distance
from derivlab.numlin import frob, vec

# a faithful state and a generator diagonal in the same basis: the state
# commutes with the generator, which is exactly the equilibrium condition
rng = np.random.default_rng(3)
g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
u, _ = np.linalg.qr(g)
p = np.array([0.4, 0.3, 0.2, 0.1])
rho = u @ np.diag(p) @ u.conj().T
a = u @ np.diag([0.0, 1.0, 1.0, 3.0]) @ u.conj().T

omega = state_from_density((rho + rho.conj().T) / 2)
g = (a + a.conj().T) / 2
delta = ad_superoperator(g)
print("equilibrium residual max_b |omega(delta(b))| =",
      equilibrium_check(omega, delta))

rep = gns_construct(omega)
print("GNS space dimension:", rep.hilbert_dim)
# the cyclic vector f, the class of the identity, is R vec(I) = vec((L*)^T)
f = vec(rep.factor.T)
print("<f, f> =", np.vdot(f, f).real)

s, symmetry = implementing_operator(rep, delta)
print("\n||S - S*|| =", symmetry)
print("spectrum of S:", np.round(np.linalg.eigvalsh((s + s.conj().T) / 2), 6))
print("implementation residual ||pi(delta(a)) - [iS, pi(a)]|| =",
      implementation_check(delta, s))

for t in (0.5, 1.0):
    print(f"flow intertwining residual at t={t}:",
          flow_intertwining_residual(g, s, t))

print("\nkernel correspondence distance:",
      kernel_correspondence_distance(delta, s))

# the check `derivlab run --suite br_gns` makes gives the verdict on all of it
check = br_gns_check("br_gns/demo", omega, g, n_max=5)
print("kernel dims through power 5:", tuple(check["details"]["kernel_dims"]))
print("br_gns verdict:", "PASS" if check["pass"] else "FAIL")

# every matrix is an analytic vector: the partial sums of
# sum_k ||delta^k(x)|| / k! converge below ||x|| exp(||delta||)
x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
term, factorial, sums = vec(x), 1.0, [frob(x)]
for k in range(1, 25):
    term = delta.matrix @ term
    factorial *= k
    sums.append(sums[-1] + np.linalg.norm(term) / factorial)
print("\nanalytic norm series: first term", round(sums[0], 6),
      "limit", round(sums[-1], 6),
      "bound", round(frob(x) * np.exp(np.linalg.norm(delta.matrix, 2)), 6))
