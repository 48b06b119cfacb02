#!/usr/bin/env python3
"""Three roads to the same subspace: ker ad_iD = {D}' = P_D'.

The kernel of the commutator derivation, the commutant of the generator,
and the commutant of its spectral projections are one and the same
von Neumann algebra.  Each is computed by an independent numerical route
(superoperator nullspace vs. stacked commutation systems), and the
pairwise projector distances come out at roundoff level.
"""

from derivlab import (
    bicommutant,
    commutant,
    derivation_kernel,
    spectral_resolution,
    spectral_vn_algebra,
    subspace_distance,
)
from derivlab.cli import commutant_identity_check, generate

d = generate("hermitian_with_multiplicity", 6, seed=11, multiplicities=[2, 2, 1, 1])
res = spectral_resolution(d)

kernel = derivation_kernel(d)
comm = commutant([d])
proj_comm = commutant(list(res.projections))
algebra = spectral_vn_algebra(res)

print("dim ker ad     =", kernel.dim)
print("dim {D}'       =", comm.dim)
print("dim P_D'       =", proj_comm.dim)
print("dim P_D''      =", algebra.dim, "(= number of clusters)")

print("\ndistance(ker, {D}')   =", subspace_distance(kernel, comm))
print("distance(ker, P_D')   =", subspace_distance(kernel, proj_comm))
print("distance({D}', P_D')  =", subspace_distance(comm, proj_comm))

# the generated algebra P_D'' is abelian and sits inside the kernel; the
# check `derivlab run --suite commutant_identity` makes gives the verdict
check = commutant_identity_check("commutant_identity/demo", d)
print("\ncontainment residual of P_D'' in ker ad:", check["details"]["algebra_containment"])
print("overall verdict:", "PASS" if check["pass"] else "FAIL")

# bicommutants stabilize: S'' '' = S''
twice = bicommutant([d])
fourfold = bicommutant(list(twice.basis))
print("\n||P(S'') - P(S'''')|| =", subspace_distance(twice, fourfold))
