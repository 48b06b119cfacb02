#!/usr/bin/env python3
"""Three roads to the same subspace: ker ad_iD = {D}' = P_D'.

The kernel of the commutator derivation, the commutant of the generator,
and the commutant of its spectral projections are one and the same
von Neumann algebra.  The check `derivlab run --suite commutant_identity`
reduces D once by Householder reflections, D = W T W* with T real
tridiagonal, and then parts: the kernel from an SVD of the real block of
ad_iT, {D}' by inverse iteration, two shifted solves with the float64
I (x) T - T (x) I (dense LU at this n = 6, a block QR from n = 13),
with its dimension from the eigenvalues of T.  P_D'
and the algebra P_D'' that the projections span come in closed form
from the spectral resolution, which never sees (W, T), so a faulty
reduction would show as a distance to P_D'.  The pairwise projector
distances it measures come out at roundoff level.
"""

from derivlab import bicommutant, subspace_distance
from derivlab.cli import commutant_identity_check, generate

d = generate("hermitian_with_multiplicity", 6, seed=11, multiplicities=[2, 2, 1, 1])

check = commutant_identity_check("commutant_identity/demo", d)
details = check["details"]
dims, distances = details["dims"], details["distances"]

print("dim ker ad     =", dims["kernel"])
print("dim {D}'       =", dims["commutant"])
print("dim P_D'       =", dims["projection_commutant"])
print("dim P_D''      =", dims["algebra"], "(= number of clusters)")

print("\ndistance(ker, {D}')   =", distances["kernel_vs_commutant"])
print("distance(ker, P_D')   =", distances["kernel_vs_projection_commutant"])
print("distance({D}', P_D')  =", distances["commutant_vs_projection_commutant"])

# the generated algebra P_D'' is abelian and sits inside the kernel
print("\ncontainment residual of P_D'' in ker ad:", details["algebra_containment"])
print("overall verdict:", "PASS" if check["pass"] else "FAIL")

# bicommutants stabilize: S'' '' = S''
twice = bicommutant([d])
fourfold = bicommutant(list(twice.basis))
print("\n||P(S'') - P(S'''')|| =", subspace_distance(twice, fourfold))
