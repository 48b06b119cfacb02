#!/usr/bin/env python3
"""Kernel stabilization of the commutator derivation.

The derivation x -> i(Dx - xD) has the striking property that the kernels
of all of its powers coincide: an operator annihilated by the k-fold
nested commutator already commutes with D.  This script materializes the
derivation as an n^2 x n^2 superoperator, computes ker(ad^k) for k up to
6, and watches the dimensions and subspace distances flatline.
"""

import json

import numpy as np

from derivlab import ad_superoperator
from derivlab.cli import generate, kernel_stab_check

# a Hermitian matrix with eigenvalue multiplicities (3, 2, 1, 1):
# the kernel of ad must then have dimension 9 + 4 + 1 + 1 = 15
d = generate("hermitian_with_multiplicity", 7, seed=5, multiplicities=[3, 2, 1, 1])

sop = ad_superoperator(d)
print("superoperator shape:", sop.matrix.shape)
print("eigenvalues of ad are i(lambda_r - lambda_c); largest magnitude:",
      round(np.linalg.norm(sop.matrix, 2), 6))

# the check `derivlab run --suite kernel_stab` makes, with its verdict
check = kernel_stab_check("kernel_stab/demo", d, n_max=6)
details = check["details"]
print("\n k | dim ker ad^k | distance to ker ad")
for k, (dim, dist) in enumerate(zip(details["kernel_dims"], details["distances"]), start=1):
    print(f" {k} | {dim:12d} | {dist:.3e}")
print("\nexpected dimension sum m_i^2 =", details["expected_dim"])
print("stabilization verdict:", "PASS" if check["pass"] else "FAIL")

# the record the check writes into a run report
print("\nreport record:")
print(json.dumps(check, indent=2))
