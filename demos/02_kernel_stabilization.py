#!/usr/bin/env python3
"""Kernel stabilization of the commutator derivation.

The derivation x -> i(Dx - xD) has the striking property that the kernels
of all of its powers coincide: an operator annihilated by the k-fold
nested commutator already commutes with D.  This script materializes the
derivation as an n^2 x n^2 superoperator, computes ker(ad^k) for k up to
6, and watches the dimensions and subspace distances flatline.
"""

import json

from derivlab import ad_superoperator, kernel_stabilization_report
from derivlab.cli import generate

# a Hermitian matrix with eigenvalue multiplicities (3, 2, 1, 1):
# the kernel of ad must then have dimension 9 + 4 + 1 + 1 = 15
d = generate("hermitian_with_multiplicity", 7, seed=5, multiplicities=[3, 2, 1, 1])

sop = ad_superoperator(d)
print("superoperator shape:", sop.matrix.shape)
print("eigenvalues of ad are i(lambda_r - lambda_c); largest magnitude:",
      round(sop.norm(), 6))

report = kernel_stabilization_report(d, n_max=6)
print("\n k | dim ker ad^k | distance to ker ad")
for k, dim, dist in zip(report.k_values, report.kernel_dims, report.distances):
    print(f" {k} | {dim:12d} | {dist:.3e}")
print("\nexpected dimension sum m_i^2 =",
      sum(m**2 for m in report.multiplicities))
print("stabilization verdict:", "PASS" if report.passed else "FAIL")

# the report serializes to a JSON envelope with its tolerances attached
print("\nJSON envelope:")
print(json.dumps({k: v for k, v in report.to_json_dict().items() if k != "spectrum"},
                 indent=2))
