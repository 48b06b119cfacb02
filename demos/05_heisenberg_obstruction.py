#!/usr/bin/env python3
"""Discretized Heisenberg pairs and why they can never close the deal.

Central-difference momentum against diagonal position satisfies
[A, B] k = i k up to O(h^2) on well-resolved test vectors, and the table
below shows the clean second-order convergence.  But no matrix pair can
satisfy the relation exactly: commutators are traceless, so [A, B] - iI
always retains Frobenius mass at least sqrt(n).  Rigidity is the
matrix-algebra shadow of the same fact: if [D, x] commutes with D, it is
already zero.
"""

import numpy as np

from derivlab import (
    hcr_residual,
    periodic_pair,
    schrodinger_pair,
    trace_obstruction,
)
from derivlab.cli import generate, heisenberg_rigidity_check
from derivlab.heisenberg import commutation_residual

line = schrodinger_pair(128, half_width=10.0)
print(f"line pair: n={line.n}, h={line.h:.4f}, {len(line.test_domain)} Gaussians")
report = hcr_residual(line, refinements=3)
print("\n n   | worst residual | order")
for n_grid in report.grid_sizes:
    rows = [r for r in report.rows if r[0] == n_grid]
    worst = max(r[3] for r in rows)
    orders = [r[4] for r in rows if r[4] is not None]
    mean = f"{np.mean(orders):.3f}" if orders else "  -  "
    print(f" {n_grid:4d} | {worst:.6e}  | {mean}")

circle = periodic_pair(128)
creport = hcr_residual(circle, refinements=3)
print("\ncircle pair mean order:", round(creport.mean_order, 3))

# residuals are a property of the test subspace: a vector that does not
# vanish at the wrap-around seam never converges
const = np.ones(circle.n) / np.sqrt(circle.n)
print("circle residual on an interior bump:",
      f"{commutation_residual(circle, circle.test_domain[0]):.2e}")
print("circle residual on the constant vector:",
      f"{commutation_residual(circle, const):.2e}")

# the trace obstruction: [A, B] = iI is off-limits for matrices
for name, (a, b) in {
    "line pair": (line.A, line.B),
    "random Hermitian pair": (generate("hermitian", 10, 1), generate("hermitian", 10, 2)),
}.items():
    tr_abs, gap, bound = trace_obstruction(a, b)
    print(f"\n{name}: |tr[A,B]| = {tr_abs:.2e}, "
          f"||[A,B] - iI||_F = {gap:.3f} >= sqrt(n) = {bound:.3f}")

# rigidity: sampling x with ad^2(x) = 0 forces [D, x] = 0; the check
# `derivlab run --suite heisenberg` makes gives the verdict
d = generate("hermitian_with_multiplicity", 8, seed=9, multiplicities=[2, 2, 2, 1, 1])
rig = heisenberg_rigidity_check("heisenberg/rigidity/demo", d, seed=0)
print(f"\nrigidity over {rig['details']['trials']} samples from the "
      f"{rig['details']['kernel_dim']}-dim ker(ad^2): "
      f"max ||[D,x]|| / (||D|| ||x||) = {rig['residual']:.2e}")
print("verdict:", "PASS" if rig["pass"] else "FAIL")
