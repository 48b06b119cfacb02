"""End-to-end acceptance checks, one per headline property.

Each test prints a single PASS/FAIL line.  Criteria 1, 2, 6, 7 and the
obstruction half of 8 run the CLI's own per-instance checks and assert
their verdicts, so the gate and ``derivlab run`` share one pass rule;
the other criteria state their tolerances inline.  Instance families are
seeded and spread over dimensions 2..12 (2..8 for the representation
checks).
"""

import subprocess
import sys
import time

import numpy as np

from derivlab.cli import (
    RIGIDITY_TOL,
    br_gns_check,
    commutant_identity_check,
    equilibrium_instance,
    generate,
    heisenberg_grid_checks,
    kernel_stab_check,
    obstruction_check,
)
from derivlab.derivation import (
    ad_superoperator,
    difference_quotient_check,
    pairing_derivative_check,
)
from derivlab.gns import flow_intertwining_residual, gns_construct, implementing_operator
from derivlab.heisenberg import periodic_pair, rigidity_check, schrodinger_pair
from derivlab.numlin import frob
from derivlab.spectral import spectral_resolution

from conftest import (
    iterated_commutator,
    projection_commutation_check,
    random_hermitian,
    random_matrix,
)


def _report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def _kernel_instances(count=200, seed=7):
    """count seeded Hermitian matrices spanning n = 2..12, every third one
    with prescribed eigenvalue multiplicities."""
    out = []
    for i in range(count):
        n = 2 + (i % 11)
        if i % 3 == 0 and n >= 3:
            if i % 9 == 0:
                mult = [n]  # scalar: one big cluster
            elif n >= 4 and i % 6 == 0:
                mult = [2, 2] + [1] * (n - 4)
            else:
                mult = [2] + [1] * (n - 2)
            d = generate("hermitian_with_multiplicity", n, seed + i, multiplicities=mult)
        else:
            d = generate("hermitian", n, seed + i)
        out.append(d)
    return out


INSTANCES = _kernel_instances()


def test_criterion_1_kernel_stabilization():
    started = time.time()
    worst_distance = 0.0
    for i, d in enumerate(INSTANCES):
        check = kernel_stab_check(f"criterion_1/{i}", d, 5)
        assert check["pass"], check
        worst_distance = max(worst_distance, check["residual"])
    elapsed = time.time() - started
    _report(
        "1 kernel-stabilization",
        elapsed <= 60.0,
        f"200 instances, max distance {worst_distance:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_kernel_commutant_identity():
    worst = 0.0
    for i, d in enumerate(INSTANCES):
        check = commutant_identity_check(f"criterion_2/{i}", d)
        assert check["pass"], check
        worst = max(worst, check["residual"])
    _report(
        "2 kernel-commutant-identity",
        True,
        f"max pairwise distance / containment / projection defect {worst:.2e}",
    )


def test_criterion_3_projection_interchange():
    worst_ratio = 0.0
    for i in range(100):
        n = 2 + (i % 11)
        d = random_hermitian(n, seed=5000 + i)
        x = random_matrix(n, seed=6000 + i)
        residual = projection_commutation_check(spectral_resolution(d), x)
        bound = 1e-9 * (1.0 + frob(d) ** 2 * frob(x))
        worst_ratio = max(worst_ratio, residual / bound)
        assert residual <= bound
    _report(
        "3 projection-interchange",
        worst_ratio <= 1.0,
        f"100 pairs, worst residual at {worst_ratio:.2e} of the bound",
    )


def test_criterion_4_diagonal_formula():
    rng = np.random.default_rng(99)
    checked = 0
    for n in range(3, 9):
        diagonals = [np.arange(n), rng.integers(-5, 6, size=n)]
        for d_vals in diagonals:
            d = np.diag(d_vals).astype(complex)
            x = rng.integers(-9, 10, size=(n, n)).astype(complex)
            for k in range(1, 5):
                expected = np.array(
                    [
                        [(1j * (d_vals[r] - d_vals[c])) ** k * x[r, c] for c in range(n)]
                        for r in range(n)
                    ]
                )
                assert np.array_equal(iterated_commutator(d, x, k), expected)
                checked += 1
    _report(
        "4 diagonal-formula",
        True,
        f"{checked} exact integer comparisons for k <= 4",
    )


def test_criterion_5_differentiability():
    ratio_lo, ratio_hi = 2.0, 2.0
    pairing_lo, pairing_hi = 4.0, 4.0
    for i in range(20):
        n = 2 + (i % 7)
        d = generate("hermitian", n, 300 + i)
        x = random_matrix(n, seed=400 + i)
        res = spectral_resolution(d)
        report = difference_quotient_check(res, d, x)
        assert report.passed  # Taylor + Lipschitz bounds and monotonicity
        for a, b in zip(report.residuals[:-1], report.residuals[1:]):
            ratio = a / b
            ratio_lo, ratio_hi = min(ratio_lo, ratio), max(ratio_hi, ratio)
            assert abs(ratio - 2.0) <= 0.2

        rng = np.random.default_rng(500 + i)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        k = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r1 = pairing_derivative_check(res, d, x, h, k, 0.3, 1e-3)
        r2 = pairing_derivative_check(res, d, x, h, k, 0.3, 5e-4)
        ratio = r1 / r2
        pairing_lo, pairing_hi = min(pairing_lo, ratio), max(pairing_hi, ratio)
        assert abs(ratio - 4.0) <= 1.0
    _report(
        "5 differentiability-equivalences",
        True,
        f"quotient ratios in [{ratio_lo:.2f}, {ratio_hi:.2f}], "
        f"pairing ratios in [{pairing_lo:.2f}, {pairing_hi:.2f}]",
    )


def test_criterion_6_implementing_operator_pipeline():
    started = time.time()
    worst = {"margin": 0.0, "intertwine": 0.0, "correspondence": 0.0}
    for i in range(50):
        n = 2 + (i % 7)
        omega, g = equilibrium_instance(n, 700 + i)
        check = br_gns_check(f"criterion_6/{i}", omega, g, 5)
        assert check["pass"], check
        # the CLI checks the flow at t = 0.5 and 1.0; run it backwards too
        s, _ = implementing_operator(gns_construct(omega), ad_superoperator(g))
        backwards = flow_intertwining_residual(g, s, -1.0)
        assert backwards <= 1e-8
        worst["margin"] = max(worst["margin"], check["margin"])
        worst["intertwine"] = max(
            worst["intertwine"], check["details"]["intertwining"], backwards
        )
        worst["correspondence"] = max(
            worst["correspondence"], check["details"]["kernel_correspondence"]
        )
    elapsed = time.time() - started
    _report(
        "6 implementing-operator-pipeline",
        elapsed <= 120.0,
        f"50 instances, worst margin {worst['margin']:.2e}, "
        f"intertwining {worst['intertwine']:.2e}, "
        f"correspondence {worst['correspondence']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_discretization_convergence():
    checks = {c["id"]: c for c in heisenberg_grid_checks()}
    for check in checks.values():
        assert check["pass"], check
    orders = [
        p
        for name in ("line", "circle")
        for p in checks[f"heisenberg/convergence/{name}"]["details"]["orders"]
    ]
    line = checks["heisenberg/line_residual"]
    assert line["details"]["n"] == 512
    _report(
        "7 heisenberg-residuals",
        True,
        f"orders in [{min(orders):.2f}, {max(orders):.2f}], "
        f"line residual at n=512 is {line['residual']:.2e}",
    )


def test_criterion_8_obstruction_and_rigidity():
    pairs = [
        (random_hermitian(n, seed=800 + n), random_hermitian(n, seed=900 + n))
        for n in range(2, 13)
    ]
    line = schrodinger_pair(64, 10.0)
    circle = periodic_pair(64)
    pairs += [(line.A, line.B), (circle.A, circle.B)]
    for i, (a, b) in enumerate(pairs):
        check = obstruction_check(f"criterion_8/{i}", a, b)
        assert check["pass"], check

    worst = 0.0
    for i in range(50):
        n = 2 + (i % 9)
        if n >= 3 and i % 2 == 0:
            d = generate(
                "hermitian_with_multiplicity",
                n,
                1000 + i,
                multiplicities=[2] + [1] * (n - 2),
            )
        else:
            d = generate("hermitian", n, 1000 + i)
        report = rigidity_check(d, trials=50, seed=i)
        worst = max(worst, report.max_relative_commutator)
    _report(
        "8 obstruction-and-rigidity",
        worst <= RIGIDITY_TOL,
        f"{len(pairs)} obstruction pairs, 50 rigidity instances, "
        f"max relative commutator {worst:.2e}",
    )


def test_criterion_9_full_suite_cli(tmp_path):
    out = tmp_path / "report.json"
    started = time.time()
    proc = subprocess.run(
        [
            sys.executable, "-m", "derivlab", "run", "--suite", "all",
            "--dims", "2..12", "--seed", "7", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=330,
    )
    elapsed = time.time() - started
    _report(
        "9 full-suite-cli",
        proc.returncode == 0 and elapsed <= 300.0 and out.exists(),
        f"exit {proc.returncode} in {elapsed:.1f}s",
    )
