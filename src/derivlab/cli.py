"""Batch experiment runner: seeded instance generation, verification
suites over all modules, and JSON/CSV report emission.

Randomness comes from numpy's PCG64 generator seeded with explicit
integer key sequences, so every instance reproduces bit-for-bit from
(seed, suite, n, index).  Generated spectra carry guaranteed relative
eigenvalue gaps and generated states have bounded condition numbers;
kernel ranks and cluster recovery are then unambiguous at the default
tolerances instead of hostage to random-matrix near-degeneracies.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import heisenberg as heis_mod
from . import numlin
from .commutant import DEFAULT_CONTAINMENT_TOL, kernel_commutant_check
from .derivation import DEFAULT_DISTANCE_TOL, kernel_stabilization_report
from .errors import BadMultiplicities, ConfigInvalid, DerivlabError
from .gns import (
    EQUILIBRIUM_TOL,
    Derivation,
    State,
    abstract_kernel_stabilization,
    equilibrium_check,
    flow_intertwining_residual,
    gns_construct,
    implementation_check,
    implementing_operator,
    inner_derivation,
    kernel_correspondence_distance,
    state_from_density,
)
from .spectral import DEFAULT_CLUSTER_TOL

SUITES = ("kernel_stab", "commutant_identity", "br_gns", "heisenberg", "all")

DEFAULT_TOLERANCES = {
    "rank": numlin.DEFAULT_RANK_TOL,
    "subspace": DEFAULT_DISTANCE_TOL,
    "cluster": DEFAULT_CLUSTER_TOL,
    "containment": DEFAULT_CONTAINMENT_TOL,
    "residual": EQUILIBRIUM_TOL,
}

# grid sizes for the discretization convergence study; these live outside
# the matrix-algebra dimension range on purpose
HEISENBERG_GRIDS = (128, 256, 512)
# the GNS implementation and flow checks each hold n^6 complex entries
# (48 MB at n=12, 268 MB at n=16), so br_gns stops at 12; larger dims
# stay in other suites
_BR_MAX_DIM = 12
_RIGIDITY_MAX_DIM = 16


@dataclass
class ExperimentConfig:
    suite: str = "all"
    dims: tuple = (2, 3, 4, 5, 6, 7, 8)
    n_max: int = 5
    seed: int = 7
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_path: str = "report.json"
    format: str = "json"

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigInvalid(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if not self.dims:
            raise ConfigInvalid("dims must be nonempty")
        if len(set(self.dims)) != len(self.dims):
            raise ConfigInvalid("dims must not repeat")
        try:
            limit = min(64, numlin.max_ambient_dim())
        except ValueError as exc:
            raise ConfigInvalid(f"DERIVLAB_MAX_DIM must be an integer: {exc}") from exc
        if any(n < 2 or n > limit for n in self.dims):
            raise ConfigInvalid(f"dims must lie within [2, {limit}]")
        if self.suite == "br_gns" and min(self.dims) > _BR_MAX_DIM:
            raise ConfigInvalid(f"br_gns checks only dims up to {_BR_MAX_DIM}")
        if not 2 <= self.n_max <= 8:
            raise ConfigInvalid("n_max must lie within [2, 8]")
        if self.seed < 0:
            raise ConfigInvalid("seed must be a nonnegative integer")
        if self.format not in ("json", "csv"):
            raise ConfigInvalid(f"unknown format {self.format!r}")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigInvalid(
                    f"unknown tolerance {name!r}; choose from {sorted(DEFAULT_TOLERANCES)}"
                )
            if not 0 < value < np.inf:
                raise ConfigInvalid(f"tolerance {name} must be positive and finite")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _gapped_values(k: int, rng: np.random.Generator) -> np.ndarray:
    """k ascending values with spread 4 and relative gaps >= 1/(3(k-1))."""
    if k == 1:
        return np.array([rng.uniform(-1.0, 1.0)])
    increments = rng.uniform(0.5, 1.5, size=k - 1)
    vals = np.concatenate([[0.0], np.cumsum(increments)])
    vals -= vals.mean()
    vals *= 4.0 / (vals[-1] - vals[0])
    return vals


def _conjugated(u: np.ndarray, values) -> np.ndarray:
    """u diag(values) u*, symmetrized against roundoff."""
    m = u @ np.diag(values) @ u.conj().T
    return (m + m.conj().T) / 2.0


def generate(kind: str, n: int, seed: int, multiplicities=None):
    """Deterministic pseudo-random instances.

    kinds: "hermitian" (simple, well-separated spectrum),
    "hermitian_with_multiplicity" (prescribed eigenvalue repeats,
    conjugated by a Haar-style unitary), "density" (faithful density
    matrix), "derivation" (inner derivation of a hermitian instance).
    """
    if n < 1 or seed < 0:
        raise ConfigInvalid(f"need n >= 1 and seed >= 0, got n={n}, seed={seed}")
    rng = _rng(seed, n, 0)
    if kind == "hermitian":
        u = _haar_unitary(n, rng)
        return _conjugated(u, _gapped_values(n, rng))
    if kind == "hermitian_with_multiplicity":
        if multiplicities is None:
            raise BadMultiplicities("multiplicities are required for this kind")
        mult = [int(m) for m in multiplicities]
        if any(m < 1 for m in mult) or sum(mult) != n:
            raise BadMultiplicities(
                f"multiplicities {mult} must be positive and sum to n={n}"
            )
        values = _gapped_values(len(mult), rng)
        if len(mult) == 1:  # scalar matrix; conjugation would only add noise
            return values[0] * np.eye(n, dtype=complex)
        diag = np.repeat(values, mult)
        return _conjugated(_haar_unitary(n, rng), diag)
    if kind == "density":
        weights = rng.uniform(0.5, 1.5, size=n)
        p = weights / weights.sum()
        rho = _conjugated(_haar_unitary(n, rng), p)
        return rho / np.trace(rho).real
    if kind == "derivation":
        return inner_derivation(generate("hermitian", n, seed))
    raise ConfigInvalid(f"unknown generation kind {kind!r}")


def equilibrium_instance(n: int, seed: int) -> tuple[State, Derivation]:
    """A faithful state and an inner derivation that commute: the state is
    automatically an equilibrium state for the derivation."""
    rng = _rng(seed, n, 1)
    u = _haar_unitary(n, rng)
    weights = rng.uniform(0.5, 1.5, size=n)
    p = weights / weights.sum()
    rho = _conjugated(u, p)
    rho /= np.trace(rho).real
    return state_from_density(rho), inner_derivation(_conjugated(u, _gapped_values(n, rng)))


def _check(check_id, description, passed, residual, tolerance, details=None):
    return {
        "id": check_id,
        "paper_ref": description,
        "pass": bool(passed),
        "residual": float(residual),
        "tolerance": float(tolerance),
        "details": details or {},
    }


def _multiplicity_pattern(n: int) -> list:
    if n == 2:
        return [2]
    return [2] + [1] * (n - 2)


def _spectral_instances(n: int, seed: int) -> list:
    """The named generator pair of the spectral suites: a simple spectrum
    and one with a repeated eigenvalue."""
    return [
        ("simple", generate("hermitian", n, seed)),
        (
            "multiplicity",
            generate(
                "hermitian_with_multiplicity",
                n,
                seed,
                multiplicities=_multiplicity_pattern(n),
            ),
        ),
    ]


def _suite_kernel_stab(config: ExperimentConfig) -> list:
    tol = config.tolerances
    checks = []
    for n in config.dims:
        for name, d in _spectral_instances(n, config.seed):
            report = kernel_stabilization_report(
                d,
                config.n_max,
                rank_tol=tol["rank"],
                distance_tol=tol["subspace"],
                cluster_tol=tol["cluster"],
            )
            expected = int(sum(m**2 for m in report.multiplicities))
            dims_ok = report.kernel_dims[0] == expected
            checks.append(
                _check(
                    f"kernel_stab/n={n}/{name}",
                    "kernel stabilization of the commutator derivation",
                    report.passed and dims_ok,
                    max(report.distances),
                    tol["subspace"],
                    {
                        "kernel_dims": list(report.kernel_dims),
                        "distances": list(report.distances),
                        "expected_dim": expected,
                        "multiplicities": list(report.multiplicities),
                    },
                )
            )
    return checks


def _suite_commutant_identity(config: ExperimentConfig) -> list:
    tol = config.tolerances
    checks = []
    for n in config.dims:
        for name, d in _spectral_instances(n, config.seed + 1):
            report = kernel_commutant_check(
                d,
                rank_tol=tol["rank"],
                distance_tol=tol["subspace"],
                containment_tol=tol["containment"],
                cluster_tol=tol["cluster"],
            )
            worst = max(
                report.distance_kernel_commutant,
                report.distance_kernel_projection,
                report.distance_commutant_projection,
                report.algebra_containment,
                report.projection_defect,
            )
            checks.append(
                _check(
                    f"commutant_identity/n={n}/{name}",
                    "kernel of the derivation equals the commutant of the "
                    "generator and of its spectral projections",
                    report.passed,
                    worst,
                    tol["subspace"],
                    report.to_json_dict(),
                )
            )
    return checks


def _suite_br_gns(config: ExperimentConfig) -> list:
    tol = config.tolerances
    checks = []
    for n in config.dims:
        if n > _BR_MAX_DIM:
            continue
        for idx in range(2):
            omega, delta = equilibrium_instance(n, config.seed + 101 * idx)
            eq = equilibrium_check(omega, delta)
            rep = gns_construct(omega)
            s, symmetry = implementing_operator(rep, delta)
            impl = implementation_check(rep, delta, s)
            inter = max(
                flow_intertwining_residual(rep, delta, s, t) for t in (0.5, 1.0)
            )
            corr = kernel_correspondence_distance(rep, delta, s, tol["rank"])
            stab = abstract_kernel_stabilization(
                delta, config.n_max, rank_tol=tol["rank"], distance_tol=tol["subspace"]
            )
            residual = max(eq, symmetry, impl)
            passed = (
                residual <= tol["residual"]
                and inter <= tol["subspace"]
                and corr <= tol["subspace"]
                and stab.passed
            )
            checks.append(
                _check(
                    f"br_gns/n={n}/i={idx}",
                    "equilibrium state implements the derivation as a "
                    "Hermitian commutator in its GNS representation",
                    passed,
                    residual,
                    tol["residual"],
                    {
                        "equilibrium": eq,
                        "symmetry": symmetry,
                        "implementation": impl,
                        "intertwining": inter,
                        "kernel_correspondence": corr,
                        "kernel_dims": list(stab.kernel_dims),
                    },
                )
            )
    return checks


def _obstruction_check(check_id: str, a, b) -> dict:
    tr_abs, gap, bound = heis_mod.trace_obstruction(a, b)
    scale = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    passed = tr_abs <= 1e-9 * len(a) * scale and gap >= bound - 1e-9
    return _check(
        check_id,
        "traceless commutators keep [A,B] at least sqrt(n) away "
        "from i times the identity",
        passed,
        max(tr_abs, bound - gap),
        1e-9,
        {"gap": gap, "lower_bound": bound},
    )


def _suite_heisenberg(config: ExperimentConfig) -> list:
    tol = config.tolerances
    checks = []

    base_line = heis_mod.schrodinger_pair(HEISENBERG_GRIDS[0], 10.0)
    line = heis_mod.hcr_residual(base_line, refinements=len(HEISENBERG_GRIDS))
    base_circle = heis_mod.periodic_pair(HEISENBERG_GRIDS[0])
    circle = heis_mod.hcr_residual(base_circle, refinements=len(HEISENBERG_GRIDS))
    for name, report in (("line", line), ("circle", circle)):
        order_ok = all(1.7 <= p <= 2.3 for p in report.orders)
        checks.append(
            _check(
                f"heisenberg/convergence/{name}",
                "second-order convergence of the commutation residual "
                "under grid refinement",
                order_ok,
                abs(report.mean_order - 2.0),
                0.3,
                {"orders": list(report.orders), "mean_order": report.mean_order},
            )
        )
    finest = max(r[3] for r in line.rows if r[0] == HEISENBERG_GRIDS[-1])
    checks.append(
        _check(
            "heisenberg/line_residual",
            "commutation residual of the line pair on Gaussian test vectors",
            finest <= 2e-3,
            finest,
            2e-3,
            {"n": HEISENBERG_GRIDS[-1]},
        )
    )

    for pair_name, pair in (("line", base_line), ("circle", base_circle)):
        checks.append(
            _obstruction_check(f"heisenberg/obstruction/{pair_name}", pair.A, pair.B)
        )

    for n in config.dims:
        checks.append(
            _obstruction_check(
                f"heisenberg/obstruction/random/n={n}",
                generate("hermitian", n, config.seed + 3),
                generate("hermitian", n, config.seed + 4),
            )
        )
        if n <= _RIGIDITY_MAX_DIM:
            d = generate(
                "hermitian_with_multiplicity",
                n,
                config.seed + 5,
                multiplicities=_multiplicity_pattern(n),
            )
            rig = heis_mod.rigidity_check(
                d, trials=20, rank_tol=tol["rank"], seed=config.seed
            )
            checks.append(
                _check(
                    f"heisenberg/rigidity/n={n}",
                    "a commutator with D that commutes with D must vanish",
                    rig.passed,
                    rig.max_relative_commutator,
                    rig.commutator_tol,
                    {"kernel_dim": rig.kernel_dim, "trials": rig.trials},
                )
            )
    return checks


_SUITE_RUNNERS = {
    "kernel_stab": _suite_kernel_stab,
    "commutant_identity": _suite_commutant_identity,
    "br_gns": _suite_br_gns,
    "heisenberg": _suite_heisenberg,
}


def run(config: ExperimentConfig) -> int:
    """Run the configured suites, write the report, and return the exit
    status (0 iff every check passed)."""
    config.validate()
    started = time.time()
    names = (
        list(_SUITE_RUNNERS) if config.suite == "all" else [config.suite]
    )
    checks = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](config))

    n_pass = sum(1 for c in checks if c["pass"])
    report = {
        "meta": {
            "version": __version__,
            "seed": config.seed,
            "config": {
                "suite": config.suite,
                "dims": list(config.dims),
                "n_max": config.n_max,
                "tolerances": dict(sorted(config.tolerances.items())),
                "format": config.format,
            },
            "counts": {"total": len(checks), "passed": n_pass},
            "max_residual": max((c["residual"] for c in checks), default=0.0),
            "wall_clock_s": round(time.time() - started, 3),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "checks": checks,
    }

    if config.format == "json":
        payload = json.dumps(report, indent=2, sort_keys=True)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "pass", "residual", "tolerance"])
        for c in checks:
            writer.writerow([c["id"], c["pass"], repr(c["residual"]), repr(c["tolerance"])])
        payload = buf.getvalue()
    with open(config.output_path, "w") as fh:
        fh.write(payload)

    for c in checks:
        print(f"{'PASS' if c['pass'] else 'FAIL'}  {c['id']}  residual={c['residual']:.3e}")
    print(
        f"{n_pass}/{len(checks)} checks passed in "
        f"{report['meta']['wall_clock_s']:.1f}s -> {config.output_path}"
    )
    return 0 if n_pass == len(checks) else 1


def _number(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigInvalid(f"malformed {what} {text!r}") from exc


def _parse_dims(text: str) -> tuple:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(_number(int, lo, "dims"), _number(int, hi, "dims") + 1))
    return tuple(_number(int, part, "dims") for part in text.split(",") if part)


def _parse_tolerances(text: str) -> dict:
    out = dict(DEFAULT_TOLERANCES)
    if not text:
        return out
    for item in text.split(","):
        name, _, value = item.partition("=")
        if not value:
            raise ConfigInvalid(f"malformed tolerance entry {item!r}")
        out[name.strip()] = _number(float, value, f"tolerance {name.strip()}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivlab",
        description="verification suites for commutator derivations on matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a verification suite")
    runp.add_argument("--suite", default="all", choices=SUITES)
    runp.add_argument("--dims", default="2..8", help="range 2..12 or list 2,4,6")
    runp.add_argument("--n-max", type=int, default=5, dest="n_max")
    runp.add_argument("--seed", type=int, default=7)
    runp.add_argument("--tol", default="", help="comma list name=value")
    runp.add_argument("--out", default="report.json")
    runp.add_argument("--format", default="json", choices=("json", "csv"))

    genp = sub.add_parser("gen", help="emit a seeded instance as a text matrix")
    genp.add_argument(
        "--kind",
        required=True,
        choices=("hermitian", "hermitian_with_multiplicity", "density", "derivation"),
    )
    genp.add_argument("--n", type=int, required=True)
    genp.add_argument("--seed", type=int, default=0)
    genp.add_argument("--multiplicities", default="", help="comma list, e.g. 2,1")
    genp.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig(
                suite=args.suite,
                dims=_parse_dims(args.dims),
                n_max=args.n_max,
                seed=args.seed,
                tolerances=_parse_tolerances(args.tol),
                output_path=args.out,
                format=args.format,
            )
            return run(config)
        mult = [
            _number(int, m, "multiplicity") for m in args.multiplicities.split(",") if m
        ] or None
        instance = generate(args.kind, args.n, args.seed, multiplicities=mult)
        matrix = instance.generator if args.kind == "derivation" else instance
        numlin.write_matrix_text(args.out, matrix)
        print(f"wrote {args.kind} instance (n={args.n}, seed={args.seed}) to {args.out}")
        return 0
    except (ConfigInvalid, BadMultiplicities) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except DerivlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
