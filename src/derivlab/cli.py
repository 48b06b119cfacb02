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
import copy
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import heisenberg as heis_mod
from . import numlin
from .commutant import kernel_commutant_check
from .derivation import ad_superoperator, kernel_stabilization_report
from .errors import BadMultiplicities, ConfigInvalid, DerivlabError
from .gns import (
    State,
    abstract_kernel_stabilization,
    equilibrium_check,
    flow_intertwining_residual,
    gns_construct,
    implementation_check,
    implementing_operator,
    kernel_correspondence_distance,
    state_from_density,
)
from .spectral import DEFAULT_CLUSTER_TOL

FORMATS = ("json", "csv")

DEFAULT_DISTANCE_TOL = 1e-8
DEFAULT_CONTAINMENT_TOL = 1e-8
EQUILIBRIUM_TOL = 1e-9
RIGIDITY_TOL = 1e-8
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
# the largest n of br_gns; larger dims stay in the other suites and are
# listed in meta.skipped.  Time, not memory, sets it.  The n^2 x n^2
# exponentials of the flow check take O(n^6) work and set the peak of one
# instance, 265 MB RSS at n=32; the rest of the flow check takes O(n^5),
# the implementation check O(n^4) and the correspondence O(n^3).  One
# instance takes 0.016 s at n=12, 0.06 s at n=16, 0.18 s at n=20, 0.47 s
# at n=24 and 2.5 s at n=32 on one BLAS thread.  At 32, --suite all
# --dims 2..32 --n-max 8 passes 253/253 checks in 35 s at 269 MB peak
# RSS (shared 2-core Xeon, one BLAS thread; BENCH_brfactors.json).
_BR_GNS_MAX_DIM = 32


def _skipped(suites, dims) -> list:
    """Id prefixes "br_gns/n=<n>" of the checks _BR_GNS_MAX_DIM leaves out."""
    return [f"br_gns/n={n}" for n in dims if "br_gns" in suites and n > _BR_GNS_MAX_DIM]


@dataclass
class ExperimentConfig:
    suite: str = "all"
    dims: tuple = (2, 3, 4, 5, 6, 7, 8)
    n_max: int = 5
    seed: int = 7
    tolerances: dict = field(default_factory=dict)
    output_path: str = "report.json"
    format: str = "json"

    def __post_init__(self):
        # a partial dict overrides the defaults it names; the rest stay
        self.tolerances = {**DEFAULT_TOLERANCES, **self.tolerances}

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigInvalid(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if not self.dims:
            raise ConfigInvalid("dims must be nonempty")
        # bounds first: dims may be a lazy range of any length
        limit = _dim_limit()
        if any(n < 2 or n > limit for n in self.dims):
            raise ConfigInvalid(f"dims must lie within [2, {limit}]")
        if len(set(self.dims)) != len(self.dims):
            raise ConfigInvalid("dims must not repeat")
        if self.suite == "br_gns" and min(self.dims) > _BR_GNS_MAX_DIM:
            raise ConfigInvalid(f"br_gns checks only dims up to {_BR_GNS_MAX_DIM}")
        if not 2 <= self.n_max <= 8:
            raise ConfigInvalid("n_max must lie within [2, 8]")
        if self.seed < 0:
            raise ConfigInvalid("seed must be a nonnegative integer")
        if self.format not in FORMATS:
            raise ConfigInvalid(f"unknown format {self.format!r}")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigInvalid(
                    f"unknown tolerance {name!r}; choose from {sorted(DEFAULT_TOLERANCES)}"
                )
            if not 0 < value < np.inf:
                raise ConfigInvalid(f"tolerance {name} must be positive and finite")


def _dim_limit() -> int:
    """Largest n of run dims and gen --n: 64, or a smaller DERIVLAB_MAX_DIM."""
    try:
        return min(64, numlin.max_ambient_dim())
    except ValueError as exc:
        raise ConfigInvalid(f"DERIVLAB_MAX_DIM must be an integer: {exc}") from exc


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


def _density(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The faithful density matrix u diag(weights) u*, trace normalized."""
    rho = _conjugated(u, weights / weights.sum())
    return rho / np.trace(rho).real


def generate(kind: str, n: int, seed: int, multiplicities=None):
    """Deterministic pseudo-random instances.

    kinds: "hermitian" (simple, well-separated spectrum),
    "hermitian_with_multiplicity" (prescribed eigenvalue repeats,
    conjugated by a Haar-style unitary), "density" (faithful density
    matrix), "derivation" (an inner derivation, written as its Hermitian
    generator: the "hermitian" instance).  Only
    "hermitian_with_multiplicity" takes multiplicities.
    """
    limit = _dim_limit()
    if not 1 <= n <= limit or seed < 0:
        raise ConfigInvalid(f"need 1 <= n <= {limit} and seed >= 0, got n={n}, seed={seed}")
    if multiplicities is not None and kind != "hermitian_with_multiplicity":
        raise BadMultiplicities(
            f"multiplicities apply only to hermitian_with_multiplicity, not {kind!r}"
        )
    rng = _rng(seed, n, 0)
    if kind in ("hermitian", "derivation"):
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
        return _density(_haar_unitary(n, rng), weights)
    raise ConfigInvalid(f"unknown generation kind {kind!r}")


def equilibrium_instance(n: int, seed: int) -> tuple[State, np.ndarray]:
    """A faithful state and a Hermitian generator g that commute: the
    state is automatically an equilibrium state for ad_ig."""
    rng = _rng(seed, n, 1)
    u = _haar_unitary(n, rng)
    rho = _density(u, rng.uniform(0.5, 1.5, size=n))
    return state_from_density(rho), _conjugated(u, _gapped_values(n, rng))


def _check(check_id, description, rules, details) -> dict:
    """The record of a check from its (name, value, bound) rules: it passes
    iff every value is finite and at most its bound.  A margin is
    value/bound, inf for a non-finite value; a rule of bound 0 (an integer
    equality, value |a - b|) has margin 0 if it holds, inf if not.  A
    repeated name keeps its largest margin.  residual and tolerance come
    from the rule of largest margin, the first listed on a tie."""
    passed, margins, worst = True, {}, None
    for name, value, bound in rules:
        value, bound = float(value), float(bound)
        holds = math.isfinite(value) and value <= bound
        passed = passed and holds
        margin = value / bound if bound and math.isfinite(value) else 0.0 if holds else math.inf
        margins[name] = max(margin, margins.get(name, -math.inf))
        if worst is None or margin > worst[0]:
            worst = (margin, value, bound)
    margin, residual, tolerance = worst
    return {
        "id": check_id,
        "paper_ref": description,
        "pass": passed,
        "residual": residual,
        "tolerance": tolerance,
        "margin": margin,
        "margins": margins,
        "details": details,
    }


def _multiplicity_instance(n: int, seed: int) -> np.ndarray:
    """A generator whose lowest eigenvalue is doubled."""
    return generate("hermitian_with_multiplicity", n, seed, multiplicities=[2] + [1] * (n - 2))


def _spectral_instances(n: int, seed: int) -> list:
    """The named generator pair of the spectral suites: a simple spectrum
    and one with a repeated eigenvalue."""
    return [
        ("simple", generate("hermitian", n, seed)),
        ("multiplicity", _multiplicity_instance(n, seed)),
    ]


def _tower_rules(stab, expected: int, tol) -> list:
    """The stabilization rules: every power's kernel lies within the
    subspace tolerance of ker(map) and has the expected dimension."""
    return [("distances", dist, tol["subspace"]) for dist in stab.distances] + [
        ("kernel_dims", abs(dim - expected), 0) for dim in stab.kernel_dims
    ]


def kernel_stab_check(check_id: str, d, n_max: int, tol=DEFAULT_TOLERANCES) -> dict:
    """ker ad_iD^k = ker ad_iD for k <= n_max, of dimension sum m_i^2."""
    report = kernel_stabilization_report(
        d, n_max, rank_tol=tol["rank"], cluster_tol=tol["cluster"]
    )
    expected = int(sum(m**2 for m in report.multiplicities))
    return _check(
        check_id,
        "kernel stabilization of the commutator derivation",
        _tower_rules(report, expected, tol),
        {
            "kernel_dims": list(report.kernel_dims),
            "distances": list(report.distances),
            "expected_dim": expected,
            "multiplicities": list(report.multiplicities),
        },
    )


def _suite_kernel_stab(config: ExperimentConfig) -> list:
    return [
        kernel_stab_check(f"kernel_stab/n={n}/{name}", d, config.n_max, config.tolerances)
        for n in config.dims
        for name, d in _spectral_instances(n, config.seed)
    ]


def commutant_identity_check(check_id: str, d, tol=DEFAULT_TOLERANCES) -> dict:
    """ker ad_iD = {D}' = {P_i}', all of one dimension, and P_D'' inside them."""
    report = kernel_commutant_check(d, rank_tol=tol["rank"], cluster_tol=tol["cluster"])
    details = report.to_json_dict()
    return _check(
        check_id,
        "kernel of the derivation equals the commutant of the "
        "generator and of its spectral projections",
        [
            *((name, x, tol["subspace"]) for name, x in details["distances"].items()),
            ("algebra_containment", report.algebra_containment, tol["containment"]),
            # the projection commutant needs orthogonal, complete projections
            ("projection_defect", report.projection_defect, tol["containment"]),
            ("dims", abs(report.kernel_dim - report.commutant_dim), 0),
            ("dims", abs(report.kernel_dim - report.projection_commutant_dim), 0),
        ],
        details,
    )


def _suite_commutant_identity(config: ExperimentConfig) -> list:
    return [
        commutant_identity_check(f"commutant_identity/n={n}/{name}", d, config.tolerances)
        for n in config.dims
        for name, d in _spectral_instances(n, config.seed + 1)
    ]


def br_gns_check(check_id: str, omega: State, g, n_max: int, tol=DEFAULT_TOLERANCES) -> dict:
    """omega implements delta = ad_ig by a Hermitian S in its GNS
    representation; a state that is no equilibrium state FAILs here."""
    delta = ad_superoperator(g)
    eq = equilibrium_check(omega, delta)
    s, symmetry = implementing_operator(gns_construct(omega), delta)
    impl = implementation_check(delta, s)
    inter = flow_intertwining_residual(g, s, 0.5, 1.0)
    # ker ad_ig is the first level of the report's tower
    stab = abstract_kernel_stabilization(g, n_max, rank_tol=tol["rank"])
    corr = kernel_correspondence_distance(delta, s, tol["rank"], kernel=stab.kernel)
    return _check(
        check_id,
        "equilibrium state implements the derivation as a "
        "Hermitian commutator in its GNS representation",
        [
            ("equilibrium", eq, tol["residual"]),
            ("symmetry", symmetry, tol["residual"]),
            ("implementation", impl, tol["residual"]),
            ("intertwining", inter, tol["subspace"]),
            ("kernel_correspondence", corr, tol["subspace"]),
            *_tower_rules(stab, stab.kernel_dims[0], tol),
        ],
        {
            "equilibrium": eq,
            "symmetry": symmetry,
            "implementation": impl,
            "intertwining": inter,
            "kernel_correspondence": corr,
            "kernel_dims": list(stab.kernel_dims),
        },
    )


def _suite_br_gns(config: ExperimentConfig) -> list:
    return [
        br_gns_check(
            f"br_gns/n={n}/i={idx}",
            *equilibrium_instance(n, config.seed + 101 * idx),
            config.n_max,
            config.tolerances,
        )
        for n in config.dims
        if n <= _BR_GNS_MAX_DIM
        for idx in range(2)
    ]


def obstruction_check(check_id: str, a, b) -> dict:
    """|tr [A,B]| <= 1e-9 n ||A||_2 ||B||_2 and ||[A,B] - iI||_F >= sqrt(n)."""
    tr_abs, gap, bound = heis_mod.trace_obstruction(a, b)
    scale = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    return _check(
        check_id,
        "traceless commutators keep [A,B] at least sqrt(n) away "
        "from i times the identity",
        [("trace", tr_abs, 1e-9 * len(a) * scale), ("gap", bound - gap, 1e-9)],
        {"gap": gap, "lower_bound": bound},
    )


def heisenberg_grid_checks() -> list:
    """The five heisenberg checks that depend on no dim, seed or
    tolerance, measured afresh on every call, so that a control which
    patches the stencil sees its own result.  ``_suite_heisenberg`` keeps
    one set per process."""
    base_line = heis_mod.schrodinger_pair(HEISENBERG_GRIDS[0], 10.0)
    line = heis_mod.hcr_residual(base_line, refinements=len(HEISENBERG_GRIDS))
    base_circle = heis_mod.periodic_pair(HEISENBERG_GRIDS[0])
    circle = heis_mod.hcr_residual(base_circle, refinements=len(HEISENBERG_GRIDS))
    checks = []
    for name, report in (("line", line), ("circle", circle)):
        # no measured order is a failure, not a vacuous pass
        checks.append(
            _check(
                f"heisenberg/convergence/{name}",
                "second-order convergence of the commutation residual "
                "under grid refinement",
                [("orders", abs(p - 2.0), 0.3) for p in report.orders or [math.inf]],
                {"orders": list(report.orders), "mean_order": report.mean_order},
            )
        )
    checks.append(
        _check(
            "heisenberg/line_residual",
            "commutation residual of the line pair on Gaussian test vectors",
            [("residual", r[3], 2e-3) for r in line.rows if r[0] == HEISENBERG_GRIDS[-1]],
            {"n": HEISENBERG_GRIDS[-1]},
        )
    )
    for pair_name, pair in (("line", base_line), ("circle", base_circle)):
        checks.append(
            obstruction_check(f"heisenberg/obstruction/{pair_name}", pair.A, pair.B)
        )
    return checks


def heisenberg_rigidity_check(check_id: str, d, seed: int, tol=DEFAULT_TOLERANCES) -> dict:
    """||[D, x]|| <= 1e-8 ||D|| ||x|| for 20 samples x of ker ad_iD^2."""
    rig = heis_mod.rigidity_check(d, trials=20, rank_tol=tol["rank"], seed=seed)
    return _check(
        check_id,
        "a commutator with D that commutes with D must vanish",
        [("relative_commutator", rig.max_relative_commutator, RIGIDITY_TOL)],
        {"kernel_dim": rig.kernel_dim, "trials": rig.trials},
    )


@functools.cache
def _grid_records() -> list:
    return heisenberg_grid_checks()


def _suite_heisenberg(config: ExperimentConfig) -> list:
    """The grid records, then an obstruction and a rigidity check per dim.

    The grid records read nothing of the config, so they are measured on
    the first call in a process; each run gets deep copies, and no run's
    report can alter another's.  Should they ever read a config field,
    that field belongs in the cache key."""
    checks = copy.deepcopy(_grid_records())
    for n in config.dims:
        checks.append(
            obstruction_check(
                f"heisenberg/obstruction/random/n={n}",
                generate("hermitian", n, config.seed + 3),
                generate("hermitian", n, config.seed + 4),
            )
        )
        d = _multiplicity_instance(n, config.seed + 5)
        checks.append(
            heisenberg_rigidity_check(
                f"heisenberg/rigidity/n={n}", d, config.seed, config.tolerances
            )
        )
    return checks


_SUITE_RUNNERS = {
    "kernel_stab": _suite_kernel_stab,
    "commutant_identity": _suite_commutant_identity,
    "br_gns": _suite_br_gns,
    "heisenberg": _suite_heisenberg,
}
SUITES = (*_SUITE_RUNNERS, "all")


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
    worst = max(checks, key=lambda c: c["margin"])
    skipped = _skipped(names, config.dims)
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
            "max_margin": worst["margin"],
            "skipped": skipped,
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
        f"{report['meta']['wall_clock_s']:.1f}s, worst margin "
        f"{worst['margin']:.3e} at {worst['id']} -> {config.output_path}"
        + (f"; skipped above the dim limits: {', '.join(skipped)}" if skipped else "")
    )
    return 0 if n_pass == len(checks) else 1


def _number(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigInvalid(f"malformed {what} {text!r}") from exc


def _parse_dims(text: str):
    # a range stays lazy until validate has bounded it
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(_number(int, lo, "dims"), _number(int, hi, "dims") + 1)
    return tuple(_number(int, part, "dims") for part in text.split(",") if part)


def _parse_tolerances(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        name, _, value = item.partition("=")
        if not value:
            raise ConfigInvalid(f"malformed tolerance entry {item!r}")
        name = name.strip()
        if name in out:
            raise ConfigInvalid(f"tolerance {name!r} must not repeat")
        out[name] = _number(float, value, f"tolerance {name}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivlab",
        description="verification suites for commutator derivations on matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out stays out of the namespace: ExperimentConfig holds the defaults
    runp = sub.add_parser(
        "run", help="run a verification suite", argument_default=argparse.SUPPRESS
    )
    runp.add_argument("--suite", choices=SUITES)
    runp.add_argument("--dims", help="range 2..12 or list 2,4,6")
    runp.add_argument("--n-max", type=int, dest="n_max")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--tol", dest="tolerances", metavar="TOL", help="comma list name=value")
    runp.add_argument("--out", dest="output_path", metavar="OUT")
    runp.add_argument("--format", choices=FORMATS)

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
            options = vars(args)
            del options["command"]
            for key, parse in (("dims", _parse_dims), ("tolerances", _parse_tolerances)):
                if key in options:
                    options[key] = parse(options[key])
            return run(ExperimentConfig(**options))
        mult = [
            _number(int, m, "multiplicity") for m in args.multiplicities.split(",") if m
        ] or None
        numlin.write_matrix_text(args.out, generate(args.kind, args.n, args.seed, mult))
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
