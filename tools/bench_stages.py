"""Per-stage timings of the superoperator and GNS layers at fixed dimensions.

For each n it first times the three check functions whole, under names
and signatures that every checkout shares, so that two checkouts compare
check by check whatever route each takes: ``kernel_stab_check`` to
k = 8 and ``commutant_identity_check`` on the repeated-eigenvalue
instance of the spectral suites (``cli._spectral_instances``), and
``br_gns_check`` to k = 8 on ``cli.equilibrium_instance(n, seed)``.
On that spectral instance it then times the ad_iD superoperator build,
the kernel tower to k = 8 of the superoperator,
``kernel_stabilization_report`` to k = 8 (the route of the
``kernel_stab`` suite), one ``nullspace`` of the complex superoperator
matrix, which the tower factors, one ``subspace_distance``, and the
three stages of ``kernel_commutant_check``: the kernel of ad_iD by
the check's route, the Householder reduction and one SVD of the real
block of ad_iT (``ad_kernel_tower`` at k = 1, a name in every
checkout), ``hermitian_commutant``, and ``projection_algebras``, the
closed forms of {P_i}' and P_D''.  The check reduces D once for its first two stages;
each stage here reduces it itself.
At every n it also times the GNS stages of ``br_gns_check`` on the
equilibrium instance, also above ``cli._BR_GNS_MAX_DIM`` (32), with the
superoperator of its generator built once outside the timings:
``gns_construct``, ``implementing_operator``, ``implementation_check``,
``flow_intertwining_residual`` at the times 0.5 and 1 that
``br_gns_check`` passes, and ``kernel_correspondence_distance`` with
ker ad_ig from ``ad_kernel_tower(g, 1)``, taken outside the timings as
``br_gns_check`` takes it from its kernel tower.  Once
per run, under the key ``heisenberg``, it times the stages of the
heisenberg suite that do not depend on n: ``hcr_residual`` on the
128-point line and circle pairs across the suite's grids, and
``cli.heisenberg_grid_checks``.  Each figure
is the fastest of as many calls as fill 0.2 s, and of at least three: a
stage of microseconds is the best of thousands of calls, and one of
seconds still has a spread.
Beside ``seconds``, ``median_s`` holds the median of those calls and
``calls`` their number, so that a best-of figure comes with its spread,
and ``peak_mib`` holds for each stage the tracemalloc peak of one
further call, made apart from the timed ones so that tracing does not
slow them.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/bench_stages.py \
        [--dims 4,8,12,16,24,32] [--seed 8] [--out stages.json]

With another checkout's ``src`` on PYTHONPATH it times that code, where
that code shares each stage's signature; the whole-check stages do in
every checkout, while a flow check that takes the map in place of g
raises at the flow stage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

from derivlab import gns, heisenberg, numlin
from derivlab.cli import (
    HEISENBERG_GRIDS,
    _spectral_instances,
    br_gns_check,
    commutant_identity_check,
    equilibrium_instance,
    heisenberg_grid_checks,
    kernel_stab_check,
)
from derivlab.commutant import hermitian_commutant, projection_algebras
from derivlab.derivation import ad_kernel_tower, ad_superoperator, kernel_stabilization_report
from derivlab.spectral import spectral_resolution

DIMS = (4, 8, 12, 16, 24, 32)
K_MAX = 8


MIN_CALLS = 3


def _best_of(fn, min_s: float = 0.2) -> tuple:
    """(fastest, median, count) of the calls of fn, called until the
    calls have used min_s and there are at least MIN_CALLS of them."""
    times, spent = [], 0.0
    while len(times) < MIN_CALLS or spent < min_s:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return min(times), statistics.median(times), len(times)


def _peak_mib(fn) -> float:
    """Traced peak allocation of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def stages(n: int, seed: int = 8) -> dict:
    """The stages at dimension n, as callables by name."""
    d = _spectral_instances(n, seed)[1][1]
    sop = ad_superoperator(d)
    kernel = sop.kernel()
    comm = hermitian_commutant(d)
    res = spectral_resolution(d)
    omega, g = equilibrium_instance(n, seed)
    delta = ad_superoperator(g)
    rep = gns.gns_construct(omega)
    s = gns.implementing_operator(rep, delta)[0]
    map_kernel = ad_kernel_tower(g, 1)[0]
    return {
        "kernel_stab_check": lambda: kernel_stab_check("stage", d, K_MAX),
        "commutant_identity_check": lambda: commutant_identity_check("stage", d),
        "br_gns_check": lambda: br_gns_check("stage", omega, g, K_MAX),
        "superoperator_build": lambda: ad_superoperator(d),
        "kernel_tower": lambda: sop.kernel_tower(K_MAX),
        "kernel_stabilization_report": lambda: kernel_stabilization_report(d, K_MAX),
        "nullspace": lambda: numlin.nullspace(sop.matrix, scale=1.0),
        "subspace_distance": lambda: numlin.subspace_distance(kernel, comm),
        "commutant_check.kernel": lambda: ad_kernel_tower(d, 1),
        "commutant_check.hermitian_commutant": lambda: hermitian_commutant(d),
        "commutant_check.closed_forms": lambda: projection_algebras(res),
        "gns_construct": lambda: gns.gns_construct(omega),
        "implementing_operator": lambda: gns.implementing_operator(rep, delta),
        "implementation_check": lambda: gns.implementation_check(delta, s),
        # the times that br_gns_check passes
        "flow_intertwining_residual": lambda: gns.flow_intertwining_residual(g, s, 0.5, 1.0),
        "kernel_correspondence_distance": lambda: gns.kernel_correspondence_distance(
            delta, s, kernel=map_kernel
        ),
    }


def heisenberg_stages() -> dict:
    """The heisenberg stages, as callables by name; none depends on n."""
    line = heisenberg.schrodinger_pair(HEISENBERG_GRIDS[0], 10.0)
    circle = heisenberg.periodic_pair(HEISENBERG_GRIDS[0])
    levels = len(HEISENBERG_GRIDS)
    return {
        "hcr_residual.line": lambda: heisenberg.hcr_residual(line, levels),
        "hcr_residual.circle": lambda: heisenberg.hcr_residual(circle, levels),
        "heisenberg_grid_checks": heisenberg_grid_checks,
    }


def _print_row(label: str, seconds: dict):
    print(f"{label}: " + ", ".join(f"{k}={v:.2e}" for k, v in seconds.items()),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default=",".join(map(str, DIMS)))
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--out", default=None, help="also write the JSON here")
    args = parser.parse_args(argv)
    result = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "derivlab": numlin.__file__,
        },
        "seed": args.seed,
        "seconds": {},
        "median_s": {},
        "calls": {},
        "peak_mib": {},
    }

    def tables():
        # built lazily, so that the inputs of all the dims do not pile up
        for n in (int(x) for x in args.dims.split(",")):
            yield str(n), f"n={n}", stages(n, args.seed)
        yield "heisenberg", "heisenberg", heisenberg_stages()

    for key, label, table in tables():
        timed = {name: _best_of(fn) for name, fn in table.items()}
        for i, field in enumerate(("seconds", "median_s", "calls")):
            result[field][key] = {name: figures[i] for name, figures in timed.items()}
        result["peak_mib"][key] = {name: _peak_mib(fn) for name, fn in table.items()}
        _print_row(label, result["seconds"][key])
    payload = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
