"""Workload plans, their expected check ids, and the failed-check accounting.

A workload is a list of ``cli.run`` calls, one per suite, generated from
the benchmark's seed.  Its expected check ids are derived here from the
call's suite and dims, independently of derivlab, so a run that skips a
dimension counts the skipped checks as failed instead of reading as
faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SUITES = ("kernel_stab", "commutant_identity", "br_gns", "heisenberg")

WORKLOADS = {
    "roadmap_all": "the four suites once at dims 2..12, n_max 5, as "
    "'derivlab run --suite all --dims 2..12'; br_gns and the gns layer dominate",
    "superop_large": "kernel_stab at n_max 8, dims 16,20,24 and commutant_identity "
    "at dims 16,20: big n^2 x n^2 superoperators, no gns or heisenberg work; "
    "the known n_max 8 false FAILs count as failed",
    "small_many": "the four suites at dims 2..6, n_max 5 over 10 consecutive "
    "seeds: many tiny calls, so per-call overhead dominates",
}


@dataclass(frozen=True)
class Call:
    suite: str
    dims: tuple
    n_max: int
    seed: int


def plan(workload: str, seed: int) -> list[Call]:
    """The workload's cli.run calls, in order.

    br_gns runs only at n <= 12 and rigidity only at n <= 16 inside
    derivlab; every workload keeps those suites below both limits, so
    each dim yields its full set of checks.
    """
    if workload == "roadmap_all":
        return [Call(s, tuple(range(2, 13)), 5, seed) for s in SUITES]
    if workload == "superop_large":
        return [
            Call("kernel_stab", (16, 20, 24), 8, seed),
            Call("commutant_identity", (16, 20), 5, seed),
        ]
    if workload == "small_many":
        return [
            Call(s, tuple(range(2, 7)), 5, seed + i) for i in range(10) for s in SUITES
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


def expected_ids(call: Call) -> list[str]:
    if call.suite in ("kernel_stab", "commutant_identity"):
        return [
            f"{call.suite}/n={n}/{kind}"
            for n in call.dims
            for kind in ("simple", "multiplicity")
        ]
    if call.suite == "br_gns":
        return [f"br_gns/n={n}/i={i}" for n in call.dims for i in (0, 1)]
    if call.suite == "heisenberg":
        fixed = [
            "heisenberg/convergence/line",
            "heisenberg/convergence/circle",
            "heisenberg/line_residual",
            "heisenberg/obstruction/line",
            "heisenberg/obstruction/circle",
        ]
        return fixed + [
            f"heisenberg/{kind}/n={n}"
            for n in call.dims
            for kind in ("obstruction/random", "rigidity")
        ]
    raise ValueError(f"unknown suite {call.suite!r}")


@dataclass
class CallScore:
    """Verdict accounting for one cli.run call against its expected ids."""

    expected: int
    reported: int = 0  # expected ids that came back with a verdict
    failed: int = 0  # FAIL verdicts plus expected checks with no usable verdict
    missing: list = field(default_factory=list)
    unexpected: list = field(default_factory=list)
    consistent: bool = True  # exit status agrees with the pass flags
    error: str | None = None

    @property
    def clean(self) -> bool:
        """The call ended normally and reported exactly its expected ids."""
        return (
            self.error is None
            and self.consistent
            and not self.missing
            and not self.unexpected
        )


def score_call(expected: list[str], status, checks, error: str | None = None) -> CallScore:
    """Score one call.

    ``status`` is what ``cli.run`` returned (None when it raised),
    ``checks`` the report's list of ``{"id", "pass"}`` entries (None when
    no report was read).  An exception, an exit status other than 0 or 1,
    or a missing report counts every expected check as failed; so does an
    exit status that disagrees with the pass flags, because then the
    verdicts cannot be trusted.  Missing ids count as failed, and ids
    that are unexpected or repeated are listed as unexpected.
    """
    if error is None and status not in (0, 1):
        error = f"exit status {status!r}"
    elif error is None and checks is None:
        error = "no report"
    score = CallScore(expected=len(expected), error=error)
    if error is not None:
        score.missing = list(expected)
        score.failed = len(expected)
        return score

    wanted = set(expected)
    verdicts: dict[str, bool] = {}
    for check in checks:
        cid = check["id"]
        if cid in wanted and cid not in verdicts:
            verdicts[cid] = bool(check["pass"])
        else:
            score.unexpected.append(cid)
    score.missing = [cid for cid in expected if cid not in verdicts]
    score.reported = len(verdicts)
    all_pass = all(bool(c["pass"]) for c in checks)
    score.consistent = (status == 0) == all_pass
    if score.consistent:
        score.failed = len(score.missing) + sum(1 for ok in verdicts.values() if not ok)
    else:
        score.failed = len(expected)
    return score
