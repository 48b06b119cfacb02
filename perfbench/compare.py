"""Compare two result files written by ``run.py --out``.

Usage: python3 perfbench/compare.py OLD.json NEW.json

Prints, per workload, the correctness gate of both sides, and per
metric the old and new values and new/old.  The exit status is 1 when
the new side is not comparable or not as sound as the old one: results
from different environments (versions, BLAS threads, nproc), a new side
that is not correct, attempted a different number of checks, or failed
more of them.  Each such difference is printed first.
"""

from __future__ import annotations

import json
import sys


def common(old: dict, new: dict):
    """(workload, old result, new result) for workloads on both sides."""
    for workload, new_result in new["results"].items():
        old_result = old["results"].get(workload)
        if old_result is not None:
            yield workload, old_result, new_result


def rows(old: dict, new: dict):
    for workload, old_result, new_result in common(old, new):
        old_rows = old_result["metrics"]
        for name, metric in new_result["metrics"].items():
            if name in old_rows:
                yield workload, name, old_rows[name]["value"], metric["value"], metric["unit"]


def env_differences(old: dict, new: dict) -> list[str]:
    out = []
    for workload, old_result, new_result in common(old, new):
        for key, value in new_result["env"].items():
            if old_result["env"].get(key) != value:
                out.append(f"{workload}: {key} {old_result['env'].get(key)!r} -> {value!r}")
    return out


def per_pass(result: dict) -> tuple[float, float]:
    """(attempted, failed) per pass; runs may differ in their number of passes."""
    return result["attempted"] / result["passes"], result["failed"] / result["passes"]


def verdict_differences(old: dict, new: dict) -> list[str]:
    """Ways in which the new side's verdicts are worse than the old side's."""
    out = []
    for workload, old_result, new_result in common(old, new):
        (old_attempted, old_failed), (attempted, failed) = per_pass(old_result), per_pass(new_result)
        if not new_result["correct"]:
            out.append(f"{workload}: not correct: {new_result['problems']}")
        if attempted != old_attempted:
            out.append(f"{workload}: attempted per pass {old_attempted:g} -> {attempted:g}")
        if failed > old_failed:
            out.append(f"{workload}: failed per pass {old_failed:g} -> {failed:g}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        old = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    differences = env_differences(old, new)
    for line in differences:
        print(f"ENVIRONMENT DIFFERS {line}")
    verdicts = verdict_differences(old, new)
    for line in verdicts:
        print(f"VERDICTS WORSE {line}")
    for workload, old_result, new_result in common(old, new):
        print(
            f"{workload:14s} correct {old_result['correct']} -> {new_result['correct']}; "
            "attempted/failed per pass "
            "{:g}/{:g} -> {:g}/{:g}".format(*per_pass(old_result), *per_pass(new_result))
        )
    if old["seed"] != new["seed"]:
        print(f"note: seed {old['seed']} -> {new['seed']}")
    for workload, name, before, after, unit in rows(old, new):
        ratio = f"{after / before:8.3f}" if before else "     n/a"
        print(f"{workload:14s} {name:45s} {before:>14.6g} {after:>14.6g} {unit:15s} {ratio}")
    return 1 if differences or verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
