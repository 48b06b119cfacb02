"""Each demo script runs in-process, prints the verdict of a check
function, and prints no FAIL line."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would leave the parametrized test below with no cases
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_fail(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "FAIL" not in out
    assert "PASS" in out
