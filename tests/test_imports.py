"""Every module-level import in the package, tests, demos and tools is used,
and importing the package loads no scipy module.

No linter ships with the lab, so this parses each file with ``ast`` and
fails on a name that a top-level import binds and the file never reads.
``__init__.py`` files are exempt: their imports are re-exports, and each
re-export must instead be imported from the package root by a demo, a
test or a perfbench file.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for d in ("src/derivlab", "tests", "demos", "tools")
    for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)
CALLERS = sorted(
    p for d in ("demos", "tests", "perfbench") for p in (ROOT / d).glob("*.py")
)
# perfbench's wrapper test reads derivlab.kron through a loop over
# namespaces, which no import statement shows
READ_BY_ATTRIBUTE = {"kron"}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom a import b as c, d\nprint(sys.argv, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def root_imports(source: str) -> set:
    """Names a file imports with ``from derivlab import ...``, at any depth."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "derivlab"
        for alias in node.names
    }


def test_every_root_reexport_has_a_caller():
    init = ast.parse((ROOT / "src" / "derivlab" / "__init__.py").read_text())
    exported = {
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    imported = set().union(*(root_imports(p.read_text()) for p in CALLERS))
    assert sorted(exported - imported - READ_BY_ATTRIBUTE) == []


@pytest.mark.parametrize("module", ["derivlab.cli", "derivlab"])
def test_import_loads_no_scipy(module):
    # scipy is a test-only oracle; at run time the lab needs numpy alone
    probe = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
