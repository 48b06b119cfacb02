"""Every module-level import in the package, tests, demos and tools is used,
every public def of the package has a caller outside the tests, and
importing the package loads no scipy module.

No linter ships with the lab, so this parses each file with ``ast`` and
fails on a name that a top-level import binds and the file never reads.
``__init__.py`` files are exempt: their imports are re-exports, and each
re-export must instead be imported from the package root by a demo, a
test or a perfbench file.  A public function, class or method of the
package that ``src/`` and ``tools/`` never read is dead code or a test
helper, and belongs in ``tests/`` if anywhere.  Demos do not count as
readers: a demo prints the verdicts of check functions, and a def that
only a demo prints is decided by no check.
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
# namespaces and calls derivlab.commutant as an attribute of the package,
# which no import statement shows
READ_BY_ATTRIBUTE = {"kron", "commutant"}
READERS = sorted(p for d in ("src/derivlab", "tools") for p in (ROOT / d).glob("*.py"))
PACKAGE_MODULES = {p.stem for p in (ROOT / "src" / "derivlab").glob("*.py")}
# public defs that nothing outside the tests reads yet, each with its reason
UNREAD_ALLOWED = {
    "derivation.difference_quotient_check": "the flow suite of ROADMAP item 7 is to run it",
    "derivation.pairing_derivative_check": "the flow suite of ROADMAP item 7 is to run it",
}


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


def public_defs(module: str, source: str) -> dict:
    """Qualified name -> (bare name, is a method) of each public top-level
    function and class of a module and of each public method of those
    classes."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs[f"{module}.{node.name}"] = (node.name, False)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defs[f"{module}.{node.name}.{item.name}"] = (item.name, True)
    return defs


def module_names(tree: ast.AST) -> set:
    """Names that a file's imports bind to a module: every ``import``, and
    ``from . import m`` or ``from derivlab import m`` for a module m of the
    package."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "derivlab"):
            bound |= {
                alias.asname or alias.name for alias in node.names if alias.name in PACKAGE_MODULES
            }
    return bound


def names_read(source: str) -> tuple:
    """(names, on_receivers): every name a file loads, bare or as an
    attribute, and the attributes it loads from a receiver that is not an
    imported module (``x.norm`` is one, ``np.linalg.norm`` is not)."""
    tree = ast.parse(source)
    modules = module_names(tree)
    names, on_receivers = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                on_receivers.add(node.attr)
    return names, on_receivers


def unread_defs(modules: dict, readers: list) -> list:
    """Qualified names of the public defs in ``modules`` (name -> source)
    that no source in ``readers`` reads.  A function or class is read by
    its bare name or as a module attribute; a method only as an attribute
    of a receiver that is not an imported module, so neither a local of
    its name nor ``np.linalg.norm`` keeps ``norm`` alive.  Imports do not
    count as reads, so a re-export alone keeps nothing alive."""
    names, on_receivers = set(), set()
    for source in readers:
        read, attributes = names_read(source)
        names |= read
        on_receivers |= attributes
    defs = {}
    for module, source in modules.items():
        defs.update(public_defs(module, source))
    return sorted(
        q for q, (name, method) in defs.items() if name not in (on_receivers if method else names)
    )


def traced_targets() -> set:
    """The ``module.qualname`` entries of perfbench's ``TARGETS``, read
    from the file: the benchmark traces each by name, so a target that
    nothing else reads still has to resolve."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (targets,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    return {f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in targets.elts}


def test_finds_an_unread_def():
    module = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "class Kept:\n"
        "    def method(self): pass\n"
        "    def _helper(self): pass\n"
    )
    reader = "from m import unused\nused()\nKept().method()\n"
    assert unread_defs({"m": module}, [reader]) == ["m.unused"]
    assert unread_defs({"m": module}, ["used()\nKept\n"]) == ["m.Kept.method", "m.unused"]
    # a method is read only as an attribute, and not as one of a module
    for reader in (
        "used()\nKept\nmethod = 1\nprint(method)\n",
        "import numpy as np\nused()\nKept\nnp.linalg.method()\n",
        "from . import numlin\nused()\nKept\nnumlin.method()\n",
    ):
        assert unread_defs({"m": module}, [reader]) == ["m.Kept.method", "m.unused"]
    reader = "import numpy as np\nused()\nKept\nnp.asarray(k).method()\n"
    assert unread_defs({"m": module}, [reader]) == ["m.unused"]


def test_every_public_def_has_a_caller_outside_the_tests():
    modules = {p.stem: p.read_text() for p in (ROOT / "src" / "derivlab").glob("*.py")}
    unread = unread_defs(modules, [p.read_text() for p in READERS])
    assert sorted(set(unread) - traced_targets() - set(UNREAD_ALLOWED)) == []
    # an allowance outlives its reason once the def gains a caller
    assert sorted(set(UNREAD_ALLOWED) - set(unread)) == []


# classes that still carry a verdict of their own, each with its reason
VERDICT_ALLOWED = {
    "derivation.DifferenceQuotientReport": "ROADMAP item 7 gives it a check function",
}


def verdict_fields(module: str, source: str) -> list:
    """``module.Class.name`` for each ``passed``, ``per_k_pass`` or
    ``*_tol`` a class of the module defines, as a field, an attribute or a
    method (a property included)."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names = [item.target.id]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            elif isinstance(item, ast.FunctionDef):
                names = [item.name]
            else:
                continue
            found += [
                f"{module}.{node.name}.{name}"
                for name in names
                if name in ("passed", "per_k_pass") or name.endswith("_tol")
            ]
    return found


def test_finds_a_verdict_field():
    source = (
        "class R:\n"
        "    passed: bool\n"
        "    rank_tol: float = 1e-10\n"
        "    distances: tuple\n"
        "    @property\n"
        "    def per_k_pass(self): pass\n"
        "def passed(): pass\n"
    )
    assert verdict_fields("m", source) == ["m.R.passed", "m.R.rank_tol", "m.R.per_k_pass"]


def test_reports_carry_no_verdict():
    # pass rules and their tolerances live in the check functions of cli.py
    found = set()
    for p in (ROOT / "src" / "derivlab").glob("*.py"):
        classes = verdict_fields(p.stem, p.read_text())
        found |= {c.rpartition(".")[0] for c in classes}
    assert sorted(found - set(VERDICT_ALLOWED)) == []
    # an allowance outlives its reason once the class drops its verdict
    assert sorted(set(VERDICT_ALLOWED) - found) == []


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
