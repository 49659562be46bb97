import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import condcopula

MODULES = sorted(m.name for m in pkgutil.iter_modules(condcopula.__path__))
PACKAGE_DIR = Path(condcopula.__file__).resolve().parent


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(f"condcopula.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, ``__all__`` counting as a read.

    ``__future__`` imports and imports on a line marked ``# noqa: F401`` are
    exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                # an alias listed on its own line carries its own marker
                line = lines[alias.lineno - 1]
                if "# noqa: F401" not in line:
                    imported.add(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_unused_import_detected():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


# the package __init__ is not among MODULES: it imports only to re-export
@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    source = (PACKAGE_DIR / f"{module}.py").read_text()
    assert unused_imports(source) == []


REPO = PACKAGE_DIR.parents[1]
# read by no caller yet: ROADMAP item 5 keeps the paper's CV selector
UNCALLED_ALLOWED = {"cv_bandwidth"}


def public_definitions(source: str) -> set:
    """Names of the public top-level functions and classes of a module."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def referenced_names(source: str) -> set:
    """Every identifier, attribute and imported name a module mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_uncalled_definition_detected():
    source = "def f(): pass\nclass C: pass\ndef _g(): pass\n"
    assert public_definitions(source) == {"f", "C"}
    assert referenced_names("from m import f\nC.x\ny\n") == {"f", "C", "x", "y"}


def test_every_public_definition_has_a_caller():
    # tests other than the acceptance criteria do not count as callers: a
    # function only they call belongs in tests/oracles.py
    callers = [
        *(REPO / "src").rglob("*.py"),
        *(REPO / "perfbench").rglob("*.py"),
        *(REPO / "scripts").rglob("*.py"),
        REPO / "tests" / "test_acceptance.py",
    ]
    referenced = set().union(*(referenced_names(p.read_text()) for p in callers))
    uncalled = {
        f"{module}.{name}"
        for module in MODULES
        for name in public_definitions((PACKAGE_DIR / f"{module}.py").read_text())
        if name not in referenced | UNCALLED_ALLOWED
    }
    assert sorted(uncalled) == []
