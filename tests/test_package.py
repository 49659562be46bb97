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
