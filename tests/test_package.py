import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def private_imports(source: str) -> list:
    """``module._name`` for each private name imported from a sibling module."""
    return sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_import_detected():
    source = "from .a import _b, c\nfrom ._d import e\nfrom . import _f\nfrom g import _h\n"
    assert private_imports(source) == ["a._b"]


def test_no_private_name_crosses_modules():
    # a name one module keeps private is no other module's to import; the
    # package __init__ re-exports public names only
    crossing = {
        module: private_imports((PACKAGE_DIR / f"{module}.py").read_text())
        for module in [*MODULES, "__init__"]
    }
    assert {module: names for module, names in crossing.items() if names} == {}


REPO = PACKAGE_DIR.parents[1]


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


def caller_sources() -> list:
    """Sources whose references count as uses of the package.

    Tests other than the acceptance criteria do not count: a function only
    they call belongs in tests/oracles.py, and a field only they read need
    not be kept.
    """
    paths = [
        *(REPO / "src").rglob("*.py"),
        *(REPO / "perfbench").rglob("*.py"),
        *(REPO / "scripts").rglob("*.py"),
        REPO / "tests" / "test_acceptance.py",
    ]
    return [p.read_text() for p in paths]


def test_every_public_definition_has_a_caller():
    referenced = set().union(*(referenced_names(s) for s in caller_sources()))
    uncalled = {
        f"{module}.{name}"
        for module in MODULES
        for name in public_definitions((PACKAGE_DIR / f"{module}.py").read_text())
        if name not in referenced
    }
    assert sorted(uncalled) == []


def callers_of(source: str, name: str) -> set:
    """Names of the functions whose bodies call ``name``; "<module>" for top level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_callers_of_detected():
    source = "def f():\n    def g():\n        m.k(1)\n    k()\nk(2)\ndef h(): k\n"
    assert callers_of(source, "k") == {"f", "g", "<module>"}


def test_kernel_evaluated_only_by_the_weight_routines():
    # kernel values come from one window-block routine; no stage evaluates
    # the kernel over all n observations at a point
    callers = set().union(
        *(callers_of(p.read_text(), "kernel_values") for p in PACKAGE_DIR.glob("*.py"))
    )
    assert callers == {"_kernel_blocks"}


def test_weights_normalised_only_by_the_row_total_helper():
    # one definition of a kernel weight's total: the window-weight routine
    # of the surfaces and the score regression divides by it; only the
    # pseudo-observation stage, whose dense rows certify its ranks, keeps
    # pairwise row sums
    source = (PACKAGE_DIR / "conditional.py").read_text()
    assert callers_of(source, "_row_totals") == {"window_weights"}
    assert callers_of(source, "sum") == {"pseudo_observations", "_dense_pseudo_rows"}


def test_lattices_accumulated_only_by_the_lattice_routines():
    # one copula-lattice kernel serves the partial copula, the trajectory
    # surfaces and the harness checks; it finds each pair's lattice index by
    # one search, so only the lattice CDF accumulates
    callers = set().union(
        *(callers_of(p.read_text(), "bincount") for p in PACKAGE_DIR.glob("*.py"))
    )
    assert callers == {"_lattice_cdf"}


def test_dense_pseudo_rows_only_certify_near_ties():
    # the O(n) dense row runs only for the values whose ranks it settles
    callers = set().union(
        *(callers_of(p.read_text(), "_dense_pseudo_rows") for p in PACKAGE_DIR.glob("*.py"))
    )
    assert callers == {"pseudo_observations"}


def test_libm_bit_matching_only_in_the_conditional_inverse():
    # element-wise libm calls keep the Clayton inverse on the bits of its
    # scalar reference, and the ndtri and Wright omega ports on scipy's
    # bits where numpy's AVX-512 log and exp differ from glibc's in the last
    # bit; no other map needs them
    callers = set().union(
        *(callers_of(p.read_text(), "_libm") for p in PACKAGE_DIR.glob("*.py"))
    )
    assert callers == {"conditional_v_given_u", "_ndtri", "_fsc_step", "_wrightomega"}


def test_blas_threads_limited_only_by_the_stages_that_call_blas():
    # each stage that calls BLAS carries @limited_threads(1) itself, so no
    # caller manages BLAS threads around it
    callers = set().union(
        *(callers_of(p.read_text(), "limited_threads") for p in PACKAGE_DIR.glob("*.py"))
    )
    assert callers == {
        "covariance_field", "eigendecompose", "ensemble_eigensystem", "scores", "eval_alpha",
    }


def test_blas_symbols_looked_up_only_for_the_thread_count():
    # the only symbols read from the mapped OpenBLAS are its thread-count
    # functions; every eigenproblem goes through numpy
    source = (PACKAGE_DIR / "_blas.py").read_text()
    assert callers_of(source, "getattr") == {"_controls"}


def test_no_generator_built_in_the_package():
    # every draw comes from the bulk substream words, so no code builds a
    # numpy bit generator or Generator
    for name in ("Philox", "Generator", "default_rng"):
        for p in PACKAGE_DIR.glob("*.py"):
            assert callers_of(p.read_text(), name) == set(), (p.name, name)


def public_fields(source: str) -> set:
    """``Class.field`` for each annotated field of a public top-level class."""
    return {
        f"{node.name}.{item.target.id}"
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def read_attributes(source: str) -> set:
    """Attribute names a module reads (``x.name`` in load context)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_unread_field_detected():
    source = "class C:\n    a: int\n    b: int = 0\n    c = 1\nclass _D:\n    d: int\n"
    assert public_fields(source) == {"C.a", "C.b"}
    assert read_attributes("obj.a\nobj.b = 1\nd\n") == {"a"}


def test_every_field_is_read():
    read = set().union(*(read_attributes(s) for s in caller_sources()))
    unread = {
        f"{module}.{field}"
        for module in MODULES
        for field in public_fields((PACKAGE_DIR / f"{module}.py").read_text())
        if field.split(".")[1] not in read
    }
    assert sorted(unread) == []


def keys_read(source: str) -> set:
    """String keys a module reads from a dict with ``.get(key, ...)``."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    }


def keys_set(source: str) -> set:
    """String keys a module writes in a dict display."""
    return {
        key.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def test_settings_keys_detected():
    source = "d.get('a', 1)\nd.get(k)\nd['b']\nx = {'c': 1, **e}\n"
    assert keys_read(source) == {"a"}
    assert keys_set(source) == {"c"}


def test_every_setting_has_a_caller():
    # a model or tolerances key only unit tests set is a setting no run needs
    harness_source = (PACKAGE_DIR / "harness.py").read_text()
    read = keys_read(harness_source)
    callers = [s for s in caller_sources() if s != harness_source]
    set_by_callers = set().union(*(keys_set(s) for s in callers))
    assert sorted(read - set_by_callers) == []
    # and the harness accepts exactly the keys it reads
    from condcopula.harness import _READS

    accepted = {key for model, tolerances, *_ in _READS.values() for key in (*model, *tolerances)}
    assert accepted == read


def loaded_after(code: str, package: str) -> bool:
    """Whether running ``code`` in a fresh interpreter loads ``package`` or a submodule."""
    probe = (
        f"{code}\n"
        "import sys\n"
        f"print(any(m == {package!r} or m.startswith({package!r} + '.') for m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats alone takes most of a second, at every start-up,
    # and the package imports no part of scipy at all
    assert not loaded_after("import condcopula", "scipy.stats")
    assert not loaded_after("import condcopula", "scipy")


def test_fit_leaves_scipy_linalg_unloaded():
    # the leading eigenpairs come from the LAPACK numpy already maps;
    # importing scipy.linalg would cost start-up time and resident memory and
    # map a second OpenBLAS, whose threads limited_threads would not reach;
    # no sampler, fit or estimate loads any part of scipy
    code = (
        "from condcopula.estimator import PipelineConfig, evaluate_fit, fit_pipeline\n"
        "from condcopula.simulate import ConditionalModel, TauLink, sample_conditional\n"
        "model = ConditionalModel(family='clayton', link=TauLink(form='sine', a=0.4, b=0.25))\n"
        "s, _ = sample_conditional(model, 100, 3)\n"
        "evaluate_fit(fit_pipeline(s, PipelineConfig(grid_size=9)), 0.5)\n"
    )
    assert not loaded_after(code, "scipy.linalg")
    # sampling every family under both covariate laws, a fit and an estimate
    every_sampler = (
        "from condcopula.estimator import PipelineConfig, evaluate_fit, fit_pipeline\n"
        "from condcopula.simulate import ConditionalModel, TauLink, sample_conditional\n"
        "links = {'independence': 'constant:0', 'clayton': 'sine:0.4,0.25',\n"
        "         'frank': 'sine:0.4,0.25', 'fgm': 'sine:0,0.2', 'gumbel': 'sine:0.4,0.25'}\n"
        "for law in ('uniform', 'normal'):\n"
        "    for family, link in links.items():\n"
        "        model = ConditionalModel(family=family, link=TauLink.parse(link), covariate=law)\n"
        "        s, _ = sample_conditional(model, 100, 3)\n"
        "evaluate_fit(fit_pipeline(s, PipelineConfig(grid_size=9)), 0.5)\n"
    )
    assert not loaded_after(every_sampler, "scipy")
