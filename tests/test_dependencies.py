"""The declared runtime dependencies are exactly the third-party packages
that the source imports, every module is reached from the CLI, every
exported name has a caller in the package, and one function keys every
random stream."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracspde"


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]}


def imported_packages():
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return {name for name in found if name not in sys.stdlib_module_names and name != PACKAGE.name}


def test_declared_dependencies_are_the_imported_ones():
    assert declared_dependencies() == imported_packages()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_exported_name_resolves(path):
    name = PACKAGE.name if path.stem == "__init__" else f"{PACKAGE.name}.{path.stem}"
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_every_module_is_reached_from_the_cli():
    # a module that `import fracspde.cli` never loads has no caller in any
    # command; a fresh interpreter keeps this test's own imports out of it
    script = "import sys, fracspde.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    modules = {f"{PACKAGE.name}.{path.stem}" for path in PACKAGE.glob("*.py")}
    assert sorted(modules - loaded - {f"{PACKAGE.name}.__init__"}) == []
    # scipy is a test-only oracle; no command pays for its import
    assert sorted(name for name in loaded if name.split(".")[0] == "scipy") == []


def numpy_random_sites(path):
    """(line, function) of every np.random / numpy.random use in a module,
    outside noise.keyed_rng; an import of numpy.random counts as a use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    if path.stem == "noise":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "keyed_rng":
                allowed.update(id(sub) for sub in ast.walk(node))
    sites = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            sites.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
            alias.name.startswith("numpy.random") for alias in node.names
        ):
            sites.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("numpy.random")
            or (node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        ):
            sites.append(node.lineno)
    return sites


def test_every_random_draw_is_keyed_in_one_place():
    # one keying of the random streams: noise.keyed_rng is the only code
    # that reaches numpy's random module
    sites = {path.name: numpy_random_sites(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines} == {}


# Exported names with no caller in the package, each with the reason it stays.
UNREFERENCED_ALLOWLIST = {
    "constants.fbm_covariance": "defines the paper's fractional noise covariance",
    "constants.spectral_density": "defines the paper's spectral measure of the noise",
    "constants.frequency_identity_constant": "the constant of the paper's frequency identity",
    "diagnostics.VnWnCollector": "the paper's V_n/W_n recurrence; waits on the moment ledger",
    "diagnostics.IterateSecondMomentCollector": "feeds the V_n/W_n audit; waits on the ledger",
    "diagnostics.vn_wn_diagnostics": "the V_n/W_n audit itself; waits on the moment ledger",
    "gronwall.recurrence_check": "the Gronwall hypothesis check; waits on the moment ledger",
    "picard.uniqueness_probe": "the paper's pathwise uniqueness, probed from two starts",
    "picard.homogeneous_term": "the benchmark's fixed-point gate rebuilds a solve with it",
    "picard.noise_slabs": "the benchmark's fixed-point gate rebuilds a solve with it",
    "picard.picard_step": "the Picard map itself; the benchmark's fixed-point gate applies it",
}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _definition_nodes(tree, name):
    """ids of the nodes of the module-level statement that defines name."""
    nodes = set()
    for node in tree.body:
        defines = (
            isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        ) or (
            isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == name for target in node.targets)
        )
        if defines:
            nodes.update(id(sub) for sub in ast.walk(node))
    return nodes


def unreferenced_exports(package):
    """"module.name" of every name in a module's __all__ that no code of the
    package reads, outside its own definition and outside __init__.py; an
    import alone is no reference."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    }
    found = []
    for module, tree in trees.items():
        for name in _exported(tree):
            own = _definition_nodes(tree, name)
            if not any(
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                for other, other_tree in trees.items()
                for node in ast.walk(other_tree)
                if not (other == module and id(node) in own)
            ):
                found.append(f"{module}.{name}")
    return found


def test_every_exported_name_is_referenced_or_allowlisted():
    unreferenced = unreferenced_exports(PACKAGE)
    assert sorted(set(unreferenced) - set(UNREFERENCED_ALLOWLIST)) == []
    # an allowlisted name that gained a caller leaves the list
    assert sorted(set(UNREFERENCED_ALLOWLIST) - set(unreferenced)) == []


def test_guard_finds_an_unreferenced_export(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import orphan\n")
    (tmp_path / "a.py").write_text(
        '__all__ = ["used", "orphan", "recursive"]\n\n'
        "def used():\n    return 1\n\n"
        "def orphan():\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import orphan, recursive\n")
    assert unreferenced_exports(tmp_path) == ["a.orphan", "a.recursive"]
