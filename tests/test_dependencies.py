"""The declared runtime dependencies are exactly the third-party packages
that the source imports, every module is reached from the CLI, and one
function keys every random stream."""

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
