"""The package exports exactly the names the demos import from it,
ships no public name that only the tests use, and has no way past state
validation."""

import ast
import importlib.util
import inspect
from pathlib import Path

import entbounds
from entbounds.linalg import DensityMatrix
from entbounds.stateio import load_state, loads_state

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(entbounds.__file__).resolve().parent
# kept for the coherent-information bound of ROADMAP item 2, which needs a reduced state
UNREFERENCED = {("linalg", "partial_trace")}


def test_all_is_what_the_demos_import():
    imported = set()
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "entbounds" and node.level == 0:
                imported.update(alias.name for alias in node.names)
    submodules = {n for n in imported if importlib.util.find_spec(f"entbounds.{n}") is not None}
    assert imported - submodules == set(entbounds.__all__)
    for name in entbounds.__all__:
        assert getattr(entbounds, name) is not None, name


def used_names(path: Path) -> set[str]:
    """Names a file reads, bare or as an attribute; imports alone do not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_definition_is_used_in_the_package_or_a_demo():
    # a definition is not a use, and neither is a re-export in __init__.py
    modules = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(used_names, modules), *map(used_names, DEMOS.glob("*.py")))
    unused = set()
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in used:
                    unused.add((path.stem, node.name))
    assert unused == UNREFERENCED


def test_no_parameter_skips_state_validation():
    # every state is validated where it is made or read
    assert list(inspect.signature(DensityMatrix).parameters) == ["dim_a", "dim_b", "entries"]
    assert list(inspect.signature(loads_state).parameters) == ["text", "cap"]
    assert list(inspect.signature(load_state).parameters) == ["path", "cap"]
