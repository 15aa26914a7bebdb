"""The package exports exactly the names the demos import from it."""

import ast
import importlib.util
from pathlib import Path

import entbounds

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
