"""Import layering of the package, read from its source with ``ast``.

Every relative import sits at the top level of its module, where it is
plain to see, and the relative imports form no cycle, deferred or not: each
module builds only on the modules below it.
"""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fanolines"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _targets(node: ast.ImportFrom) -> set[str]:
    """The package modules a relative ``from`` import reads."""
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}  # from . import module


def _relative(nodes) -> list[ast.ImportFrom]:
    return [node for node in nodes if isinstance(node, ast.ImportFrom) and node.level]


def test_no_relative_import_is_nested():
    # Inside a function or a class, or under ``if TYPE_CHECKING``.
    nested = [f"{name}:{node.lineno}" for name, tree in sorted(TREES.items())
              for node in _relative(ast.walk(tree)) if node not in _relative(tree.body)]
    assert nested == []


def test_module_imports_form_no_cycle():
    graph = {name: set().union(*map(_targets, _relative(ast.walk(tree))))
             for name, tree in TREES.items()}
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert order[-1] == "__init__"
    assert graph["terms"] == {"errors"}  # the term algebra is the bottom layer
