"""Where the trusted term constructors may be used, read from source with ``ast``.

``terms._trusted`` builds a term without sorting or validating its fields,
and ``terms._trusted_columns`` builds many at once, column by column.  Both
are defined in ``terms`` alone and called only from the two layers whose
terms are canonical by construction: ``_trusted`` from the
complete-intersection family rule, ``_trusted_columns`` from the catalog
build.  Every other module, the scripts included, goes through the
validating constructors.
"""

import ast
from pathlib import Path

import fanolines

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fanolines").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
TRUSTED = "_trusted"
COLUMNS = "_trusted_columns"


def _uses(tree: ast.AST, name: str) -> dict[str, list[int]]:
    """Lines of each kind of use of ``name`` in ``tree``: its definition, its
    calls, and every other mention (an import, an attribute, a name)."""
    uses: dict[str, list[int]] = {"defined": [], "called": [], "named": []}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                uses["defined"].append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                uses["called"].append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == name for alias in node.names):
                uses["named"].append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == name:
            uses["named"].append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            uses["named"].append(node.lineno)
    return uses


def _modules_by_use(sources, name: str) -> dict[str, set[str]]:
    """For each kind of use of ``name``, the stems of the modules in
    ``sources`` that make it."""
    found: dict[str, set[str]] = {"defined": set(), "called": set(), "named": set()}
    for stem, source in sources:
        for kind, lines in _uses(ast.parse(source), name).items():
            if lines:
                found[kind].add(stem)
    return found


def test_trusted_is_defined_in_terms_and_called_only_by_the_build_and_the_ci_rule():
    sources = [(path.stem, path.read_text()) for path in SOURCES]
    for name, caller in ((TRUSTED, "families"), (COLUMNS, "catalog")):
        found = _modules_by_use(sources, name)
        assert found["defined"] == {"terms"}, name
        assert found["called"] == {caller}, name
        # Only the caller imports it; every module that names it is the caller.
        assert found["named"] <= {"terms", caller}, name


def test_trusted_is_not_exported():
    for name in (TRUSTED, COLUMNS):
        assert name not in fanolines.__all__
        assert not hasattr(fanolines, name)
    assert len(fanolines.__all__) == 54


def test_the_guard_sees_each_form_of_use():
    # A module outside the two layers that reaches a trusted constructor, by
    # each spelling, is caught; the two names are told apart.
    for name in (TRUSTED, COLUMNS):
        sources = [
            ("cli", f"from .terms import {name}\nx = {name}(Quadric, 3)\n"),
            ("checks", f"from . import terms\nx = terms.{name}(Quadric, 3)\n"),
            ("trace", f"def {name}(cls, *fields):\n    return cls\n"),
        ]
        found = _modules_by_use(sources, name)
        assert found["called"] == {"cli", "checks"}
        assert found["defined"] == {"trace"}
        assert found["named"] == {"cli", "checks"}
        other = COLUMNS if name == TRUSTED else TRUSTED
        assert _modules_by_use(sources, other) == {"defined": set(), "called": set(), "named": set()}
