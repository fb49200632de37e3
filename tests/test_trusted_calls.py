"""Where the trusted term constructor may be used, read from source with ``ast``.

``terms._trusted`` builds a term without sorting or validating its fields.
It is defined in ``terms`` alone and called only from the two layers whose
terms are canonical by construction: the catalog build and the
complete-intersection family rule.  Every other module, the scripts
included, goes through the validating constructors.
"""

import ast
from pathlib import Path

import fanolines

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fanolines").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
TRUSTED = "_trusted"


def _uses(tree: ast.AST) -> dict[str, list[int]]:
    """Lines of each kind of use of ``_trusted`` in ``tree``: its definition,
    its calls, and every other mention (an import, an attribute, a name)."""
    uses: dict[str, list[int]] = {"defined": [], "called": [], "named": []}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == TRUSTED:
                uses["defined"].append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == TRUSTED or getattr(func, "attr", None) == TRUSTED:
                uses["called"].append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == TRUSTED for alias in node.names):
                uses["named"].append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == TRUSTED:
            uses["named"].append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == TRUSTED:
            uses["named"].append(node.lineno)
    return uses


def _modules_by_use(sources) -> dict[str, set[str]]:
    """For each kind of use, the stems of the modules in ``sources`` that make it."""
    found: dict[str, set[str]] = {"defined": set(), "called": set(), "named": set()}
    for stem, source in sources:
        for kind, lines in _uses(ast.parse(source)).items():
            if lines:
                found[kind].add(stem)
    return found


def test_trusted_is_defined_in_terms_and_called_only_by_the_build_and_the_ci_rule():
    found = _modules_by_use((path.stem, path.read_text()) for path in SOURCES)
    assert found["defined"] == {"terms"}
    assert found["called"] == {"catalog", "families"}
    # Only the two callers import it; every module that names it is one of them.
    assert found["named"] <= {"terms", "catalog", "families"}


def test_trusted_is_not_exported():
    assert TRUSTED not in fanolines.__all__
    assert not hasattr(fanolines, TRUSTED)
    assert len(fanolines.__all__) == 54


def test_the_guard_sees_each_form_of_use():
    # A module outside the two layers that reaches the trusted constructor,
    # by each spelling, is caught.
    sources = [
        ("cli", "from .terms import _trusted\nx = _trusted(Quadric, 3)\n"),
        ("checks", "from . import terms\nx = terms._trusted(Quadric, 3)\n"),
        ("trace", "def _trusted(cls, *fields):\n    return cls\n"),
    ]
    found = _modules_by_use(sources)
    assert found["called"] == {"cli", "checks"}
    assert found["defined"] == {"trace"}
    assert found["named"] == {"cli", "checks"}
