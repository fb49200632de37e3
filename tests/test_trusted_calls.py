"""Where the trusted term constructors may be used, read from source with ``ast``.

``terms._trusted`` builds a term without sorting or validating its fields,
and ``terms._trusted_columns`` builds many at once, column by column.  Both
are defined in ``terms`` alone and called only from the two layers whose
terms are canonical by construction: ``_trusted`` from the
complete-intersection family rule, ``_trusted_columns`` from the catalog
build.  Every other module, the scripts included, goes through the
validating constructors.  The means those two and the hand-written
``__init__`` of ``terms`` use to fill a frozen instance, ``object.__new__``,
``object.__setattr__`` and a slot descriptor's ``__set__``, appear in
``terms`` alone, so no other module can grow a second trusted path.
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


#: The attributes that make or fill an instance without its constructor:
#: ``object.__new__``, ``object.__setattr__`` and a descriptor's ``__set__``.
BYPASSES = frozenset({"__new__", "__setattr__", "__set__"})


def _bypasses(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that reach one of ``BYPASSES``: as an attribute of
    anything (``object``, ``super()``, a class, a slot descriptor), called
    or not, or through ``getattr`` with the name spelled out.  Defining a
    method of that name is not a use."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            name = node.args[1].value
        else:
            continue
        if name in BYPASSES:
            lines.append(node.lineno)
    return lines


def test_only_terms_makes_or_fills_an_instance_without_its_constructor():
    found = {path.stem for path in SOURCES if _bypasses(ast.parse(path.read_text()))}
    assert found == {"terms"}


def test_the_bypass_guard_sees_each_form():
    caught = [
        "x = object.__new__(Quadric)",
        "object.__setattr__(x, 'n', 3)",
        "new = object.__new__",
        "vars(Quadric)['n'].__set__(x, 3)",
        "Quadric.n.__set__(x, 3)",
        "setter = vars(Quadric)['n'].__set__",
        "getattr(object, '__setattr__')(x, 'n', 3)",
        "super().__setattr__('n', 3)",
        "Quadric.__new__(Quadric)",
    ]
    for source in caught:
        assert _bypasses(ast.parse(source)) == [1], source
    missed = [
        "x = Quadric(3)",
        "setattr(x, 'n', 3)",
        "getattr(x, 'n')",
        "class D:\n    def __set__(self, obj, value):\n        pass\n",
        "'a docstring naming __set__ and object.__new__'",
    ]
    for source in missed:
        assert _bypasses(ast.parse(source)) == [], source
