"""Where the collector is touched and where a product or a complete
intersection is spelled, read from source with ``ast``.

The catalog build pauses the cyclic collector, and it is the one module that
imports ``gc``: no other layer allocates a catalog's worth of objects at
once.  A product's spelling, the factor ``P(n):d`` in the frame ``Prod(``
... ``)``, and a complete intersection's, ``CI(`` d,... ``;`` N ``)``, are
written once, in ``dsl``.  The build retypes none of them: it orders its
products by their factor texts, which the factor format spells, orders its
complete intersections by the prefix that ``dsl`` spells, and splices each
block at ``dsl``'s opening.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fanolines").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
SPELLINGS = ("P(%s):%s", "Prod(")
CI_OPEN = "CI("


def _imports_gc(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "gc" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gc":
            return True
    return False


def _spells_a_product(tree: ast.AST) -> bool:
    """A string literal that is the product frame's opening or that holds
    the factor format; a complete term such as ``"Prod(P(1):2,P(3):1)"`` is
    neither, and may be parsed anywhere."""
    return any(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and (node.value == SPELLINGS[1] or SPELLINGS[0] in node.value)
               for node in ast.walk(tree))


def _spells_a_complete_intersection(tree: ast.AST) -> bool:
    """A string literal that is the opening ``CI(``; a complete term such as
    ``"CI(2,2;7)"`` is not, and may be parsed anywhere."""
    return any(isinstance(node, ast.Constant) and node.value == CI_OPEN
               for node in ast.walk(tree))


def _modules(sources, pred) -> set[str]:
    return {stem for stem, source in sources if pred(ast.parse(source))}


def _read():
    return [(path.stem, path.read_text()) for path in SOURCES]


def test_only_the_catalog_imports_gc():
    assert _modules(_read(), _imports_gc) == {"catalog"}


def test_only_dsl_spells_a_product():
    assert _modules(_read(), _spells_a_product) == {"dsl"}


def test_only_dsl_spells_a_complete_intersection():
    assert _modules(_read(), _spells_a_complete_intersection) == {"dsl"}


def test_the_guards_see_each_form():
    sources = [
        ("cli", "import gc\n"),
        ("checks", "from gc import disable\n"),
        ("trace", "import os, gc as collector\n"),
        ("families", "x = 'Prod(' + a + ')'\n"),
        ("reports", "x = ','.join(['P(%s):%s'] * 2)\n"),
        ("chains", "x = f'Prod({a})'\n"),
        ("chain_gallery", "TERMS = ['Prod(P(1):2,P(3):1)', 'P(%d)', 'CI(2,2;7)']\n"),
        ("catalog", "x = 'CI(' + prefix\n"),
        ("secant", "x = f'CI({d};{N})'\n"),
        ("modp", "OPEN, CLOSE = 'CI(', ')'\n"),
    ]
    assert _modules(sources, _imports_gc) == {"cli", "checks", "trace"}
    assert _modules(sources, _spells_a_product) == {"families", "reports", "chains"}
    assert _modules(sources, _spells_a_complete_intersection) == {"catalog", "secant", "modp"}
