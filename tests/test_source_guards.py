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

In the secant laboratory every random value comes from ``_point``, whose
stream ``tests/test_secant.py`` pins against ``randrange``, and every random
generator from ``_rng``, one per (method, trial, prime).  Only ``modp``
inverts mod p: the rank kernel normalises its pivots, and the laboratory's
Jacobians are column-scaled so that they need no inverse.
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


def _inverts_mod_p(tree: ast.AST) -> bool:
    """A call of ``pow``, bare or as an attribute, with a modulus and a
    negated exponent, positional or by keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "pow")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "pow")):
            args = dict(zip(("base", "exp", "mod"), node.args))
            args.update((kw.arg, kw.value) for kw in node.keywords)
            exp = args.get("exp")
            if "mod" in args and isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
                return True
    return False


DRAWS = ("randrange", "getrandbits", "random")


def _draws(node: ast.AST) -> bool:
    """A reference to a drawing method, a bare drawing function, or an import
    from ``random`` that could bring one in; the module name ``random`` alone
    is not one (``random.Random`` annotates and builds generators)."""
    return ((isinstance(node, ast.Attribute) and node.attr in DRAWS)
            or (isinstance(node, ast.Name) and node.id in DRAWS[:2])
            or (isinstance(node, ast.ImportFrom) and node.module == "random"))


def _builds_a_generator(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Attribute) and node.func.attr == "Random")
        or (isinstance(node.func, ast.Name) and node.func.id == "Random"))


def _functions(tree: ast.Module, pred) -> set[str]:
    """The top-level functions and methods (``Class.method``) that hold a node
    ``pred`` accepts, nested functions counting as their enclosing one; any
    other statement at the top counts as ``<module>``."""
    units = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            units += [(f"{stmt.name}.{f.name}", f) if isinstance(f, ast.FunctionDef)
                      else ("<module>", f) for f in stmt.body]
        else:
            units.append(("<module>", stmt))
    return {name for name, unit in units if any(map(pred, ast.walk(unit)))}


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


def test_only_modp_inverts_mod_p():
    assert _modules(_read(), _inverts_mod_p) == {"modp"}


def test_the_inverse_guard_sees_each_form():
    sources = [
        ("secant", "inv = pow(x, -1, p)\n"),
        ("cli", "def f(xs, p):\n    return [pow(v, - 1, p) for v in xs]\n"),
        ("trace", "import builtins\ny = builtins.pow(a, -2, m)\n"),
        ("chains", "y = pow(a, exp=-1, mod=m)\n"),
        ("checks", "y = pow(a, -1)\n"),  # no modulus: a float
        ("terms", "y = pow(a, 5, m)\n"),
        ("reports", "y = pow(a, e, m)\n"),
    ]
    assert _modules(sources, _inverts_mod_p) == {"secant", "cli", "trace", "chains"}


def test_only_point_draws_and_only_rng_builds_a_generator_in_secant():
    tree = ast.parse((ROOT / "src" / "fanolines" / "secant.py").read_text())
    assert _functions(tree, _draws) == {"_point"}
    assert _functions(tree, _builds_a_generator) == {"_rng"}


def test_the_draw_guards_see_each_form():
    tree = ast.parse(
        "import random\n"
        "from random import getrandbits\n"
        "def a(rng): return rng.randrange(1, 5)\n"
        "def b(rng):\n    draw = rng.getrandbits\n    return draw(3)\n"
        "def c(rng): return rng.random()\n"
        "def d(): return getrandbits(3)\n"
        "def e(): return random.Random(1)\n"
        "def f(): return Random(2)\n"
        "class K:\n"
        "    def g(self, rng: random.Random): return [rng.randrange(3) for _ in range(2)]\n"
        "    def h(self, rng: random.Random): return rng\n"
        "def i(cfg):\n    def rows(rng): return rng.getrandbits(1)\n    return rows\n"
        "def j(p: int) -> random.Random: return p\n")
    assert _functions(tree, _draws) == {"<module>", "a", "b", "c", "d", "K.g", "i"}
    assert _functions(tree, _builds_a_generator) == {"e", "f"}
