"""Keep the illustrative docstring examples honest."""

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import fanolines
from fanolines.dsl import to_text
from fanolines.reports import SuiteReport
from fanolines.terms import at_least, exact


def test_module_doctests():
    # Every module of the package, so that a new one's examples run too.
    names = [fanolines.__name__]
    names += [m.name for m in pkgutil.walk_packages(fanolines.__path__, fanolines.__name__ + ".")]
    assert "fanolines.modp" in names
    for name in names:
        module = importlib.import_module(name)
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {name}"
        if ">>>" in Path(module.__file__).read_text():
            assert result.attempted > 0, f"no doctest attempted in {name}"


def _readme_library_block() -> list[tuple[object, str]]:
    """Each line of the README's ``Library`` block, run in order: its value
    and the comment that documents it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    answers = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            answers.append((value, lines[stmt.lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return answers


def test_readme_library_block_answers_as_documented():
    (s, s_doc), (chain, chain_doc), (cover, cover_doc), (report, _) = _readme_library_block()
    assert s == exact(4) and repr(s) == s_doc
    assert " ⊨ ".join(map(to_text, chain)) == chain_doc
    assert chain_doc == "G(2,6) ⊨ Prod(P(1):1,P(3):1) ⊨ P(2) ⊨ P(1) ⊨ pt"
    assert cover == at_least(2) and cover_doc.startswith("at least 2,")
    assert isinstance(report, SuiteReport) and report.ok
