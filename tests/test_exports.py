"""The package's public names, and the names the benchmark imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import fanolines
from fanolines import secant
from fanolines.chains import ChainEngine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_is_sorted_unique_and_resolves():
    names = fanolines.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(fanolines, name)]
    assert missing == []


def _fanolines_imports(path: Path):
    """(module, name) for every name ``path`` imports from fanolines; name is
    None for a plain ``import fanolines...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fanolines":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "fanolines")


def test_every_name_the_benchmark_imports_resolves():
    # The benchmark's sources are read, never imported: it lives outside the
    # test paths, so an API deletion would otherwise break it silently.
    sources = sorted(PERFBENCH.glob("*.py"))
    seen, missing = 0, []
    for path in sources:
        for module, name in _fanolines_imports(path):
            seen += 1
            try:
                mod = importlib.import_module(module)
            except ImportError:
                missing.append(f"{path.name}: {module}")
                continue
            if name is not None and not hasattr(mod, name):
                missing.append(f"{path.name}: {module}.{name}")
    assert sources and seen, "no fanolines imports found under perfbench/"
    assert missing == []


def test_every_secant_global_the_benchmark_wraps_resolves():
    # The benchmark's `_Instrument` patches `secant_row` and the globals named
    # in its `NAMES` by getattr, which the import check above cannot see; a
    # rename would break only its traced runs.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "_Instrument")
    names = next(ast.literal_eval(node.value) for node in cls.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["NAMES"])
    strings = {node.value for node in ast.walk(cls) if isinstance(node, ast.Constant)}
    assert names and "secant_row" in strings
    wrapped = [*names, "secant_row"]
    assert [name for name in wrapped if not hasattr(secant, name)] == []


def test_no_module_holds_an_engine():
    # Every S computation runs on an engine its caller holds: importing the
    # package leaves no process-wide memo behind.
    held = []
    for info in pkgutil.walk_packages(fanolines.__path__, "fanolines."):
        mod = importlib.import_module(info.name)
        held += [f"{info.name}.{name}" for name, value in vars(mod).items()
                 if isinstance(value, ChainEngine)]
    assert held == []
