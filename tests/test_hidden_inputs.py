"""No hidden inputs: the package and the scripts read no environment variable.

Every input of a run is an argument the user can see, such as ``secant
--seed``, so a result never depends on the shell it was started from.  The
check reads the source with ``ast``: an ``os.environ`` or ``os.getenv``
access, or a ``from os import`` of either, anywhere in a module fails it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "fanolines").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.AST) -> list[int]:
    """Line numbers at which a module reads the process environment."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names if alias.name in ENVIRONMENT]
    return sorted(lines)


def test_no_module_reads_the_environment():
    names = {path.name for path in MODULES}
    assert {"cli.py", "secant.py", "run_suites.py", "chain_gallery.py"} <= names
    reads = [f"{path.relative_to(ROOT)}:{line}" for path in MODULES
             for line in _environment_reads(ast.parse(path.read_text(), str(path)))]
    assert reads == []


def test_the_check_sees_each_form_of_read():
    source = ("import os\nfrom os import getenv\n"
              "a = os.environ.get('X')\nb = os.getenv('X')\nc = os.environ['X']\n")
    assert _environment_reads(ast.parse(source)) == [2, 3, 4, 5]
