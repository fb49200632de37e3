"""Byte-level pins of the showcase outputs and of the term tables.

The digests below were recorded before the classification lists, the
exact-or-bound type and the chain walk were each given a single definition.
Refactors of the engine must leave every one of these outputs unchanged:
the gallery script's stdout, the JSON reports of ``run_suites.py`` and the
CLI's text and ``--json`` answers for every showcase term.  The term-table
digest was recorded before each constructor carried its own invariants; it
covers every invariant of every term of ``build_catalog(20, 5)`` and of the
non-normal, non-Fano and ruleless presentations listed below.  The
family-outcome digest was recorded before the family rules became a table
keyed on the constructor; it covers every family, or the reason a chain ends,
of every term of ``build_catalog(20, 5)`` and of the edge cases listed below.
"""

import contextlib
import hashlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

from fanolines.catalog import build_catalog
from fanolines.cli import main
from fanolines.dsl import to_text
from fanolines.errors import EngineError
from fanolines.families import FamilyRecord, family_outcome
from fanolines.terms import (
    LinearSectionG25,
    LinearSpace,
    Point,
    Quadric,
    SympGrassmann,
    ambient_dim,
    covered_by_lines,
    dim,
    family_dim,
    is_fano,
    is_linear,
    max_linear_in,
    normalize,
    picard_number,
)
from test_terms import NON_FANO_TERMS, NON_NORMAL_PRESENTATIONS

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

PINNED = {
    "chain_gallery":
        "c6f73b3c3e59e9460d5281369e02e28292801814f2d6f16805319dc89f5581cd",
    "run_suites_json":
        "e626d5ec6890f677310fbdfc1e35de3ee9506eaf6a005dc14e65d37806d8ea79",
    "cli s":
        "110abcfae40c1a6d01f1233b0d3989d8ce5b3d764bb9557454d6b9ba20225804",
    "cli chain":
        "fe89a41db8f3c92d7c077effbf6823a715e062fd6497f1a6f2dee931fa5dd869",
    "cli cover":
        "03ec71f5428e3d41a1323cf6b2c6cf5575c8fd6602f4978d7ab442bbba49233c",
    "cli families":
        "428235ec99f2231b0f861b0903a6ed2db7700e4b964b0e1dcd1eaf57493e0dd6",
    "cli trace":
        "0a498559588b54b23a7750ec0192ed8663e657be9d6e2d9de3933c4d8a92be4e",
    "term tables":
        "f20001ab21096cc01a85fcaaca6b102315786a90637ba0900f40326809a2b212",
    "family outcomes":
        "48cd478a7565b3640d43091523fef4b803f2b1cd79122656c4a616977b42b356",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _showcase() -> list[str]:
    spec = importlib.util.spec_from_file_location("chain_gallery", SCRIPTS / "chain_gallery.py")
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    return gallery.SHOWCASE


#: Terms with no family to print: uncovered (a point, a conic, the del Pezzo
#: surface, a product with no degree-1 factor) and covered without a rule.
NO_FAMILY_TERMS = ["pt", "Q(1)", "LS(G(2,5),4)", "Prod(P(2):2,P(3):2)", "SG(3,7)"]


def _cli_transcript(command: str, extra: tuple[str, ...] = ()) -> bytes:
    """Exit code, stdout and stderr of ``command`` on every showcase term and
    on ``extra``, as text and as JSON."""
    out = []
    for expr in [*_showcase(), *extra]:
        for flags in ([], ["--json"]):
            argv = [command, expr, *flags]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            out.append(f"$ {' '.join(argv)}\n{code}\n{stdout.getvalue()}{stderr.getvalue()}")
    return "".join(out).encode()


def test_chain_gallery_stdout_is_pinned():
    done = subprocess.run([sys.executable, str(SCRIPTS / "chain_gallery.py")],
                          capture_output=True, check=True)
    assert _sha(done.stdout) == PINNED["chain_gallery"]


def test_run_suites_json_report_is_pinned(tmp_path):
    out = tmp_path / "reports.json"
    subprocess.run([sys.executable, str(SCRIPTS / "run_suites.py"), "--nmax", "15",
                    "--degmax", "4", "--json-out", str(out)],
                   capture_output=True, check=True)
    assert _sha(out.read_bytes()) == PINNED["run_suites_json"]


@pytest.mark.parametrize("command", ["s", "chain", "cover", "trace"])
def test_cli_answers_on_the_showcase_terms_are_pinned(command):
    assert _sha(_cli_transcript(command)) == PINNED[f"cli {command}"]



def test_cli_families_on_the_showcase_and_no_family_terms_is_pinned():
    transcript = _cli_transcript("families", tuple(NO_FAMILY_TERMS))
    assert _sha(transcript) == PINNED["cli families"]


def _family_dim_or_error(v) -> str:
    try:
        return str(family_dim(v))
    except EngineError as err:
        return type(err).__name__


def test_term_tables_are_pinned():
    terms = [*build_catalog(20, 5), *NON_NORMAL_PRESENTATIONS, *NON_FANO_TERMS,
             Point(), LinearSpace(0), SympGrassmann(3, 7), LinearSectionG25(2)]
    rows = [
        "|".join(map(str, (
            to_text(v), dim(v), ambient_dim(v), picard_number(v), is_fano(v),
            _family_dim_or_error(v), max_linear_in(v), to_text(normalize(v)),
            covered_by_lines(v), is_linear(v),
        )))
        for v in terms
    ]
    assert _sha("\n".join(rows).encode()) == PINNED["term tables"]


def test_family_outcomes_are_pinned():
    # Each family is wrapped in a validated FamilyRecord, so this also
    # range-checks every rule output over the whole catalog.
    terms = [*build_catalog(20, 5), Point(), LinearSpace(0), Quadric(1), Quadric(2),
             SympGrassmann(3, 7), LinearSectionG25(2), LinearSectionG25(4)]
    rows = []
    for v in terms:
        fams, end = family_outcome(v)
        records = [FamilyRecord(*fam) for fam in fams]
        cells = [f"{to_text(f.variety)}:{f.ambient_pt_dim}:{f.span_in_pt}" for f in records]
        rows.append("|".join([to_text(v), *(cells or [end])]))
    assert _sha("\n".join(rows).encode()) == PINNED["family outcomes"]
