"""Byte-level pins of the showcase outputs and of the term tables.

The digests below were recorded before the classification lists, the
exact-or-bound type and the chain walk were each given a single definition.
Refactors of the engine must leave every one of these outputs unchanged:
the gallery script's stdout, the JSON reports of ``run_suites.py`` and the
CLI's text and ``--json`` answers for every showcase term.  The term-table
digest was recorded before each constructor carried its own invariants; it
covers every invariant of every term of ``build_catalog(20, 5)`` and of the
non-normal, non-Fano and ruleless presentations listed below.  It was
re-recorded once, when ``max_linear_in`` began to ask the normal form: four
non-normal rows changed, ``CI(2;2)``, ``CI(2;3)`` and ``CI(2;9)`` from a
lower bound to the quadric's exact value and ``LS(G(2,5),0)`` to the
Grassmannian's, and no other row moved.  It was re-recorded a second time,
when a point got family dimension -1 in place of an error: the four point
rows (``pt`` and ``P(0)``, each listed twice) changed their family-dimension
cell from ``NoLineFamily`` to ``-1``, and no other cell moved.  It was
re-recorded a third time, when the point became P^0, ``LinearSpace(0)``: the
two ``P(0)`` rows (31,926 and 31,953) now print their first cell as ``pt``,
and no other cell or row moved.  The family-outcome digest was recorded
before the family rules became a table keyed on the constructor; it covers
every family, or the reason a chain ends, of every term of
``build_catalog(20, 5)`` and of the edge cases listed below.  It was
re-recorded once, when the point became P^0: the row ``P(0)|is_point`` (row
31,927) became ``pt|is_point``, and no other row moved.
The rule-provenance digest, of ``json.dumps(RULE_PROVENANCE)``, was recorded
before the rules, their ``NoRule`` texts and their provenance rows became one
table.  It was re-recorded once, when the ruleless codimension-2 section of
G(2,5) got its own ``"none"`` row: the ``LinearSectionG25`` row became
``LinearSectionG25 (c = 0, 1, 3)``, its ``family`` text no longer names
c = 2 and its ``note`` keeps only c = 4, and a ``LinearSectionG25 (c = 2)``
row with status ``"none"`` follows it; no other row moved.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fanolines.catalog import build_catalog
from fanolines.chains import max_linear_in
from fanolines.cli import main
from fanolines.dsl import to_text
from fanolines.families import RULE_PROVENANCE, FamilyRecord, family_outcome
from fanolines.terms import (
    LinearSectionG25,
    LinearSpace,
    Quadric,
    SympGrassmann,
    ambient_dim,
    covered_by_lines,
    dim,
    family_dim,
    is_fano,
    is_linear,
    normalize,
    picard_number,
)
from test_cli import rendered
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
    "cli classify":
        "ceb0b52ec9b1c34ffbaef322941558ab72eae985db17468ed2aee691a89c8641",
    "cli verify":
        "166f02d68eeee9e590830c8af1b11b367c430f1ca137609190c5d717553aaacb",
    "cli secant":
        "d1b2f6cfc16ad69f5d200d3afd2544228bf3bb6c84642b76801f388c7fba1635",
    "cli domain errors":
        "87db9864a76d2d1550ffc3bfbe8ced1bb1e17c812bab3c0cb804c5a0c10658f9",
    "term tables":
        "4dae57e9726e69b83a37c275ae1ab11498d2afa2967a599700df20271099078c",
    "family outcomes":
        "f3c3d5be956778c6c1daa8d8a225d1368a8882f04d254a258e1053b149438992",
    "rule provenance":
        "880e64fcdacfac2e5d3d81bb8263cb2b8bc288f87dfcf3da499c740b5ce32981",
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


def _transcript(argvs) -> bytes:
    """Exit code, stdout and stderr of every argv in ``argvs``, as text and
    as JSON.  Each answer's text must be the one rendered from its JSON."""
    out = []
    for base in argvs:
        runs = []
        for flags in ([], ["--json"]):
            argv = [*base, *flags]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            runs.append((stdout.getvalue(), stderr.getvalue()))
            out.append(f"$ {' '.join(argv)}\n{code}\n{stdout.getvalue()}{stderr.getvalue()}")
        (text, err), (doc, _) = runs
        if not err:
            assert text == rendered(base, json.loads(doc)["result"]), base
    return "".join(out).encode()


def _cli_transcript(command: str, extra: tuple[str, ...] = ()) -> bytes:
    """The transcript of ``command`` on every showcase term and on ``extra``."""
    return _transcript([command, expr] for expr in [*_showcase(), *extra])


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


def test_chain_gallery_prints_one_line_per_bad_expression_and_goes_on():
    # Q(1) has 2S = n - 1 but no trace, which needs n >= 3.
    done = subprocess.run([sys.executable, str(SCRIPTS / "chain_gallery.py"), "X(1)", "Q(1)"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == "dsl: unknown constructor 'X' (at position 0)\n"
    assert done.stdout == ("Q(1)  (dim 1, rho 1)\n"
                           "  S = 0 (exact); covered by linear spaces of dimension >= 0\n"
                           "  chain: (Q(1) is not covered by lines)\n\n")


def test_run_suites_prints_one_line_on_a_bad_bound():
    done = subprocess.run([sys.executable, str(SCRIPTS / "run_suites.py"), "--nmax", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == "catalog: build_catalog requires n_max >= 2 and deg_max >= 2\n"
    assert done.stdout == ""


def test_chain_gallery_applies_the_cli_caps():
    # Each expression is parsed under the CLI's caps: a rejected one prints
    # its cli: line at once, and the gallery goes on with the others.
    done = subprocess.run([sys.executable, str(SCRIPTS / "chain_gallery.py"),
                           "Q(99999999)", "Q(400001)", "P(1)"],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stderr == (
        "cli: integer 99999999 in the term is above the cap 1000000;"
        " larger inputs are rejected\n"
        "cli: the chain invariant of the term may reach 400000, above the cap 200000;"
        " larger inputs are rejected\n")
    assert done.stdout == ("P(1)  (dim 1, rho 1)\n"
                           "  S = 1 (exact); covered by linear spaces of dimension >= 1\n"
                           "  chain: P(1) ⊨ pt\n\n")


def test_run_suites_checks_the_golden_bounds_before_the_catalog():
    done = subprocess.run([sys.executable, str(SCRIPTS / "run_suites.py"), "--golden-nmax", "-1"],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stderr == ("checks: golden suite requires n_max >= 1 and m_max >= 0,"
                           " got -1 and 15\n")
    assert done.stdout == ""  # no catalog: line, as no catalog was built


@pytest.mark.parametrize("command", ["s", "chain", "cover", "trace"])
def test_cli_answers_on_the_showcase_terms_are_pinned(command):
    assert _sha(_cli_transcript(command)) == PINNED[f"cli {command}"]



def test_cli_families_on_the_showcase_and_no_family_terms_is_pinned():
    transcript = _cli_transcript("families", tuple(NO_FAMILY_TERMS))
    assert _sha(transcript) == PINNED["cli families"]


#: The commands that take no term, each with its error cases, and the domain
#: errors of the term commands.  Recorded before the handlers returned one
#: payload each and the text was rendered from it.
PINNED_RUNS = {
    "cli classify": [
        "classify --dim 3 --s 1",
        "classify --dim 7 --s 3",
        "classify --dim 6 --s 3 --nmax 10 --degmax 3",
        "classify --dim 5 --s 0",
        "classify --dim 2 --s 5 --nmax 6 --degmax 2",
        "classify --dim -5 --s 3",
        "classify --dim 3 --s 1 --degmax 1",
        "classify --dim 3 --s 1 --nmax 33",
    ],
    "cli verify": [
        "verify --suite thm1 --nmax 8 --degmax 3",
        "verify --suite thm1 --nmax 8 --degmax 3 --quiet",
        "verify --suite prop32 --nmax 6 --degmax 2",
        "verify --suite prop32 --nmax 6 --degmax 2 --quiet",
        "verify --suite lemmas --nmax 6 --degmax 3",
        "verify --suite lemmas --nmax 6 --degmax 3 --quiet",
        "verify --suite golden --nmax 6",
        "verify --suite golden --nmax 6 --quiet",
        "verify --suite golden --nmax -5",
        "verify --suite thm1 --nmax 1",
        "verify --suite lemmas --degmax 6",
    ],
    "cli secant": [
        "secant --kind segre -d 2 -m 2",
        "secant --kind scroll -d 3 -m 3",
        "secant --kind segre -d 2 -m 3 --seed 7 --trials 4",
        "secant --kind segre -d 1 -m 3",
        "secant --kind scroll -d 2 -m 1",
        "secant --kind segre -d 2 -m 2 --trials 2",
        "secant --kind scroll -d 0 -m 2",
        "secant --kind scroll -d 13 -m 2",
    ],
    "cli domain errors": ["chain pt", "trace Q(4)"],
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_cli_runs_without_a_term_and_domain_errors_are_pinned(name, monkeypatch):
    monkeypatch.delenv("FANOLINES_SEED", raising=False)  # secant echoes the default seed
    transcript = _transcript(argv.split() for argv in PINNED_RUNS[name])
    assert _sha(transcript) == PINNED[name]


def test_term_tables_are_pinned():
    terms = [*build_catalog(20, 5), *NON_NORMAL_PRESENTATIONS, *NON_FANO_TERMS,
             LinearSpace(0), LinearSpace(0), SympGrassmann(3, 7), LinearSectionG25(2)]
    rows = [
        "|".join(map(str, (
            to_text(v), dim(v), ambient_dim(v), picard_number(v), is_fano(v),
            family_dim(v), max_linear_in(v), to_text(normalize(v)),
            covered_by_lines(v), is_linear(v),
        )))
        for v in terms
    ]
    assert _sha("\n".join(rows).encode()) == PINNED["term tables"]


def test_family_outcomes_are_pinned():
    # Each family is wrapped in a validated FamilyRecord, so this also
    # range-checks every rule output over the whole catalog.
    terms = [*build_catalog(20, 5), LinearSpace(0), LinearSpace(0), Quadric(1), Quadric(2),
             SympGrassmann(3, 7), LinearSectionG25(2), LinearSectionG25(4)]
    rows = []
    for v in terms:
        fams, end = family_outcome(v)
        records = [FamilyRecord(*fam) for fam in fams]
        cells = [f"{to_text(f.variety)}:{f.ambient_pt_dim}:{f.span_in_pt}" for f in records]
        rows.append("|".join([to_text(v), *(cells or [end])]))
    assert _sha("\n".join(rows).encode()) == PINNED["family outcomes"]


def test_rule_provenance_is_pinned():
    assert _sha(json.dumps(RULE_PROVENANCE).encode()) == PINNED["rule provenance"]
