"""End-to-end CLI behaviour: text output, JSON schema, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from jsonschema import validate

import fanolines
from fanolines import cli
from fanolines.cli import _COMMANDS, DEPTH_CAP, SIZE_CAPS, TERM_INT_CAP, load_schema, main
from fanolines.dsl import parse_variety
from fanolines.families import no_rule_reason


@pytest.fixture(scope="module")
def schema():
    return load_schema()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rendered(argv, result) -> str:
    """The text the CLI prints for ``argv``, rendered from its JSON ``result``."""
    return _COMMANDS[argv[0]][1](result, "--quiet" in argv) + "\n"


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out)
    validate(doc, schema)
    return code, doc, err


# ---------------------------------------------------------------------------
# text mode


def test_s_command(capsys):
    code, out, _ = run(capsys, "s", "SG(2,7)")
    assert code == 0
    assert out.strip() == "S = 4 (exact)"


def test_s_lower_bound(capsys):
    code, out, _ = run(capsys, "s", "SG(3,7)")
    assert code == 0
    assert out.strip() == "S >= 1 (lower bound)"


def test_chain_command(capsys):
    code, out, _ = run(capsys, "chain", "Q(7)")
    assert code == 0
    assert out.strip() == "Q(7) ⊨ Q(5) ⊨ Q(3) ⊨ Q(1), S = 3"


def test_families_command(capsys):
    code, out, _ = run(capsys, "families", "G(2,5)")
    assert code == 0
    assert "Prod(P(1):1,P(2):1)" in out
    assert "span P^5 of P^5" in out


def test_families_no_rule_is_graceful(capsys):
    code, out, _ = run(capsys, "families", "SG(3,7)")
    assert code == 0
    assert "no family rule" in out


def test_families_uncovered_is_graceful(capsys):
    code, out, _ = run(capsys, "families", "Q(1)")
    assert code == 0
    assert "not covered by lines" in out


def test_cover_command(capsys):
    code, out, _ = run(capsys, "cover", "CI(2,2;7)")
    assert code == 0
    assert out.strip() == "covered by linear spaces of dimension at least 2"


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--dim", "3", "--s", "1", "--nmax", "8")
    assert code == 0
    for name in ("Q(3)", "CI(3;4)", "CI(2,2;5)", "LS(G(2,5),3)"):
        assert name in out


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "golden", "--nmax", "12", "--quiet")
    assert code == 0
    assert "0 failed" in out


def test_trace_command(capsys):
    code, out, _ = run(capsys, "trace", "Q(5)")
    assert code == 0
    assert "verdict: (a)" in out


def test_secant_command_echoes_seed(capsys):
    code, out, _ = run(capsys, "secant", "--kind", "segre", "-d", "2", "-m", "2",
                       "--seed", "42")
    assert code == 0
    assert "seed=42" in out
    assert "pass=True" in out


def test_secant_degree_one_is_reported_not_asserted(capsys):
    code, out, _ = run(capsys, "secant", "--kind", "scroll", "-d", "1", "-m", "3")
    assert code == 0
    assert "(reported)" in out


def test_secant_conic_is_reported_not_asserted(capsys):
    # m = 1 is a curve: the conic's secant fills its plane, dimension 2, not
    # 2m+1 = 3, so the row is reported like the d = 1 rows.
    code, out, _ = run(capsys, "secant", "--kind", "segre", "-d", "2", "-m", "1")
    assert code == 0
    assert "secant(terracini)=2 secant(chord)=2 (reported)" in out
    code, out, _ = run(capsys, "secant", "--kind", "segre", "-d", "2", "-m", "2")
    assert code == 0
    assert "expected=5 pass=True" in out


# ---------------------------------------------------------------------------
# exit codes


def test_validation_error_exits_2(capsys):
    code, _, err = run(capsys, "s", "G(0,3)")
    assert code == 2
    assert "terms:" in err


@pytest.mark.parametrize("expr, message", [
    ("PB(2,0)", "ProjBundleP1 twists must all be >= 1"),
    ("PB(3)", "ProjBundleP1 requires at least two twists"),
    ("CI(3,1;5)", "CompleteIntersection degrees must all be >= 2"),
    ("Prod(P(2):0,P(1):1)", "PolarizedProduct factors require n_i >= 1 and d_i >= 1"),
    ("Prod(P(2):1)", "PolarizedProduct requires at least two factors"),
])
def test_validation_messages_print_as_one_terms_line(capsys, expr, message):
    code, out, err = run(capsys, "s", expr)
    assert (code, out, err) == (2, "", f"terms: {message}\n")


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "s", "Q(3")
    assert code == 2
    assert "dsl:" in err


def test_usage_error_exits_2(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    capsys.readouterr()


#: A valid call of every subcommand but ``secant``, the only randomized one.
UNSEEDED = {
    "s": ["P(3)"], "chain": ["P(3)"], "families": ["P(3)"], "cover": ["P(3)"],
    "classify": ["--dim", "3", "--s", "1", "--nmax", "4", "--degmax", "2"],
    "verify": ["--suite", "golden", "--nmax", "2"], "trace": ["Q(5)"],
}


@pytest.mark.parametrize("command", sorted(UNSEEDED))
def test_seed_is_a_usage_error_outside_secant(capsys, command):
    assert {*UNSEEDED, "secant"} == set(_COMMANDS)
    argv = [command, *UNSEEDED[command]]
    assert main(argv) == 0
    capsys.readouterr()
    code, out, err = run(capsys, *argv, "--seed", "5")
    assert code == 2 and out == ""
    assert err.startswith("usage: fanolines ")
    assert err.endswith("error: unrecognized arguments: --seed 5\n")


# Each size option at its cap; the same command one above it must exit 2.
SIZE_CAPPED = [
    ("secant --kind scroll -m 2 -d {}", 12),
    ("secant --kind segre -d 2 -m {}", 12),
    ("secant --kind segre -d 2 -m 2 --trials {}", 8),
    ("classify --dim 3 --s 1 --degmax 2 --nmax {}", 32),
    ("classify --dim 3 --s 1 --nmax 6 --degmax {}", 5),
    ("verify --suite lemmas --degmax 2 --nmax {}", 32),
    ("verify --suite thm1 --nmax 6 --degmax {}", 5),
]


@pytest.mark.parametrize("command, cap", SIZE_CAPPED)
def test_size_at_cap_is_accepted(capsys, command, cap):
    code, out, err = run(capsys, *command.format(cap).split())
    assert code == 0
    assert out
    assert "Traceback" not in err


@pytest.mark.parametrize("command, cap", SIZE_CAPPED)
def test_size_above_cap_exits_2(capsys, command, cap):
    code, out, err = run(capsys, *command.format(cap + 1).split())
    assert code == 2
    assert out == ""
    flag = command.split()[-2]
    assert err == f"cli: {flag} {cap + 1} is above the cap {cap}; larger inputs are rejected\n"


# Term integers at the cap; the families of both have one entry per unit.
@pytest.mark.parametrize("expr", ["SG(2,1000000)", "CI(999998;1000000)"])
def test_term_integer_at_cap_is_accepted(capsys, expr):
    code, out, err = run(capsys, "families", expr)
    assert code == 0
    assert out.startswith(f"{expr}: 1 family(ies) in P^")
    assert err == ""


@pytest.mark.parametrize("expr, largest", [
    ("SG(2,1000001)", 1000001), ("CI(2;1000001)", 1000001),
    ("CI(1000001;1000002)", 1000002),
])
def test_term_integer_above_cap_exits_2(capsys, expr, largest):
    code, out, err = run(capsys, "families", expr)
    assert code == 2
    assert out == ""
    assert err == (f"cli: integer {largest} in the term is above the cap 1000000;"
                   " larger inputs are rejected\n")


def _fresh_cli(*argv, env: dict | None = None, stdout=subprocess.PIPE):
    src = str(Path(fanolines.__file__).parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "fanolines.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, env=env)


def test_oversized_secant_exits_2_from_a_fresh_process():
    proc = _fresh_cli("secant", "--kind", "scroll", "-d", "200", "-m", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["s", "chain", "families", "cover", "trace"])
def test_overlong_integer_is_a_parse_error_from_a_fresh_process(command):
    proc = _fresh_cli(command, "P(1" + "0" * 5000 + ")")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "dsl: integer of 5001 digits is too long (at position 2)\n"


def test_secant_seed_ignores_the_environment_from_a_fresh_process(monkeypatch):
    # The seed is --seed or DEFAULT_SEED: FANOLINES_SEED, integer or not,
    # changes neither the output nor the exit code.
    argv = ("secant", "--kind", "segre", "-d", "2", "-m", "2")
    monkeypatch.delenv("FANOLINES_SEED", raising=False)
    unset = _fresh_cli(*argv)
    assert unset.returncode == 0
    assert unset.stderr == ""
    assert " seed=20260809 " in unset.stdout  # DEFAULT_SEED
    for value in ("abc", "31337"):
        proc = _fresh_cli(*argv, env={"FANOLINES_SEED": value})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, unset.stdout, "")


#: One term per chain-walking command whose bound 1 + family_dim on the
#: chain invariant is DEPTH_CAP + 1.
ABOVE_DEPTH_CAP = [
    ("s", "P(200001)"), ("chain", "Q(200002)"), ("cover", "G(2,200002)"),
    ("trace", "SG(2,200003)"),
]


@pytest.mark.parametrize("argv", ABOVE_DEPTH_CAP)
def test_too_deep_terms_exit_2_without_a_traceback(argv):
    proc = _fresh_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"cli: the chain invariant of the term may reach {DEPTH_CAP + 1},"
                           f" above the cap {DEPTH_CAP}; larger inputs are rejected\n")


@pytest.mark.parametrize("argv", ABOVE_DEPTH_CAP)
def test_depth_cap_is_checked_before_the_engine_runs(capsys, monkeypatch, argv):
    def engine_ran(*_):
        raise AssertionError("the engine ran on a term above the depth cap")

    monkeypatch.setattr(cli, "ChainEngine", engine_ran)
    monkeypatch.setattr(cli, "classification_trace", engine_ran)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("cli: the chain invariant of the term may reach")


def test_depth_cap_bounds_the_invariant_not_the_dimension(capsys):
    # dim 999,999 with families of dimension 1: S <= 2, so the term answers.
    code, out, err = run(capsys, "s", "CI(999998;1000000)")
    assert (code, out, err) == (0, "S = 1 (exact)\n", "")


#: Deep queries a fresh process must answer, cold, under the default
#: recursion limit of 1,000 frames.  The invariant walks each single-family
#: run in a loop and the witness walk extends its path in place, so S does
#: not spend a stack frame per chain step: S = 2,000 answers as S = 900
#: does, and so does S = DEPTH_CAP.  Each maps to its closed form: S(P^n) =
#: n, S(Q^n) = floor(n/2), S(G(2,m+2)) = m and S(SG(2,m+3)) = m, and the
#: traces of Q^(2m+1) and SG(2,m+3) end in verdicts (a) and (b).
DEEP_ANSWERS = [
    (("s", "P(900)"), {"s": {"kind": "exact", "value": 900}}),
    (("chain", "Q(1800)"), {"s": {"kind": "exact", "value": 900}, "length": 901}),
    (("cover", "G(2,902)"), {"at_least": 900}),
    (("s", "SG(2,903)"), {"s": {"kind": "exact", "value": 900}}),
    (("trace", "Q(1801)"), {"verdict": "a", "length": 901}),
    (("trace", "SG(2,903)"), {"verdict": "b", "length": 901}),
    (("s", "P(2000)"), {"s": {"kind": "exact", "value": 2000}}),
    (("chain", "P(2000)"), {"s": {"kind": "exact", "value": 2000}, "length": 2001}),
    (("cover", "P(2000)"), {"at_least": 2000}),
    (("trace", "Q(2001)"), {"verdict": "a", "length": 1001}),
    (("s", f"P({DEPTH_CAP})"), {"s": {"kind": "exact", "value": DEPTH_CAP}}),
]


@pytest.mark.parametrize("argv, expected", DEEP_ANSWERS)
def test_deep_terms_answer_from_a_fresh_process(argv, expected):
    proc = _fresh_cli(*argv, "--json")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    got = {key: result[key] for key in expected if key != "length"}
    if "length" in expected:
        got["length"] = len(result["chain"] if argv[0] == "chain" else result["chain_dims"])
    assert got == expected


def test_golden_bounds_are_validated(capsys):
    code, out, err = run(capsys, "verify", "--suite", "golden", "--nmax", "-5")
    assert code == 2
    assert out == ""
    assert "n_max >= 1" in err
    code, out, _ = run(capsys, "verify", "--suite", "golden", "--nmax", "1")
    assert code == 0
    assert out.startswith("suite golden (m_max=1, n_max=1) 2 passed, 0 failed")


@pytest.mark.parametrize("argv, component", [
    (("verify", "--suite", "golden", "--nmax", "-5"), "checks"),
    (("verify", "--suite", "thm1", "--nmax", "1"), "catalog"),
    (("classify", "--dim", "3", "--s", "1", "--degmax", "1"), "catalog"),
    (("secant", "--kind", "segre", "-d", "2", "-m", "2", "--trials", "2"), "secant"),
    (("secant", "--kind", "segre", "-d", "0", "-m", "2"), "secant"),
])
def test_bound_errors_name_the_component_at_fault(capsys, argv, component):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{component}: ") and err.count("\n") == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv, err_line", [
    (("classify", "--dim", "-5", "--s", "3"), "cli: --dim -5 must be at least 0\n"),
    (("classify", "--dim", "5", "--s", "-3"), "cli: --s -3 must be at least 0\n"),
])
def test_negative_classify_values_exit_2(capsys, argv, err_line, json_flag):
    # The same rule as the size options: out-of-range values exit 2 with one line.
    code, out, err = run(capsys, *argv, *json_flag)
    assert (code, out, err) == (2, "", err_line)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("expr, char", [("P(١٢)", "١"), ("P(３)", "３")])
def test_non_ascii_digits_are_a_parse_error(capsys, expr, char, json_flag):
    code, out, err = run(capsys, "s", expr, *json_flag)
    assert (code, out) == (2, "")
    assert err == f"dsl: unexpected character {char!r} (at position 2)\n"


def test_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "chain", "pt")
    assert code == 1
    assert "families:" in err
    code, _, err = run(capsys, "trace", "Q(4)")
    assert code == 1
    assert "checks:" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("code", [0, 1])
def test_a_closed_stdout_keeps_the_exit_code_without_a_traceback(monkeypatch, json_flag,
                                                                  code):
    # `fanolines ... | head` closes the pipe before the output is written.
    # The handler of `s` is replaced so that the code-1 path prints too.
    if code:
        monkeypatch.setitem(_COMMANDS, "s", (lambda args: (1, {"s": "x" * 10**5}),
                                             lambda result, quiet: result["s"]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(BrokenPipeError):  # the writer does raise
            print("x", file=stdout, flush=True)
        assert main(["s", "Q(7)", *json_flag]) == code
        # stdout now writes to os.devnull, so the flush at exit succeeds
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        stdout.flush()


def test_a_closed_pipe_prints_nothing_to_stderr_from_a_fresh_process():
    # Without the handler, the flush at exit prints "Exception ignored".
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        proc = _fresh_cli("verify", "--suite", "lemmas", "--nmax", "2", "--degmax", "2",
                          stdout=stdout)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_stdout_without_the_turnstile_gets_its_escape(monkeypatch):
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["chain", "Q(5)"]) == 0
    stdout.flush()
    assert buffer.getvalue() == b"Q(5) \\u22a8 Q(3) \\u22a8 Q(1), S = 2\n"


def test_an_ascii_stdout_prints_no_traceback_from_a_fresh_process():
    proc = _fresh_cli("chain", "Q(5)", env={"PYTHONIOENCODING": "ascii"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "Q(5) \\u22a8 Q(3) \\u22a8 Q(1), S = 2\n", "")


# ---------------------------------------------------------------------------
# structured mode


def test_json_s(capsys, schema):
    code, doc, _ = run_json(capsys, schema, "s", "SG(2,7)")
    assert code == 0
    assert doc["command"] == "s"
    assert doc["result"]["s"] == {"kind": "exact", "value": 4}
    assert doc["result"]["canonical"] == "SG(2,7)"


def test_json_chain_encodes_the_same_facts_as_text(capsys):
    code, out, _ = run(capsys, "chain", "SG(2,6)")
    text_chain = [part.strip() for part in out.rsplit(", S", 1)[0].split("⊨")]
    code, out, _ = run(capsys, "chain", "SG(2,6)", "--json")
    doc = json.loads(out)
    assert doc["result"]["chain"] == text_chain
    assert doc["result"]["s"]["value"] == 3


def test_json_families(capsys, schema):
    code, doc, _ = run_json(capsys, schema, "families", "Prod(P(1):1,P(3):1)")
    assert code == 0
    fams = doc["result"]["families"]
    assert [f["variety"] for f in fams] == ["pt", "P(2)"]
    assert [f["span_in_pt"] for f in fams] == [0, 2]


@pytest.mark.parametrize("expr", ["SG(3,7)", "LS(G(2,5),2)", "Q(1)", "G(2,5)"])
def test_json_families_carries_the_no_rule_reason_its_text_prints(capsys, schema, expr):
    code, doc, _ = run_json(capsys, schema, "families", expr)
    result = doc["result"]
    if result["no_rule"]:
        assert result["no_rule_reason"] == no_rule_reason(parse_variety(expr))
        _, out, _ = run(capsys, "families", expr)
        assert result["no_rule_reason"] in out
    else:
        assert result["no_rule_reason"] is None


def test_json_cover(capsys, schema):
    code, doc, _ = run_json(capsys, schema, "cover", "Q(6)")
    assert doc["result"]["at_least"] == 3


def test_json_classify(capsys, schema):
    code, doc, _ = run_json(capsys, schema, "classify", "--dim", "7", "--s", "3",
                            "--nmax", "12")
    assert set(doc["result"]["members"]) == {"Q(7)", "SG(2,6)"}


def test_json_verify(capsys, schema):
    code, doc, _ = run_json(capsys, schema, "verify", "--suite", "lemmas",
                            "--nmax", "6", "--degmax", "3")
    assert code == 0
    assert doc["result"]["ok"] is True
    assert doc["result"]["failed"] == 0
    assert "proper_linear_vacuous" in doc["result"]["counters"]


def test_json_trace(capsys, schema):
    code, doc, _ = run_json(capsys, schema, "trace", "SG(2,6)")
    assert doc["result"]["verdict"] == "b"
    assert doc["result"]["conjecture_used"] is True
    assert doc["result"]["chain_dims"] == [7, 3, 1, 0]


def test_json_secant(capsys, schema):
    code, doc, _ = run_json(capsys, schema, "secant", "--kind", "scroll",
                            "-d", "3", "-m", "2", "--seed", "7")
    assert code == 0
    assert doc["seed"] == 7
    assert doc["result"]["secant_terracini"] == 5
    assert doc["result"]["expected"] == 5
    assert doc["result"]["pass"] is True


# ---------------------------------------------------------------------------
# generated inputs: the exit-code contract and text/JSON parity


small_ints = st.integers(0, 64).map(str)


def _int_list(size: int):
    return st.lists(small_ints, min_size=1, max_size=size).map(",".join)


#: Terms from the grammar, every integer in 0..64, valid or not.
grammar_terms = st.one_of(
    st.just("pt"),
    st.builds("P({})".format, small_ints),
    st.builds("Q({})".format, small_ints),
    st.builds("G({},{})".format, small_ints, small_ints),
    st.builds("SG({},{})".format, small_ints, small_ints),
    st.builds("CI({};{})".format, _int_list(3), small_ints),
    st.builds("Prod({})".format, st.lists(st.builds("P({}):{}".format, small_ints, small_ints),
                                          min_size=1, max_size=3).map(",".join)),
    st.builds("PB({})".format, _int_list(4)),
    st.builds("LS(G(2,5),{})".format, small_ints),
)

#: Deep terms by the invariant S they reach: S(P^s) = s, S(Q^(2s+1)) = s,
#: S(G(2,s+2)) = s and S(SG(2,s+3)) = s.  S is drawn at depth (1,000 to
#: 3,000), or with the bound 1 + family_dim above DEPTH_CAP, where the
#: commands that walk chains reject the term; every integer stays within
#: TERM_INT_CAP.
deep_terms = st.builds(
    lambda form, s: form(s),
    st.sampled_from(["P({})".format, lambda s: f"Q({2 * s + 1})",
                     lambda s: f"G(2,{s + 2})", lambda s: f"SG(2,{s + 3})"]),
    st.one_of(st.integers(1000, 3000), st.integers(DEPTH_CAP + 1, TERM_INT_CAP // 2 - 2)),
)

#: Characters a mutation may insert: the grammar's symbols, digits and the
#: letters of its names, a space and a few the grammar lacks ("-" is left
#: out: argparse reads a leading one as an option, and usage errors are its own).
_MUTANT_CHARS = "(),;:PQGSCIBLrodt0123456789 x.+３"


@st.composite
def mutated_terms(draw):
    term = draw(deep_terms if draw(st.integers(0, 9)) == 9 else grammar_terms)  # deep: rare
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # most terms kept whole
        i = draw(st.integers(0, len(term)))
        op = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if op == "insert":
            term = term[:i] + draw(st.sampled_from(_MUTANT_CHARS)) + term[i:]
        elif op == "delete":
            term = term[:i] + term[i + 1:]
        else:
            term = term[:i] + term[i:i + 3] + term[i:]
    return term


def size_flag(command: str, flag: str, small: int):
    """A size option drawn in range (1 to ``small``, to keep each call
    cheap; the caps themselves are tested above), negative, or above its cap,
    the first most often."""
    cap = SIZE_CAPS[command][flag]
    values = {"in range": st.integers(1, small), "negative": st.integers(-1000, -1),
              "above the cap": st.integers(cap + 1, cap + 1000)}
    kinds = st.sampled_from(["in range"] * 3 + ["negative", "above the cap"])
    return kinds.flatmap(values.get).map(lambda v: [flag, str(v)])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [w for part in ps for w in part])


#: Argv strategies for the commands that take no term.
OPTION_ARGVS = {
    "classify": _argv(
        st.just(["classify"]),
        st.integers(-3, 12).map(lambda v: ["--dim", str(v)]),
        st.integers(-3, 12).map(lambda v: ["--s", str(v)]),
        size_flag("classify", "--nmax", 8), size_flag("classify", "--degmax", 3),
    ),
    "verify": _argv(
        st.sampled_from(["thm1", "prop32", "lemmas", "golden"]).map(
            lambda v: ["verify", "--suite", v]),
        size_flag("verify", "--nmax", 8), size_flag("verify", "--degmax", 3),
        st.sampled_from([[], ["--quiet"]]),
    ),
    "secant": _argv(
        st.sampled_from(["segre", "scroll"]).map(lambda v: ["secant", "--kind", v]),
        size_flag("secant", "-d", 4), size_flag("secant", "-m", 4),
        size_flag("secant", "--trials", 5),
        st.sampled_from([[], ["--seed", "7"], ["--seed", "-12345678901234567890"]]),
    ),
}

#: Every subcommand, equally often.
cli_argvs = st.sampled_from(["s", "chain", "families", "cover", "trace", *OPTION_ARGVS]).flatmap(
    lambda cmd: OPTION_ARGVS[cmd] if cmd in OPTION_ARGVS
    else mutated_terms().map(lambda term: [cmd, term]))


def _call(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=60, deadline=None)
@given(cli_argvs)
def test_generated_inputs_keep_the_exit_code_contract(schema, argv):
    code, out, err = _call(argv)
    json_code, json_out, json_err = _call([*argv, "--json"])
    assert code in (0, 1, 2) and (json_code, json_err) == (code, err)
    assert "Traceback" not in err
    if err:  # an error, of the input (2) or of the domain (1)
        assert code != 0 and out == json_out == ""
        assert re.fullmatch(r"[a-z]+: [^\n]+\n", err), err
    else:  # an answer, or a verification with failures (1)
        doc = json.loads(json_out)
        validate(doc, schema)
        assert out == rendered(argv, doc["result"])
