"""Command-line front end.

Subcommands expose every engine operation; ``--json`` switches any of them
to a structured envelope that validates against the schema shipped at
``fanolines/schemas/cli_output.schema.json``.  Exit codes: 0 on success or
an all-pass verification (``verify``, ``suites``), 1 on verification
failures and domain errors, 2 on usage, parse, or term-validation errors, on
sizes above ``SIZE_CAPS`` or integers above ``TERM_INT_CAP``, on a negative
``classify --dim`` or ``--s``, on a ``suites --json-out`` file that cannot be
written, and, for ``s``, ``chain``, ``cover`` and ``trace``, on a covered
term whose chain invariant may exceed ``DEPTH_CAP``.

Each subcommand is a handler and a renderer, paired in ``_COMMANDS``.  The
handler returns the exit code and one payload, the envelope's ``result``;
the renderer writes the text from that payload alone (and ``quiet``: set by
``verify --quiet``, cleared by ``suites --verbose``).

The seeded commands are ``secant`` and ``suites``, whose secant suite draws
random ranks; the seed is ``--seed``, or ``DEFAULT_SEED`` when the option is
not given, and each echoes the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from importlib import resources
from itertools import islice

from .catalog import build_catalog
from .chains import ChainEngine
from .checks import SUITES, classify_by_s, golden_suite, run_suite
from .dsl import parse_variety, to_text
from .errors import EngineError, ParseError, ValidationError
from .families import FamilyRecord, family_outcome, no_rule_reason
from .reports import report_text
from .secant import (DEFAULT_PRIMES, DEFAULT_SEED, RankConfig, expected_secant_dim,
                     secant_row, segre_veronese, scroll, verify_secant_dimensions)
from .terms import Bound, normalize, s_ceiling
from .trace import classification_trace

CHAIN_SYMBOL = " ⊨ "  # the "has a family of lines" turnstile

#: Largest accepted value of each size option, per subcommand.  On a 2-vCPU
#: shared Xeon host with Python 3.11.7 (3 runs each, wall time and max RSS
#: of the process) the largest accepted inputs take under 1 s and 25 MB a
#: process: ``secant --kind scroll -d 12 -m 12 --trials 8`` 0.19 to 0.26 s
#: and 16.2 to 16.3 MB, and at these caps ``verify --suite prop32`` 0.19 to
#: 0.30 s and 21.6 to 21.9 MB, ``classify --dim 9 --s 4`` 0.16 to 0.24 s
#: and 20.9 to 21.2 MB, and ``suites`` 0.32 to 0.34 s and 24.3 MB (golden
#: bounds of 500 took 26.4 MB).  ``suites --json`` streams its envelope, 0.39
#: to 0.44 s and 24.3 to 24.4 MB; ``--verbose`` holds its whole text at once,
#: 25.0 MB.  Beyond them the time grows (with the secant coordinate count
#: (d+1)m+1 times the Jacobian width 2m+2, and steeply in both catalog
#: bounds), so larger inputs are rejected, not run.
SIZE_CAPS = {
    "secant": {"-d": 12, "-m": 12, "--trials": 8},
    "classify": {"--nmax": 32, "--degmax": 5},
    "verify": {"--nmax": 32, "--degmax": 5},
    "suites": {"--nmax": 32, "--degmax": 5, "--golden-nmax": 200, "--golden-mmax": 200},
}

#: Largest integer in a term expression: some families have one entry per unit
#: of it (SG(2,N), CI(d;N)).  At the cap the slowest term command measured,
#: ``chain 'CI(999998;1000000)' --json``, takes 0.32 to 0.45 s on the same host.
TERM_INT_CAP = 10**6

#: Largest accepted ceiling on the chain invariant, ``terms.s_ceiling(term)``
#: (1 + family_dim(term) on a covered term), for the commands that walk its
#: chains (``s``, ``chain``, ``cover``, ``trace``).  At the cap, on the same
#: host (6 runs each, wall time and max RSS of the process, on a host whose
#: speed varied between runs), ``s 'P(200000)'`` takes 0.58 to 0.97 s and
#: 64 MB, ``chain 'P(200000)' --json`` 0.91 to 1.37 s and 90 to 92 MB,
#: ``cover 'SG(2,200002)'`` 0.57 to 0.96 s and 70 MB and ``trace
#: 'SG(2,200002)'`` 0.98 to 1.19 s and 98 MB; the time and the memo grow
#: linearly in the chain length.  The bound is S's own, not the dimension, so
#: a high-dimensional term with a short chain, such as ``CI(999998;1000000)``,
#: still answers (``s`` in 0.23 to 0.37 s).  On quadrics it is about twice
#: S, so ``Q(200001)`` (S = 100000) is the deepest quadric accepted.
DEPTH_CAP = 200_000


def schema_path():
    return resources.files("fanolines").joinpath("schemas/cli_output.schema.json")


def load_schema() -> dict:
    return json.loads(schema_path().read_text())


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a structured JSON envelope instead of text")

    parser = argparse.ArgumentParser(
        prog="fanolines",
        description="Chains of families of lines on embedded Fano manifolds:"
                    " invariants, witness chains, classification sweeps and"
                    " exact secant-dimension checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("s", parents=[common], help="chain invariant of a term")
    p.add_argument("expr")

    p = sub.add_parser("chain", parents=[common], help="witness chain of a term")
    p.add_argument("expr")

    p = sub.add_parser("families", parents=[common],
                       help="families of lines through a general point")
    p.add_argument("expr")

    p = sub.add_parser("cover", parents=[common],
                       help="covering-linear-space lower bound")
    p.add_argument("expr")

    p = sub.add_parser("classify", parents=[common],
                       help="catalog members with a given dimension and invariant")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--degmax", type=int, default=4)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES) + ["golden"])
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--degmax", type=int, default=4)
    p.add_argument("--quiet", action="store_true",
                   help="print only the summary and failures")

    p = sub.add_parser("trace", parents=[common],
                       help="case-analysis trace for S = (dim-1)/2 members")
    p.add_argument("expr")

    p = sub.add_parser("secant", parents=[common],
                       help="span and secant dimension of one parameterized family")
    p.add_argument("--kind", required=True, choices=["segre", "scroll"])
    p.add_argument("-d", type=int, required=True, dest="d")
    p.add_argument("-m", type=int, required=True, dest="m")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed of the rank trials (default: {DEFAULT_SEED})")

    p = sub.add_parser("suites", parents=[common],
                       help="run every verification suite on one catalog")
    p.add_argument("--nmax", type=int, default=15)
    p.add_argument("--degmax", type=int, default=4)
    p.add_argument("--golden-nmax", type=int, default=40)
    p.add_argument("--golden-mmax", type=int, default=15)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed of the secant rank trials (default: {DEFAULT_SEED})")
    p.add_argument("--json-out", default=None, help="also write the reports to this file")
    p.add_argument("--verbose", dest="quiet", action="store_false",
                   help="print every record, not just summaries")

    return parser


def _size_error(args) -> str | None:
    for flag, cap in SIZE_CAPS.get(args.command, {}).items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value > cap:
            return f"{flag} {value} is above the cap {cap}; larger inputs are rejected"
    return None


def _parse_term(expr: str):
    """Parse a term expression, rejecting integers above TERM_INT_CAP."""
    term = parse_variety(expr)  # parsed, so each digit run is one integer
    largest = max(map(int, re.findall(r"[0-9]+", expr)), default=0)
    if largest > TERM_INT_CAP:
        raise ValidationError(f"integer {largest} in the term is above the cap"
                              f" {TERM_INT_CAP}; larger inputs are rejected", component="cli")
    return term


def _parse_chain_term(expr: str):
    """Parse a term whose chains are walked, rejecting chains that may be
    longer than DEPTH_CAP."""
    term = _parse_term(expr)
    bound = s_ceiling(term)
    if bound > DEPTH_CAP:
        raise ValidationError(f"the chain invariant of the term may reach {bound},"
                              f" above the cap {DEPTH_CAP}; larger inputs are rejected",
                              component="cli")
    return term


def _cmd_s(args):
    term = _parse_chain_term(args.expr)
    sv = ChainEngine().s_invariant(term)
    return 0, {"term": to_text(term), "canonical": to_text(normalize(term)),
               "s": sv._asdict()}


def _render_s(r, quiet):
    return f"S {Bound(**r['s'])}"


def _cmd_chain(args):
    term = _parse_chain_term(args.expr)
    eng = ChainEngine()
    chain = eng.witness_chain(term)
    return 0, {"term": to_text(term), "chain": [to_text(t) for t in chain],
               "s": eng.s_invariant(term)._asdict()}


def _render_chain(r, quiet):
    sv = Bound(**r["s"])
    return f"{CHAIN_SYMBOL.join(r['chain'])}, S {'=' if sv.is_exact else '>='} {sv.value}"


def _cmd_families(args):
    term = _parse_term(args.expr)
    fams, end = family_outcome(term)
    records = [FamilyRecord(*fam) for fam in fams]
    return 0, {"term": to_text(term), "covered": end in (None, "no_rule"),
               "no_rule": end == "no_rule",
               "no_rule_reason": no_rule_reason(term) if end == "no_rule" else None,
               "families": [{"variety": to_text(f.variety), "ambient_pt_dim": f.ambient_pt_dim,
                             "span_in_pt": f.span_in_pt,
                             "anticanonical_degree": f.anticanonical_degree} for f in records]}


def _render_families(r, quiet):
    name = r["term"]
    if not r["covered"]:
        return f"{name} is not covered by lines: no families"
    if r["no_rule"]:
        return f"{name}: {r['no_rule_reason']} (the chain invariant degrades to a lower bound)"
    # Every family of a covered term lies in the same P(T) = P^(n-1).
    lines = [f"{name}: {len(r['families'])} family(ies) in P^{r['families'][0]['ambient_pt_dim']}"]
    lines += [f"  H{i} = {fam['variety']}: span P^{fam['span_in_pt']}"
              f" of P^{fam['ambient_pt_dim']}, anticanonical degree {fam['anticanonical_degree']}"
              for i, fam in enumerate(r["families"], start=1)]
    return "\n".join(lines)


def _cmd_cover(args):
    term = _parse_chain_term(args.expr)
    return 0, {"term": to_text(term), "at_least": ChainEngine().covering_ls_bound(term).value}


def _render_cover(r, quiet):
    return f"covered by linear spaces of dimension at least {r['at_least']}"


def _cmd_classify(args):
    for flag, value in (("--dim", args.dim), ("--s", args.s)):
        if value < 0:
            raise ValidationError(f"{flag} {value} must be at least 0", component="cli")
    members = classify_by_s(build_catalog(args.nmax, args.degmax), args.dim, args.s)
    return 0, {"dim": args.dim, "s": args.s, "n_max": args.nmax, "deg_max": args.degmax,
               "members": [to_text(v) for v in members]}


def _render_classify(r, quiet):
    header = (f"dimension {r['dim']}, S = {r['s']} (exact, Picard number 1),"
              f" catalog n_max={r['n_max']} deg_max={r['deg_max']}:")
    return "\n".join([header, *("  " + n for n in r["members"] or ["(none)"])])


def _cmd_verify(args):
    rep = run_suite(args.suite, args.nmax, args.degmax)
    return (0 if rep.ok else 1), rep.as_dict()


def _render_verify(r, quiet):
    return report_text(r, verbose=not quiet)


def _cmd_trace(args):
    term = _parse_chain_term(args.expr)
    trace = classification_trace(term)
    return 0, {
        "term": to_text(term),
        "canonical": to_text(normalize(term)),
        "chain_dims": list(trace.chain_dims),
        "case": trace.case_tag,
        "lines": list(trace.inequality_lines),
        "verdict": trace.verdict,
        "conjecture_used": trace.conjecture_used,
    }


def _render_trace(r, quiet):
    return "\n".join([f"trace {r['term']}: {r['case']}", *("  " + line for line in r["lines"]),
                      f"verdict: ({r['verdict']})"
                      + (" [conjecture used]" if r["conjecture_used"] else "")])


def _cmd_secant(args):
    cfg = RankConfig(trials=args.trials, seed=args.seed)
    builder = segre_veronese if args.kind == "segre" else scroll
    row = secant_row(builder(args.d, args.m), cfg)  # kind, d, m and the three dimensions
    expected = expected_secant_dim(args.d, args.m)
    passed = None if expected is None else (
        row["secant_terracini"] == expected == row["secant_chord"])
    return (0 if passed in (True, None) else 1), {
        **row, "seed": cfg.seed, "primes": list(DEFAULT_PRIMES), "trials": cfg.trials,
        "expected": expected, "pass": passed}


def _render_secant(r, quiet):
    expected = r["expected"]
    return (f"{r['kind']} d={r['d']} m={r['m']}: span={r['span']}"
            f" secant(terracini)={r['secant_terracini']}"
            f" secant(chord)={r['secant_chord']}"
            + (f" expected={expected} pass={r['pass']}" if expected is not None else " (reported)")
            + f" seed={r['seed']} primes={','.join(map(str, r['primes']))}")


def _cmd_suites(args):
    # The golden suite goes first, so that its bounds are checked before the
    # catalog is built; S does not depend on what the engine has memoized,
    # so one engine serves every suite and its memo is shared among them.
    eng = ChainEngine()
    golden = golden_suite(args.golden_nmax, args.golden_mmax, eng)
    cat = build_catalog(args.nmax, args.degmax)
    reports = [suite(cat, eng).as_dict() for suite in SUITES.values()]
    reports += [golden.as_dict(),
                verify_secant_dimensions((2, 3), (2, 3, 4), RankConfig(seed=args.seed)).as_dict()]
    if args.json_out is not None:
        try:  # streamed into the file: the whole text is never held at once
            with open(args.json_out, "w") as out:
                json.dump(reports, out, indent=2, sort_keys=True)
        except OSError as err:
            raise ValidationError(f"cannot write {args.json_out}: {err.strerror}",
                                  component="cli")
    failures = sum(rep["failed"] for rep in reports)
    return (0 if failures == 0 else 1), {
        "n_max": args.nmax, "deg_max": args.degmax, "members": len(cat), "seed": args.seed,
        "json_out": args.json_out, "failures": failures, "reports": reports}


def _render_suites(r, quiet):
    lines = [f"catalog: {r['members']} members (n_max={r['n_max']}, deg_max={r['deg_max']})"]
    lines += [report_text(rep, verbose=not quiet).replace("\n", "\n  ") for rep in r["reports"]]
    if r["json_out"] is not None:
        lines.append(f"wrote {r['json_out']}")
    return "\n".join([*lines, f"total failures: {r['failures']}"])


#: Each command's handler and renderer; see the module docstring.
_COMMANDS = {
    "s": (_cmd_s, _render_s),
    "chain": (_cmd_chain, _render_chain),
    "families": (_cmd_families, _render_families),
    "cover": (_cmd_cover, _render_cover),
    "classify": (_cmd_classify, _render_classify),
    "verify": (_cmd_verify, _render_verify),
    "trace": (_cmd_trace, _render_trace),
    "secant": (_cmd_secant, _render_secant),
    "suites": (_cmd_suites, _render_suites),
}


def print_stdout(text: str) -> None:
    """Print ``text`` and a newline to stdout and flush, as
    :func:`_write_stdout` does."""
    _write_stdout((text, "\n"))


def _write_stdout(chunks) -> None:
    """Write each string of ``chunks`` to stdout, then flush, raising nothing
    on an encoding or a reader that cannot take it, so the caller keeps its
    exit code."""
    try:
        for chunk in chunks:
            try:
                sys.stdout.write(chunk)
            except UnicodeEncodeError:  # the turnstile on an ASCII stdout: write its escape
                encoding = sys.stdout.encoding
                sys.stdout.write(chunk.encode(encoding, "backslashreplace").decode(encoding))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``| head``): point stdout at os.devnull, so
        # that the flush at exit raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_pieces(envelope: dict):
    """``json.dumps(envelope, indent=2, sort_keys=True)`` and a newline, in
    pieces: the whole text is never held at once (the ``suites`` envelope
    runs to megabytes), and each piece joins many of the encoder's small
    chunks, so stdout is not written once per chunk."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(envelope)
    while piece := "".join(islice(chunks, 4096)):
        yield piece
    yield "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse handles usage errors itself
        return int(exit_.code or 0)
    error = _size_error(args)
    if error:
        print(f"cli: {error}", file=sys.stderr)
        return 2
    handler, render = _COMMANDS[args.command]
    try:
        code, payload = handler(args)
    except EngineError as err:  # bad input exits 2, a domain error 1
        print(f"{err.component}: {err}", file=sys.stderr)
        return 2 if isinstance(err, (ParseError, ValidationError)) else 1
    if args.json:
        envelope = {"command": args.command, "result": payload}
        if "seed" in payload:  # the randomized command echoes its seed
            envelope["seed"] = payload["seed"]
        _write_stdout(_json_pieces(envelope))
    else:
        print_stdout(render(payload, getattr(args, "quiet", False)))
    return code


if __name__ == "__main__":
    sys.exit(main())
