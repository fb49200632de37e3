#!/usr/bin/env python3
"""Print witness chains, covering bounds, and traces for showcase terms.

A quick tour of what the engine computes; every value here is produced by
the same code paths the verification suites check.

    python3 scripts/chain_gallery.py
    python3 scripts/chain_gallery.py "Q(11)" "SG(2,9)"

Each expression is parsed as the CLI's ``s`` and ``chain`` parse theirs, under
the same caps (``cli.TERM_INT_CAP`` and ``cli.DEPTH_CAP``).  An expression the
engine rejects prints one ``component: message`` line to stderr, as the CLI
does; the gallery goes on with the others and exits 2.  Every stdout line goes
through the CLI's ``print_stdout``, so on a stdout whose encoding lacks the
turnstile it prints as its backslash escape, and a closed pipe prints no
traceback.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fanolines.chains import ChainEngine
from fanolines.cli import CHAIN_SYMBOL, _parse_chain_term, print_stdout
from fanolines.dsl import to_text
from fanolines.errors import EngineError, PreconditionFailed
from fanolines.terms import dim, picard_number
from fanolines.trace import classification_trace

SHOWCASE = [
    "P(6)", "Q(8)", "Q(9)", "G(2,6)", "SG(2,6)", "SG(2,8)",
    "CI(2,2;7)", "CI(2,2;9)", "CI(3;4)", "LS(G(2,5),3)", "LS(G(2,5),2)",
    "Prod(P(1):2,P(3):1)", "PB(3,2,2)",
]


def show(expr: str, eng: ChainEngine):
    term = _parse_chain_term(expr)
    sv = eng.s_invariant(term)
    bound = eng.covering_ls_bound(term)
    print_stdout(f"{expr}  (dim {dim(term)}, rho {picard_number(term)})")
    print_stdout(f"  S {sv}; covered by linear spaces of dimension >= {bound.value}")
    try:
        chain = eng.witness_chain(term)
        print_stdout("  chain: " + CHAIN_SYMBOL.join(to_text(t) for t in chain))
    except EngineError as err:
        print_stdout(f"  chain: ({err})")
    try:
        trace = classification_trace(term, eng)
    except PreconditionFailed:
        pass  # the trace replays only odd dimensions with S = (dim - 1) / 2
    else:
        flag = " [conjecture used]" if trace.conjecture_used else ""
        print_stdout(f"  trace: {trace.case_tag}, verdict ({trace.verdict}){flag}")
    print_stdout("")


def main() -> int:
    status, eng = 0, ChainEngine()
    for expr in sys.argv[1:] or SHOWCASE:
        try:
            show(expr, eng)
        except EngineError as err:
            print(f"{err.component}: {err}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
