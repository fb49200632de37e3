#!/usr/bin/env python3
"""Print witness chains, covering bounds, and traces for showcase terms.

A quick tour of what the engine computes; every value here is produced by
the same code paths the verification suites check.

    python3 scripts/chain_gallery.py
    python3 scripts/chain_gallery.py "Q(11)" "SG(2,9)"

Each expression is parsed as the CLI's ``s`` and ``chain`` parse theirs, under
the same caps (``cli.TERM_INT_CAP`` and ``cli.DEPTH_CAP``).  An expression the
engine rejects prints one ``component: message`` line to stderr, as the CLI
does; the gallery goes on with the others and exits 2.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fanolines.chains import default_engine
from fanolines.cli import _parse_chain_term
from fanolines.dsl import to_text
from fanolines.errors import EngineError
from fanolines.terms import dim, picard_number
from fanolines.trace import classification_trace

SHOWCASE = [
    "P(6)", "Q(8)", "Q(9)", "G(2,6)", "SG(2,6)", "SG(2,8)",
    "CI(2,2;7)", "CI(2,2;9)", "CI(3;4)", "LS(G(2,5),3)", "LS(G(2,5),2)",
    "Prod(P(1):2,P(3):1)", "PB(3,2,2)",
]


def show(expr: str):
    eng = default_engine()
    term = _parse_chain_term(expr)
    sv = eng.s_invariant(term)
    bound = eng.covering_ls_bound(term)
    print(f"{expr}  (dim {dim(term)}, rho {picard_number(term)})")
    print(f"  S {sv}; covered by linear spaces of dimension >= {bound.value}")
    try:
        chain = eng.witness_chain(term)
        print("  chain: " + " ⊨ ".join(to_text(t) for t in chain))
    except EngineError as err:
        print(f"  chain: ({err})")
    n = dim(term)
    if n >= 3 and n % 2 == 1 and sv.is_exact and 2 * sv.value == n - 1 and picard_number(term) == 1:
        trace = classification_trace(term, eng)
        flag = " [conjecture used]" if trace.conjecture_used else ""
        print(f"  trace: {trace.case_tag}, verdict ({trace.verdict}){flag}")
    print()


def main() -> int:
    status = 0
    for expr in sys.argv[1:] or SHOWCASE:
        try:
            show(expr)
        except EngineError as err:
            print(f"{err.component}: {err}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
