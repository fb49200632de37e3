"""Record the outputs the benchmark checks against, from the current code.

    python3 perfbench/record_expected.py

Writes ``expected/queries.json`` (the answer to every shallow query the
generator can draw: each operation on each pool term, and every classify
pair) and ``expected/sweep.json`` (catalog size and order digest, per-suite
counts and counters, and the JSON report digest for every golden bound the
seed can pick).  Run it only on a commit whose outputs are known good: the
benchmark then fails any later commit whose outputs differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import NULL  # noqa: E402

QUERY_OPS = ("s", "chain", "cover", "families", "trace", "lookup")


def record_queries() -> dict:
    from fanolines import build_catalog

    cat = build_catalog(*workloads.QUERY_CATALOG)
    queries = [{"op": op, "text": text, "depth": None}
               for text in workloads.shallow_pool() for op in QUERY_OPS]
    queries += [{"op": "classify", "text": f"{n},{s}", "depth": None}
                for n, s in workloads.classify_pool()]
    answers = {workloads.query_key(q): workloads.short(workloads.answer(q, cat, NULL, i))
               for i, q in enumerate(queries)}
    return {"catalog": list(workloads.QUERY_CATALOG), "answers": answers}


def record_sweep() -> dict:
    from fanolines import golden_suite

    inputs = {"grid": workloads.SWEEP_GRID, "golden": (40, 15)}
    cat, reports, _ = workloads.sweep_reports(inputs, NULL, [])
    fixed = [rep.as_dict() for rep in reports[:3]]
    suites = {rep.suite: workloads.suite_summary(rep) for rep in reports[:3]}
    suites["golden"] = {}
    digests = {}
    for n in workloads.GOLDEN_NMAX:
        for m in workloads.GOLDEN_MMAX:
            golden = golden_suite(n, m)
            suites["golden"][f"{n},{m}"] = workloads.suite_summary(golden)
            text = json.dumps(fixed + [golden.as_dict()], indent=2, sort_keys=True)
            digests[f"{n},{m}"] = workloads.digest(text)
    return {
        "grid": list(workloads.SWEEP_GRID),
        "members": len(cat),
        "order": workloads.digest("\n".join(workloads.to_text(v) for v in cat)),
        "suites": suites,
        "reports": digests,
    }


def main() -> int:
    out = Path(__file__).resolve().parent / "expected"
    out.mkdir(exist_ok=True)
    for name, data in (("queries", record_queries()), ("sweep", record_sweep())):
        path = out / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
