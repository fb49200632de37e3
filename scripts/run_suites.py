#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary for each.

The catalog-backed suites (classification, next-to-maximal invariant, family
implications) share one catalog; the golden values and the exact secant
sweep run on top.  Exit status is 1 as soon as any suite records a failure,
and 2 on an engine error, such as a rejected input bound, with one
``component: message`` line on stderr as the CLI prints it.

    python3 scripts/run_suites.py --nmax 15 --degmax 4
    python3 scripts/run_suites.py --json-out reports.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fanolines.catalog import build_catalog
from fanolines.checks import SUITES, golden_suite
from fanolines.errors import EngineError
from fanolines.secant import RankConfig, verify_secant_dimensions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=15)
    parser.add_argument("--degmax", type=int, default=4)
    parser.add_argument("--golden-nmax", type=int, default=40)
    parser.add_argument("--golden-mmax", type=int, default=15)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--json-out", type=Path, default=None)
    parser.add_argument("--verbose", action="store_true",
                        help="print every record, not just summaries")
    args = parser.parse_args()
    try:
        return run(args)
    except EngineError as err:
        print(f"{err.component}: {err}", file=sys.stderr)
        return 2


def run(args: argparse.Namespace) -> int:
    # The golden suite goes first, so that its bounds are checked before the
    # catalog is built; S does not depend on what the engine has memoized.
    golden = golden_suite(args.golden_nmax, args.golden_mmax)
    cat = build_catalog(args.nmax, args.degmax)
    print(f"catalog: {len(cat)} members (n_max={args.nmax}, deg_max={args.degmax})")

    cfg = RankConfig(seed=args.seed) if args.seed is not None else RankConfig()
    reports = [suite(cat) for suite in SUITES.values()]
    reports += [golden, verify_secant_dimensions((2, 3), (2, 3, 4), cfg)]

    failed = 0
    for rep in reports:
        print(rep.summary())
        shown = rep.sorted_records() if args.verbose else rep.failures
        for record in shown:
            print("  " + record.line())
        failed += len(rep.failures)

    if args.json_out:
        args.json_out.write_text(
            json.dumps([rep.as_dict() for rep in reports], indent=2, sort_keys=True)
        )
        print(f"wrote {args.json_out}")

    print(f"total failures: {failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
