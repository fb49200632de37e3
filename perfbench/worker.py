"""One iteration of one workload, or the layer probes, in a fresh process.

    python3 perfbench/worker.py --workload sweep --seed 1 --trace 0

Prints one JSON object on its last stdout line.  ``setup_s`` covers the
import of ``fanolines`` and ``fanolines.cli`` and the generation of the
inputs, timed inside this process; the workload then runs once, untraced or
traced, and its outputs are checked.  ``setup_chunk_s``, ``run_chunk_s``
and ``op_chunk_s`` are the machine-speed samples taken after set-up, over
the run and around each operation (see ``speed.py``).  ``--workload probe``
times each layer in isolation instead (see ``probes.py``); ``--setup-only``
stops after the set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (benchmark code; imports nothing from fanolines)
import speed  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "queries", "secant", "probe"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up: one more setup_s sample")
    args = parser.parse_args()

    t0 = perf_counter()
    import fanolines  # noqa: F401
    import fanolines.cli  # noqa: F401

    if args.workload == "probe":
        import probes

        result = {"layers": probes.run(args.seed)}
    else:
        import workloads

        make_inputs, run, layers = workloads.WORKLOADS[args.workload]
        inputs = make_inputs(args.seed)
        setup_s = perf_counter() - t0
        setup_chunk_s = speed.setup_chunk()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_chunk_s": setup_chunk_s}))
            return 0
        rec = spans.Recorder() if args.trace else spans.NULL
        with speed.Sampler() as sampler:
            out = run(inputs, rec)
        run_chunk_s = sampler.mean(setup_chunk_s)
        op_chunk_s = [None if seconds is None else sampler.local(start, seconds, run_chunk_s)
                      for start, seconds in zip(out.starts, out.latencies)]
        result = {"setup_s": setup_s, "setup_chunk_s": setup_chunk_s,
                  "run_chunk_s": run_chunk_s, "op_chunk_s": op_chunk_s, **vars(out)}
        if args.trace:
            result["layers"] = layers(out, rec.spans)
            result["spans"] = rec.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
