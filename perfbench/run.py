#!/usr/bin/env python3
"""The fanolines benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  Every iteration of a workload is a fresh
worker process (``worker.py``), started one at a time: a closed loop with one
client.  Iterations repeat with the same seeded inputs until the next one
would end after ``--seconds``, with at least three; set-up-only processes in
between add ``setup_s`` samples.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``,
medians over the iterations, with every time scaled to the reference speed
by the machine-speed samples taken in the same process (``speed.py``).
``op_p50_ms`` and ``op_p90_ms`` rank each operation's median latency over
the iterations (a query, a secant row, or a sweep step), and a failed or
wrong operation ranks slower than every success.

``--trace 1`` alternates untraced and traced iterations of the workload (for
``bench.trace_overhead_ratio``), runs one traced iteration of each other
workload and the layer probes (``probes.py``), and reports every per-layer
metric.  Spans are written to ``.bench_out/`` when the run ends.

``--workload all`` runs the three workloads in turn and prints each metric
with its unit and each output check, for reading rather than for parsing.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "queries", "secant")
MIN_ITERATIONS = 3
# Set-up takes tens of milliseconds, so one sample says little on a noisy
# machine: set-up-only processes after each iteration, up to this many.
SETUP_SAMPLES = 24
SETUP_EXTRA_PER_ITERATION = 3
RUN_LIMIT_S = 170  # every run must end within 180 s

sys.path.insert(0, str(HERE))
from spans import median, self_times  # noqa: E402
from speed import REFERENCE_CHUNK_S  # noqa: E402

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  A traced run of any workload reports all of them: the layers a
# workload does not exercise come from the traced iteration of the workload
# that does, or from the probes.
LAYERS = {
    "catalog.build_s": "wall_s, peak_rss_mb on sweep; setup_s on queries",
    "catalog.members": "none: a count that must not move",
    "catalog.lookup_ms": "op_p90_ms on queries",
    "checks.thm1_s": "wall_s on sweep",
    "checks.prop32_s": "wall_s on sweep",
    "checks.lemmas_s": "wall_s on sweep",
    "checks.golden_s": "wall_s on sweep",
    "checks.records": "none: a count that must not move",
    "checks.useful_ratio": "wall_s on sweep (an indexed catalog raises it)",
    "checks.classify_ms": "op_p90_ms on queries",
    "chains.s_cold_s": "wall_s on sweep",
    "chains.s_warm_s": "wall_s on sweep",
    "chains.query_ms": "op_p50_ms on queries",
    "chains.witness_ms": "op_p50_ms on queries",
    "chains.cover_ms": "op_p50_ms on queries",
    "chains.deep_ms": "op_p90_ms on queries",
    "chains.recursion_errors": "ok_ratio on queries",
    "families.line_families_s": "wall_s on sweep",
    "terms.normalize_s": "wall_s on sweep",
    "terms.picard_s": "wall_s on sweep",
    "dsl.to_text_s": "wall_s on sweep",
    "dsl.parse_us": "op_p50_ms on queries",
    "trace.trace_ms": "op_p90_ms on queries",
    "reports.serialize_s": "wall_s on sweep",
    "modp.rank_s": "wall_s on secant",
    "modp.rank_suite_s": "wall_s on secant",
    "secant.span_s": "wall_s on secant",
    "secant.terracini_s": "wall_s on secant",
    "secant.chord_s": "wall_s on secant",
    "secant.rows": "none: a count that must not move",
    "cli.import_ms": "setup_s on every workload",
    "cli.cold_query_ms": "none: reported, not gated (interpreter start-up noise)",
    "bench.trace_overhead_ratio": "none: the cost of tracing itself",
    "bench.chunk_ms": "none: the machine's speed during the traced run",
    "bench.raw_wall_s": "none: the untraced iterations' wall time as measured, unscaled",
}


class BenchError(Exception):
    pass


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def check_checkout():
    if not (ROOT / "src" / "fanolines" / "__init__.py").is_file():
        raise BenchError(f"no fanolines sources under {ROOT / 'src'}; run from a checkout")
    # Compile once, unmeasured, so no iteration pays for byte-compiling.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, capture_output=True, timeout=120)


def worker(kind: str, seed: int, trace: int, deadline: float, *extra: str) -> dict:
    timeout = max(10.0, deadline - perf_counter())
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", kind,
           "--seed", str(seed), "--trace", str(trace), *extra]
    t0 = perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{kind} worker did not finish within {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{kind} worker exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["process_s"] = perf_counter() - t0
    result["kind"], result["traced"] = kind, bool(trace)
    return result


def percentile(latencies: list, q: float, worst: float) -> float:
    """Nearest-rank percentile with failures (None) ranked after successes.

    A percentile that lands on a failure reads as ``worst``, the longest
    iteration's wall time: finite, and above any successful operation.
    """
    ranked = sorted(x for x in latencies if x is not None)
    rank = math.ceil(q * len(latencies)) - 1
    return ranked[rank] if rank < len(ranked) else worst


def at_reference(seconds: float, chunk_s: float) -> float:
    """A time measured while chunks took ``chunk_s``, at the reference speed."""
    return seconds * REFERENCE_CHUNK_S / chunk_s


def op_latencies(iterations: list[dict]) -> list:
    """Each operation's median latency over the iterations, which all run the
    same inputs; None where the operation failed in any iteration."""
    out = []
    for j, samples in enumerate(zip(*(it["latencies"] for it in iterations))):
        if None in samples:
            out.append(None)
        else:
            out.append(median([at_reference(x, it["op_chunk_s"][j])
                               for x, it in zip(samples, iterations)]))
    return out


def wall(it: dict) -> float:
    return at_reference(it["wall_s"], it["run_chunk_s"])


def end_to_end(iterations: list[dict], setups: list[dict]) -> dict:
    latencies = op_latencies(iterations)
    worst = max(wall(it) for it in iterations)
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    return {
        "setup_s": median([at_reference(s["setup_s"], s["setup_chunk_s"]) for s in setups]),
        "wall_s": median([wall(it) for it in iterations]),
        "op_p50_ms": 1e3 * percentile(latencies, 0.50, worst),
        "op_p90_ms": 1e3 * percentile(latencies, 0.90, worst),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": median([it["peak_rss_mb"] for it in iterations]),
    }


def run_untraced(kind: str, seed: int, seconds: float, deadline: float):
    start, iterations, setups = perf_counter(), [], []
    while True:
        it = worker(kind, seed, 0, deadline)
        iterations.append(it)
        setups.append(it)
        for _ in range(SETUP_EXTRA_PER_ITERATION):
            if len(setups) < SETUP_SAMPLES:
                setups.append(worker(kind, seed, 0, deadline, "--setup-only"))
        if (len(iterations) >= MIN_ITERATIONS
                and perf_counter() - start + it["process_s"] > seconds):
            return iterations, setups


def run_traced(kind: str, seed: int, seconds: float, deadline: float):
    """Untraced and traced iterations of ``kind`` alternate until ``seconds``;
    then one traced iteration of each other workload, then the probes."""
    start, iterations = perf_counter(), []
    while True:
        for trace in (0, 1):
            iterations.append(worker(kind, seed, trace, deadline))
        pair = iterations[-1]["process_s"] + iterations[-2]["process_s"]
        if perf_counter() - start + pair > seconds:
            break
    iterations += [worker(other, seed, 1, deadline) for other in WORKLOADS if other != kind]
    probe = worker("probe", seed, 1, deadline)
    return iterations, probe


def layer_metrics(kind: str, iterations: list[dict], probe: dict) -> dict:
    layers: dict[str, float] = dict(probe["layers"])
    for other in WORKLOADS:
        rows = [it["layers"] for it in iterations if it["traced"] and it["kind"] == other]
        for name in rows[0]:
            layers[name] = median([row[name] for row in rows])
    own = [it for it in iterations if it["kind"] == kind]
    traced = median([wall(it) for it in own if it["traced"]])
    untraced = median([wall(it) for it in own if not it["traced"]])
    layers["bench.trace_overhead_ratio"] = traced / untraced
    layers["bench.raw_wall_s"] = median([it["wall_s"] for it in own if not it["traced"]])
    layers["bench.chunk_ms"] = 1e3 * median([it["run_chunk_s"] for it in iterations])
    return layers


def write_spans(kind: str, seed: int, iterations: list[dict]):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    dump = []
    for i, it in enumerate(iterations):
        if it["traced"]:
            spans = it["spans"]
            dump.append({"workload": it["kind"], "iteration": i,
                         "fields": ["name", "start", "end", "parent", "op", "self"],
                         "spans": [list(s) + [t] for s, t in zip(spans, self_times(spans))]})
    (out / f"spans-{kind}-seed{seed}.json").write_text(json.dumps(dump))


def run_one(kind: str, seed: int, seconds: float, trace: int, units: dict) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    if trace:
        iterations, probe = run_traced(kind, seed, seconds, deadline)
        values = layer_metrics(kind, iterations, probe)
        write_spans(kind, seed, iterations)
    else:
        iterations, setups = run_untraced(kind, seed, seconds, deadline)
        values = end_to_end(iterations, setups)
        print(f"{kind}: as measured, wall_s {median([it['wall_s'] for it in iterations]):.4g} s"
              f" while a speed chunk took"
              f" {1e3 * median([it['run_chunk_s'] for it in iterations]):.4g} ms"
              f" (reference {1e3 * REFERENCE_CHUNK_S:g} ms)")
    wanted = [n for n in units if (n in LAYERS) == bool(trace)]
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    report(kind, iterations)
    return {
        "correct": all(it["wrong"] == 0 for it in iterations),
        "attempted": sum(it["attempted"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted},
    }


def report(kind: str, iterations: list[dict]):
    """Human-readable lines: output checks and failed operations."""
    for it in iterations:
        if it["kind"] != kind:
            continue
        for name, passed, detail in it["checks"]:
            print(f"check {kind} {name}: {'PASS' if passed else 'FAIL'} {detail}")
        reasons: dict[str, int] = {}
        for _, key, reason in it["failures"]:
            reasons[reason] = reasons.get(reason, 0) + 1
        print(f"{kind}: {it['attempted']} attempted, {it['failed']} failed"
              f" ({it['wrong']} wrong)"
              + "".join(f"; {n} x {r}" for r, n in sorted(reasons.items())))
        return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        units = load_spec()
        check_checkout()
        kinds = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {k: run_one(k, args.seed, args.seconds, args.trace, units) for k in kinds}
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as err:
        print(f"benchmark failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for kind, result in results.items():
        print(f"{kind}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
