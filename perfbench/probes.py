"""Layer probes of the traced run: each layer timed in isolation, from outside.

* ``normalize``, ``picard_number``, ``to_text``, ``line_families`` and
  ``ChainEngine.s_invariant`` (fresh engine, then the same engine again) over
  every member of the ``sweep`` catalog;
* ``rank_mod_p`` on random matrices with the shapes the ``secant`` grid
  produces (span, Terracini and chord matrices of every row), one prime;
* the import of ``fanolines.cli`` in a fresh interpreter;
* a fresh ``python -m fanolines.cli`` process for a sample of the query mix.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from fanolines import (
    ChainEngine,
    DEFAULT_PRIMES,
    NoRule,
    NotCoveredByLines,
    build_catalog,
    line_families,
    normalize,
    picard_number,
    scroll,
    segre_veronese,
    to_text,
)
from fanolines.modp import rank_mod_p

import workloads
from spans import Recorder, median, totals

ROOT = Path(__file__).resolve().parent.parent
IMPORT_RUNS = 5
CLI_SAMPLE = 6
CLI_OPS = ("s", "chain", "cover", "families", "trace")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def member_layers(rec: Recorder) -> None:
    members = build_catalog(*workloads.SWEEP_GRID).members
    with rec.span("terms.normalize"):
        for v in members:
            normalize(v)
    with rec.span("terms.picard"):
        for v in members:
            picard_number(v)
    with rec.span("dsl.to_text"):
        for v in members:
            to_text(v)
    with rec.span("families.line_families"):
        for v in members:
            try:
                line_families(v)
            except (NotCoveredByLines, NoRule):
                pass
    eng = ChainEngine()
    with rec.span("chains.s_cold"):
        cold = [eng.s_invariant(v) for v in members]
    with rec.span("chains.s_warm"):
        warm = [eng.s_invariant(v) for v in members]
    if cold != warm:
        raise RuntimeError("warm chain invariants differ from cold ones")


def rank_layer(rec: Recorder, seed: int) -> None:
    rng = random.Random(f"rank:{seed}")
    p = DEFAULT_PRIMES[0]
    shapes = []
    for build in (segre_veronese, scroll):
        for d in sorted(set(workloads.SECANT_D) | {1}):
            for m in workloads.SECANT_M:
                par = build(d, m)
                c, k = par.num_coords, par.num_params
                shapes += [(2 * c, c), (c, 2 * k), (c, 2 * k + 1)]
    matrices = [[[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
                for rows, cols in shapes]
    with rec.span("modp.rank"):
        ranks = [rank_mod_p(rows, p) for rows in matrices]
    # Random matrices over a field of about 2^31 elements have full rank.
    if ranks != [min(shape) for shape in shapes]:
        raise RuntimeError("rank_mod_p: random matrix below full rank")


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import fanolines, fanolines.cli;"
            " print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return 1e3 * median(times)


def cold_query_ms(seed: int) -> float:
    queries = [q for q in workloads.query_inputs(seed)["queries"]
               if q["depth"] is None and q["op"] in CLI_OPS][:CLI_SAMPLE]
    times = []
    for q in queries:
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-m", "fanolines.cli", q["op"], q["text"]],
                              env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        times.append(perf_counter() - t0)
        if done.returncode not in (0, 1) or "Traceback" in done.stderr:
            raise RuntimeError(f"fanolines {q['op']} {q['text']}: exit"
                               f" {done.returncode}: {done.stderr.strip()}")
    return 1e3 * median(times)


def run(seed: int) -> dict:
    rec = Recorder()
    member_layers(rec)
    rank_layer(rec, seed)
    t = totals(rec.spans)
    return {
        "terms.normalize_s": t["terms.normalize"],
        "terms.picard_s": t["terms.picard"],
        "dsl.to_text_s": t["dsl.to_text"],
        "families.line_families_s": t["families.line_families"],
        "chains.s_cold_s": t["chains.s_cold"],
        "chains.s_warm_s": t["chains.s_warm"],
        "modp.rank_s": t["modp.rank"],
        "cli.import_ms": import_ms(),
        "cli.cold_query_ms": cold_query_ms(seed),
    }
