"""Inputs, execution and output checks of the three benchmark workloads.

Each function here runs inside one fresh worker process (see ``worker.py``).
The package only ever receives the generated inputs; every output is checked
before an iteration counts:

* ``sweep`` -- the ``scripts/run_suites.py`` path on one catalog: build the
  catalog, run the classification, next-to-maximal, family-lemma and golden
  suites on one cold :class:`ChainEngine`, serialize the reports.  Checked
  against the member count, the ``to_text`` order digest, the per-suite
  counts and counters, and the JSON report digest recorded at the seed
  (``expected/sweep.json``).
* ``queries`` -- single-term queries, each on a fresh engine, as every CLI
  call is.  Shallow answers are checked against ``expected/queries.json``,
  deep ones against the closed forms of the four classical families.
* ``secant`` -- ``verify_secant_dimensions`` on one grid, checked through the
  suite's own records.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from time import perf_counter

import fanolines.secant as secant_mod
from fanolines import (
    Catalog,
    ChainEngine,
    EngineError,
    RankConfig,
    build_catalog,
    classification_trace,
    classify_by_s,
    dim,
    golden_suite,
    line_families,
    parse_variety,
    to_text,
    verify_classification,
    verify_family_lemmas,
    verify_next_to_maximal,
    verify_secant_dimensions,
)

from spans import durations, median, totals

EXPECTED = Path(__file__).resolve().parent / "expected"

# sweep: one catalog grid; the seed picks the golden-suite bounds, which
# changes the report bytes but barely the cost.
SWEEP_GRID = (30, 5)
GOLDEN_NMAX = range(36, 45)
GOLDEN_MMAX = range(12, 19)

# queries: a small catalog for classify and lookup, built during set-up.
QUERY_CATALOG = (12, 4)
SHALLOW_DIM_MAX = 60
SHALLOW_MIX = {"s": 70, "chain": 60, "cover": 50, "families": 50,
               "trace": 40, "classify": 34, "lookup": 40}
# Deep queries: chain invariant S, the recursion depth of a cold query.  A
# cold query fails with RecursionError once S passes about 990 under the
# default recursion limit; both ranges stay about 300 clear of that edge, so
# the few frames tracing adds cannot flip an outcome.
DEEP_OPS = [(fam, op) for fam in ("P", "Q", "G", "SG") for op in ("s", "chain", "cover")]
DEEP_OPS += [("Q", "trace"), ("SG", "trace")]
DEEP_SAFE = (200, 700)     # three per (family, op), one from each third
DEEP_FAILING = (1300, 2500)  # one per (family, op)
# The only failure a query may have: RecursionError on a DEEP_FAILING depth.
# Any other failure makes the run incorrect; a DEEP_FAILING query that
# answers correctly simply counts as a success.
EXPECTED_FAILURE = "RecursionError"

# secant: the suite adds its own d = 1 control rows.
SECANT_D = (2, 3, 4)
SECANT_M = (4, 8, 12)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def short(answer: str) -> str:
    """Answers are stored verbatim when short, else as a digest."""
    return answer if len(answer) <= 48 else "sha256:" + digest(answer)


@dataclass
class Outcome:
    """One iteration of a workload in one worker process."""

    wall_s: float
    latencies: list = field(default_factory=list)  # seconds, None = failed op
    starts: list = field(default_factory=list)  # perf_counter at each op's start
    attempted: int = 0
    failed: int = 0
    wrong: int = 0           # failed ops other than the expected deep failures
    checks: list = field(default_factory=list)  # [name, passed, detail]
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # [op id, query or row, reason]

    def check(self, name: str, passed: bool, detail: str = ""):
        self.checks.append([name, bool(passed), detail])
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.wrong += 1


# ---------------------------------------------------------------------------
# sweep


def sweep_inputs(seed: int) -> dict:
    rng = random.Random(f"sweep:{seed}")
    return {"grid": SWEEP_GRID,
            "golden": (rng.choice(GOLDEN_NMAX), rng.choice(GOLDEN_MMAX))}


class CountingCatalog(Catalog):
    """A catalog that counts the members iterated over it."""

    def __init__(self, cat: Catalog):
        super().__init__(cat.n_max, cat.deg_max, cat.members)
        object.__setattr__(self, "iterated", [0])

    def __iter__(self):
        seen = self.iterated
        for v in self.members:
            seen[0] += 1
            yield v


def sweep_reports(inputs: dict, rec, steps: list):
    """Build, run and serialize; appends each step's (start, seconds).
    With a real recorder the suites get a :class:`CountingCatalog`."""

    def step(name, fn, *args):
        t0 = perf_counter()
        with rec.span(name, len(steps)):
            out = fn(*args)
        steps.append((t0, perf_counter() - t0))
        return out

    cat = step("catalog.build", build_catalog, *inputs["grid"])
    if rec.enabled:
        cat = CountingCatalog(cat)
    eng = ChainEngine()
    reports = [
        step("checks.thm1", verify_classification, cat, eng),
        step("checks.prop32", verify_next_to_maximal, cat, eng),
        step("checks.lemmas", verify_family_lemmas, cat, eng),
        step("checks.golden", golden_suite, *inputs["golden"], eng),
    ]
    text = step("reports.serialize", lambda: json.dumps(
        [rep.as_dict() for rep in reports], indent=2, sort_keys=True))
    return cat, reports, text


def suite_summary(rep) -> dict:
    d = rep.as_dict()
    return {"passed": d["passed"], "failed": d["failed"], "info": d["info"],
            "counters": d["counters"]}


def run_sweep(inputs: dict, rec) -> Outcome:
    expected = json.loads((EXPECTED / "sweep.json").read_text())
    t0 = perf_counter()
    steps: list = []
    cat, reports, text = sweep_reports(inputs, rec, steps)
    out = Outcome(0.0, starts=[t for t, _ in steps], latencies=[s for _, s in steps])
    out.counts = {"members": len(cat)}
    if isinstance(cat, CountingCatalog):
        out.counts["iterated"] = cat.iterated[0]
    records = sum(len(rep.records) for rep in reports)
    fails = sum(len(rep.failures) for rep in reports)
    out.attempted += records
    out.failed += fails
    out.wrong += fails
    out.check("catalog.members", len(cat) == expected["members"],
              f"{len(cat)} members, expected {expected['members']}")
    order = digest("\n".join(to_text(v) for v in cat.members))
    out.check("catalog.order", order == expected["order"], f"to_text order digest {order}")
    golden_key = "{},{}".format(*inputs["golden"])
    for rep in reports:
        want = expected["suites"][rep.suite]
        if rep.suite == "golden":
            want = want[golden_key]
        got = suite_summary(rep)
        out.check(f"suite.{rep.suite}", got == want, json.dumps(got, sort_keys=True))
    got = digest(text)
    out.check("reports.json", got == expected["reports"][golden_key], f"digest {got}")
    out.wall_s = perf_counter() - t0
    out.counts["records"] = records
    return out


def sweep_layers(out: Outcome, spans: list) -> dict:
    t = totals(spans)
    return {
        "catalog.build_s": t["catalog.build"],
        "catalog.members": out.counts["members"],
        "checks.thm1_s": t["checks.thm1"],
        "checks.prop32_s": t["checks.prop32"],
        "checks.lemmas_s": t["checks.lemmas"],
        "checks.golden_s": t["checks.golden"],
        "checks.records": out.counts["records"],
        "checks.useful_ratio": out.counts["records"] / max(1, out.counts["iterated"]),
        "reports.serialize_s": t["reports.serialize"],
    }


# ---------------------------------------------------------------------------
# queries


def _sg_dim(k: int, N: int) -> int:
    return k * (N - k) - k * (k - 1) // 2


TRACE_ELIGIBLE = (
    [f"Q({n})" for n in range(3, SHALLOW_DIM_MAX, 2)]
    + [f"SG(2,{N})" for N in range(5, 40) if _sg_dim(2, N) <= SHALLOW_DIM_MAX]
    + ["CI(3;4)", "CI(2,2;5)", "LS(G(2,5),3)"]
)


def shallow_pool() -> list[str]:
    """Every shallow query term: all nine constructors, dimension <= 60."""
    top = SHALLOW_DIM_MAX
    out = ["pt"]
    out += [f"P({n})" for n in range(1, top + 1)]
    out += [f"Q({n})" for n in range(1, top + 1)]
    out += [f"G({k},{N})" for k in range(2, 8) for N in range(2 * k, 40)
            if k * (N - k) <= top]
    out += [f"SG({k},{N})" for k in (2, 3) for N in range(2 * k + 1, 40)
            if _sg_dim(k, N) <= top]
    for count in (1, 2, 3):
        for degs in combinations_with_replacement(range(2, 5), count):
            for N in range(count + 1, count + top + 1, 5):
                out.append(f"CI({','.join(map(str, degs))};{N})")
    for a in range(1, 31, 3):
        for b in range(a, top - a + 1, 7):
            for da, db in ((1, 1), (1, 2), (2, 1), (3, 2)):
                out.append(f"Prod(P({a}):{da},P({b}):{db})")
    for a, b, c in ((1, 1, 1), (1, 2, 3), (2, 5, 9), (3, 10, 20), (1, 1, 40)):
        for da, db, dc in ((1, 1, 1), (1, 2, 1), (2, 2, 3)):
            out.append(f"Prod(P({a}):{da},P({b}):{db},P({c}):{dc})")
    for k in range(2, 9):
        for d in range(1, 5):
            for head in (d, d + 1, d + 2):
                out.append("PB(" + ",".join(map(str, (head,) + (d,) * (k - 1))) + ")")
    out += [f"LS(G(2,5),{c})" for c in range(5)]
    out += TRACE_ELIGIBLE
    return sorted(set(to_text(parse_variety(t)) for t in out))


def classify_pool() -> list[tuple[int, int]]:
    n_max = QUERY_CATALOG[0]
    return [(n, s) for n in range(2, n_max + 1) for s in range(0, n + 1)]


def stratified(rng: random.Random, items: list, count: int) -> list:
    """One random item from each of ``count`` equal slices of ``items``."""
    n = len(items)
    return [items[rng.randrange(i * n // count, (i + 1) * n // count)] for i in range(count)]


def query_inputs(seed: int) -> dict:
    """The seeded query mix plus the small catalog classify and lookup use.

    Counts per operation are fixed, shallow terms are drawn stratified by
    dimension and deep depths by thirds of their range, so the latency
    distribution barely depends on the seed.
    """
    rng = random.Random(f"queries:{seed}")
    by_dim = sorted(shallow_pool(), key=lambda t: (dim(parse_variety(t)), t))
    trace_pool = sorted(to_text(parse_variety(t)) for t in TRACE_ELIGIBLE)
    queries = []
    for op, count in SHALLOW_MIX.items():
        if op == "classify":
            texts = ["{},{}".format(*p) for p in stratified(rng, classify_pool(), count)]
        elif op == "trace":  # two in three drawn where a trace runs to a verdict
            eligible = count * 2 // 3
            texts = (stratified(rng, trace_pool, eligible)
                     + stratified(rng, by_dim, count - eligible))
        else:
            texts = stratified(rng, by_dim, count)
        queries += [{"op": op, "text": text, "depth": None} for text in texts]
    lo, hi = DEEP_SAFE
    third = (hi - lo + 1) // 3
    for fam, op in DEEP_OPS:
        depths = [rng.randrange(lo + j * third, lo + (j + 1) * third) for j in range(3)]
        depths.append(rng.randrange(DEEP_FAILING[0], DEEP_FAILING[1] + 1))
        for s in depths:
            queries.append({"op": op, "text": deep_term(fam, s, op, rng), "depth": s})
    rng.shuffle(queries)
    return {"catalog": build_catalog(*QUERY_CATALOG), "queries": queries}


def deep_term(fam: str, s: int, op: str, rng: random.Random) -> str:
    """A classical term whose chain invariant is exactly ``s``."""
    if fam == "P":
        return f"P({s})"
    if fam == "Q":  # S(Q^n) = floor(n/2); traces need odd n
        return f"Q({2 * s + (1 if op == 'trace' else rng.randrange(2))})"
    if fam == "G":
        return f"G(2,{s + 2})"
    return f"SG(2,{s + 3})"


SPAN_OF_OP = {"s": "chains.s", "chain": "chains.witness", "cover": "chains.cover",
              "families": "families.query", "trace": "trace.trace",
              "classify": "checks.classify", "lookup": "catalog.lookup"}


def answer(q: dict, cat, rec, i: int) -> str:
    """Run one query on a fresh engine and render its answer as text.

    Domain errors are answers (the CLI prints them with exit code 1);
    anything else propagates to the caller.
    """
    op = q["op"]
    eng = ChainEngine()
    name = "chains.deep" if q["depth"] is not None else SPAN_OF_OP[op]
    try:
        if op == "classify":
            n, s = map(int, q["text"].split(","))
            with rec.span(name, i):
                members = classify_by_s(cat, n, s, eng)
            return ",".join(to_text(v) for v in members)
        with rec.span("dsl.parse", i):
            term = parse_variety(q["text"])
        with rec.span(name, i):
            if op == "s":
                result = eng.s_invariant(term)
            elif op == "chain":
                result = (eng.witness_chain(term), eng.s_invariant(term))
            elif op == "cover":
                result = eng.covering_ls_bound(term)
            elif op == "families":
                result = line_families(term)
            elif op == "trace":
                result = classification_trace(term, eng)
            else:
                result = term in cat
    except EngineError as err:
        return f"error {type(err).__name__}: {err}"
    if op == "s":
        return f"{result.kind} {result.value}"
    if op == "chain":
        chain, sv = result
        return " > ".join(to_text(t) for t in chain) + f" | {sv.kind} {sv.value}"
    if op == "cover":
        return f"{result.kind} {result.value}"
    if op == "families":
        return "; ".join(f"{to_text(f.variety)} {f.span_in_pt}/{f.ambient_pt_dim}"
                         f" {f.anticanonical_degree}" for f in result)
    if op == "trace":
        return (f"({result.verdict}) {result.case_tag} dims={list(result.chain_dims)}"
                f" conjecture={result.conjecture_used}"
                f" lines={digest(chr(10).join(result.inequality_lines))}")
    return str(result)


def deep_ok(q: dict, got: str) -> bool:
    """Golden closed forms: S(P^n) = n, S(Q^n) = floor(n/2), S(G(2,m+2)) = m,
    S(SG(2,m+3)) = m; witness chains have S + 1 terms; traces of Q^(2m+1) and
    SG(2,m+3) end in verdicts (a) and (b)."""
    s, op, text = q["depth"], q["op"], q["text"]
    if op in ("s", "cover"):
        return got == f"exact {s}" if op == "s" else got == f"at_least {s}"
    if op == "chain":
        chain, _, tail = got.partition(" | ")
        terms = chain.split(" > ")
        return tail == f"exact {s}" and len(terms) == s + 1 and terms[0] == text
    verdict = "(a)" if text.startswith("Q(") else "(b)"
    return got.startswith(f"{verdict} ") and f"dims=[{2 * s + 1}, " in got


def deep_failing(q: dict) -> bool:
    return q["depth"] is not None and q["depth"] >= DEEP_FAILING[0]


def query_key(q: dict) -> str:
    return f"{q['op']} {q['text']}"


def run_queries(inputs: dict, rec) -> Outcome:
    expected = json.loads((EXPECTED / "queries.json").read_text())["answers"]
    cat = inputs["catalog"]
    out = Outcome(0.0)
    recursion_errors = 0
    t_start = perf_counter()
    for i, q in enumerate(inputs["queries"]):
        t0 = perf_counter()
        try:
            with rec.span("query", i):
                got = answer(q, cat, rec, i)
        except RecursionError:
            recursion_errors += 1
            got, reason = None, EXPECTED_FAILURE
        except Exception as err:  # any other crash is one failed query, reported
            got, reason = None, f"{type(err).__name__}: {err}"
        elapsed = perf_counter() - t0
        out.attempted += 1
        out.starts.append(t0)
        if got is not None:
            if q["depth"] is not None:
                ok = deep_ok(q, got)
            else:
                ok = short(got) == expected.get(query_key(q))
            if ok:
                out.latencies.append(elapsed)
                continue
            reason = f"wrong answer {short(got)!r}"
        if not (reason == EXPECTED_FAILURE and deep_failing(q)):
            out.wrong += 1
            reason = f"unexpected: {reason}"
        out.failed += 1
        out.latencies.append(None)
        out.failures.append([i, query_key(q), reason])
    out.wall_s = perf_counter() - t_start
    out.counts = {"recursion_errors": recursion_errors}
    return out


def query_layers(out: Outcome, spans: list) -> dict:
    failed = {f[0] for f in out.failures}
    deep = [e - s for n, s, e, _, op in spans if n == "chains.deep" and op not in failed]
    return {
        "catalog.lookup_ms": 1e3 * median(durations(spans, "catalog.lookup")),
        "chains.query_ms": 1e3 * median(durations(spans, "chains.s")),
        "chains.witness_ms": 1e3 * median(durations(spans, "chains.witness")),
        "chains.cover_ms": 1e3 * median(durations(spans, "chains.cover")),
        "chains.deep_ms": 1e3 * median(deep),
        "chains.recursion_errors": out.counts["recursion_errors"],
        "checks.classify_ms": 1e3 * median(durations(spans, "checks.classify")),
        "dsl.parse_us": 1e6 * median(durations(spans, "dsl.parse")),
        "trace.trace_ms": 1e3 * median(durations(spans, "trace.trace")),
    }


# ---------------------------------------------------------------------------
# secant


def secant_inputs(seed: int) -> dict:
    return {"cfg": RankConfig(seed=seed), "d": SECANT_D, "m": SECANT_M}


class _Instrument:
    """Wraps the secant module's row and method functions for one suite run.

    Rows are always timed (they are the workload's operations); with a real
    recorder the three methods and every ``rank_mod_p`` call inside them get
    spans too.  The originals are restored on exit.
    """

    NAMES = {"span_dim_numeric": "secant.span",
             "secant_dim_terracini": "secant.terracini",
             "secant_dim_chordmap": "secant.chord",
             "rank_mod_p": "modp.rank"}

    def __init__(self, rec, rows: list):
        self.rec, self.rows, self.saved = rec, rows, {}

    def _wrap(self, attr: str, fn):
        rec, rows = self.rec, self.rows
        if attr == "secant_row":
            def wrapped(*args, **kwargs):
                t0 = perf_counter()
                with rec.span("secant.row", len(rows)):
                    out = fn(*args, **kwargs)
                rows.append((t0, perf_counter() - t0))
                return out
        else:
            name = self.NAMES[attr]

            def wrapped(*args, **kwargs):
                with rec.span(name, len(rows)):
                    return fn(*args, **kwargs)
        return wrapped

    def __enter__(self):
        attrs = ["secant_row"] + (list(self.NAMES) if self.rec.enabled else [])
        for attr in attrs:
            self.saved[attr] = getattr(secant_mod, attr)
            setattr(secant_mod, attr, self._wrap(attr, self.saved[attr]))
        return self

    def __exit__(self, *exc):
        for attr, fn in self.saved.items():
            setattr(secant_mod, attr, fn)
        return False


def run_secant(inputs: dict, rec) -> Outcome:
    t0 = perf_counter()
    rows: list = []  # (start, seconds) per secant row, in suite order
    grid = [(kind, d, m) for kind in ("segre", "scroll")
            for d in sorted(set(inputs["d"]) | {1}) for m in inputs["m"]]
    out = Outcome(0.0)
    try:
        with _Instrument(rec, rows):
            rep = verify_secant_dimensions(inputs["d"], inputs["m"], inputs["cfg"])
    except EngineError as err:  # e.g. DegenerateRandomness: every row fails
        out.attempted = out.failed = out.wrong = len(grid)
        out.latencies = [None] * len(grid)
        out.starts = [t0] * len(grid)
        out.failures.append([-1, "suite", f"{type(err).__name__}: {err}"])
        out.wall_s = perf_counter() - t0
        out.counts = {"rows": len(rows)}
        return out
    by_row: dict[str, list] = {}
    for r in rep.records:
        by_row.setdefault(r.term, []).append(r)
    for i, ((start, seconds), (kind, d, m)) in enumerate(zip(rows, grid)):
        name = f"{kind}(d={d},m={m})"
        recs = by_row.get(name, [])
        checks = {r.check: r.passed for r in recs}
        want = ["secant.span-linear-normality", "secant.method-agreement"]
        if d >= 2:  # 2m+1; the d = 1 control rows assert no dimension
            want.append("secant.dimension")
        ok = all(checks.get(c) is True for c in want) and not any(
            r.passed is False for r in recs)
        out.attempted += 1
        out.starts.append(start)
        if ok:
            out.latencies.append(seconds)
        else:
            out.failed += 1
            out.wrong += 1
            out.latencies.append(None)
            out.failures.append([i, name, "; ".join(r.line() for r in recs if r.passed is not True)])
    out.check("secant.rows", len(rows) == len(grid) == rep.counters.get("rows"),
              f"{len(rows)} rows timed, suite counted {rep.counters.get('rows')}")
    out.wall_s = perf_counter() - t0
    out.counts = {"rows": len(rows)}
    return out


def secant_layers(out: Outcome, spans: list) -> dict:
    t = totals(spans)
    return {
        "secant.span_s": t["secant.span"],
        "secant.terracini_s": t["secant.terracini"],
        "secant.chord_s": t["secant.chord"],
        "modp.rank_suite_s": t["modp.rank"],
        "secant.rows": out.counts["rows"],
    }


WORKLOADS = {
    "sweep": (sweep_inputs, run_sweep, sweep_layers),
    "queries": (query_inputs, run_queries, query_layers),
    "secant": (secant_inputs, run_secant, secant_layers),
}
