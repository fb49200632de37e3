"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NULL, Recorder, self_times, totals  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    #  root  [0, 10]
    #    a   [1, 4]       grandchild g [2, 3]
    #    b   [3, 6]       overlaps a on [3, 4]
    #    c   [9, 12]      runs past the end of root
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("g", 2.0, 3.0, 1, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("c", 9.0, 12.0, 0, 0),
    ]
    # root: children cover [1, 6] and [9, 10], 6 of its 10 units.
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]
    assert totals(spans) == {"root": 4.0, "a": 2.0, "g": 1.0, "b": 3.0, "c": 3.0}
    assert totals(spans, self_time=False)["root"] == 10.0


def test_recorder_nests_spans_and_null_records_nothing():
    rec = Recorder()
    with rec.span("outer", op=3):
        with rec.span("inner", op=3):
            pass
    (outer, inner) = rec.spans
    assert outer[0] == "outer" and outer[3] == -1 and outer[4] == 3
    assert inner[0] == "inner" and inner[3] == 0
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    with NULL.span("x"):
        pass
    assert NULL.spans == []


def test_failures_rank_after_every_success():
    latencies = [0.003, None, 0.001, 0.002, None]
    assert run.percentile(latencies, 0.5, worst=9.0) == 0.003
    assert run.percentile(latencies, 0.9, worst=9.0) == 9.0
    assert run.percentile([0.001, 0.002], 0.5, worst=9.0) == 0.001


def test_times_scale_by_each_iteration_speed():
    ref = run.REFERENCE_CHUNK_S
    calm = {"wall_s": 2.0, "run_chunk_s": ref, "setup_s": 0.1, "setup_chunk_s": ref,
            "latencies": [0.5, None, 1.5], "op_chunk_s": [ref, None, ref],
            "attempted": 3, "failed": 1, "peak_rss_mb": 9.0}
    slow = {**calm, "wall_s": 3.0, "run_chunk_s": 1.5 * ref, "setup_s": 0.2,
            "setup_chunk_s": 2 * ref, "latencies": [0.75, None, 3.0],
            "op_chunk_s": [1.5 * ref, None, 2 * ref]}
    got = run.end_to_end([calm, slow, calm], [calm, slow, calm])
    assert got["wall_s"] == pytest.approx(2.0)
    assert got["setup_s"] == pytest.approx(0.1)
    assert got["op_p50_ms"] == pytest.approx(1500.0)  # 0.5 s, 1.5 s, then the failure
    assert got["op_p90_ms"] == pytest.approx(2000.0)  # lands on the failure: slowest wall
    assert got["ok_ratio"] == pytest.approx(2 / 3)


def test_only_recursion_errors_at_failing_depths_are_expected(monkeypatch):
    def fake_answer(q, cat, rec, i):
        if q["text"] == "crash":
            raise TypeError("boom")
        if q["depth"] is not None:
            raise RecursionError
        return "wrong"

    monkeypatch.setattr(workloads, "answer", fake_answer)
    deep, failing = workloads.DEEP_SAFE[1], workloads.DEEP_FAILING[0]
    queries = [{"op": "s", "text": "P(1)", "depth": None},
               {"op": "s", "text": "crash", "depth": None},
               {"op": "s", "text": f"P({deep})", "depth": deep},
               {"op": "s", "text": f"P({failing})", "depth": failing}]
    out = workloads.run_queries({"catalog": None, "queries": queries}, NULL)
    assert (out.attempted, out.failed, out.wrong) == (4, 4, 3)
    assert [f[2] for f in out.failures] == [
        "unexpected: wrong answer 'wrong'", "unexpected: TypeError: boom",
        "unexpected: RecursionError", "RecursionError"]


def test_useful_ratio_counts_the_members_iterated():
    cat = workloads.CountingCatalog(workloads.build_catalog(4, 2))
    assert len(cat) > 2
    next(iter(cat))
    assert cat.iterated[0] == 1
    assert list(cat) == list(cat.members) and cat.iterated[0] == 1 + len(cat)


def _queries(seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "queries",
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2])
def test_traced_and_untraced_runs_fail_the_same_queries(seed):
    plain, traced = _queries(seed, 0), _queries(seed, 1)
    assert plain["failures"] == traced["failures"]
    assert plain["wrong"] == traced["wrong"] == 0
    # The cold-recursion defect stays visible: deep queries fail at this seed.
    assert plain["counts"]["recursion_errors"] > 0
    assert {reason for _, _, reason in plain["failures"]} == {"RecursionError"}


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
