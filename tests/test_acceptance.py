"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact (integer or set equality); the stated runtime budgets
are asserted with time.perf_counter around the relevant computation.
"""

import time

import pytest

from fanolines.catalog import build_catalog
from fanolines.chains import ChainEngine
from fanolines.checks import (
    classify_by_s,
    golden_suite,
    verify_family_lemmas,
    verify_next_to_maximal,
)
from fanolines.cli import main
from fanolines.dsl import to_text
from fanolines.secant import verify_secant_dimensions
from fanolines.terms import (
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    Quadric,
    SympGrassmann,
    ambient_dim,
    covered_by_lines,
    dim,
    family_dim,
    is_fano,
    normalize,
)


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_golden_values():
    eng = ChainEngine()
    start = time.perf_counter()
    rep = golden_suite(40, 15, engine=eng)
    elapsed = time.perf_counter() - start
    report(1, rep.ok and elapsed < 1.0,
           f"golden chain values up to P^40 / Q^40 / m = 15 in {elapsed:.3f}s"
           f" ({len(rep.records)} exact equalities)")


def test_criterion_2_two_quadrics_in_p7():
    eng = ChainEngine()
    start = time.perf_counter()
    term = CompleteIntersection((2, 2), 7)
    sv = eng.s_invariant(term)
    bound = eng.covering_ls_bound(term)
    elapsed = time.perf_counter() - start
    ok = sv.is_exact and sv.value == 1 and bound.value >= 2 and elapsed < 1.0
    report(2, ok, f"S(CI(2,2;7)) = {sv.value} (exact), covering bound"
                  f" >= {bound.value}, in {elapsed:.3f}s")


def test_criterion_3_classification_sweep(cat15, capsys):
    start = time.perf_counter()
    code = main(["verify", "--suite", "thm1", "--nmax", "15", "--degmax", "4",
                 "--quiet"])
    capsys.readouterr()
    seven = {to_text(v) for v in classify_by_s(cat15, 7, 3)}
    three = {to_text(v) for v in classify_by_s(cat15, 3, 1)}
    elapsed = time.perf_counter() - start
    ok = (
        code == 0
        and seven == {"Q(7)", "SG(2,6)"}
        and three == {"Q(3)", "CI(3;4)", "CI(2,2;5)", "LS(G(2,5),3)"}
        and elapsed < 10.0
    )
    with capsys.disabled():
        report(3, ok, f"classification sweep exit {code}; (7,3) -> {sorted(seven)};"
                      f" (3,1) -> {sorted(three)}; in {elapsed:.2f}s")


def test_criterion_4_next_to_maximal(cat15):
    start = time.perf_counter()
    rep = verify_next_to_maximal(cat15)
    elapsed = time.perf_counter() - start
    members = sum(1 for r in rep.records if r.check == "next-to-max.form")
    realized = sum(1 for r in rep.records if r.check.endswith("realizes"))
    report(4, rep.ok and elapsed < 10.0,
           f"{members} catalog members with S = dim-1 fit the two lists and"
           f" {realized} list members realize S = dim-1, in {elapsed:.2f}s")


def test_criterion_5_family_lemmas(cat15):
    start = time.perf_counter()
    rep = verify_family_lemmas(cat15)
    elapsed = time.perf_counter() - start
    vacuous = rep.counters.get("proper_linear_vacuous")
    triggered = rep.counters.get("proper_linear_triggered")
    ok = rep.ok and vacuous is not None and triggered == 0 and elapsed < 10.0
    report(5, ok, f"family implications: 0 failures; proper-linear check"
                  f" vacuous {vacuous} times, triggered {triggered}; in {elapsed:.2f}s")


def test_criterion_6_secant_dimensions():
    start = time.perf_counter()
    rep = verify_secant_dimensions((2, 3), (2, 3, 4))
    elapsed = time.perf_counter() - start
    asserted = [r for r in rep.records if r.check == "secant.dimension"]
    controls = [r for r in rep.records if r.check == "secant.control-span"]
    ok = (
        rep.ok
        and len(asserted) == 12
        and all(r.passed for r in asserted)
        and all(r.passed for r in controls)
        and elapsed < 30.0
    )
    report(6, ok, f"12 secant dimensions equal 2m+1 by both methods over"
                  f" 3 primes x 5 trials; degree-1 control spans equal 2m-1;"
                  f" in {elapsed:.2f}s")


def test_criterion_7_cross_rule_isomorphisms():
    start = time.perf_counter()
    pairs = [
        (Grassmann(2, 4), Quadric(4)),
        (LinearSectionG25(1), SympGrassmann(2, 5)),
    ]
    ok = True
    for left, right in pairs:
        s_left = ChainEngine().s_invariant(left)
        s_right = ChainEngine().s_invariant(right)
        ok = ok and s_left == s_right and s_left.is_exact
        ok = ok and family_dim(left) == family_dim(right)
        ok = ok and dim(left) == dim(right)
        ok = ok and ambient_dim(left) == ambient_dim(right)
        ok = ok and normalize(left) == normalize(right)
    elapsed = time.perf_counter() - start
    report(7, ok and elapsed < 1.0,
           f"G(2,4)/Q(4) and LS(G(2,5),1)/SG(2,5) agree on S, family_dim,"
           f" dim, ambient_dim through independent rule paths, in {elapsed:.3f}s")


def test_criterion_8_property_suite():
    eng = ChainEngine()
    cat = build_catalog(12, 4)
    failures = []
    for v in cat:
        sv = eng.s_invariant(v)
        if not (0 <= sv.value <= dim(v)):
            failures.append((v, "s out of range"))
        if sv.is_exact and (sv.value == dim(v)) != isinstance(v, LinearSpace):
            failures.append((v, "s = dim off the linear spaces"))
        if covered_by_lines(v) and not is_fano(v):
            failures.append((v, "covered but not Fano"))
        if normalize(v) != v or normalize(normalize(v)) != v:
            failures.append((v, "not canonical or not idempotent"))
        if ChainEngine().s_invariant(normalize(v)) != sv:
            failures.append((v, "s not invariant under normalize"))
    report(8, not failures,
           f"catalog(n_max=12): {len(cat)} members, {len(failures)} property"
           f" failures" + (f": {failures[:3]}" if failures else ""))
