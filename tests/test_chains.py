"""Chain invariant, witness chains, trees, and covering bounds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanolines
from fanolines.chains import ChainEngine
from fanolines.dsl import parse_variety, to_text
from fanolines.errors import NotCoveredByLines
from fanolines.families import family_outcome
from fanolines.terms import (
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    PolarizedProduct,
    Quadric,
    SympGrassmann,
    at_least,
    covered_by_lines,
    dim,
    exact,
    normalize,
)


# ---------------------------------------------------------------------------
# values


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("P(5)", exact(5)),
        ("P(1)", exact(1)),
        ("pt", exact(0)),
        ("Q(2)", exact(1)),
        ("Q(7)", exact(3)),
        ("Q(40)", exact(20)),
        ("G(2,4)", exact(2)),
        ("G(2,6)", exact(4)),
        ("SG(2,5)", exact(2)),
        ("SG(2,7)", exact(4)),
        ("CI(2,2;7)", exact(1)),
        ("CI(3;4)", exact(1)),
        ("CI(2,2;5)", exact(1)),
        ("CI(2,2;4)", exact(0)),
        ("LS(G(2,5),3)", exact(1)),
        ("Prod(P(1):1,P(3):1)", exact(3)),
        ("Prod(P(1):2,P(3):1)", exact(3)),
        ("Prod(P(1):1,P(1):1,P(1):1)", exact(1)),
        ("PB(2,1,1)", exact(2)),
        ("PB(5,4,4,4)", exact(3)),
        ("Q(1)", exact(0)),
        ("LS(G(2,5),4)", exact(0)),
    ],
)
def test_s_values(expr, expected):
    assert ChainEngine().s_invariant(parse_variety(expr)) == expected


def test_s_two_quadrics_in_p9_frozen_chain():
    # Hand-applied rewrite chain, frozen: CI(2,2;P^9) has families CI(2,2;P^6)
    # then CI(2,2;P^3), an elliptic curve not covered by lines.
    eng = ChainEngine()
    assert eng.s_invariant(CompleteIntersection((2, 2), 9)) == exact(2)
    assert eng.witness_chain(CompleteIntersection((2, 2), 9)) == [
        CompleteIntersection((2, 2), 9),
        CompleteIntersection((2, 2), 6),
        CompleteIntersection((2, 2), 3),
    ]


def test_s_lower_bounds_on_ruleless_terms():
    eng = ChainEngine()
    assert eng.s_invariant(SympGrassmann(3, 7)) == at_least(1)
    assert eng.s_invariant(LinearSectionG25(2)) == at_least(1)


def test_s_bounded_by_dim_with_equality_only_for_linear_spaces():
    eng = ChainEngine()
    for expr in ("P(6)", "Q(6)", "G(2,5)", "SG(2,6)", "CI(2,3;9)",
                 "Prod(P(2):1,P(3):1)", "PB(3,2,2)", "LS(G(2,5),3)"):
        term = parse_variety(expr)
        sv = eng.s_invariant(term)
        assert sv.value <= dim(term)
        if sv.is_exact and sv.value == dim(term):
            assert isinstance(normalize(term), LinearSpace)


# ---------------------------------------------------------------------------
# witness chains


@pytest.mark.parametrize(
    "expr, chain",
    [
        ("Q(7)", ["Q(7)", "Q(5)", "Q(3)", "Q(1)"]),
        ("SG(2,6)", ["SG(2,6)", "PB(2,1,1)", "P(1)", "pt"]),
        ("G(2,6)", ["G(2,6)", "Prod(P(1):1,P(3):1)", "P(2)", "P(1)", "pt"]),
        ("P(3)", ["P(3)", "P(2)", "P(1)", "pt"]),
        ("CI(2,2;7)", ["CI(2,2;7)", "CI(2,2;4)"]),
        ("Q(2)", ["Q(2)", "pt"]),
    ],
)
def test_witness_chains(expr, chain):
    got = ChainEngine().witness_chain(parse_variety(expr))
    assert [to_text(t) for t in got] == chain


def test_witness_chain_length_matches_exact_s():
    eng = ChainEngine()
    for expr in ("P(9)", "Q(11)", "G(2,7)", "SG(2,8)", "CI(2,2;9)",
                 "Prod(P(1):3,P(4):1)", "PB(2,1,1,1)"):
        term = parse_variety(expr)
        sv = eng.s_invariant(term)
        assert sv.is_exact
        assert len(eng.witness_chain(term)) - 1 == sv.value


def test_witness_chain_requires_coverage():
    eng = ChainEngine()
    with pytest.raises(NotCoveredByLines):
        eng.witness_chain(LinearSpace(0))
    with pytest.raises(NotCoveredByLines):
        eng.witness_chain(Quadric(1))


def test_engine_path_constructs_no_not_covered_exception(monkeypatch):
    # Uncovered nodes are an outcome of the lookup on the engine's path; only
    # the public raising entry points build the exception.
    from fanolines.catalog import build_catalog
    from fanolines.checks import (
        verify_classification,
        verify_family_lemmas,
        verify_next_to_maximal,
    )

    def refuse(self, *args):
        raise AssertionError("NotCoveredByLines constructed on the engine's path")

    cat = build_catalog(12, 4)
    monkeypatch.setattr(NotCoveredByLines, "__init__", refuse)
    eng = ChainEngine()
    for suite in (verify_classification, verify_next_to_maximal, verify_family_lemmas):
        rep = suite(cat, eng)
        assert rep.ok and rep.records, rep.suite
    with pytest.raises(AssertionError, match="engine's path"):
        eng.witness_chain(Quadric(1))  # the public path still raises


def test_witness_chain_stops_at_ruleless_terms():
    assert ChainEngine().witness_chain(LinearSectionG25(2)) == [LinearSectionG25(2)]


# ---------------------------------------------------------------------------
# chain trees, walked without the engine


def _deepest_chain(v) -> int:
    """Length of the deepest chain below ``v``: a memo-free recursion over
    every branch of ``family_outcome``, apart from the engine's walk."""
    fams, _ = family_outcome(v)
    return max((1 + _deepest_chain(fam) for fam, _, _ in fams), default=0)


def test_chain_tree_depth_equals_exact_s():
    eng = ChainEngine()
    for expr in ("Q(7)", "G(2,6)", "CI(2,2;7)", "Prod(P(2):1,P(3):1)", "SG(2,9)"):
        term = parse_variety(expr)
        assert _deepest_chain(term) == eng.s_invariant(term).value


def test_chain_tree_terminal_reasons():
    assert family_outcome(parse_variety("pt")) == ((), "not_covered")
    assert family_outcome(LinearSpace(0)) == ((), "not_covered")
    assert family_outcome(Quadric(1)) == ((), "not_covered")
    assert family_outcome(SympGrassmann(3, 7)) == ((), "no_rule")
    # the quadric tower is a single branch ending at the conic
    node, (fams, end) = Quadric(5), family_outcome(Quadric(5))
    while end is None:
        assert len(fams) == 1
        node = fams[0][0]
        fams, end = family_outcome(node)
    assert node == Quadric(1)
    assert end == "not_covered"


def test_product_tree_branches_per_degree_one_factor():
    fams, end = family_outcome(PolarizedProduct(((2, 1), (3, 1))))
    assert end is None
    assert len(fams) == 2
    assert {to_text(fam) for fam, _, _ in fams} == {"P(1)", "P(2)"}


def test_realizing_chains_enumerate_every_maximal_branch():
    eng = ChainEngine()
    # both rulings of the quadric surface realize the invariant of G(2,4)
    chains = list(eng.realizing_chains(parse_variety("G(2,4)")))
    assert len(chains) == 2
    assert all(len(c) - 1 == eng.s_invariant(parse_variety("G(2,4)")).value
               for c in chains)
    # only the deeper factor of an asymmetric product realizes it
    chains = list(eng.realizing_chains(parse_variety("Prod(P(2):1,P(3):1)")))
    assert [[to_text(t) for t in c] for c in chains] == [
        ["Prod(P(2):1,P(3):1)", "P(2)", "P(1)", "pt"]
    ]


# ---------------------------------------------------------------------------
# covering bounds


@pytest.mark.parametrize(
    "expr, bound",
    [
        ("CI(2,2;7)", 2),  # strictly above the chain invariant
        ("Q(6)", 3),
        ("P(4)", 4),
        ("G(2,6)", 4),
        ("SG(2,6)", 3),
        ("pt", 0),
        ("CI(3;4)", 1),
    ],
)
def test_covering_bounds(expr, bound):
    got = ChainEngine().covering_ls_bound(parse_variety(expr))
    assert got.kind == "at_least"
    assert got.value == bound


def test_covering_bound_dominates_s_over_a_catalog():
    from fanolines.catalog import build_catalog

    eng = ChainEngine()
    gap_witnessed = False
    for member in build_catalog(10, 4):
        s = eng.s_invariant(member).value
        bound = eng.covering_ls_bound(member).value
        assert bound >= s
        if bound > s:
            gap_witnessed = True
    assert gap_witnessed  # e.g. the intersection of two quadrics in P^7


# ---------------------------------------------------------------------------
# isomorphism consistency through independent rule paths


def test_cross_rule_grassmann_vs_quadric():
    left, right = Grassmann(2, 4), Quadric(4)
    assert ChainEngine().s_invariant(left) == ChainEngine().s_invariant(right) == exact(2)


def test_cross_rule_hyperplane_section_vs_symplectic():
    left, right = LinearSectionG25(1), SympGrassmann(2, 5)
    assert ChainEngine().s_invariant(left) == ChainEngine().s_invariant(right) == exact(2)


def test_memo_is_keyed_on_normal_forms():
    eng = ChainEngine()
    a = eng.s_invariant(Grassmann(2, 4))
    b = eng.s_invariant(Quadric(4))
    assert a is b  # the second call is a memo hit


def test_ruleless_branch_degrades_to_lower_bound(monkeypatch):
    # White box: inject a ruleless sibling whose dimension cap exceeds the
    # best exact branch; exactness must be given up.
    import fanolines.chains as chains_mod
    from fanolines.families import family_outcome as real_outcome

    parent = Quadric(9)
    reached = []

    def fake_outcome(v):
        if v == parent:
            reached.append(v)
            return ((Quadric(7), 8, 8), (LinearSectionG25(2), 8, 8)), None
        return real_outcome(v)

    monkeypatch.setattr(chains_mod, "family_outcome", fake_outcome)
    sv = chains_mod.ChainEngine().s_invariant(parent)
    assert reached == [parent]
    # exact branch gives 1 + 3 = 4; the ruleless one could reach 1 + 4 = 5
    assert sv == at_least(4)


def test_ruleless_branch_below_the_cap_keeps_exactness(monkeypatch):
    # The cap rule: a ruleless branch cannot beat an exact branch that
    # already meets its dimension bound, so the result stays exact.
    import fanolines.chains as chains_mod
    from fanolines.families import family_outcome as real_outcome

    parent = Quadric(9)
    ruleless = LinearSpace(3)  # not on the quadric tower, so only this
    # branch is affected by the injection
    reached = []

    def fake_outcome(v):
        if v == parent:
            reached.append(v)
            return ((Quadric(7), 8, 8), (ruleless, 8, 8)), None
        if v == ruleless:
            reached.append(v)
            return (), "no_rule"
        return real_outcome(v)

    monkeypatch.setattr(chains_mod, "family_outcome", fake_outcome)
    sv = chains_mod.ChainEngine().s_invariant(parent)
    # both injections were read: without the second one, S(P^3) = 3 would
    # keep the result exact and the test would pass vacuously
    assert reached == [parent, ruleless]
    # the ruleless branch is capped by 1 + dim = 4 = the exact branch value
    assert sv == exact(4)


def test_equally_deep_families_are_taken_in_text_order(monkeypatch):
    # White box: a node whose two families realize the same S, listed in
    # reverse text order; the walk must sort them.
    import fanolines.chains as chains_mod
    from fanolines.families import family_outcome as real_outcome

    parent = Quadric(9)
    reached = []

    def fake_outcome(v):
        if v == parent:
            reached.append(v)
            return ((Quadric(7), 8, 8), (LinearSpace(3), 8, 8)), None
        return real_outcome(v)

    monkeypatch.setattr(chains_mod, "family_outcome", fake_outcome)
    eng = chains_mod.ChainEngine()
    assert eng.s_invariant(parent) == exact(4)  # 1 + S(Q^7) = 1 + S(P^3)
    assert [to_text(t) for t in eng.witness_chain(parent)] == ["Q(9)", "P(3)", "P(2)", "P(1)", "pt"]
    assert [[to_text(t) for t in c] for c in eng.realizing_chains(parent)] == [
        ["Q(9)", "P(3)", "P(2)", "P(1)", "pt"],
        ["Q(9)", "Q(7)", "Q(5)", "Q(3)", "Q(1)"],
    ]
    assert reached and set(reached) == {parent}


def test_concurrent_queries_agree_with_serial_ones():
    from concurrent.futures import ThreadPoolExecutor

    from fanolines.catalog import build_catalog

    members = build_catalog(9, 3).members
    serial = [ChainEngine().s_invariant(v) for v in members]
    shared = ChainEngine()
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(shared.s_invariant, members))
    assert concurrent == serial


def test_s_invariant_under_normalize_with_fresh_engines():
    for expr in ("G(3,5)", "CI(2;7)", "Q(2)", "PB(2,2,2)", "LS(G(2,5),0)",
                 "LS(G(2,5),1)", "G(2,4)", "PB(1,1,1,1)"):
        term = parse_variety(expr)
        raw = ChainEngine().s_invariant(term)
        canon = ChainEngine().s_invariant(normalize(term))
        assert raw == canon


# ---------------------------------------------------------------------------
# one walk, one memo: answers independent of memo warmth and presentation


def _views(eng, v):
    witness = eng.witness_chain(v) if covered_by_lines(v) else None
    return witness, list(eng.realizing_chains(v)), eng.covering_ls_bound(v)


def test_views_agree_on_cold_and_warm_engines():
    from fanolines.catalog import build_catalog

    members = tuple(build_catalog(10, 3).members)
    warm = ChainEngine()
    for v in reversed(members):
        _views(warm, v)
    for v in members:
        assert _views(ChainEngine(), v) == _views(warm, v), to_text(v)


@pytest.mark.parametrize("first, second", [
    ("G(3,5)", "G(2,5)"), ("G(2,5)", "G(3,5)"),
    ("CI(2;7)", "Q(6)"), ("Q(6)", "CI(2;7)"),
    ("PB(2,2,2)", "Prod(P(1):2,P(2):1)"), ("Prod(P(1):2,P(2):1)", "PB(2,2,2)"),
])
def test_views_do_not_depend_on_the_presentation_asked_first(first, second):
    eng = ChainEngine()
    _views(eng, parse_variety(first))
    term = parse_variety(second)
    assert _views(eng, term) == _views(ChainEngine(), term)
    assert all(chain[0] == term for chain in eng.realizing_chains(term))


# ---------------------------------------------------------------------------
# the walk against a reference that asks S of every family on every node


def _reference_chains(eng, v):
    """Every chain below ``v`` attaining S(v), plain and slow: a node at
    depth i keeps each family with 1 + S(family) = S(v) - i, asked of the
    engine, in the order of the families' normal-form texts."""
    top = eng.s_invariant(v).value
    chains, stack = [], [[v]]
    while stack:
        path = stack.pop()
        target = top - (len(path) - 1)
        fams = family_outcome(path[-1])[0] if target > 0 else ()
        steps = sorted((fam for fam, _, _ in fams if 1 + eng.s_invariant(fam).value == target),
                       key=lambda fam: to_text(normalize(fam)))
        if steps:
            stack.extend(path + [step] for step in reversed(steps))
        else:
            chains.append(path)
    return chains


@pytest.mark.parametrize("grid", [(12, 4), (15, 4)])
def test_realizing_chains_match_the_reference_over_a_catalog(grid):
    from fanolines.catalog import build_catalog

    members = [v for v in build_catalog(*grid) if covered_by_lines(v)]
    warm = ChainEngine()  # every member walked first, in reverse order
    for v in reversed(members):
        list(warm.realizing_chains(v))
    for v in members:
        expected = _reference_chains(ChainEngine(), v)
        assert list(ChainEngine().realizing_chains(v)) == expected, to_text(v)
        assert list(warm.realizing_chains(v)) == expected, to_text(v)


#: Deep single-family runs at S = 300 and multi-family products, each with the
#: terms an engine is warmed by first: other presentations of the term or of
#: its families, and terms sharing its tail.
_WARMED_BY = {
    "P(300)": ("G(1,301)", "G(300,301)"),
    "Q(601)": ("CI(2;602)", "Q(599)"),
    "G(2,302)": ("G(300,302)", "P(299)"),
    "SG(2,303)": ("SG(2,302)", "P(299)"),
    "G(2,4)": ("Q(4)", "PB(1,1)"),
    "Prod(P(2):1,P(3):1)": ("G(2,6)", "P(3)"),
}


@pytest.mark.parametrize("expr", _WARMED_BY)
def test_realizing_chains_match_the_reference_cold_and_warm(expr):
    term = parse_variety(expr)
    expected = _reference_chains(ChainEngine(), term)
    assert list(ChainEngine().realizing_chains(term)) == expected
    warm = ChainEngine()
    for other in _WARMED_BY[expr]:
        list(warm.realizing_chains(parse_variety(other)))
    assert list(warm.realizing_chains(term)) == expected
    assert len(expected[0]) - 1 == ChainEngine().s_invariant(term).value


@pytest.mark.parametrize("expr", ["P(500)", "Q(1001)"])
def test_witness_walk_asks_the_invariant_only_of_the_root(expr, monkeypatch):
    # A single-family run is followed by its rule alone.
    asked = []
    real = ChainEngine.s_invariant

    def spy(self, v):
        asked.append(v)
        return real(self, v)

    monkeypatch.setattr(ChainEngine, "s_invariant", spy)
    term = parse_variety(expr)
    assert len(ChainEngine().witness_chain(term)) == 501
    assert asked == [term]


def test_realizing_chains_walk_is_not_bounded_by_the_recursion_limit():
    # S(Q^5001) = 2500: the invariant and the walk both spend no stack frame
    # per chain step.
    chains = list(ChainEngine().realizing_chains(Quadric(5001)))
    assert len(chains) == 1
    assert len(chains[0]) == 2501
    assert chains[0][0] == Quadric(5001) and chains[0][-1] == Quadric(1)


#: Run in a fresh process under a recursion limit of 120 frames: every view
#: of each deep term, each on a cold engine.
_LOW_LIMIT_SCRIPT = """
import json, sys
from fanolines.chains import ChainEngine
from fanolines.dsl import parse_variety
from fanolines.errors import PreconditionFailed
from fanolines.trace import classification_trace
sys.setrecursionlimit(120)
out = {}
for text in sys.argv[1:]:
    term = parse_variety(text)
    sv = ChainEngine().s_invariant(term)
    chain = ChainEngine().witness_chain(term)
    try:
        trace = classification_trace(term, ChainEngine())
        verdict = [trace.verdict, len(trace.chain_dims)]
    except PreconditionFailed:
        verdict = None
    out[text] = [sv.kind, sv.value, len(chain), chain[0] == term,
                 ChainEngine().covering_ls_bound(term).value, verdict]
print(json.dumps(out))
"""

#: Closed forms: S(P^n) = n, S(Q^(2m+1)) = m, S(G(2,m+2)) = m, S(SG(2,m+3)) =
#: m and S(P^a x P^b) = 1 + max(a, b) - 1; the covering bound equals S on
#: each, and only Q^(2m+1) and SG(2,m+3) meet the trace's preconditions.
_LOW_LIMIT_ANSWERS = {
    "P(5000)": ["exact", 5000, 5001, True, 5000, None],
    "Q(10001)": ["exact", 5000, 5001, True, 5000, ["a", 5001]],
    "G(2,5002)": ["exact", 5000, 5001, True, 5000, None],
    "SG(2,5003)": ["exact", 5000, 5001, True, 5000, ["b", 5001]],
    "Prod(P(3000):1,P(2000):1)": ["exact", 3000, 3001, True, 3000, None],
}


def test_deep_views_stay_within_a_low_recursion_limit():
    # Only a node with several families recurses, and its families are
    # linear spaces, so the stack depth does not grow with the chain.
    src = str(Path(fanolines.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LOW_LIMIT_SCRIPT, *_LOW_LIMIT_ANSWERS],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _LOW_LIMIT_ANSWERS
