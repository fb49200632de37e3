"""Case-analysis traces for terms with invariant (dim - 1) / 2."""

import pytest

from fanolines.catalog import build_catalog
from fanolines.chains import ChainEngine
from fanolines.dsl import parse_variety
from fanolines.errors import PreconditionFailed, TraceError
from fanolines.terms import dim, exact, normalize, picard_number
from fanolines.trace import classification_trace


@pytest.mark.parametrize(
    "expr, case, verdict, conjectural, dims",
    [
        ("Q(5)", "case1", "a", False, (5, 3, 1)),
        ("Q(3)", "case1", "a", False, (3, 1)),
        ("Q(9)", "case1", "a", False, (9, 7, 5, 3, 1)),
        ("CI(3;4)", "case1", "c", False, (3, 0)),
        ("CI(2,2;5)", "case1", "d", False, (3, 0)),
        ("LS(G(2,5),3)", "case1", "e", False, (3, 0)),
        ("SG(2,5)", "case1", "b", False, (5, 2, 0)),
        ("LS(G(2,5),1)", "case1", "b", False, (5, 2, 0)),
        ("SG(2,6)", "case2", "b", True, (7, 3, 1, 0)),
        ("SG(2,9)", "case2", "b", True, (13, 6, 4, 3, 2, 1, 0)),
    ],
)
def test_trace_verdicts(expr, case, verdict, conjectural, dims):
    trace = classification_trace(parse_variety(expr))
    assert trace.case_tag == case
    assert trace.verdict == verdict
    assert trace.conjecture_used is conjectural
    assert trace.chain_dims == dims


def test_case1_quadric_lines_mention_the_drop():
    trace = classification_trace(parse_variety("Q(5)"))
    text = "\n".join(trace.inequality_lines)
    assert "n_0 - n_1 >= 2" in text
    assert "(here n_0 - n_1 = 2)" in text
    assert "quadric" in text


def test_case1_hyperplane_section_eliminations():
    trace = classification_trace(parse_variety("SG(2,5)"))
    text = "\n".join(trace.inequality_lines)
    assert "cubic" in text and "excluded" in text
    assert "isomorphic to SG(2,C^5)" in text


def test_case2_lines_carry_the_actual_numbers():
    trace = classification_trace(parse_variety("SG(2,8)"))
    m = 5
    text = "\n".join(trace.inequality_lines)
    assert f"n_1 = {m}" in text
    assert "i = 2" in text
    assert "conjectural" in text
    assert trace.chain_dims[1] == m


def test_conjecture_used_iff_case2_verdict_b():
    cat = build_catalog(13, 4)
    eng = ChainEngine()
    for v in cat:
        n = dim(v)
        if n < 3 or n % 2 == 0 or picard_number(v) != 1:
            continue
        sv = eng.s_invariant(v)
        if not (sv.is_exact and 2 * sv.value == n - 1):
            continue
        trace = classification_trace(v, eng)
        assert trace.conjecture_used == (trace.case_tag == "case2")
        if trace.conjecture_used:
            assert trace.verdict == "b"
        # the verdict letter names the member itself
        assert trace.chain_dims[0] == n


@pytest.mark.parametrize(
    "expr",
    [
        "Q(4)",            # even dimension
        "Prod(P(1):1,P(2):1)",  # Picard number 2
        "CI(2,2;7)",       # S = 1 but (dim-1)/2 = 2
        "P(5)",            # S = dim, not (dim-1)/2
        "Q(1)",            # dimension too small
    ],
)
def test_trace_preconditions(expr):
    with pytest.raises(PreconditionFailed):
        classification_trace(parse_variety(expr))


@pytest.mark.parametrize("expr, step", [
    ("Q(11)", 2),    # Q(7), in the middle of the quadric run
    ("SG(2,9)", 3),  # P(3), in the middle of the linear tail below the scroll
])
def test_trace_checks_every_chain_node_against_the_memo(expr, step):
    term = parse_variety(expr)
    eng = ChainEngine()
    assert classification_trace(term, eng) == classification_trace(term)
    chain = eng.witness_chain(term)
    m = len(chain) - 1
    eng._s_memo[normalize(chain[step])] = exact(m - step + 1)  # true value is m - step
    # the root keeps its value and the walk its chain, which follows the rules
    assert eng.s_invariant(term) == exact(m)
    assert eng.witness_chain(term) == chain
    with pytest.raises(TraceError, match=f"at step {step},"):
        classification_trace(term, eng)


def test_trace_uses_a_fresh_engine_consistently():
    v = parse_variety("SG(2,7)")
    trace = classification_trace(v, ChainEngine())
    assert trace.verdict == "b"
    assert trace.chain_dims[0] == dim(v)
    assert trace == classification_trace(v)  # a caller-held engine, then a fresh one
