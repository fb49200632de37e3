"""Property-based checks of the algebraic identities the engine relies on."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from fanolines.chains import ChainEngine
from fanolines.dsl import parse_variety, to_text
from fanolines.catalog import build_catalog
from fanolines.errors import NoRule, NotCoveredByLines, PreconditionFailed
from fanolines.families import expand_ci_degrees, family_outcome, line_families
from fanolines.terms import (
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    PolarizedProduct,
    ProjBundleP1,
    Quadric,
    SympGrassmann,
    ambient_dim,
    covered_by_lines,
    dim,
    family_dim,
    is_fano,
    is_linear,
    normalize,
    picard_number,
    s_ceiling,
)
from fanolines.trace import classification_trace

# Bounds keep the catalogs and each example small; they exercise every
# constructor arm all the same.  The deep arm below reaches dimension 5,000.

linear_spaces = st.integers(0, 12).map(LinearSpace)
quadrics = st.integers(1, 12).map(Quadric)
grassmannians = st.tuples(st.integers(1, 5), st.integers(2, 9)).filter(
    lambda kn: kn[0] <= kn[1] - 1
).map(lambda kn: Grassmann(*kn))
symplectic = st.tuples(st.integers(2, 4), st.integers(5, 11)).filter(
    lambda kn: kn[1] >= 2 * kn[0] + 1
).map(lambda kn: SympGrassmann(*kn))
complete_intersections = st.tuples(
    st.lists(st.integers(2, 4), min_size=1, max_size=3), st.integers(2, 12)
).filter(lambda dn: len(dn[0]) < dn[1]).map(
    lambda dn: CompleteIntersection(tuple(dn[0]), dn[1])
)
factors = st.tuples(st.integers(1, 4), st.integers(1, 3))
products = st.lists(factors, min_size=2, max_size=3).map(
    lambda fs: PolarizedProduct(tuple(fs))
)
scrolls = st.lists(st.integers(1, 4), min_size=2, max_size=5).map(
    lambda tw: ProjBundleP1(tuple(tw))
)
sections = st.integers(0, 4).map(LinearSectionG25)

terms = st.one_of(
    linear_spaces, quadrics, grassmannians, symplectic, complete_intersections,
    products, scrolls, sections,
)


@given(terms)
def test_normalize_is_idempotent(v):
    assert normalize(normalize(v)) == normalize(v)


@given(st.one_of(
    linear_spaces, quadrics, grassmannians, symplectic, complete_intersections, scrolls, sections,
    st.tuples(st.integers(1, 12), st.integers(2, 12)).map(lambda dk: ProjBundleP1((dk[0],) * dk[1])),
))
@example(Quadric(2))
@example(CompleteIntersection((2,), 3))
@example(ProjBundleP1((1,) * 2))
@example(ProjBundleP1((2,) * 3))
@example(ProjBundleP1((3,) * 4))
@example(ProjBundleP1((1,) * 5))
@example(ProjBundleP1((2,) * 6))
@example(ProjBundleP1((3,) * 7))
@example(ProjBundleP1((1,) * 8))
@example(ProjBundleP1((2,) * 9))
@example(ProjBundleP1((3,) * 10))
@example(ProjBundleP1((1,) * 11))
@example(ProjBundleP1((2,) * 12))
def test_normalize_makes_products_only_of_two_factors(v):
    # The premise of the catalog build's product merge: every product that
    # ``add`` makes from another constructor is a pair, so none sorts inside
    # a walk pair's run of triples.
    normal = v._normalize()  # what the build's ``add`` asks
    assert type(normal) is not PolarizedProduct or len(normal.factors) == 2


@given(terms)
def test_the_point_is_the_one_normal_form_of_dimension_zero(v):
    assert (normalize(v) == LinearSpace(0)) == (dim(v) == 0)


def _answers(v) -> tuple:
    """Every invariant of ``v``, the chain ones on a fresh engine each."""
    return (dim(v), ambient_dim(v), picard_number(v), is_fano(v), family_dim(v),
            covered_by_lines(v), is_linear(v), ChainEngine().max_linear_in(v),
            ChainEngine().s_invariant(v), ChainEngine().covering_ls_bound(v))


@given(terms)
def test_normalize_preserves_dimension_and_coverage(v):
    # No answer may depend on the presentation asked.
    assert _answers(normalize(v)) == _answers(v)


@given(terms)
def test_normalize_preserves_family_dimension(v):
    if dim(v) == 0:
        return
    nv = normalize(v)
    assert family_dim(nv) == family_dim(v)


@settings(max_examples=60)
@given(terms)
def test_normalize_preserves_the_chain_invariant(v):
    raw = ChainEngine().s_invariant(v)
    canon = ChainEngine().s_invariant(normalize(v))
    assert raw == canon


@given(terms)
def test_round_trip_through_the_surface_syntax(v):
    assert parse_variety(to_text(v)) == v


@settings(max_examples=60)
@given(terms)
def test_s_at_most_dim_with_equality_only_on_linear_spaces(v):
    sv = ChainEngine().s_invariant(v)
    assert 0 <= sv.value <= dim(v)
    if sv.is_exact:
        assert (sv.value == dim(v)) == is_linear(v)


@settings(max_examples=60)
@given(terms)
def test_covering_bound_dominates_the_invariant(v):
    eng = ChainEngine()
    assert eng.covering_ls_bound(v).value >= eng.s_invariant(v).value


@settings(max_examples=60)
@given(terms)
def test_witness_chain_realizes_exact_invariants(v):
    eng = ChainEngine()
    sv = eng.s_invariant(v)
    if not (sv.is_exact and covered_by_lines(v)):
        return
    chain = eng.witness_chain(v)
    assert len(chain) - 1 == sv.value
    dims = [dim(t) for t in chain]
    assert dims == sorted(dims, reverse=True)


@given(terms)
def test_family_records_are_well_formed(v):
    try:
        fams = line_families(v)
    except (NotCoveredByLines, NoRule):
        return
    assert fams, "covered terms with a rule must produce at least one family"
    for fam in fams:
        d = dim(fam.variety)
        assert d <= fam.span_in_pt <= fam.ambient_pt_dim == dim(v) - 1
        assert fam.anticanonical_degree == d + 2
    if picard_number(v) == 1:
        assert {dim(f.variety) for f in fams} == {family_dim(v)}


@given(terms)
def test_negative_family_dim_means_no_lines(v):
    if family_dim(v) < 0:
        assert not covered_by_lines(v)


@given(terms)
def test_max_linear_bounded_by_dim(v):
    kind, value = ChainEngine().max_linear_in(v)
    assert 0 <= value <= dim(v)
    if kind == "exact":
        assert (value == dim(v)) == is_linear(v)


def _deepest_chain(v) -> int:
    """Length of the deepest chain below ``v``: a memo-free recursion over
    every branch of ``family_outcome``, apart from the engine's walk."""
    fams, _ = family_outcome(v)
    return max((1 + _deepest_chain(fam) for fam, _, _ in fams), default=0)


@given(terms)
def test_chain_tree_depth_matches_exact_values(v):
    sv = ChainEngine().s_invariant(v)
    if sv.is_exact:
        assert _deepest_chain(v) == sv.value


@settings(max_examples=60)
@given(terms)
def test_witness_chain_is_the_first_realizing_chain(v):
    if not covered_by_lines(v):
        return
    eng = ChainEngine()
    assert eng.witness_chain(v) == list(eng.realizing_chains(v))[0]


def _expand_ci_degrees_reference(degrees):
    """Every 2..d for every degree d, sorted afterwards."""
    return tuple(sorted(j for d in degrees for j in range(2, d + 1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 8), min_size=1, max_size=5))
def test_expand_ci_degrees_matches_the_naive_expansion(degrees):
    expected = _expand_ci_degrees_reference(degrees)
    assert expand_ci_degrees(tuple(degrees)) == expected
    assert expand_ci_degrees(tuple(sorted(degrees))) == expected


#: Deep terms up to dimension about 5,000, in several presentations: chains
#: of every depth up to 5,000 (P^n, Q^n, G(2,N) and G(N-2,N), SG(2,N), a
#: quadric written as CI(2;N)), short chains from a big complete
#: intersection, and products and scrolls with large linear tails.
deep_terms = st.one_of(
    st.integers(1, 5000).map(LinearSpace),
    st.integers(1, 5000).map(Quadric),
    st.integers(4, 2502).map(lambda N: Grassmann(2, N)),
    st.integers(4, 2502).map(lambda N: Grassmann(N - 2, N)),
    st.integers(5, 2502).map(lambda N: SympGrassmann(2, N)),
    st.tuples(st.lists(st.integers(2, 4), min_size=1, max_size=3), st.integers(100, 5000)).map(
        lambda dn: CompleteIntersection(tuple(dn[0]), dn[1])),
    st.lists(st.tuples(st.integers(1, 2500), st.integers(1, 2)), min_size=2, max_size=3).filter(
        lambda fs: sum(n for n, _ in fs) <= 5000).map(lambda fs: PolarizedProduct(tuple(fs))),
    st.tuples(st.integers(1, 3), st.integers(2, 5000)).map(
        lambda dk: ProjBundleP1((dk[0],) + (1,) * (dk[1] - 1))),
)


def _deep_views(eng, v) -> tuple:
    """S, the witness chain (in normal forms), the covering bound and the
    trace, or the exception the trace raises."""
    witness = [normalize(t) for t in eng.witness_chain(v)] if covered_by_lines(v) else None
    try:
        trace = classification_trace(v, eng)
    except PreconditionFailed:
        trace = PreconditionFailed
    return eng.s_invariant(v), witness, eng.covering_ls_bound(v), trace


@settings(max_examples=20, deadline=None)
@given(deep_terms, deep_terms)
def test_deep_views_do_not_depend_on_warmth_order_or_presentation(u, v):
    cold = {u: _deep_views(ChainEngine(), u), v: _deep_views(ChainEngine(), v)}
    for first, second in ((u, v), (v, u)):  # each term warmed by the other
        eng = ChainEngine()
        assert _deep_views(eng, first) == cold[first]
        assert _deep_views(eng, second) == cold[second]
    assert _deep_views(ChainEngine(), normalize(u)) == cold[u]


def _within_family_bound(eng, v) -> bool:
    """S <= ``terms.s_ceiling``, the one shared ceiling: 1 + family_dim on a
    covered term, and 0 (so S = 0) on one that is not.

    Four things rest on it, each reading the ceiling: the CLI's depth cap,
    the skip in ``checks.verify_next_to_maximal`` (S asked only where the
    ceiling reaches n - 1), the skip in ``checks.classify_by_s`` (S asked
    only where it reaches s) and the skip in ``checks.verify_classification``
    (S not asked where 2 * ceiling < n - 1 and the constructor has no
    ruleless case).
    """
    return eng.s_invariant(v).value <= s_ceiling(v)


@settings(max_examples=40, deadline=None)
@given(deep_terms)
def test_s_is_at_most_one_more_than_the_family_dimension_at_depth(v):
    assert _within_family_bound(ChainEngine(), v)


def test_s_is_at_most_one_more_than_the_family_dimension_on_the_catalog():
    eng = ChainEngine()
    assert [to_text(v) for v in build_catalog(20, 5) if not _within_family_bound(eng, v)] == []


@given(terms)
def test_s_ceiling_is_one_more_than_the_family_dimension_on_covered_terms(v):
    # The ceiling's definition, from family_dim alone; the point P^0 has
    # family dimension -1.
    covered = family_dim(v) >= 0
    assert s_ceiling(v) == (1 + family_dim(v) if covered else 0)
    assert covered_by_lines(v) == covered
    assert s_ceiling(normalize(v)) == s_ceiling(v)


@given(terms)
def test_family_dim_is_the_one_coverage_test(v):
    # One predicate for every term, points included: the coverage test, the
    # ceiling and the reason a chain ends all read the sign of family_dim.
    fd = family_dim(v)
    assert covered_by_lines(v) == (fd >= 0)
    assert s_ceiling(v) == max(0, 1 + fd)
    assert (family_outcome(v)[1] == "not_covered") == (fd < 0)
