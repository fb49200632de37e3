"""Family rewrite rules, their spans, and the recognition rules."""

import time
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fanolines.catalog import build_catalog
from fanolines.dsl import parse_variety, to_text
from fanolines.errors import NoRule, NotCoveredByLines
from fanolines.families import (
    _ONE_FAMILY_ROWS,
    _RULE_TABLE,
    _RULES,
    ONE_FAMILY_CONSTRUCTORS,
    RULELESS_CONSTRUCTORS,
    FamilyRecord,
    RULE_PROVENANCE,
    above_half_list,
    even_dimension_list,
    expand_ci_degrees,
    family_outcome,
    line_families,
    no_rule_reason,
    odd_dimension_list,
    recognition_list,
    symplectic_scroll,
)
from fanolines.terms import (
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    PolarizedProduct,
    ProjBundleP1,
    Quadric,
    SympGrassmann,
    covered_by_lines,
    dim,
    exact,
    family_dim,
    is_linear,
    normalize,
    picard_number,
)


def only(records):
    assert len(records) == 1
    return records[0]


# ---------------------------------------------------------------------------
# the rewrite rules


def test_linear_space_family_fills_tangent_space():
    fam = only(line_families(LinearSpace(5)))
    assert fam.variety == LinearSpace(4)
    assert fam.ambient_pt_dim == fam.span_in_pt == 4
    assert fam.anticanonical_degree == 6


def test_quadric_families():
    fam = only(line_families(Quadric(4)))
    assert fam.variety == Quadric(2)
    assert fam.ambient_pt_dim == fam.span_in_pt == 3
    fam2 = only(line_families(Quadric(2)))
    assert fam2.variety == LinearSpace(0)
    assert (fam2.ambient_pt_dim, fam2.span_in_pt) == (1, 0)


def test_grassmann_family_is_segre():
    fam = only(line_families(Grassmann(2, 5)))
    assert fam.variety == PolarizedProduct(((1, 1), (2, 1)))
    assert fam.ambient_pt_dim == fam.span_in_pt == 5
    # degenerate factor collapse: G(2,3) is a plane, its family a line
    fam = only(line_families(Grassmann(2, 3)))
    assert fam.variety == LinearSpace(1)
    assert fam.ambient_pt_dim == fam.span_in_pt == 1


def test_symplectic_family_is_scroll():
    fam = only(line_families(SympGrassmann(2, 6)))
    assert fam.variety == ProjBundleP1((2, 1, 1))
    assert fam.ambient_pt_dim == fam.span_in_pt == 6
    fam = only(line_families(SympGrassmann(2, 5)))
    assert fam.variety == ProjBundleP1((2, 1))
    assert fam.ambient_pt_dim == 4


def test_complete_intersection_families():
    fam = only(line_families(CompleteIntersection((3,), 4)))
    assert fam.variety == LinearSpace(0)  # degrees (2,3) in P^2 leave dimension 0
    fam = only(line_families(CompleteIntersection((2, 2), 7)))
    assert fam.variety == CompleteIntersection((2, 2), 4)
    assert fam.ambient_pt_dim == fam.span_in_pt == 4
    fam = only(line_families(Quadric(3)))
    assert fam.variety == Quadric(1)  # the conic: chain stops there


def test_expand_ci_degrees():
    assert expand_ci_degrees((3,)) == (2, 3)
    assert expand_ci_degrees((2, 2)) == (2, 2)
    assert expand_ci_degrees((2, 4)) == (2, 2, 3, 4)


def test_expand_ci_degrees_stays_linear_in_its_output():
    # A tuple grown value by value is quadratic: 10^5 values would take
    # minutes.  Written in one pass, they take about a millisecond.
    start = time.perf_counter()
    out = expand_ci_degrees((10**5,))
    assert time.perf_counter() - start < 1.0
    assert len(out) == 99_999 and out[0] == 2 and out[-1] == 10**5


def test_product_families_span_only_their_factor():
    fams = line_families(PolarizedProduct(((1, 1), (3, 1))))
    assert [f.variety for f in fams] == [LinearSpace(0), LinearSpace(2)]
    assert [f.span_in_pt for f in fams] == [0, 2]
    assert all(f.ambient_pt_dim == 3 for f in fams)
    # degree-2 factors carry no family of lines
    fams = line_families(PolarizedProduct(((1, 2), (3, 1))))
    assert [f.variety for f in fams] == [LinearSpace(2)]


def test_scroll_family_is_the_fiber_one():
    fam = only(line_families(ProjBundleP1((2, 1, 1))))
    assert fam.variety == LinearSpace(1)
    assert fam.ambient_pt_dim == 2
    assert fam.span_in_pt == 1  # a proper linear subspace: the case-2 shape


def test_linear_section_families():
    fam = only(line_families(LinearSectionG25(0)))
    assert fam.variety == PolarizedProduct(((1, 1), (2, 1)))
    fam = only(line_families(LinearSectionG25(1)))
    assert fam.variety == ProjBundleP1((2, 1))
    assert fam.ambient_pt_dim == fam.span_in_pt == 4
    fam = only(line_families(LinearSectionG25(3)))
    assert fam.variety == LinearSpace(0)


def test_no_rule_is_a_first_class_outcome():
    with pytest.raises(NoRule) as err:
        line_families(SympGrassmann(3, 7))
    assert str(err.value) == "no family rule for isotropic Grassmannians with k = 3 >= 3"
    with pytest.raises(NoRule) as err:
        line_families(LinearSectionG25(2))
    assert str(err.value) == ("no family rule for the codimension-2 section of G(2,5):"
                              " its family is a curve outside the term algebra")


def test_not_covered_raises():
    for term in (parse_variety("pt"), Quadric(1), LinearSectionG25(4),
                 CompleteIntersection((2, 2), 4), LinearSpace(0)):
        with pytest.raises(NotCoveredByLines):
            line_families(term)


def test_lookup_reads_the_same_outcome_without_raising():
    # line_families raises where family_outcome names the end of a chain,
    # and otherwise wraps the same triples.
    from fanolines.catalog import build_catalog

    uncovered = [parse_variety("pt"), LinearSpace(0), Quadric(1), LinearSectionG25(4),
                 CompleteIntersection((2, 2), 4), PolarizedProduct(((2, 2), (3, 2)))]
    for v in [*build_catalog(10, 4), *uncovered, SympGrassmann(3, 7)]:
        fams, end = family_outcome(v)
        try:
            records, raised = line_families(v), None
        except NotCoveredByLines as err:
            assert str(err) == f"{to_text(v)} is not covered by lines"
            records, raised = [], "not_covered"
        except NoRule:
            records, raised = [], "no_rule"
        triples = tuple((r.variety, r.ambient_pt_dim, r.span_in_pt) for r in records)
        assert (triples, raised) == (fams, end), v


def test_family_records_satisfy_their_invariants():
    from fanolines.catalog import build_catalog

    for member in build_catalog(10, 4):
        try:
            fams = line_families(member)
        except (NotCoveredByLines, NoRule):
            continue
        for fam in fams:
            d = dim(fam.variety)
            assert d <= fam.span_in_pt <= fam.ambient_pt_dim
            assert fam.ambient_pt_dim == dim(member) - 1
            assert fam.anticanonical_degree == d + 2
        if picard_number(member) == 1 and covered_by_lines(member):
            assert family_dim(member) == dim(fams[0].variety)


# ---------------------------------------------------------------------------
# recognition


def _scroll_identifies(fam):
    """SG(2,C^{m+3}) when the family triple ``fam`` is the symplectic scroll
    spanning its ambient P^{2m}, the conjectural rule read backward;
    otherwise None."""
    variety, ambient, span = fam
    m = ambient // 2
    if m >= 2 and ambient == 2 * m and span == ambient \
            and variety == symplectic_scroll(m):
        return normalize(SympGrassmann(2, m + 3))
    return None


def test_recognize_full_tangent_space():
    assert recognition_list(5, 4) == (LinearSpace(5),)


def test_recognize_codimension_two():
    assert recognition_list(5, 3) == (Quadric(5),)
    assert recognition_list(4, 2) == (normalize(Grassmann(2, 4)),)


def test_recognize_codimension_three_lists():
    assert set(recognition_list(3, 0)) == {
        CompleteIntersection((3,), 4),
        CompleteIntersection((2, 2), 5),
        LinearSectionG25(3),
    }


def test_recognize_scroll_is_conjectural():
    # SG(2,C^6) has the scroll as its family, a drop of four dimensions that
    # no unconditional list covers: only the conjectural rule identifies it.
    scroll = symplectic_scroll(3)
    assert scroll == ProjBundleP1((2, 1, 1))
    assert line_families(SympGrassmann(2, 6)) == [FamilyRecord(scroll, 6, 6)]
    assert recognition_list(7, dim(scroll)) == ()
    rows = [row for row in RULE_PROVENANCE if row["constructor"].startswith("recognition")]
    assert [row["status"] for row in rows] == ["conjectural"]


def test_recognize_prefers_unconditional_identifications():
    # At n = 5 the scroll is also on the codimension-three list, where the
    # identification needs no conjecture.
    assert normalize(SympGrassmann(2, 5)) in recognition_list(5, dim(symplectic_scroll(2)))


def test_recognize_empty_without_a_rule():
    assert recognition_list(8, dim(PolarizedProduct(((1, 1), (3, 1))))) == ()
    assert recognition_list(2, 0) == ()  # Q^2 has Picard number 2


def test_recognize_round_trip():
    for v in (Quadric(5), Quadric(8), Grassmann(2, 4), Grassmann(2, 5),
              SympGrassmann(2, 5), SympGrassmann(2, 6), SympGrassmann(2, 9)):
        fam = family_outcome(v)[0][0]
        found = {*recognition_list(dim(v), dim(fam[0])), _scroll_identifies(fam)}
        assert normalize(v) in found


def test_scroll_rule_makes_no_false_identification_on_the_catalog():
    # Every Picard-number-1 member whose family is the symplectic scroll
    # filling P^{2m} is SG(2,C^{m+3}), and every SG(2,C^{m+3}) up to
    # dimension 20 is reached that way.
    from fanolines.catalog import build_catalog

    matched = set()
    for v in build_catalog(20, 4).index.picard_one:
        for fam in family_outcome(v)[0]:
            identified = _scroll_identifies(fam)
            if identified is not None:
                assert v == identified, to_text(v)
                matched.add(v)
    assert matched == {normalize(SympGrassmann(2, m + 3)) for m in range(2, 10)}


def test_classification_lists_hold_their_invariants():
    # Every listed variety of dimension n is in normal form, has Picard
    # number 1 and attains the invariant its list is for: S > n/2, S = n/2
    # and S = (n-1)/2.
    from fanolines.chains import ChainEngine

    eng = ChainEngine()
    listed = [(n, v, n) for n in range(1, 25) for v in above_half_list(n)]
    listed += [(2 * m, v, m) for m in range(1, 13) for v in even_dimension_list(m)]
    listed += [(2 * m + 1, v, m) for m in range(1, 13) for v in odd_dimension_list(m)]
    for n, v, s in listed:
        assert v == normalize(v) and dim(v) == n and picard_number(v) == 1, v
        assert eng.s_invariant(v) == exact(s), v
    assert even_dimension_list(1) == ()
    assert even_dimension_list(2) == (Quadric(4),)
    assert [to_text(v) for v in even_dimension_list(5)] == ["Q(10)", "G(2,7)"]


def test_provenance_table_covers_the_rules():
    # One row per provenance row, each naming its constructor, and exactly
    # one row with a rule per constructor.
    from fanolines.catalog import build_catalog

    for ctor, _, row in _RULE_TABLE:
        name = "recognition" if ctor is None else ctor.__name__
        assert row["constructor"].startswith(name), row
    ruled = Counter(ctor for ctor, rule, _ in _RULE_TABLE if rule is not None)
    assert set(ruled) == set(_RULES) and set(ruled.values()) == {1}
    statuses = {row["status"] for row in RULE_PROVENANCE}
    assert statuses == {"classical", "conjectural", "none"}

    # Every covered term finds its rule, and a ruleless case's rule returns
    # the text that NoRule carries.
    no_rule = []
    for v in [*build_catalog(20, 5), SympGrassmann(3, 7), LinearSectionG25(2)]:
        _, end = family_outcome(v)
        if end == "not_covered":
            continue
        assert type(v) in _RULES, to_text(v)
        if end == "no_rule":
            reason = no_rule_reason(v)
            assert reason.__class__ is str
            with pytest.raises(NoRule) as err:
                line_families(v)
            assert str(err.value) == reason
            no_rule.append(to_text(v))
    assert "SG(3,7)" in no_rule and "LS(G(2,5),2)" in no_rule


def test_no_rule_returns_a_family_of_a_ruleless_constructor():
    # The classification suite skips S only outside the ruleless set, which
    # is sound because every other member then has an exact S: no rule, at
    # any depth below a catalog member, returns a family of the set.
    from fanolines.catalog import build_catalog

    assert RULELESS_CONSTRUCTORS == {SympGrassmann, LinearSectionG25}
    assert [row["constructor"] for row in RULE_PROVENANCE if row["status"] == "none"] == [
        "SympGrassmann (k >= 3)", "LinearSectionG25 (c = 2)"]
    starts = [*build_catalog(20, 5), SympGrassmann(3, 7), LinearSectionG25(2)]
    pending, seen = list(starts), set(starts)
    while pending:
        v = pending.pop()
        for fam, _, _ in family_outcome(v)[0]:
            for form in (fam, normalize(fam)):
                assert type(form) not in RULELESS_CONSTRUCTORS, (to_text(v), to_text(form))
            if fam not in seen:
                seen.add(fam)
                pending.append(fam)
    assert len(seen) > len(starts)  # families below the members were walked too


# ---------------------------------------------------------------------------
# the one-family fact beside the rule table


def _row_of(v):
    """The ``"constructor"`` name of the table row whose case ``v`` is."""
    if isinstance(v, SympGrassmann):
        return "SympGrassmann (k = 2)" if v.k == 2 else "SympGrassmann (k >= 3)"
    if isinstance(v, LinearSectionG25):
        return "LinearSectionG25 (c = 2)" if v.c == 2 else "LinearSectionG25 (c = 0, 1, 3)"
    return type(v).__name__


def _one_family_breaks(claimed, terms):
    """The covered terms of which ``claimed`` states the fact, but whose rule
    returns no family, several, a proper linear space of positive dimension,
    or one of dimension above ``family_dim``."""
    broken = []
    for v in terms:
        if not claimed(v):
            continue
        fams, end = family_outcome(v)
        if end == "not_covered":
            continue
        if end is not None or len(fams) != 1:
            broken.append(v)
            continue
        (fam, ambient, span), = fams
        d = dim(fam)
        if d > family_dim(v) or (d >= 1 and span < ambient and is_linear(fam)):
            broken.append(v)
    return broken


def _in_the_set(v):
    return type(v) in ONE_FAMILY_CONSTRUCTORS


def _in_the_rows(v):
    return _row_of(v) in _ONE_FAMILY_ROWS


def test_the_one_family_rows_name_rows_of_the_table():
    names = {row["constructor"] for row in RULE_PROVENANCE}
    assert _ONE_FAMILY_ROWS <= names
    assert not any(row["status"] == "none" for row in RULE_PROVENANCE
                   if row["constructor"] in _ONE_FAMILY_ROWS)


def test_the_one_family_set_is_the_constructors_all_of_whose_rows_state_it():
    assert ONE_FAMILY_CONSTRUCTORS == {LinearSpace, Quadric, Grassmann, CompleteIntersection}


@pytest.mark.parametrize("n_max, deg_max", [(15, 4), (20, 5), (12, 11)])
def test_every_rule_output_below_the_fact_has_one_family_within_family_dim(n_max, deg_max):
    members = build_catalog(n_max, deg_max).members
    rows = {_row_of(v) for v in members}
    assert _ONE_FAMILY_ROWS <= rows  # every row of the fact is reached
    assert _one_family_breaks(_in_the_rows, members) == []
    assert _one_family_breaks(_in_the_set, members) == []


_one_family_terms = st.one_of(
    st.integers(0, 40).map(LinearSpace),
    st.integers(1, 40).map(Quadric),
    st.tuples(st.integers(1, 8), st.integers(2, 16)).filter(
        lambda kn: kn[0] < kn[1]).map(lambda kn: Grassmann(*kn)),
    st.integers(5, 30).map(lambda N: SympGrassmann(2, N)),
    st.sampled_from([0, 1, 3, 4]).map(LinearSectionG25),
    st.tuples(st.lists(st.integers(2, 7), min_size=1, max_size=6), st.integers(2, 40)).filter(
        lambda dn: len(dn[0]) < dn[1]).map(lambda dn: CompleteIntersection(tuple(dn[0]), dn[1])),
)


@settings(max_examples=300, deadline=None)
@given(_one_family_terms)
def test_drawn_terms_below_the_fact_have_one_family_within_family_dim(v):
    assert _in_the_rows(v)
    assert _one_family_breaks(_in_the_rows, [v]) == []


@pytest.mark.parametrize("extra", [PolarizedProduct, ProjBundleP1, SympGrassmann, LinearSectionG25])
def test_a_set_claiming_another_constructor_breaks_the_fact(extra):
    members = build_catalog(15, 4).members
    widened = ONE_FAMILY_CONSTRUCTORS | {extra}
    broken = _one_family_breaks(lambda v: type(v) in widened, members)
    assert broken and {type(v) for v in broken} == {extra}
