"""Family rewrite rules, their spans, and the recognition rules."""

import pytest

from fanolines.dsl import to_text
from fanolines.errors import NoRule, NotCoveredByLines, PreconditionFailed
from fanolines.families import (
    FamilyRecord,
    RULE_PROVENANCE,
    expand_ci_degrees,
    line_families,
    lookup_families,
    recognize_from_family,
)
from fanolines.terms import (
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    Point,
    PolarizedProduct,
    ProjBundleP1,
    Quadric,
    SympGrassmann,
    covered_by_lines,
    dim,
    family_dim,
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
    assert fam2.variety == Point()
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
    assert fam.variety == Point()  # degrees (2,3) in P^2 leave dimension 0
    fam = only(line_families(CompleteIntersection((2, 2), 7)))
    assert fam.variety == CompleteIntersection((2, 2), 4)
    assert fam.ambient_pt_dim == fam.span_in_pt == 4
    fam = only(line_families(Quadric(3)))
    assert fam.variety == Quadric(1)  # the conic: chain stops there


def test_expand_ci_degrees():
    assert expand_ci_degrees((3,)) == (2, 3)
    assert expand_ci_degrees((2, 2)) == (2, 2)
    assert expand_ci_degrees((2, 4)) == (2, 2, 3, 4)


def test_product_families_span_only_their_factor():
    fams = line_families(PolarizedProduct(((1, 1), (3, 1))))
    assert [f.variety for f in fams] == [Point(), LinearSpace(2)]
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
    assert fam.variety == Point()


def test_no_rule_is_a_first_class_outcome():
    with pytest.raises(NoRule):
        line_families(SympGrassmann(3, 7))
    with pytest.raises(NoRule):
        line_families(LinearSectionG25(2))


def test_not_covered_raises():
    for term in (Point(), Quadric(1), LinearSectionG25(4),
                 CompleteIntersection((2, 2), 4), LinearSpace(0)):
        with pytest.raises(NotCoveredByLines):
            line_families(term)


def test_lookup_reads_the_same_outcome_without_raising():
    from fanolines.catalog import build_catalog

    uncovered = [Point(), LinearSpace(0), Quadric(1), LinearSectionG25(4),
                 CompleteIntersection((2, 2), 4), PolarizedProduct(((2, 2), (3, 2)))]
    for v in [*build_catalog(10, 4), *uncovered, SympGrassmann(3, 7)]:
        fams, end = lookup_families(v)
        try:
            expected, expected_end = line_families(v), None
        except NotCoveredByLines as err:
            assert str(err) == f"{to_text(v)} is not covered by lines"
            expected, expected_end = [], "is_point" if dim(v) == 0 else "not_covered"
        except NoRule:
            expected, expected_end = [], "no_rule"
        assert (fams, end) == (expected, expected_end), v


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


def test_recognize_full_tangent_space():
    fam = FamilyRecord(LinearSpace(4), 4, 4)
    out = recognize_from_family(5, 1, fam)
    assert [r.term for r in out] == [LinearSpace(5)]


def test_recognize_codimension_two():
    fam = FamilyRecord(Quadric(3), 4, 4)
    out = recognize_from_family(5, 1, fam)
    assert [r.term for r in out] == [Quadric(5)]


def test_recognize_codimension_three_lists():
    fam = FamilyRecord(Point(), 2, 0)
    out = recognize_from_family(3, 1, fam)
    assert {r.term for r in out} == {
        CompleteIntersection((3,), 4),
        CompleteIntersection((2, 2), 5),
        LinearSectionG25(3),
    }
    assert not any(r.conjectural for r in out)


def test_recognize_scroll_is_conjectural():
    fam = FamilyRecord(ProjBundleP1((2, 1, 1)), 6, 6)
    out = recognize_from_family(7, 1, fam)
    assert [(r.term, r.conjectural) for r in out] == [(SympGrassmann(2, 6), True)]


def test_recognize_prefers_unconditional_identifications():
    # At n = 5 the scroll is also on the codimension-three list, where the
    # identification needs no conjecture.
    fam = FamilyRecord(ProjBundleP1((2, 1)), 4, 4)
    out = {r.term: r.conjectural for r in recognize_from_family(5, 1, fam)}
    assert out[SympGrassmann(2, 5)] is False


def test_recognize_empty_without_a_rule():
    fam = FamilyRecord(PolarizedProduct(((1, 1), (3, 1))), 7, 7)
    assert recognize_from_family(8, 1, fam) == []


def test_recognize_round_trip():
    for v in (Quadric(5), Quadric(8), Grassmann(2, 4), Grassmann(2, 5),
              SympGrassmann(2, 5), SympGrassmann(2, 6), SympGrassmann(2, 9)):
        fam = line_families(v)[0]
        out = recognize_from_family(dim(v), 1, fam)
        assert normalize(v) in {normalize(r.term) for r in out}


def test_recognize_checks_its_precondition():
    fam = FamilyRecord(Quadric(3), 4, 4)
    with pytest.raises(PreconditionFailed):
        recognize_from_family(7, 1, fam)


def test_provenance_table_covers_the_rules():
    constructors = " ".join(str(row["constructor"]) for row in RULE_PROVENANCE)
    for name in ("LinearSpace", "Quadric", "Grassmann", "SympGrassmann",
                 "CompleteIntersection", "PolarizedProduct", "ProjBundleP1",
                 "LinearSectionG25"):
        assert name in constructors
    statuses = {row["status"] for row in RULE_PROVENANCE}
    assert statuses == {"classical", "conjectural", "none"}
