"""Tables of classical invariants: dimensions, predicates, canonical forms."""

import copy
import pickle
from dataclasses import fields

import pytest

from fanolines.chains import ChainEngine
from fanolines.dsl import parse_variety
from fanolines.errors import ValidationError
from fanolines.terms import (
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    PolarizedProduct,
    ProjBundleP1,
    Quadric,
    SympGrassmann,
    VarietyTerm,
    ambient_dim,
    at_least,
    covered_by_lines,
    dim,
    exact,
    family_dim,
    is_fano,
    is_linear,
    normalize,
    picard_number,
)


# ---------------------------------------------------------------------------
# constructors


def test_constructors_are_variety_terms_holding_only_their_fields():
    # The invariants live on the classes: after every question has been
    # asked, an instance still holds just the fields that name it.
    expected = {
        LinearSpace(0): ("n",), LinearSpace(3): ("n",), Quadric(5): ("n",), Grassmann(2, 6): ("k", "N"),
        SympGrassmann(2, 7): ("k", "N"), CompleteIntersection((2, 3), 7): ("degrees", "N"),
        PolarizedProduct(((1, 2), (3, 1))): ("factors",), ProjBundleP1((2, 1)): ("twists",),
        LinearSectionG25(2): ("c",),
    }
    for v, names in expected.items():
        assert isinstance(v, VarietyTerm)
        for question in (dim, ambient_dim, picard_number, is_fano, ChainEngine().max_linear_in,
                         normalize, covered_by_lines):
            question(v)
        assert tuple(f.name for f in fields(v)) == names
        assert type(v).__slots__ == names and not hasattr(v, "__dict__")
    assert set(VarietyTerm.__subclasses__()) == {type(v) for v in expected}
    assert len(VarietyTerm.__subclasses__()) == 8


@pytest.mark.parametrize("v", [LinearSpace(0), LinearSpace(3), CompleteIntersection((3, 2), 7),
                               PolarizedProduct(((3, 1), (1, 2))), ProjBundleP1((1, 2))])
def test_slotted_frozen_terms_pickle_and_copy(v):
    for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert back == v and type(back) is type(v)


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize(
    "term, expected",
    [
        (parse_variety("pt"), 0),
        (LinearSpace(0), 0),
        (LinearSpace(7), 7),
        (Quadric(4), 4),
        (Grassmann(2, 6), 8),
        (SympGrassmann(2, 6), 7),
        (SympGrassmann(2, 7), 9),
        (SympGrassmann(3, 7), 9),
        (CompleteIntersection((2, 2), 7), 5),
        (PolarizedProduct(((1, 2), (3, 1))), 4),
        (ProjBundleP1((2, 1, 1)), 3),
        (LinearSectionG25(2), 4),
    ],
)
def test_dim(term, expected):
    assert dim(term) == expected


@pytest.mark.parametrize(
    "term, expected",
    [
        (Quadric(7), 8),
        (Grassmann(2, 5), 9),
        (Grassmann(2, 6), 14),
        (SympGrassmann(2, 5), 8),
        (SympGrassmann(2, 6), 13),
        (CompleteIntersection((2, 2), 7), 7),
        (PolarizedProduct(((1, 1), (2, 1))), 5),
        (PolarizedProduct(((1, 2), (1, 1))), 5),
        (ProjBundleP1((2, 1, 1)), 6),
        (LinearSectionG25(1), 8),
        (LinearSpace(4), 4),
    ],
)
def test_ambient_dim(term, expected):
    assert ambient_dim(term) == expected


def test_span_fills_ambient():
    # Every constructor is linearly normal and non-degenerate in its own
    # ambient space, so the ambient dimension is the span dimension; the
    # Segre P^1 x P^2 span is cross-checked numerically in the secant tests.
    for t, span in ((Quadric(3), 4), (Grassmann(2, 5), 9),
                    (PolarizedProduct(((1, 1), (2, 1))), 5)):
        assert ambient_dim(t) == span


# ---------------------------------------------------------------------------
# Picard numbers

# Classical values for general complete intersections of dimension >= 3
# (Lefschetz): always 1.  Compiled by hand before the implementation.
PICARD_ORACLE = {
    CompleteIntersection((2, 2), 7): 1,
    CompleteIntersection((3,), 4): 1,
    CompleteIntersection((2, 2, 2), 9): 1,
    CompleteIntersection((4,), 5): 1,
}


def test_picard_ci_oracle():
    for term, rho in PICARD_ORACLE.items():
        assert picard_number(term) == rho


@pytest.mark.parametrize(
    "term, expected",
    [
        (LinearSpace(0), 0),
        (LinearSpace(1), 1),
        (Quadric(1), 1),
        (Quadric(2), 2),
        (Quadric(3), 1),
        (Grassmann(3, 6), 1),
        (SympGrassmann(2, 6), 1),
        (PolarizedProduct(((1, 2), (3, 1))), 2),
        (PolarizedProduct(((1, 1), (1, 1), (1, 1))), 3),
        (ProjBundleP1((3, 2)), 2),
        (LinearSectionG25(3), 1),
        (LinearSectionG25(4), 5),
    ],
)
def test_picard_table(term, expected):
    assert picard_number(term) == expected


def test_picard_unknown_for_low_dim_ci():
    assert picard_number(CompleteIntersection((3,), 3)) is None  # cubic surface
    assert picard_number(CompleteIntersection((2, 2), 4)) is None
    # ... except where the canonical form decides it
    assert picard_number(CompleteIntersection((2,), 3)) == 2  # the quadric surface


# ---------------------------------------------------------------------------
# Fano-ness and line coverage


@pytest.mark.parametrize(
    "term, expected",
    [
        (CompleteIntersection((3,), 4), True),
        (CompleteIntersection((2, 2), 4), True),
        (CompleteIntersection((5,), 4), False),
        (ProjBundleP1((3, 1, 1)), False),  # 5 > 3*1 + 1
        (ProjBundleP1((2, 1, 1)), True),  # 4 = 3*1 + 1
        (ProjBundleP1((4, 3, 3)), True),
        (LinearSpace(3), True),
        (LinearSpace(0), False),  # a point
        (parse_variety("pt"), False),
        (Quadric(1), True),
        (PolarizedProduct(((2, 3), (2, 2))), True),
        (LinearSectionG25(4), True),
    ],
)
def test_is_fano(term, expected):
    assert is_fano(term) is expected


@pytest.mark.parametrize(
    "term, expected",
    [
        (CompleteIntersection((2, 2), 4), False),
        (CompleteIntersection((3,), 4), True),
        (CompleteIntersection((2, 2), 5), True),
        (Quadric(1), False),
        (Quadric(2), True),
        (parse_variety("pt"), False),
        (LinearSpace(0), False),
        (LinearSpace(1), True),
        (SympGrassmann(3, 7), True),
        (PolarizedProduct(((2, 2), (3, 2))), False),
        (PolarizedProduct(((2, 2), (3, 1))), True),
        (ProjBundleP1((3, 1, 1)), True),  # covered by its fibers, Fano or not
        (LinearSectionG25(3), True),
        (LinearSectionG25(4), False),
    ],
)
def test_covered_by_lines(term, expected):
    assert covered_by_lines(term) is expected


def _covered_by_lines_table(v) -> bool:
    """The classical coverage table, per constructor on the normal form:
    the oracle for the derived test ``family_dim >= 0``."""
    match normalize(v):
        case LinearSpace(n):
            return n >= 1
        case Quadric(n):
            return n >= 2  # Q^1 is a conic and contains no line
        case Grassmann(_, _) | SympGrassmann(_, _) | ProjBundleP1(_):
            return True
        case CompleteIntersection(degrees, N):
            return N >= sum(degrees) + 1  # index >= 2
        case PolarizedProduct(factors):
            return any(d == 1 for _, d in factors)
        case LinearSectionG25(c):
            return c <= 3
    raise TypeError(v)


# P(0) is its own normal form; it stays first, as the term-table pin lists
# its rows in this order.
NON_NORMAL_PRESENTATIONS = [
    LinearSpace(0), Quadric(2), Grassmann(1, 2), Grassmann(1, 6), Grassmann(5, 6),
    Grassmann(2, 4), Grassmann(3, 7), CompleteIntersection((2,), 2),
    CompleteIntersection((2,), 3), CompleteIntersection((2,), 9),
    ProjBundleP1((1, 1)), ProjBundleP1((3, 3, 3)), ProjBundleP1((2,) * 5),
    LinearSectionG25(0), LinearSectionG25(1),
]

NON_FANO_TERMS = [
    LinearSpace(0), Quadric(1), CompleteIntersection((2, 2), 4), CompleteIntersection((5,), 4),
    CompleteIntersection((3, 3), 7), CompleteIntersection((3, 4), 7),
    PolarizedProduct(((2, 2), (3, 2))), PolarizedProduct(((1, 3), (1, 3), (2, 2))),
    ProjBundleP1((3, 1, 1)), ProjBundleP1((5, 2)), LinearSectionG25(4),
]


def test_covered_by_lines_agrees_with_the_classical_table():
    from fanolines.catalog import build_catalog

    terms = [*build_catalog(20, 5), *NON_NORMAL_PRESENTATIONS, *NON_FANO_TERMS]
    assert len(terms) > 10_000
    for v in terms:
        assert covered_by_lines(v) is _covered_by_lines_table(v), v


# ---------------------------------------------------------------------------
# family dimension (anticanonical degree minus two)


@pytest.mark.parametrize(
    "term, expected",
    [
        (Quadric(7), 5),
        (CompleteIntersection((3,), 4), 0),
        (LinearSectionG25(2), 1),
        (LinearSpace(6), 5),
        (Grassmann(2, 6), 4),
        (SympGrassmann(2, 6), 3),
        (SympGrassmann(3, 7), 3),
        (CompleteIntersection((2, 2), 7), 2),
        (PolarizedProduct(((1, 2), (3, 1))), 2),
        (ProjBundleP1((2, 1, 1)), 1),
        (Quadric(1), -1),  # no line through any point of a conic
        (LinearSectionG25(4), -1),
        (parse_variety("pt"), -1),  # no line through a point
        (LinearSpace(0), -1),
    ],
)
def test_family_dim(term, expected):
    assert family_dim(term) == expected


def test_family_dim_linear_section_adjunction_oracle():
    # Oracle: the ambient Grassmannian has index 5, a general linear section
    # drops the index by one per hyperplane, and the family dimension is the
    # index minus two.
    index_g25 = 5
    for c in range(0, 5):
        assert family_dim(LinearSectionG25(c)) == (index_g25 - c) - 2


def test_family_dim_ci_is_index_minus_two():
    for degs, N in [((2, 2), 7), ((3,), 4), ((2, 3), 9), ((2, 2, 2), 11)]:
        index = N + 1 - sum(degs)
        assert family_dim(CompleteIntersection(degs, N)) == index - 2


# ---------------------------------------------------------------------------
# maximal linear subspaces


def _standard_isotropic_check(n: int) -> int:
    """Oracle for quadrics: explicit isotropic subspace of the standard form.

    The smooth quadric Q^n is x_0 x_1 + x_2 x_3 + ... on n + 2 coordinates
    (plus a squared leftover coordinate when n is odd).  The span of the
    first vector of each hyperbolic pair is isotropic, and a non-degenerate
    form admits nothing larger.
    """
    coords = n + 2

    def pairing(a: int, b: int) -> int:
        if coords % 2 == 1 and a == b == coords - 1:
            return 1  # the leftover coordinate squares with itself
        return 1 if (a // 2 == b // 2 and a != b) else 0

    basis = list(range(0, 2 * (coords // 2), 2))  # e_0, e_2, e_4, ...
    assert all(pairing(x, y) == 0 for x in basis for y in basis)
    return len(basis) - 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 10, 11])
def test_max_linear_quadric_matches_isotropic_oracle(n):
    kind, value = ChainEngine().max_linear_in(Quadric(n))
    assert kind == "exact"
    assert value == _standard_isotropic_check(n) == n // 2


@pytest.mark.parametrize(
    "term, expected",
    [
        (LinearSpace(4), ("exact", 4)),
        (LinearSpace(0), ("exact", 0)),
        (Grassmann(2, 6), ("exact", 4)),
        (Grassmann(2, 4), ("exact", 2)),
        (Grassmann(3, 6), ("exact", 3)),
        (PolarizedProduct(((1, 2), (3, 1))), ("exact", 3)),
        (PolarizedProduct(((2, 2), (3, 2))), ("exact", 0)),
        (ProjBundleP1((2, 1, 1)), ("exact", 2)),
        (CompleteIntersection((2, 2), 4), ("at_least", 1)),
        (CompleteIntersection((2, 2, 2, 2), 5), ("at_least", 0)),
    ],
)
def test_max_linear_table(term, expected):
    assert tuple(ChainEngine().max_linear_in(term)) == expected


def test_max_linear_delegated_to_chain_invariant():
    eng = ChainEngine()
    for term in (SympGrassmann(2, 6), LinearSectionG25(2), LinearSectionG25(4)):
        kind, value = eng.max_linear_in(term)
        assert kind == "at_least"
        assert value == eng.s_invariant(term).value


def test_bound_str_names_no_invariant():
    eng = ChainEngine()
    assert str(exact(3)) == "= 3 (exact)"
    assert str(at_least(1)) == ">= 1 (lower bound)"
    assert str(eng.covering_ls_bound(CompleteIntersection((2, 2), 7))) == ">= 2 (lower bound)"
    assert str(eng.max_linear_in(Quadric(6))) == "= 3 (exact)"


def test_max_linear_at_most_dim():
    eng = ChainEngine()
    for term in (LinearSpace(4), Quadric(6), Grassmann(2, 6),
                 PolarizedProduct(((1, 1), (2, 1))), ProjBundleP1((3, 2))):
        kind, value = eng.max_linear_in(term)
        assert value <= dim(term)
        if kind == "exact" and value == dim(term):
            assert isinstance(normalize(term), LinearSpace)


# ---------------------------------------------------------------------------
# canonical forms


@pytest.mark.parametrize(
    "term, expected",
    [
        (LinearSectionG25(1), SympGrassmann(2, 5)),
        (LinearSectionG25(0), Grassmann(2, 5)),
        (Grassmann(3, 5), Grassmann(2, 5)),
        (Grassmann(1, 4), LinearSpace(3)),
        (Grassmann(4, 5), LinearSpace(4)),
        (Grassmann(2, 4), Quadric(4)),
        (Quadric(2), PolarizedProduct(((1, 1), (1, 1)))),
        (CompleteIntersection((2,), 7), Quadric(6)),
        (CompleteIntersection((2,), 3), PolarizedProduct(((1, 1), (1, 1)))),
        (parse_variety("P(0)"), parse_variety("pt")),
        (ProjBundleP1((2, 2, 2)), PolarizedProduct(((1, 2), (2, 1)))),
        (ProjBundleP1((1, 1)), PolarizedProduct(((1, 1), (1, 1)))),
        (ProjBundleP1((3, 2)), ProjBundleP1((3, 2))),
        (LinearSectionG25(3), LinearSectionG25(3)),
    ],
)
def test_normalize(term, expected):
    assert normalize(term) == expected


def test_normalize_idempotent_on_samples():
    samples = [
        Grassmann(3, 5), Quadric(2), CompleteIntersection((2,), 3),
        ProjBundleP1((2, 2)), LinearSectionG25(0), LinearSpace(0),
        CompleteIntersection((3, 2), 6), PolarizedProduct(((3, 1), (1, 2))),
    ]
    for t in samples:
        once = normalize(t)
        assert normalize(once) == once


def test_normalize_plucker_quadric_oracle():
    # G(2,4) and Q^4 must agree on every invariant computed through their
    # own, independent rule paths.
    from fanolines.chains import ChainEngine

    g, q = Grassmann(2, 4), Quadric(4)
    assert dim(g) == dim(q) == 4
    assert ambient_dim(g) == ambient_dim(q) == 5
    assert family_dim(g) == family_dim(q) == 2
    assert ChainEngine().s_invariant(g) == ChainEngine().s_invariant(q)


def test_is_linear():
    assert is_linear(LinearSpace(3))
    assert is_linear(LinearSpace(0))
    assert is_linear(Grassmann(1, 5))
    assert not is_linear(Quadric(3))
    assert not is_linear(PolarizedProduct(((1, 1), (1, 1))))


# ---------------------------------------------------------------------------
# constructor validation


#: Each invalid construction, with the exact message of its ValidationError
#: (the CLI prints it after "terms: ").
INVALID = {
    (lambda: Grassmann(0, 3)): "Grassmann requires 1 <= k <= N-1",
    (lambda: Grassmann(3, 3)): "Grassmann requires 1 <= k <= N-1",
    (lambda: Quadric(0)): "Quadric requires n >= 1",
    (lambda: LinearSpace(-1)): "LinearSpace requires n >= 0",
    (lambda: SympGrassmann(1, 5)): "SympGrassmann requires k >= 2",
    (lambda: SympGrassmann(2, 4)): "SympGrassmann requires N >= 2k+1",
    (lambda: CompleteIntersection((), 3)): "CompleteIntersection requires at least one degree",
    (lambda: CompleteIntersection((1, 2), 5)): "CompleteIntersection degrees must all be >= 2",
    (lambda: CompleteIntersection((2, 2, 2), 3)): "CompleteIntersection requires #degrees < N",
    (lambda: PolarizedProduct(((1, 1),))): "PolarizedProduct requires at least two factors",
    (lambda: PolarizedProduct(((0, 1), (1, 1)))):
        "PolarizedProduct factors require n_i >= 1 and d_i >= 1",
    (lambda: ProjBundleP1((2,))): "ProjBundleP1 requires at least two twists",
    (lambda: ProjBundleP1((2, 0))): "ProjBundleP1 twists must all be >= 1",
    (lambda: LinearSectionG25(5)): "LinearSectionG25 requires 0 <= c <= 4",
    # the bad entry away from the end that a sorted check reads
    (lambda: CompleteIntersection((3, 1), 5)): "CompleteIntersection degrees must all be >= 2",
    (lambda: PolarizedProduct(((2, 0), (1, 1), (3, 2)))):
        "PolarizedProduct factors require n_i >= 1 and d_i >= 1",
    (lambda: ProjBundleP1((0, 3, 1))): "ProjBundleP1 twists must all be >= 1",
}


@pytest.mark.parametrize("build", list(INVALID))
def test_validation_errors(build):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == INVALID[build]
    assert err.value.component == "terms"


def test_constructors_store_canonical_field_order():
    assert CompleteIntersection((3, 2), 6).degrees == (2, 3)
    assert ProjBundleP1((1, 2, 1)).twists == (2, 1, 1)
    assert PolarizedProduct(((3, 1), (1, 2))).factors == ((1, 2), (3, 1))
    # Lists are stored as the same tuples (a list never equals a tuple), so
    # terms built from them hash and compare as the tuple-built ones.
    assert PolarizedProduct([[3, 1], [1, 2]]).factors == ((1, 2), (3, 1))
    assert CompleteIntersection([3, 2], 6).degrees == (2, 3)
    assert ProjBundleP1([1, 2, 1]).twists == (2, 1, 1)
    assert len({PolarizedProduct([[3, 1], [1, 2]]), PolarizedProduct(((1, 2), (3, 1)))}) == 1
