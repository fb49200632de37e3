"""Families of lines through a general point, as rewrite rules on terms.

For a covered-by-lines term this module produces every irreducible family of
lines through a fixed general point, each one an embedded variety inside the
projectivised tangent space P(T) = P^{n-1}, together with its linear span in
there.  The rules are axioms with classical provenance, listed in
:data:`RULE_PROVENANCE`; the single conjectural item is the scroll-to-
symplectic-Grassmannian recognition rule, which is flagged wherever it is
used.

The rules live in one table, ``_RULE_TABLE``, with one row per row of
:data:`RULE_PROVENANCE`: the constructor, its rule and the provenance row.
Each rule returns its families as plain ``(variety, ambient_pt_dim,
span_in_pt)`` triples, or the text of :class:`~fanolines.errors.NoRule`.
Two cases have no rule (SG(k,N) with k >= 3 and the codimension-2 linear
section of G(2,5)): their families exist but fall outside the term algebra.
Each has its own ``"none"`` row, and ``RULELESS_CONSTRUCTORS`` is derived
from those rows.  One fact about the rows is stated beside the table: the
rows whose rule returns one family, no proper linear space of positive
dimension and no larger than ``family_dim``.  ``ONE_FAMILY_CONSTRUCTORS``,
the constructors all of whose rows state it, is derived from it, and the
lemmas suite reads it to skip the families that can record nothing.
:func:`family_outcome` makes the coverage test that :mod:`~fanolines.terms`
defines, ``family_dim >= 0`` for every term (the point P^0 has -1), inline, and
reads the rules; it raises nothing, builds no record, and names why a chain
ends (``"not_covered"`` or ``"no_rule"``); the chain
engine, the lemmas suite and the CLI read it.
:func:`line_families`, its raising wrapper, raises ``NotCoveredByLines`` or
``NoRule``, worded by :func:`no_rule_reason`, and otherwise wraps each
triple in a validated :class:`FamilyRecord`.

The recognition step and the classification lists live here too, each
defined once.  :func:`recognition_list` names the candidates that a family's
dimension drop (n-1, n-2 or n-3) pins down, and :func:`symplectic_scroll` is
the family of SG(2,C^{m+3}): the family rule reads it forward, and the trace
reads it backward as the conjectural rule.  The lists are
:func:`family_codim3_list`, the three lists of the classification by large
invariant: :func:`above_half_list` (2S > n), :func:`even_dimension_list`
(2S = n) and :func:`odd_dimension_list` (2S = n - 1) with its verdict
letters; :func:`half_dim_cover_list`, the varieties covered by linear
spaces of at least half their dimension, built from the first two; and
:func:`next_to_max_list`, the bundle lists (i) and (ii) with S = n - 1.
Recognition, the verification suites and the traces all read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dsl import to_text
from .errors import NoRule, NotCoveredByLines, ValidationError
from .terms import (
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    PolarizedProduct,
    ProjBundleP1,
    Quadric,
    SympGrassmann,
    VarietyTerm,
    _trusted,
    dim,
    normalize,
    segre_pair,
)


@dataclass(frozen=True)
class FamilyRecord:
    """One irreducible family of lines through a general point.

    ``ambient_pt_dim`` is the dimension of the projectivised tangent space of
    the parent (its dimension minus one); ``span_in_pt`` is the dimension of
    the family's linear span inside it.
    """

    variety: VarietyTerm
    ambient_pt_dim: int
    span_in_pt: int

    def __post_init__(self):
        d = dim(self.variety)
        if not (d <= self.span_in_pt <= self.ambient_pt_dim):
            raise ValidationError(
                f"family record out of range: dim {d} <= span {self.span_in_pt}"
                f" <= ambient {self.ambient_pt_dim} violated"
            )

    @property
    def anticanonical_degree(self) -> int:
        """Anti-canonical degree of the parametrised lines (dim + 2)."""
        return dim(self.variety) + 2


#: Families of a covered term as (variety, ambient_pt_dim, span_in_pt).
Families = tuple[tuple[VarietyTerm, int, int], ...]


def expand_ci_degrees(degrees: tuple[int, ...]) -> tuple[int, ...]:
    """Degrees of the family of a complete intersection: 2..d for each d,
    ascending, in one pass: each value j is one block, a copy per degree >= j."""
    degs = sorted(degrees)
    out: list[int] = []
    low = 2  # the smallest value not yet written
    for i, d in enumerate(degs):
        if d >= low:  # a repeated degree adds no value
            for j in range(low, d + 1):
                out += (j,) * (len(degs) - i)
            low = d + 1
    return tuple(out)


def line_families(v: VarietyTerm) -> list[FamilyRecord]:
    """All irreducible families of lines on ``v`` through a general point.

    Raises ``NotCoveredByLines`` when there are none, and ``NoRule`` for the
    covered cases whose family falls outside the term algebra.
    """
    found, end = family_outcome(v)
    if end == "no_rule":
        raise NoRule(no_rule_reason(v))
    if end is not None:
        raise NotCoveredByLines(f"{to_text(v)} is not covered by lines")
    return [FamilyRecord(*fam) for fam in found]


def no_rule_reason(v: VarietyTerm) -> str:
    """Why the covered term ``v``, of a ruleless case, has no family rule:
    the text its rule returns, the message of
    :class:`~fanolines.errors.NoRule`."""
    return _RULES[type(v)](v, dim(v) - 1)


def family_outcome(v: VarietyTerm) -> tuple[Families, str | None]:
    """The families of ``v`` as plain ``(variety, ambient_pt_dim,
    span_in_pt)`` triples and ``None``, or ``()`` and the reason a chain ends
    at ``v``: ``"not_covered"`` or ``"no_rule"``.  The chain ends uncovered
    exactly when ``family_dim < 0``, the point P^0 included.  Nothing is
    raised and no record is built."""
    if v._family_dim() < 0:  # the one coverage test, as terms defines it
        return (), "not_covered"
    found = _RULES[type(v)](v, v._dim() - 1)
    return ((), "no_rule") if found.__class__ is str else (found, None)


# ---------------------------------------------------------------------------
# the rewrite rules, one per constructor.  Each takes a covered term and the
# dimension of its P(T), dim - 1, and returns its families as
# (variety, ambient_pt_dim, span_in_pt) triples, or the NoRule text of a
# case without a rule.

def _linear_space_rule(v: LinearSpace, ambient: int) -> Families:
    # Lines through a point of P^n fill the projectivised tangent space.
    return ((LinearSpace(v.n - 1), ambient, ambient),)


def _quadric_rule(v: Quadric, ambient: int) -> Families:
    if v.n == 2:
        return ((LinearSpace(0), 1, 0),)
    return ((Quadric(v.n - 2), ambient, ambient),)


def _grassmann_rule(v: Grassmann, ambient: int) -> Families:
    return ((segre_pair(v.k - 1, v.N - v.k - 1), ambient, ambient),)


def _symp_grassmann_rule(v: SympGrassmann, ambient: int) -> Families | str:
    if v.k >= 3:
        return f"no family rule for isotropic Grassmannians with k = {v.k} >= 3"
    return ((symplectic_scroll(v.N - 3), ambient, ambient),)


#: :func:`expand_ci_degrees` keeping its last expansion.  Catalog order
#: groups the members of each degree tuple, so a sweep hits one entry as
#: often as it would hit more; it keeps one expansion alive, never more.
_last_expansion = lru_cache(maxsize=1)(expand_ci_degrees)


def _complete_intersection_rule(v: CompleteIntersection, ambient: int) -> Families:
    fam_degrees = _last_expansion(v.degrees)  # cutting out the family in P(T)
    # ambient - #fam_degrees is family_dim(v) >= 0, as v is covered; off the
    # point, the degrees are ascending, each >= 2 and fewer than ambient, so
    # the family is built trusted.
    if ambient == len(fam_degrees):
        return ((LinearSpace(0), ambient, 0),)
    return ((_trusted(CompleteIntersection, fam_degrees, ambient), ambient, ambient),)


def _product_rule(v: PolarizedProduct, ambient: int) -> Families:
    # One family per degree-1 factor; it spans only that factor's tangent
    # directions, a proper subspace whenever other factors exist.
    return tuple((LinearSpace(n - 1), ambient, n - 1) for n, d in v.factors if d == 1)


def _scroll_rule(v: ProjBundleP1, ambient: int) -> Families:
    # The in-fiber family only.  A second (horizontal) family would not
    # change the chain invariant: the fiber family already attains the
    # maximum possible for a non-linear term.
    k = len(v.twists)
    return ((LinearSpace(k - 2), ambient, k - 2),)


#: The families of the covered linear sections of G(2,5), by codimension,
#: or the NoRule text where they fall outside the term algebra.
_G25_SECTION_FAMILIES: dict[int, Families | str] = {
    0: ((PolarizedProduct(((1, 1), (2, 1))), 5, 5),),
    # A general hyperplane section of the Segre P^1 x P^2 is the cubic
    # scroll P(O(2) + O(1)) in P^4.
    1: ((ProjBundleP1((2, 1)), 4, 4),),
    2: "no family rule for the codimension-2 section of G(2,5):"
       " its family is a curve outside the term algebra",
    3: ((LinearSpace(0), 2, 0),),
}


def _g25_section_rule(v: LinearSectionG25, ambient: int) -> Families | str:
    return _G25_SECTION_FAMILIES[v.c]


#: The rule table: one row ``(constructor, rule, provenance)`` per
#: :data:`RULE_PROVENANCE` row.  SympGrassmann k >= 3 is a case of the k = 2
#: row's rule, the codimension-2 section of G(2,5) a case of the other
#: sections' rule, and the recognition row has no constructor.  Of the eight
#: constructors, only the point P^0 (``LinearSpace(0)``, printed ``pt``) never
#: reaches its row's rule, as it is not covered by lines.  ``status`` is
#: "classical" (standard fact), "conjectural" (recognition only) or "none"
#: (covered by lines, but the family falls outside the term algebra).
_RULE_TABLE = (
    (LinearSpace, _linear_space_rule, {
        "constructor": "LinearSpace",
        "family": "P^(n-1), equal to the whole projectivised tangent space",
        "status": "classical",
    }),
    (Quadric, _quadric_rule, {
        "constructor": "Quadric",
        "family": "Q^(n-2) in P^(n-1) for n >= 3; two points worth of rulings at n = 2",
        "status": "classical",
    }),
    (Grassmann, _grassmann_rule, {
        "constructor": "Grassmann",
        "family": "Segre P^(k-1) x P^(N-k-1), non-degenerate in P^(k(N-k)-1)",
        "status": "classical",
    }),
    (SympGrassmann, _symp_grassmann_rule, {
        "constructor": "SympGrassmann (k = 2)",
        "family": "scroll P(O(2) + O(1)^(N-4)) over a line, non-degenerate",
        "status": "classical",
    }),
    (SympGrassmann, None, {
        "constructor": "SympGrassmann (k >= 3)",
        "family": None,
        "status": "none",
        "note": "the family is a projectivised bundle over P^(k-1), outside the algebra",
    }),
    (CompleteIntersection, _complete_intersection_rule, {
        "constructor": "CompleteIntersection",
        "family": "complete intersection of degrees 2..d_i per degree d_i, in P^(n-1)",
        "status": "classical",
        "note": "requires index >= 2; a zero-dimensional result is recorded as a point",
    }),
    (PolarizedProduct, _product_rule, {
        "constructor": "PolarizedProduct",
        "family": "P^(n_i-1) per degree-1 factor, spanning only that factor's directions",
        "status": "classical",
    }),
    (ProjBundleP1, _scroll_rule, {
        "constructor": "ProjBundleP1",
        "family": "in-fiber family P^(k-2) only",
        "status": "classical",
        "note": "whether a second, horizontal family exists is not settled here;"
        " omitting it cannot change the chain invariant (the fiber family"
        " already attains dim - 1, the maximum for a non-linear term)",
    }),
    (LinearSectionG25, _g25_section_rule, {
        "constructor": "LinearSectionG25 (c = 0, 1, 3)",
        "family": "linear section of the Segre P^1 x P^2: full Segre (c=0),"
        " cubic scroll (c=1), points (c=3)",
        "status": "classical",
        "note": "c = 4 is uncovered",
    }),
    (LinearSectionG25, None, {
        "constructor": "LinearSectionG25 (c = 2)",
        "family": None,
        "status": "none",
        "note": "the family is a curve outside the algebra",
    }),
    (None, None, {
        "constructor": "recognition: scroll P(O(2)+O(1)^(m-1)) filling P^(2m)",
        "family": "identifies SG(2, C^(m+3))",
        "status": "conjectural",
    }),
)

#: The rule of each constructor, read by :func:`family_outcome`.
_RULES = {ctor: rule for ctor, rule, _ in _RULE_TABLE if rule is not None}

#: Machine-readable provenance of every family rule, one row per table row.
RULE_PROVENANCE: tuple[dict, ...] = tuple(row for _, _, row in _RULE_TABLE)

#: The constructors with a ruleless case, a "none" row.  Only their members
#: can have an inexact chain invariant, since no rule returns a family of
#: theirs; the classification suite asks S of every one of them.
RULELESS_CONSTRUCTORS = frozenset(ctor for ctor, _, row in _RULE_TABLE
                                  if row["status"] == "none")

#: The rows, by their ``"constructor"`` name, whose rule returns exactly one
#: family, never a proper linear space of positive dimension (a point is
#: allowed), and of dimension at most ``family_dim`` of the term.
_ONE_FAMILY_ROWS = frozenset({
    "LinearSpace", "Quadric", "Grassmann", "SympGrassmann (k = 2)",
    "CompleteIntersection", "LinearSectionG25 (c = 0, 1, 3)",
})

#: The constructors all of whose rows are in ``_ONE_FAMILY_ROWS``.  On their
#: covered members of dimension n with 2 * family_dim < n - 1, the lemmas
#: suite can record nothing from the family, and it never builds one.
ONE_FAMILY_CONSTRUCTORS = frozenset(
    ctor for ctor, _, _ in _RULE_TABLE
    if all(row["constructor"] in _ONE_FAMILY_ROWS for c, _, row in _RULE_TABLE if c is ctor))


# ---------------------------------------------------------------------------
# the classification lists


def recognition_list(n: int, fam_dim: int) -> tuple[VarietyTerm, ...]:
    """Picard-number-1 varieties of dimension n >= 1 whose family of lines
    through a general point has dimension ``fam_dim``, in normal form, when
    the dimension drop pins them down: P^n for n - 1, the quadric for n - 2
    and :func:`family_codim3_list` for n - 3 (both with n >= 3).  Otherwise
    the empty tuple: this lists candidates and never claims that a family
    of another dimension is impossible.

    >>> [to_text(v) for v in recognition_list(3, 0)]
    ['CI(3;4)', 'CI(2,2;5)', 'LS(G(2,5),3)']
    """
    if fam_dim == n - 1:
        return (LinearSpace(n),)
    if n < 3:
        return ()
    if fam_dim == n - 2:
        return (normalize(Quadric(n)),)
    if fam_dim == n - 3:
        return family_codim3_list(n)
    return ()


def symplectic_scroll(m: int) -> ProjBundleP1:
    """The family of lines of SG(2,C^{m+3}) for m >= 2: the scroll
    P(O(2) + O(1)^{m-1}), spanning the projectivised tangent space P^{2m}.
    :func:`line_families` reads it forward; read backward it is the
    conjectural recognition rule of :data:`RULE_PROVENANCE`, which the
    odd-dimensional trace cites to identify X from its first family."""
    return ProjBundleP1((2,) + (1,) * (m - 1))


def family_codim3_list(n: int) -> tuple[VarietyTerm, ...]:
    """Picard-number-1 varieties of dimension n >= 3 whose family of lines has
    dimension n - 3, in normal form: the cubic hypersurface, the intersection
    of two quadrics and, for 3 <= n <= 6, the linear section of G(2,5)."""
    found = (CompleteIntersection((3,), n + 1), CompleteIntersection((2, 2), n + 2))
    if 3 <= n <= 6:
        found += (normalize(LinearSectionG25(6 - n)),)
    return found


def above_half_list(n: int) -> tuple[VarietyTerm, ...]:
    """The varieties of dimension n >= 1 with chain invariant S > n/2, in
    normal form: P^n alone."""
    return (LinearSpace(n),)


def next_to_max_list(n: int, d_max: int) -> tuple[VarietyTerm, ...]:
    """The varieties of dimension n >= 2 with chain invariant S = n - 1, in
    normal form, for 1 <= d <= ``d_max``: list (i), the product (P^1 x
    P^{n-1}, O(d,1)), and list (ii), the scroll P(O(d+1) + O(d)^{n-1}).

    >>> [to_text(v) for v in next_to_max_list(3, 2)]
    ['Prod(P(1):1,P(2):1)', 'PB(2,1,1)', 'Prod(P(1):2,P(2):1)', 'PB(3,2,2)']
    """
    return tuple(v for d in range(1, d_max + 1)
                 for v in (PolarizedProduct(((1, d), (n - 1, 1))),
                           ProjBundleP1((d + 1,) + (d,) * (n - 1))))


def even_dimension_list(m: int) -> tuple[VarietyTerm, ...]:
    """The varieties of dimension 2m with chain invariant m and Picard number
    1, in normal form: the quadric and G(2,C^{m+2}) for m >= 2, and none for
    m = 1 (Q^2 and G(2,C^3) are P^1 x P^1 and P^2).

    >>> [to_text(v) for v in even_dimension_list(3)]
    ['Q(6)', 'G(2,5)']
    """
    if m < 2:
        return ()
    if m == 2:  # G(2,C^4) is Q^4
        return (Quadric(4),)
    return (Quadric(2 * m), Grassmann(2, m + 2))


def half_dim_cover_list(n: int, m: int) -> tuple[VarietyTerm, ...]:
    """The list a variety of dimension n and Picard number 1 must belong to
    when its largest linear subspaces are P^m with 2m >= n, in normal form:
    :func:`above_half_list` for 2m > n, :func:`even_dimension_list` for
    2m = n, and the empty tuple for 2m < n, outside the list's range.

    >>> [to_text(v) for v in half_dim_cover_list(8, 4)]
    ['Q(8)', 'G(2,6)']
    """
    if 2 * m > n:
        return above_half_list(n)
    if 2 * m == n:
        return even_dimension_list(m)
    return ()


#: What each verdict letter of the odd-dimensional list names.
VERDICT_NAMES = {
    "a": "a quadric hypersurface",
    "b": "the symplectic Grassmannian",
    "c": "a cubic hypersurface in P^4",
    "d": "an intersection of two quadrics in P^5",
    "e": "a 3-dimensional linear section of G(2,5)",
}


def odd_dimension_list(m: int) -> dict[VarietyTerm, str]:
    """The varieties of dimension 2m+1 >= 3 with chain invariant m, in normal
    form, each mapped to its verdict letter: the quadric (a), SG(2,C^{m+3})
    (b) for m >= 2, and the three del Pezzo threefolds (c, d, e) for m = 1."""
    table = {normalize(Quadric(2 * m + 1)): "a"}
    if m >= 2:  # SG(2,C^4) does not exist separately; it is Q^3
        table[normalize(SympGrassmann(2, m + 3))] = "b"
    if m == 1:
        table.update(zip(family_codim3_list(3), "cde"))
    return table
