"""Verification suites over exhaustive catalogs.

Each suite checks an implication for every qualifying catalog member and
reports one record per member and check.  The suites verify that no member
VIOLATES a classification; completeness of the classification lists is a
mathematical fact outside any enumeration and is never claimed.

Every suite, :func:`classify_by_s` and :func:`run_suite` read S from the
:class:`~fanolines.chains.ChainEngine` they are given; ``engine=None`` means
a fresh engine for that one call, dropped when the call returns.
"""

from __future__ import annotations

from .catalog import Catalog, build_catalog
from .chains import ChainEngine
from .dsl import to_text
from .errors import EngineError, ValidationError
from .families import (
    ONE_FAMILY_CONSTRUCTORS,
    RULELESS_CONSTRUCTORS,
    above_half_list,
    even_dimension_list,
    family_outcome,
    half_dim_cover_list,
    next_to_max_list,
    odd_dimension_list,
    recognition_list,
)
from .reports import SuiteReport
from .terms import (
    Grassmann,
    LinearSpace,
    ProjBundleP1,
    Quadric,
    SympGrassmann,
    VarietyTerm,
    is_fano,
    is_linear,
    normalize,
)
from .trace import classification_trace


def classify_by_s(cat: Catalog, n: int, s: int,
                  engine: ChainEngine | None = None) -> list[VarietyTerm]:
    """Catalog members of dimension n, Picard number 1 and exact invariant s.

    S is asked only of members whose ceiling on S,
    :func:`~fanolines.terms.s_ceiling`, reaches s; the others are skipped.
    A wrong S on a skipped member is therefore caught by the ceiling's
    property tests, not here.
    """
    eng = engine or ChainEngine()
    out = []
    for v in cat.index.by_dim.get(n, ()):
        if v._s_ceiling() < s:  # no wrapper call per member
            continue
        sv = eng.s_invariant(v)
        if sv.is_exact and sv.value == s:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# the classification by large chain invariant


def verify_classification(cat: Catalog, engine: ChainEngine | None = None) -> SuiteReport:
    """Classification sweep for members whose invariant is at least half the
    dimension.

    For every member with Picard number 1, dimension >= 2 and an exact
    invariant S: 2S > n forces a linear space; 2S = n forces a quadric or
    G(2, C^{m+2}); 2S = n-1 forces membership of the odd-dimensional list,
    and the case-analysis trace must reproduce the member's verdict letter.
    The three lists are :func:`~fanolines.families.above_half_list`,
    :func:`~fanolines.families.even_dimension_list` and
    :func:`~fanolines.families.odd_dimension_list`.

    S is not asked of a member whose ceiling c,
    :func:`~fanolines.terms.s_ceiling`, has 2c < n - 1 and whose
    constructor is not in
    :data:`~fanolines.families.RULELESS_CONSTRUCTORS`: no rule returns a
    family of a ruleless constructor, so such a member has an exact S with
    2S <= 2c < n - 1, and it counts as ``no_implication`` as it would with
    S asked.  Every counter and record stays the same.  A wrong S on a
    skipped member, a poisoned memo entry included, is therefore caught by
    the ceiling's property tests, not by this suite.
    """
    eng = engine or ChainEngine()
    rep = SuiteReport("thm1", {"n_max": cat.n_max, "deg_max": cat.deg_max})
    index = cat.index
    rep.bump("skipped_dim_lt_2", index.count(lambda n, rho: n < 2))
    rep.bump("skipped_rho_ne_1", index.count(lambda n, rho: n >= 2 and rho != 1))
    no_implication = 0  # bumped once, after the loop
    for v in index.picard_one:
        n = v._dim()  # no wrapper calls: most members are skipped here
        if n < 2:
            continue  # counted above
        if 2 * v._s_ceiling() < n - 1 and v.__class__ not in RULELESS_CONSTRUCTORS:
            no_implication += 1
            continue
        sv = eng.s_invariant(v)
        if not sv.is_exact:
            rep.bump("skipped_inexact_s")
            continue
        s = sv.value
        if 2 * s < n - 1:
            no_implication += 1
            continue
        name = to_text(v)  # only members that get a record are named
        if 2 * s > n:
            rep.add(name, "classify.s-above-half", v in above_half_list(n),
                    f"2S = {2*s} > n = {n} must force a linear space")
        elif 2 * s == n:
            rep.add(name, "classify.s-half", v in even_dimension_list(s),
                    f"2S = n = {n}: quadric or G(2,C^{s+2}) required")
        else:
            allowed = odd_dimension_list(s)
            rep.add(name, "classify.s-below-half", v in allowed,
                    f"2S = n - 1 = {n - 1}: odd-dimensional list required",
                    conjecture_dependent=isinstance(v, SympGrassmann))
            try:
                trace = classification_trace(v, eng)
            except EngineError as err:
                rep.add(name, "classify.trace", False, f"trace aborted: {err}")
            else:
                rep.add(name, "classify.trace",
                        allowed.get(normalize(v)) == trace.verdict,
                        f"trace verdict ({trace.verdict}) via {trace.case_tag}",
                        conjecture_used=trace.conjecture_used)
    rep.bump("no_implication", no_implication)
    return rep


# ---------------------------------------------------------------------------
# next-to-maximal invariant


def verify_next_to_maximal(cat: Catalog, engine: ChainEngine | None = None) -> SuiteReport:
    """Members with S = dim - 1 are exactly the two bundle families.

    Checks both directions at catalog scale: every member with exact
    S = dim - 1 >= 1 normalizes into list (i), the product (P^1 x P^{n-1},
    O(d,1)), or list (ii), the scroll P(O(d+1) + O(d)^{n-1}); and every list
    member realizes S = dim - 1.  List-(ii) members must also pass the Fano
    twist inequality.  Both directions read the lists from
    :func:`~fanolines.families.next_to_max_list`.

    S = n - 1 >= 1 needs a ceiling on S,
    :func:`~fanolines.terms.s_ceiling`, of at least n - 1, that is a family
    of lines of dimension n - 2.  S is asked only of the members that have
    one, the catalog's ``index.near_max`` slice, filed in catalog order by
    the same pass that files the Picard-number-1 members; the others are
    never visited, and every record stays the same.  A wrong S on a member
    outside the slice is therefore caught by the ceiling's property tests,
    not by this suite.
    """
    eng = engine or ChainEngine()
    rep = SuiteReport("prop32", {"n_max": cat.n_max, "deg_max": cat.deg_max})
    # A member's d is at most deg_max (a product degree) or n_max (a scroll
    # twist, trivial scrolls included), so each list runs to the larger.
    d_max = max(cat.n_max, cat.deg_max)
    forms = {n: frozenset(next_to_max_list(n, d_max)) for n in range(2, cat.n_max + 1)}
    for v in cat.index.near_max:
        n = v._dim()
        sv = eng.s_invariant(v)
        if not (sv.is_exact and sv.value == n - 1):
            continue
        name = to_text(v)
        rep.add(name, "next-to-max.form", v in forms[n],
                "S = dim - 1 must normalize into list (i) or (ii)")
        if isinstance(v, ProjBundleP1):
            rep.add(name, "next-to-max.fano-inequality", is_fano(v),
                    "sum of twists <= k * min + 1")
    for n in range(2, cat.n_max + 1):
        for member in next_to_max_list(n, cat.deg_max):
            sv = eng.s_invariant(member)
            which = "ii" if isinstance(member, ProjBundleP1) else "i"
            rep.add(to_text(member), f"next-to-max.list-{which}-realizes",
                    sv.is_exact and sv.value == n - 1,
                    f"expected exact S = {n - 1}, got S {sv}")
    return rep


# ---------------------------------------------------------------------------
# family implications


#: What each dimension drop of :func:`recognition_list` requires.
_RECOGNITION_DETAIL = {
    1: "family fills P(T): linear space required",
    2: "family of dimension n-2: quadric required",
    3: "family of dimension n-3: cubic, 2-quadric intersection,"
       " or G(2,5) section required",
}


def verify_family_lemmas(cat: Catalog, engine: ChainEngine | None = None) -> SuiteReport:
    """The four family implications, over every Picard-number-1 member.

    * family-dimension recognition: a family of dimension n-1, n-2 or n-3
      pins the variety to :func:`~fanolines.families.recognition_list`,
      read through ``family_dim`` so that members without a family rule
      are checked too;
    * non-degeneracy: a family of dimension >= (n-1)/2 spans its ambient
      projectivised tangent space;
    * a proper linear family of positive dimension has dimension <= (n-4)/2
      (expected to hold vacuously; the vacuity count is reported);
    * exact covering dimension >= n/2 forces membership of the linear-bundle
      / quadric / Grassmannian list,
      :func:`~fanolines.families.half_dim_cover_list`.

    The members are the catalog's ``index.picard_one`` slice, normal forms
    whose dimension, family dimension and maximal linear subspace are asked
    of their constructors; the engine bounds the last only where the
    constructor has no ruling table.  Their families come from
    :func:`~fanolines.families.family_outcome`, except on a covered member
    of dimension n with 2 * family_dim < n - 1 whose constructor is in
    :data:`~fanolines.families.ONE_FAMILY_CONSTRUCTORS`: its rule returns
    one family, of dimension at most family_dim, so below (n-1)/2, and not a
    proper linear space of positive dimension, so neither implication can
    fire on it.  Its family is counted as ``proper_linear_vacuous`` without
    being built, and every counter and record stays the same.  A rule that
    breaks that fact is therefore caught by the fact's tests over every rule
    output, not by this suite.
    """
    eng = engine or ChainEngine()
    rep = SuiteReport("lemmas", {"n_max": cat.n_max, "deg_max": cat.deg_max})
    rep.counters["proper_linear_triggered"] = 0
    rep.counters["proper_linear_vacuous"] = 0
    vacuous = 0  # bumped once, after the loop
    index = cat.index
    rep.bump("skipped_rho_ne_1", index.count(lambda n, rho: rho != 1))
    for v in index.picard_one:
        # Normal forms: ask their constructors directly.  v is printed per
        # record only: most members get none.
        n = v._dim()

        # Recognition by family dimension, via the anticanonical-degree
        # formula (defined even where no family rule exists).
        fd = v._family_dim()
        candidates = recognition_list(n, fd)
        if candidates:
            rep.add(to_text(v), f"families.dimH-is-n-{n - fd}", v in candidates,
                    _RECOGNITION_DETAIL[n - fd])

        if fd >= 0 and 2 * fd < n - 1 and v.__class__ in ONE_FAMILY_CONSTRUCTORS:
            vacuous += 1  # one family, neither non-degenerate nor proper linear
        else:
            fams, end = family_outcome(v)
            if end is not None:  # "not_covered" or "no_rule"
                rep.bump(end)
                continue
            for fam, ambient, span in fams:
                fdim = fam._dim()
                if 2 * fdim >= n - 1:
                    rep.add(to_text(v), "families.nondegenerate", span == ambient,
                            f"family of dimension {fdim} >= (n-1)/2 must span P^{n-1}")
                if fdim >= 1 and span < ambient and is_linear(fam):
                    rep.bump("proper_linear_triggered")
                    rep.add(to_text(v), "families.proper-linear", 2 * fdim <= n - 4,
                            f"proper linear family of dimension {fdim}:"
                            " 2*dim <= n-4 required")
                else:
                    vacuous += 1

        ml = v._max_linear_in()  # v is a normal form; the engine bounds the rest
        if ml is None:
            ml = eng.max_linear_in(v)
        if ml.is_exact and 2 * ml.value >= n >= 1:
            rep.add(to_text(v), "covering.half-dim-list",
                    v in half_dim_cover_list(n, ml.value),
                    f"covered by P^{ml.value} with 2*{ml.value} >= n = {n}:"
                    " bundle/quadric/Grassmannian list required")
    rep.bump("proper_linear_vacuous", vacuous)
    return rep


# ---------------------------------------------------------------------------
# golden chain values


def golden_suite(n_max: int, m_max: int, engine: ChainEngine | None = None) -> SuiteReport:
    """Closed-form chain invariants of the four classical families.

    S(P^n) = n and S(Q^n) = floor(n/2) for 1 <= n <= n_max; S(G(2,C^{m+2}))
    = m and S(SG(2,C^{m+3})) = m for 2 <= m <= m_max.  Raises ValidationError
    unless n_max >= 1 and m_max >= 0, so an empty range never reads as a pass.
    """
    eng = engine or ChainEngine()
    if n_max < 1 or m_max < 0:
        raise ValidationError(
            f"golden suite requires n_max >= 1 and m_max >= 0, got {n_max} and {m_max}",
            component="checks",
        )
    rep = SuiteReport("golden", {"n_max": n_max, "m_max": m_max})

    def check(v: VarietyTerm, expected: int):
        sv = eng.s_invariant(v)
        rep.add(to_text(v), "golden.s", sv.is_exact and sv.value == expected,
                f"expected exact S = {expected}, got S {sv}")

    for n in range(1, n_max + 1):
        check(LinearSpace(n), n)
        check(Quadric(n), n // 2)
    # m starts at 2: G(2,C^3) is P^2 itself and SG(2,C^4) is Q^3, where the
    # degenerate identifications take over.
    for m in range(2, m_max + 1):
        check(Grassmann(2, m + 2), m)
        check(SympGrassmann(2, m + 3), m)
    return rep


#: CLI suite tokens.
SUITES = {
    "thm1": verify_classification,
    "prop32": verify_next_to_maximal,
    "lemmas": verify_family_lemmas,
}


def run_suite(name: str, n_max: int, deg_max: int,
              engine: ChainEngine | None = None) -> SuiteReport:
    """Run one named suite on a fresh catalog; 'golden' takes n_max as both bounds."""
    if name == "golden":
        return golden_suite(n_max, n_max, engine)
    return SUITES[name](build_catalog(n_max, deg_max), engine)
