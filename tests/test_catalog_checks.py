"""Catalog enumeration and the verification suites."""

import gc
import pickle
import weakref
from collections import Counter
from functools import cache
from itertools import combinations_with_replacement
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from fanolines import catalog, families
from fanolines.catalog import Catalog, build_catalog
from fanolines.chains import ChainEngine
from fanolines.checks import (
    _RECOGNITION_DETAIL,
    classify_by_s,
    golden_suite,
    run_suite,
    verify_classification,
    verify_family_lemmas,
    verify_next_to_maximal,
)
from fanolines.dsl import CI_CLOSE, PRODUCT_CLOSE, PRODUCT_FACTOR, PRODUCT_SEP, ci_prefix, to_text
from fanolines.errors import EngineError, ValidationError
from fanolines.families import (
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
from fanolines.reports import SuiteReport, report_text
from fanolines.terms import (
    Bound,
    CompleteIntersection,
    Grassmann,
    LinearSectionG25,
    LinearSpace,
    PolarizedProduct,
    ProjBundleP1,
    Quadric,
    SympGrassmann,
    at_least,
    dim,
    exact,
    family_dim,
    is_fano,
    is_linear,
    normalize,
    picard_number,
    s_ceiling,
)
from fanolines.trace import classification_trace


# ---------------------------------------------------------------------------
# catalog contents

# Hand enumeration for n_max = 2, deg_max = 2, frozen before the build:
# dimension 1: P(1), Q(1); dimension 2: P(2), the quadric surface (canonical
# product form), the remaining degree-(1,2) and (2,2) products of two lines,
# the intersection of two quadrics in P^4, the quintic del Pezzo surface,
# and the scroll P(O(2) + O(1)).
CATALOG_2_2 = {
    "P(1)", "Q(1)",
    "P(2)", "Prod(P(1):1,P(1):1)", "Prod(P(1):1,P(1):2)", "Prod(P(1):2,P(1):2)",
    "CI(2,2;4)", "LS(G(2,5),4)", "PB(2,1)",
}


def test_catalog_2_2_exact_contents():
    cat = build_catalog(2, 2)
    assert {to_text(v) for v in cat} == CATALOG_2_2


def test_catalog_3_3_contains_the_expected_members():
    cat = build_catalog(3, 3)
    names = {to_text(v) for v in cat}
    for expected in ("CI(3;4)", "CI(2,2;5)", "CI(2,3;5)", "CI(2,2,2;6)",
                     "LS(G(2,5),3)", "Q(3)", "P(3)", "PB(2,1,1)", "PB(3,2,2)",
                     "CI(3;3)"):
        assert expected in names
    # dimension cap and Fano filter
    assert all(1 <= dim(v) <= 3 for v in cat)
    assert all(is_fano(v) for v in cat)


def test_catalog_members_are_canonical_and_sorted():
    for n_max, deg_max in ((8, 3), (15, 4), (20, 5)):
        cat = build_catalog(n_max, deg_max)
        assert all(v == normalize(v) for v in cat)
        names = [to_text(v) for v in cat]
        # strictly increasing: every member prints to its own text, so the
        # order does not depend on the container that deduplicates
        assert names == sorted(set(names))
        assert tuple(cat.members) == tuple(sorted(set(cat.members), key=to_text))
        # duplicates under canonicalisation are gone
        assert "G(3,5)" not in names and "G(2,5)" in names
        assert "LS(G(2,5),0)" not in names and "LS(G(2,5),1)" not in names
        assert "SG(2,5)" in names
        assert "CI(2;4)" not in names and "Q(3)" in names


def test_catalog_is_deterministic():
    assert build_catalog(7, 3) == build_catalog(7, 3)


def test_catalog_rejects_tiny_bounds(monkeypatch):
    # The bounds are checked before the collector is paused: a spy in place
    # of ``gc``, reporting it enabled, sees no call until a build runs.
    calls = []
    answers = {"isenabled": True, "disable": None, "enable": None}
    spy = SimpleNamespace(**{name: (lambda name=name: calls.append(name) or answers[name])
                             for name in answers})
    monkeypatch.setattr(catalog, "gc", spy)
    with pytest.raises(ValidationError):
        build_catalog(1, 4)
    with pytest.raises(ValidationError):
        build_catalog(5, 1)
    assert calls == []
    build_catalog(2, 2)
    assert calls == ["isenabled", "disable", "enable"]


@pytest.fixture
def keep_collector_state():
    """Restores the collector's state after the test, whatever it did."""
    before = gc.isenabled()
    yield
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
def test_build_pauses_the_collector_and_restores_its_state(monkeypatch, keep_collector_state, on):
    (gc.enable if on else gc.disable)()
    build_catalog(6, 3)
    assert gc.isenabled() is on

    # A build that raises midway, inside the pause, still restores it.
    seen = []

    def failing_sequences(deg_max, budget):
        yield (2,), 1
        seen.append(gc.isenabled())
        raise RuntimeError("midway")

    monkeypatch.setattr(catalog, "_degree_sequences", failing_sequences)
    with pytest.raises(RuntimeError, match="midway"):
        build_catalog(6, 3)
    assert seen == [False]  # paused during the build, whatever the caller had
    assert gc.isenabled() is on


class _Node:
    """An object that can be watched by ``weakref.finalize``."""


@pytest.fixture
def unfreeze_after():
    """Moves back whatever the test left frozen, so that later tests find
    nothing frozen."""
    yield
    gc.unfreeze()


def test_a_build_leaves_the_callers_young_cycles_young_and_its_freeze_as_it_was(
        keep_collector_state, unfreeze_after):
    # A young unreachable cycle made before a build stays young: the next
    # young collection reclaims it.
    gc.disable()  # keeps the cycle young until the build
    reclaimed = []
    node = _Node()
    node.self = node
    weakref.finalize(node, reclaimed.append, True)
    del node
    build_catalog(6, 3)
    gc.collect(0)
    assert reclaimed == [True]

    # With the caller's own freeze in force, the build leaves it as it was.
    gc.freeze()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    build_catalog(6, 3)
    assert gc.get_freeze_count() == frozen


def test_in_answers_false_for_anything_but_a_term(cat15):
    for other in ("P(3)", "G(2,5)", None, 3, (2, 5), [LinearSpace(3)], cat15):
        assert other not in cat15
    assert Grassmann(3, 5) in cat15 and LinearSpace(3) in cat15


def test_catalog_contains_no_non_fano_scrolls():
    names = {to_text(v) for v in build_catalog(4, 4)}
    assert "PB(3,1,1)" not in names  # covered by lines but not Fano
    assert "PB(2,1,1)" in names


@cache  # the (12,11) reference takes seconds and two tests read it
def _generate_and_filter_catalog(n_max: int, deg_max: int) -> tuple:
    """The members of the first catalog builder, which generated every
    complete-intersection and product candidate and filtered by dimension."""
    found = set()

    def add(term):
        term = normalize(term)
        if 1 <= dim(term) <= n_max and is_fano(term):
            found.add(term)

    for n in range(1, n_max + 1):
        add(LinearSpace(n))
        add(Quadric(n))
    k = 2
    while k * k <= n_max:
        N = 2 * k
        while k * (N - k) <= n_max:
            add(Grassmann(k, N))
            N += 1
        k += 1
    k = 2
    while k * (k + 1) - k * (k - 1) // 2 <= n_max:
        N = 2 * k + 1
        while k * (N - k) - k * (k - 1) // 2 <= n_max:
            add(SympGrassmann(k, N))
            N += 1
        k += 1
    for count in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            N = n + count
            for degs in combinations_with_replacement(range(2, deg_max + 1), count):
                if sum(degs) <= N:
                    add(CompleteIntersection(degs, N))
    pairs = [(n, d) for n in range(1, n_max) for d in range(1, deg_max + 1)]
    for r in (2, 3):
        for combo in combinations_with_replacement(pairs, r):
            if sum(n for n, _ in combo) <= n_max:
                add(PolarizedProduct(combo))
    for k in range(2, n_max + 1):
        for d in range(1, n_max + 1):
            add(ProjBundleP1((d,) * k))
            if d + 1 <= n_max:
                add(ProjBundleP1((d + 1,) + (d,) * (k - 1)))
    for c in range(0, 5):
        add(LinearSectionG25(c))
    return tuple(sorted(found, key=to_text))


@pytest.mark.parametrize("deg_max", [2, 3, 4, 5])
def test_direct_enumeration_matches_generate_and_filter(deg_max):
    for n_max in range(2, 17):
        assert tuple(build_catalog(n_max, deg_max).members) == \
            _generate_and_filter_catalog(n_max, deg_max), (n_max, deg_max)


@pytest.mark.parametrize("grid", [(11, 10), (12, 11)])
def test_product_names_with_two_digit_fields_sort_as_their_text(grid):
    # The build names its products by concatenating factor texts.  With two
    # digits, P(1):1 is a prefix of P(1):10 and P(1) one of P(10); the names
    # must still be the members' texts, in strictly increasing order.
    members = tuple(build_catalog(*grid).members)
    assert members == _generate_and_filter_catalog(*grid)
    names = [to_text(v) for v in members]
    assert all(a < b for a, b in zip(names, names[1:]))
    for name in ("Prod(P(1):1,P(1):1)", "Prod(P(1):1,P(1):10)", "Prod(P(1):10,P(1):10)",
                 "Prod(P(1):1,P(10):1)", "Prod(P(1):1,P(1):1,P(1):10)"):
        assert name in names


def test_product_texts_sort_as_the_tuples_of_their_factor_texts():
    # The premise of the build's product walk: a product's text sorts as the
    # tuple of its factors' texts, and a pair before the triples extending it.
    # What follows a factor text is the separator or the close, so both must
    # sort below what can follow a factor text that is a proper prefix of
    # another, which is a digit.
    digits = "0123456789"
    assert all(PRODUCT_SEP[0] < c and PRODUCT_CLOSE[0] < c for c in digits)
    assert PRODUCT_CLOSE[0] < PRODUCT_SEP[0]
    texts = [PRODUCT_FACTOR % (n, d) for n in range(1, 12) for d in range(1, 12)]
    prefixed = [(a, b) for a in texts for b in texts if a != b and b.startswith(a)]
    assert ("P(1):1", "P(1):10") in prefixed
    assert all(b[len(a)] in digits for a, b in prefixed)


def _runs_as_terms(pairs, thirds) -> list:
    """The products that the walk's runs stand for, in their order."""
    return list(catalog._Members((), 0, [], 0, pairs, thirds))


_FACTOR = st.tuples(st.integers(1, 12), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_FACTOR, min_size=2, max_size=2), max_size=6))
@example([[(1, 1), (1, 10)], [(1, 1), (1, 1)]])  # after a run it ends, and one the walk makes
@example([[(1, 9), (4, 1)], [(1, 1), (6, 1)], [(1, 12), (12, 1)]])  # degree above deg_max
def test_the_product_walk_merges_products_from_add_by_text(factor_lists):
    # ``add`` makes only pairs (tests/test_properties.py checks that), inside
    # and outside the walk's bounds; the merge must place any pair, made by
    # the walk or not, and file the block as the per-member pass files the
    # products it returns.
    made = {PolarizedProduct(tuple(fs)) for fs in factor_lists}
    walk = _runs_as_terms(*catalog._products(7, 3, set(), catalog._filing()))
    filing = catalog._filing()
    products = _runs_as_terms(*catalog._products(7, 3, {v.factors for v in made}, filing))
    assert products == sorted(set(walk) | made, key=to_text)
    per_member = catalog._filing()
    catalog._file(products, per_member)
    assert filing == per_member


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(2, 12), min_size=1, max_size=4),
                          st.integers(5, 10**4)), min_size=2, max_size=12))
@example([([3], 10), ([3], 4)])
@example([([2, 10], 12), ([2, 2], 10)])
def test_ci_texts_sort_by_their_prefix_then_the_text_of_n(drawn):
    # The premise of the build's complete-intersection block: a complete
    # intersection's text sorts as its degree sequence's prefix, then the
    # text of N.  That holds while ``;`` ends the prefix and occurs nowhere
    # else, so no prefix is a proper prefix of another, and while the close
    # sorts below every digit, so CI(3;10) comes before CI(3;4).
    assert all(CI_CLOSE[0] < c for c in "0123456789")
    terms = {CompleteIntersection(tuple(degs), N) for degs, N in drawn}
    for v in terms:
        text, prefix = to_text(v), ci_prefix(v.degrees)
        assert text.startswith(prefix) and text.count(";") == 1
        assert text.index(";") == len(prefix) - 1
    assert sorted(terms, key=lambda v: (ci_prefix(v.degrees), str(v.N))) == \
        sorted(terms, key=to_text)


def test_ci_names_with_two_digit_fields_sort_as_their_text():
    # The build emits its complete intersections by degree sequence, in the
    # order of the sequences' prefixes, and each sequence's N in the order of
    # their text.  With two digits, CI(3;10) sorts before CI(3;4) and
    # CI(2,10; after CI(2,2;; the block must still be in strictly increasing
    # text order.
    cis = [v for v in build_catalog(12, 11) if type(v) is CompleteIntersection]
    assert cis == [v for v in _generate_and_filter_catalog(12, 11)
                   if type(v) is CompleteIntersection]
    names = [to_text(v) for v in cis]
    assert names == [f"CI({','.join(map(str, v.degrees))};{v.N})" for v in cis]
    assert all(a < b for a, b in zip(names, names[1:]))
    assert names.index("CI(3;10)") < names.index("CI(3;4)")
    for name in ("CI(3;4)", "CI(3;10)", "CI(10;10)", "CI(10;11)", "CI(11;12)",
                 "CI(2,2;10)", "CI(2,10;12)"):
        assert name in names


@pytest.mark.parametrize("grid", [(15, 4), (20, 5), (12, 11)])
def test_ci_members_pass_the_guards_the_build_does_not_ask(grid):
    # The build inserts each complete intersection unnormalized and unguarded,
    # and skips the sequence (2,), whose members normalize to quadrics.
    n_max = grid[0]
    members = build_catalog(*grid).members
    cis = [v for v in members if type(v) is CompleteIntersection]
    assert cis
    for v in cis:
        assert normalize(v) == v, to_text(v)
        assert 1 <= dim(v) <= n_max and is_fano(v), to_text(v)
        assert v.degrees != (2,), to_text(v)
    member_set = set(members)
    for n in range(1, n_max + 1):
        assert normalize(Quadric(n)) in member_set, n


def _validated(v):
    """``v`` rebuilt through its public, sorting and validating constructor."""
    return type(v)(*(getattr(v, name) for name in type(v).__slots__))


def _assert_trusted_terms_are_their_validated_construction(terms):
    for v in terms:
        w = _validated(v)
        assert w == v and hash(w) == hash(v), to_text(v)
        back = pickle.loads(pickle.dumps(v))
        assert back == v and type(back) is type(v), to_text(v)


def _ci_rule_walk(v, depth):
    """The complete-intersection families reached from ``v`` by at most
    ``depth`` steps of the rule, each applied to the previous output as is."""
    walk = []
    while len(walk) < depth:
        fams, _ = family_outcome(v)
        if not fams or type(fams[0][0]) is not CompleteIntersection:
            break
        v = fams[0][0]
        walk.append(v)
    return walk


@pytest.mark.parametrize("grid", [(15, 4), (20, 5)])
def test_trusted_members_and_ci_rule_outputs_equal_their_validated_construction(grid):
    # The build and the CI rule skip the validating constructor; what they
    # build is canonical, so it equals, hashes and pickles as the term the
    # public constructor makes from the same fields.
    cat = build_catalog(*grid)
    _assert_trusted_terms_are_their_validated_construction(cat)
    cis = [v for v in cat if type(v) is CompleteIntersection]
    outputs = [w for v in cis for w in _ci_rule_walk(v, 50)]
    assert outputs
    _assert_trusted_terms_are_their_validated_construction(outputs)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4), st.integers(0, 120))
def test_ci_rule_outputs_equal_their_validated_construction(degrees, fam_dim):
    # A covered CI of family dimension fam_dim, walked up to 50 steps deep.
    v = CompleteIntersection(tuple(degrees), fam_dim + 1 + sum(degrees))
    _assert_trusted_terms_are_their_validated_construction(_ci_rule_walk(v, 50))


@pytest.mark.parametrize("grid", [(2, 2), (9, 3), (12, 5), (12, 11), (15, 4), (20, 5)])
def test_the_built_index_is_the_index_of_its_members(grid):
    # The build files the index as it places the members; a catalog made
    # from the same tuple files it in one pass over ``__iter__``.
    cat = build_catalog(*grid)
    built = cat.index
    filed = Catalog(grid[0], grid[1], cat.members).index
    assert built == filed
    assert list(built.by_dim) == list(filed.by_dim)


def test_no_three_factor_product_is_asked_its_invariants(monkeypatch):
    # The build counts the triples from their shapes, and the suites read
    # the index alone, so no triple is asked its dimension, Picard number or
    # ceiling on S; the reference pass over ``__iter__`` asks every one.
    asked = Counter()
    for name in ("_dim", "_picard_number", "_s_ceiling"):
        def spy(self, _method=getattr(PolarizedProduct, name), _name=name):
            if len(self.factors) == 3:
                asked[_name] += 1
            return _method(self)
        monkeypatch.setattr(PolarizedProduct, name, spy)
    cat, eng = build_catalog(15, 4), ChainEngine()
    for suite in (verify_classification, verify_next_to_maximal, verify_family_lemmas):
        suite(cat, eng)
    assert not asked
    triples = sum(1 for v in cat if type(v) is PolarizedProduct and len(v.factors) == 3)
    assert triples > 0
    Catalog(cat.n_max, cat.deg_max, cat.members).index
    assert asked == {"_dim": triples, "_picard_number": triples, "_s_ceiling": triples}


def test_only_iteration_builds_a_three_factor_product(monkeypatch):
    # The build keeps the products as the walk's runs and builds only their
    # pairs; ``len``, ``index`` and the suites build no triple.  Each pass
    # over the catalog builds every triple once, and keeps none.
    rows, triples = Counter(), Counter()

    def spy(cls, *columns, _build=catalog._trusted_columns):
        rows[cls] += len(columns[0])
        if cls is PolarizedProduct:
            triples.update(factors for factors in columns[0] if len(factors) == 3)
        return _build(cls, *columns)

    monkeypatch.setattr(catalog, "_trusted_columns", spy)
    cat, eng = build_catalog(15, 4), ChainEngine()
    built = dict(rows)
    assert len(cat) == 7360
    for suite in (verify_classification, verify_next_to_maximal, verify_family_lemmas):
        assert suite(cat, eng).ok
    n_triples = cat.index.count(lambda n, rho: rho == 3)
    assert n_triples > 0
    assert rows == built and not triples
    for _ in range(2):
        triples.clear()
        members = list(cat)
        assert triples == Counter(v.factors for v in members
                                  if type(v) is PolarizedProduct and len(v.factors) == 3)
        assert set(triples.values()) == {1} and sum(triples.values()) == n_triples
    pairs = sum(1 for v in members if type(v) is PolarizedProduct and len(v.factors) == 2)
    cis = sum(1 for v in members if type(v) is CompleteIntersection)
    assert built == {CompleteIntersection: cis, PolarizedProduct: pairs}


def test_two_builds_of_a_grid_compare_equal():
    assert build_catalog(7, 3) == build_catalog(7, 3) != build_catalog(7, 4)
    assert hash(build_catalog(7, 3)) == hash(build_catalog(7, 3))


@pytest.mark.parametrize("grid", [(2, 2), (9, 3), (12, 5), (12, 11), (20, 5)])
def test_picard_one_index_is_the_picard_one_slice(grid):
    cat = build_catalog(*grid)
    index = cat.index
    assert list(index.picard_one) == [v for v in cat if picard_number(v) == 1]
    for n in range(0, cat.n_max + 2):
        want = [v for v in cat if dim(v) == n and picard_number(v) == 1]
        assert list(index.by_dim.get(n, ())) == want
    assert index.counts == Counter((dim(v), picard_number(v)) for v in cat)


def _near_max_reference(members) -> list:
    return [v for v in members if dim(v) >= 2 and s_ceiling(v) >= dim(v) - 1]


@pytest.mark.parametrize("grid", [(2, 2), (9, 3), (12, 5), (12, 11), (20, 5)])
def test_near_max_index_is_the_prop32_slice(grid):
    cat = build_catalog(*grid)
    assert list(cat.index.near_max) == _near_max_reference(cat)
    # both lists of Prop 3.2 are in the slice wherever the catalog holds them
    for n in range(2, cat.n_max + 1):
        for v in next_to_max_list(n, cat.deg_max):
            assert v not in cat or v in cat.index.near_max, to_text(v)


@pytest.mark.parametrize("grid", [(2, 2), (9, 3), (15, 4)])
def test_skip_counters_match_a_per_member_count(grid):
    cat = build_catalog(*grid)
    lt_2 = sum(1 for v in cat if dim(v) < 2)
    rho_ne_1 = sum(1 for v in cat if picard_number(v) != 1)
    rho_ne_1_dim_ge_2 = sum(1 for v in cat if dim(v) >= 2 and picard_number(v) != 1)
    counters = verify_classification(cat).counters
    assert counters.get("skipped_dim_lt_2", 0) == lt_2
    assert counters.get("skipped_rho_ne_1", 0) == rho_ne_1_dim_ge_2
    assert verify_family_lemmas(cat).counters.get("skipped_rho_ne_1", 0) == rho_ne_1
    # a counter appears only once it counts something
    assert all(value != 0 for key, value in counters.items() if key.startswith("skipped"))


def test_three_argument_catalog_and_subclasses_keep_working(cat15):
    full = build_catalog(9, 3)
    chosen = tuple(v for v in full if dim(v) in (1, 3, 7))
    cat = Catalog(9, 3, chosen)
    assert len(cat) == len(chosen) and Quadric(7) in cat and Quadric(5) not in cat
    assert {n for n in cat.index.by_dim} == {1, 3, 7}
    assert cat.index.near_max
    assert list(cat.index.near_max) == _near_max_reference(chosen)
    assert classify_by_s(cat, 7, 3) == classify_by_s(full, 7, 3)
    assert classify_by_s(cat, 5, 2) == []
    assert verify_classification(cat).counters["skipped_dim_lt_2"] == 2

    class Reversed(Catalog):
        def __init__(self, base: Catalog):
            super().__init__(base.n_max, base.deg_max, tuple(base.members)[::-1])

    rev = Reversed(full)
    assert rev.index.by_dim[3] == full.index.by_dim[3][::-1]
    assert rev.index.counts == full.index.counts
    assert list(rev.index.near_max) == _near_max_reference(rev.members)
    assert rev.index.near_max == full.index.near_max[::-1]

    # a plane cubic is a curve of unknown Picard number: skipped by both suites
    curves = Catalog(2, 3, (CompleteIntersection((3,), 2), LinearSpace(1)))
    assert verify_classification(curves).counters == {"skipped_dim_lt_2": 2}
    assert verify_family_lemmas(curves).counters["skipped_rho_ne_1"] == 1

    class Counting(Catalog):
        """Counts the members its iteration yields, as the benchmark's
        counting catalog does."""

        def __init__(self, base: Catalog):
            super().__init__(base.n_max, base.deg_max, base.members)
            object.__setattr__(self, "yielded", [0])

        def __iter__(self):
            for v in self.members:
                self.yielded[0] += 1
                yield v

    counting, eng = Counting(cat15), ChainEngine()
    for suite in (verify_classification, verify_next_to_maximal, verify_family_lemmas):
        assert suite(counting, eng).as_dict() == suite(cat15, eng).as_dict()
    # the three suites read one index pass, and that pass walks __iter__
    assert counting.yielded[0] == len(counting) == 7360
    assert Quadric(7) in counting and counting.yielded[0] == 2 * len(counting)


def test_bounds_are_interned_and_compare_and_hash_as_before():
    assert exact(3) is exact(3)
    assert at_least(3) is at_least(3)
    assert exact(3) == Bound("exact", 3) == ("exact", 3)
    assert hash(exact(3)) == hash(Bound("exact", 3)) == hash(("exact", 3))
    assert exact(3) != at_least(3) and exact(3) != exact(4)
    assert {exact(3): "x"}[Bound("exact", 3)] == "x"
    assert exact(3).is_exact and not at_least(3).is_exact


def test_bound_caches_stay_bounded_after_a_deep_walk():
    ChainEngine().s_invariant(LinearSpace(20000))
    for make in (exact, at_least):
        info = make.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# classification queries


def test_classify_dimension_seven():
    cat = build_catalog(15, 4)
    members = {to_text(v) for v in classify_by_s(cat, 7, 3)}
    assert members == {"Q(7)", "SG(2,6)"}


def test_classify_dimension_three():
    cat = build_catalog(15, 4)
    members = {to_text(v) for v in classify_by_s(cat, 3, 1)}
    assert members == {"Q(3)", "CI(3;4)", "CI(2,2;5)", "LS(G(2,5),3)"}


def test_classify_dimension_four_merges_isomorphic_presentations():
    cat = build_catalog(12, 4)
    members = {to_text(v) for v in classify_by_s(cat, 4, 2)}
    assert members == {"Q(4)"}  # G(2,4) is the same member after rewriting


def test_classify_is_stable_under_catalog_enlargement():
    for n, s in ((7, 3), (3, 1), (4, 2), (5, 2)):
        small = {to_text(v) for v in classify_by_s(build_catalog(10, 4), n, s)}
        large = {to_text(v) for v in classify_by_s(build_catalog(15, 4), n, s)}
        assert small == large


# ---------------------------------------------------------------------------
# suites


def test_classification_suite_passes(cat15):
    rep = verify_classification(cat15)
    assert rep.ok, [f.line() for f in rep.failures]
    checks = {r.check for r in rep.records}
    assert checks == {"classify.s-above-half", "classify.s-half",
                      "classify.s-below-half", "classify.trace"}
    # conjecture flags mark exactly the deep symplectic members
    flagged = {r.term for r in rep.records
               if r.check == "classify.trace" and r.data.get("conjecture_used")}
    assert flagged == {"SG(2,6)", "SG(2,7)", "SG(2,8)", "SG(2,9)", "SG(2,10)"}


def test_next_to_maximal_suite_passes(cat15):
    rep = verify_next_to_maximal(cat15)
    assert rep.ok, [f.line() for f in rep.failures]
    assert any(r.check == "next-to-max.form" for r in rep.records)
    assert any(r.check == "next-to-max.fano-inequality" for r in rep.records)
    assert any(r.check == "next-to-max.list-ii-realizes" for r in rep.records)


def test_family_lemmas_suite_passes(cat15):
    rep = verify_family_lemmas(cat15)
    assert rep.ok, [f.line() for f in rep.failures]
    assert rep.counters["proper_linear_triggered"] == 0
    assert rep.counters["proper_linear_vacuous"] > 0
    checks = {r.check for r in rep.records}
    assert "families.nondegenerate" in checks
    assert "covering.half-dim-list" in checks
    assert "families.dimH-is-n-2" in checks


def test_family_lemmas_suite_reads_the_engine_it_is_given(monkeypatch):
    # The SG and LS members bound their linear subspaces by the chain
    # invariant; that computation belongs to the engine passed in.
    from fanolines import checks

    default = ChainEngine()
    monkeypatch.setattr(checks, "ChainEngine", lambda: default)  # what engine=None builds
    passed = ChainEngine()
    assert verify_family_lemmas(build_catalog(12, 4), passed).ok
    assert passed._s_memo
    assert not default._s_memo


@pytest.mark.parametrize("call", [
    lambda cat: classify_by_s(cat, 5, 2),
    verify_classification,
    verify_next_to_maximal,
    verify_family_lemmas,
    lambda cat: golden_suite(6, 4),
    lambda cat: run_suite("thm1", 7, 3),
    lambda cat: classification_trace(Quadric(7)),
], ids=["classify", "thm1", "prop32", "lemmas", "golden", "run_suite", "trace"])
def test_a_suite_without_an_engine_builds_one_and_drops_it(monkeypatch, call):
    # engine=None is a fresh engine for that one call, not a memo shared by
    # the process: nothing keeps it, or what it memoized, once the call
    # returns.  thm1 hands its engine on to the trace, so it builds just one.
    import gc
    import weakref

    from fanolines import checks, trace

    built = []

    def fresh():
        eng = ChainEngine()
        built.append(weakref.ref(eng))
        return eng

    monkeypatch.setattr(checks, "ChainEngine", fresh)
    monkeypatch.setattr(trace, "ChainEngine", fresh)
    call(build_catalog(7, 3))
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None


def test_family_lemmas_suite_catches_a_wrong_covering_dimension(monkeypatch):
    # Teeth check for the covering list: a quadric claiming linear spaces
    # one dimension too large must fail the list, from Q(3) up.
    monkeypatch.setattr(Quadric, "_max_linear_in", lambda self: exact(self.n // 2 + 1))
    rep = verify_family_lemmas(build_catalog(8, 3))
    assert {(r.term, r.check) for r in rep.failures} == {
        (f"Q({n})", "covering.half-dim-list") for n in range(3, 9)}


def test_golden_suite_passes():
    rep = golden_suite(40, 15)
    assert rep.ok, [f.line() for f in rep.failures]
    assert len(rep.records) == 2 * 40 + 2 * 14  # P/Q rows plus G/SG rows


@pytest.mark.parametrize("n_max, m_max", [(0, None), (-5, None), (3, -1)])
def test_golden_suite_rejects_empty_or_negative_bounds(n_max, m_max):
    with pytest.raises(ValidationError):
        golden_suite(n_max, m_max)


def test_golden_suite_accepts_the_smallest_bounds():
    rep = golden_suite(1, 0)
    assert rep.ok and len(rep.records) == 2


def test_run_suite_dispatch():
    assert run_suite("golden", 10, 4).ok
    assert run_suite("thm1", 8, 3).ok
    assert run_suite("prop32", 8, 3).ok
    assert run_suite("lemmas", 8, 3).ok


def test_suites_catch_wrong_values(cat15):
    # Teeth check: a poisoned memo entry must surface as a recorded failure,
    # not vanish into a green report.
    from fanolines.chains import ChainEngine
    from fanolines.terms import Quadric, exact, normalize

    eng = ChainEngine()
    eng._s_memo[normalize(Quadric(7))] = exact(4)  # true value is 3
    rep = verify_classification(cat15, eng)
    assert not rep.ok
    assert any(r.term == "Q(7)" for r in rep.failures)

    # an engine whose memo contradicts its own chains must be reported as a
    # trace failure, never crash the sweep: Q(9) keeps its correct value but
    # the tower below it is cut, so no chain realizes the claimed invariant
    eng = ChainEngine()
    eng._s_memo[normalize(Quadric(9))] = exact(4)
    eng._s_memo[normalize(Quadric(7))] = exact(0)
    rep = verify_classification(cat15, eng)
    assert not rep.ok
    assert any(r.term == "Q(9)" and "aborted" in r.detail for r in rep.failures)


def test_next_to_maximal_suite_catches_wrong_values_it_keeps(cat15):
    # Teeth check for the pruned suite: the skip keeps Q(7) (family
    # dimension 5 = n - 2), so a wrong S = n - 1 there is a form failure;
    # the list-(i) loop asks its members whatever their family dimension.
    eng = ChainEngine()
    eng._s_memo[normalize(Quadric(7))] = exact(6)  # true value is 3
    rep = verify_next_to_maximal(cat15, eng)
    assert any(r.term == "Q(7)" and r.check == "next-to-max.form" for r in rep.failures)

    eng = ChainEngine()
    eng._s_memo[normalize(PolarizedProduct(((1, 2), (2, 1))))] = exact(1)  # true value is 2
    rep = verify_next_to_maximal(cat15, eng)
    assert any(r.term == "Prod(P(1):2,P(2):1)" and r.check == "next-to-max.list-i-realizes"
               for r in rep.failures)

    eng = ChainEngine()
    eng._s_memo[normalize(ProjBundleP1((3, 2, 2)))] = exact(1)  # true value is 2
    rep = verify_next_to_maximal(cat15, eng)
    assert [(r.term, r.check) for r in rep.failures] == [
        ("PB(3,2,2)", "next-to-max.list-ii-realizes")]


def _next_to_max_form_reference(v):
    """Is v in list (i) or (ii), in normal form?  A `match` on the fields, the
    reference that membership in ``next_to_max_list`` must equal."""
    n = dim(v)
    match v:
        case PolarizedProduct(factors) if len(factors) == 2:
            a, b = factors
            for first, second in ((a, b), (b, a)):
                if first == (n - 1, 1) and second[0] == 1 and second[1] >= 1:
                    return True
            return False
        case ProjBundleP1(twists):
            d = twists[-1]
            return twists == (d + 1,) + (d,) * (n - 1)
        case _:
            return False


@pytest.mark.parametrize("n_max, deg_max", [(15, 4), (20, 5)])
def test_next_to_max_list_membership_matches_the_form_predicate(n_max, deg_max):
    cat = build_catalog(n_max, deg_max)
    lists = {n: set(next_to_max_list(n, max(n_max, deg_max))) for n in range(2, n_max + 1)}
    members = [v for v in cat if dim(v) >= 2]
    assert sum(_next_to_max_form_reference(v) for v in members) > 0
    for v in members:
        assert (v in lists[dim(v)]) == _next_to_max_form_reference(v), to_text(v)


def test_next_to_max_list_members_are_normal_fano_picard_two_with_s_n_minus_1():
    eng = ChainEngine()
    for n in range(2, 13):
        members = next_to_max_list(n, 4)
        assert len(set(members)) == 8
        for v in members:
            assert normalize(v) == v
            assert dim(v) == n and is_fano(v) and picard_number(v) == 2
            assert eng.s_invariant(v) == exact(n - 1), to_text(v)


def test_next_to_maximal_skip_keeps_every_form_record(cat15):
    # Unpruned definition, by hand on a fresh engine over every member.
    eng = ChainEngine()
    expected = set()
    for v in cat15:
        sv = eng.s_invariant(v)
        if sv.is_exact and sv.value == dim(v) - 1 >= 1:
            expected.add(to_text(v))
    rep = verify_next_to_maximal(cat15, ChainEngine())
    assert expected
    assert {r.term for r in rep.records if r.check == "next-to-max.form"} == expected


class _SpyEngine(ChainEngine):
    """Records the terms a suite asks, not the engine's own recursion."""

    def __init__(self):
        super().__init__()
        self.asked, self.depth = [], 0

    def s_invariant(self, v):
        if not self.depth:
            self.asked.append(v)
        self.depth += 1
        try:
            return super().s_invariant(v)
        finally:
            self.depth -= 1


def test_next_to_maximal_suite_asks_s_only_where_a_family_of_dimension_n_minus_2_exists(cat15):
    eng = _SpyEngine()
    verify_next_to_maximal(cat15, eng)
    members = set(cat15.members)
    asked = [v for v in eng.asked if v in members]
    kept = [v for v in cat15 if dim(v) >= 2 and family_dim(v) >= dim(v) - 2]
    assert 0 < len(kept) < len(cat15) // 10
    assert set(asked) == set(kept)


def test_classify_skip_matches_the_unpruned_filter(cat15):
    eng = ChainEngine()
    for n in range(2, 16):
        for s in range(0, n + 1):
            expected = []
            for v in cat15:
                if dim(v) != n or picard_number(v) != 1:
                    continue
                sv = eng.s_invariant(v)
                if sv.is_exact and sv.value == s:
                    expected.append(v)
            assert classify_by_s(cat15, n, s, ChainEngine()) == expected, (n, s)


def _classification_reference(cat: Catalog) -> SuiteReport:
    """The classification suite without its skip: S asked, on a fresh
    engine, of every member with Picard number 1 and dimension >= 2."""
    eng = ChainEngine()
    rep = SuiteReport("thm1", {"n_max": cat.n_max, "deg_max": cat.deg_max})
    for v in cat:
        n = dim(v)
        if n < 2 or picard_number(v) != 1:
            rep.bump("skipped_dim_lt_2" if n < 2 else "skipped_rho_ne_1")
            continue
        sv = eng.s_invariant(v)
        if not sv.is_exact:
            rep.bump("skipped_inexact_s")
            continue
        s, name = sv.value, to_text(v)
        if 2 * s < n - 1:
            rep.bump("no_implication")
        elif 2 * s > n:
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
                rep.add(name, "classify.trace", allowed.get(v) == trace.verdict,
                        f"trace verdict ({trace.verdict}) via {trace.case_tag}",
                        conjecture_used=trace.conjecture_used)
    return rep


def _lemmas_reference(cat: Catalog) -> SuiteReport:
    """The lemmas suite without shared work: every member of the catalog
    filtered through the public invariants, and each family built from a
    cold complete-intersection expansion, on a fresh engine."""
    eng = ChainEngine()
    rep = SuiteReport("lemmas", {"n_max": cat.n_max, "deg_max": cat.deg_max})
    rep.counters["proper_linear_triggered"] = 0
    rep.counters["proper_linear_vacuous"] = 0
    for v in cat:
        if picard_number(v) != 1:
            rep.bump("skipped_rho_ne_1")
            continue
        n, fd, name = dim(v), family_dim(v), to_text(v)
        candidates = recognition_list(n, fd)
        if candidates:
            rep.add(name, f"families.dimH-is-n-{n - fd}", v in candidates,
                    _RECOGNITION_DETAIL[n - fd])
        families._last_expansion.cache_clear()  # nothing carried over
        fams, end = family_outcome(v)
        if end is not None:
            rep.bump(end)
            continue
        for fam, ambient, span in fams:
            fdim = dim(fam)
            if 2 * fdim >= n - 1:
                rep.add(name, "families.nondegenerate", span == ambient,
                        f"family of dimension {fdim} >= (n-1)/2 must span P^{n-1}")
            if is_linear(fam) and fdim >= 1 and span < ambient:
                rep.bump("proper_linear_triggered")
                rep.add(name, "families.proper-linear", 2 * fdim <= n - 4,
                        f"proper linear family of dimension {fdim}:"
                        " 2*dim <= n-4 required")
            else:
                rep.bump("proper_linear_vacuous")
        ml = eng.max_linear_in(v)
        if ml.is_exact and 2 * ml.value >= n >= 1:
            rep.add(name, "covering.half-dim-list",
                    v in half_dim_cover_list(n, ml.value),
                    f"covered by P^{ml.value} with 2*{ml.value} >= n = {n}:"
                    " bundle/quadric/Grassmannian list required")
    return rep


def _lemmas_builds_families(v) -> bool:
    """Does the lemmas suite build the families of the member ``v``?  Not
    where the one-family fact leaves nothing to record: a covered member of
    a one-family constructor with 2 * family_dim < n - 1."""
    fd = family_dim(v)
    return not (type(v) in ONE_FAMILY_CONSTRUCTORS and 0 <= fd and 2 * fd < dim(v) - 1)


@pytest.mark.parametrize("n_max, deg_max", [(15, 4), (20, 5), (12, 11), (30, 5)])
def test_shared_expansions_keep_every_lemmas_counter_and_record(n_max, deg_max):
    cat = build_catalog(n_max, deg_max)
    families._last_expansion.cache_clear()
    shared = verify_family_lemmas(cat, ChainEngine()).as_dict()
    # Catalog order groups each degree tuple, so the one-entry memo misses
    # once per distinct tuple among the members whose CI rule runs: the
    # covered ones whose families the suite builds.
    info = families._last_expansion.cache_info()
    expanded = [v.degrees for v in cat.index.picard_one
                if isinstance(v, CompleteIntersection) and s_ceiling(v) > 0
                and _lemmas_builds_families(v)]
    assert info.misses == len(set(expanded))
    assert info.hits + info.misses == len(expanded)
    reference = _lemmas_reference(cat).as_dict()
    assert reference["counters"]["proper_linear_vacuous"] > 0
    assert reference["counters"]["not_covered"] > 0
    assert reference["records"]
    assert shared == reference


@pytest.mark.parametrize("n_max, deg_max", [(15, 4), (20, 5)])
def test_classification_skip_keeps_every_counter_and_record(n_max, deg_max):
    cat = build_catalog(n_max, deg_max)
    pruned = verify_classification(cat, ChainEngine()).as_dict()
    reference = _classification_reference(cat).as_dict()
    assert reference["counters"]["no_implication"] > 0
    assert reference["counters"]["skipped_inexact_s"] > 0
    assert reference["records"]
    assert pruned == reference


class _LinearSpy(ChainEngine):
    """Records the terms a suite asks ``max_linear_in`` of."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def max_linear_in(self, v):
        self.asked.append(v)
        return super().max_linear_in(v)


def test_lemmas_suite_builds_families_only_where_a_record_can_come_out(cat15, monkeypatch):
    from fanolines import checks

    built = []

    def spy(v):
        built.append(v)
        return family_outcome(v)

    monkeypatch.setattr(checks, "family_outcome", spy)
    eng = _LinearSpy()
    verify_family_lemmas(cat15, eng)
    members = cat15.index.picard_one
    kept = [v for v in members if _lemmas_builds_families(v)]
    assert 0 < len(kept) < len(members) // 2
    assert any(not _lemmas_builds_families(v) for v in members
               if not isinstance(v, CompleteIntersection))
    assert built == kept
    # The covering check runs where a family was found, or not looked for.
    unruled = [v for v in members if v._max_linear_in() is None
               and family_outcome(v)[1] is None]
    assert unruled and {type(v) for v in unruled} == {SympGrassmann, LinearSectionG25}
    assert eng.asked == unruled


def test_classification_suite_asks_s_only_where_2s_may_reach_n_minus_1(cat15):
    eng = _SpyEngine()
    verify_classification(cat15, eng)
    # The members the suite iterates over; the traces ask S of P^1 and Q^1.
    index = [v for v in cat15.index.picard_one if dim(v) >= 2]
    asked = set(eng.asked).intersection(index)
    kept = {v for v in index if 2 * s_ceiling(v) >= dim(v) - 1
            or type(v) in RULELESS_CONSTRUCTORS}
    assert any(type(v) in RULELESS_CONSTRUCTORS and 2 * s_ceiling(v) < dim(v) - 1
               for v in kept)
    assert 0 < len(kept) < len(index) // 2
    assert asked == kept


def test_report_serialization_shape(cat15):
    rep = verify_family_lemmas(cat15)
    doc = rep.as_dict()
    assert doc["suite"] == "lemmas"
    assert doc["failed"] == 0
    assert doc["passed"] == len([r for r in rep.records if r.passed])
    assert {r["check"] for r in doc["records"]} == {r.check for r in rep.records}
    text = rep.to_text()
    assert text.splitlines()[0].startswith("suite lemmas")
    # one line per record, order independent of insertion order
    assert len(text.splitlines()) == 1 + len(rep.records)


def test_report_text_lists_failures_in_term_check_order():
    # Quiet text lists only the failures, sorted like the full text; the
    # summary and every line are rendered from the as_dict form.
    rep = SuiteReport("demo", {"n_max": 3})
    rep.add("Q(5)", "b", False, "second")
    rep.add("P(2)", "a", True)
    rep.add("P(2)", "c", None, "measured")
    rep.add("P(2)", "b", False, "first")
    rep.bump("skipped")
    summary = "suite demo (n_max=3) 1 passed, 2 failed, 1 informational [skipped=1]"
    assert report_text(rep.as_dict()).splitlines()[0] == summary
    assert rep.to_text(verbose=False) == "\n".join(
        [summary, "FAIL b P(2) first", "FAIL b Q(5) second"])
    assert rep.to_text() == "\n".join(
        [summary, "PASS a P(2)", "FAIL b P(2) first", "info c P(2) measured",
         "FAIL b Q(5) second"])
    assert report_text(rep.as_dict(), verbose=False) == rep.to_text(verbose=False)
    assert [r.line() for r in rep.failures] == ["FAIL b Q(5) second", "FAIL b P(2) first"]
