"""Parser and printer round trips, error positions, validation mapping."""

import hashlib
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fanolines.catalog import build_catalog
from fanolines import dsl
from fanolines.dsl import (
    _FACTOR_TEXTS_MAX,
    _FORMATS,
    CI_CLOSE,
    FACTOR_TEXTS,
    PRODUCT_CLOSE,
    PRODUCT_FACTOR,
    PRODUCT_OPEN,
    PRODUCT_SEP,
    _Tokens,
    ci_prefix,
    parse_variety,
    to_text,
)
from fanolines.errors import ParseError, ValidationError
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
)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("pt", LinearSpace(0)),
        ("P(0)", LinearSpace(0)),
        ("P(12)", LinearSpace(12)),
        ("Q(7)", Quadric(7)),
        ("G(2,5)", Grassmann(2, 5)),
        ("SG(3,7)", SympGrassmann(3, 7)),
        ("CI(2,2;7)", CompleteIntersection((2, 2), 7)),
        ("CI(3;4)", CompleteIntersection((3,), 4)),
        ("Prod(P(1):2,P(3):1)", PolarizedProduct(((1, 2), (3, 1)))),
        ("PB(2,1,1)", ProjBundleP1((2, 1, 1))),
        ("LS(G(2,5),3)", LinearSectionG25(3)),
    ],
)
def test_parse(text, expected):
    assert parse_variety(text) == expected


def test_the_point_is_p0_and_prints_pt():
    # One term for the point: both spellings read as P^0, which prints pt.
    assert parse_variety("P(0)") == parse_variety("pt") == LinearSpace(0)
    assert to_text(parse_variety("P(0)")) == "pt"


def test_parse_is_whitespace_insensitive():
    assert parse_variety("  CI( 2 , 2 ; 7 )  ") == CompleteIntersection((2, 2), 7)
    assert parse_variety("Prod( P(1) : 2 , P(3) : 1 )") == PolarizedProduct(((1, 2), (3, 1)))
    assert parse_variety("LS( G( 2 , 5 ) , 0 )") == LinearSectionG25(0)


def test_parse_normalizes_field_order_only_within_constructors():
    # The parser never rewrites across constructors; ordering inside one
    # constructor is canonical on construction.
    assert parse_variety("CI(3,2;6)") == CompleteIntersection((2, 3), 6)
    assert parse_variety("PB(1,2,1)") == ProjBundleP1((2, 1, 1))
    assert parse_variety("G(3,5)") == Grassmann(3, 5)  # not rewritten to G(2,5)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "Q",
        "Q(",
        "Q()",
        "Q(3",
        "Q(3))",
        "CI(2,2)",
        "CI(;4)",
        "LS(G(2,4),1)",
        "LS(G(2,5))",
        "Flag(1,2)",
        "Q(-1)",
        "Q(3) junk",
        "G(2 5)",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_variety(text)


_REFERENCE_TOKEN = re.compile(r"(?P<name>[A-Za-z]+)|(?P<int>[0-9]+)|(?P<sym>[(),;:])")


def _reference_tokens(text: str) -> list[tuple[str, str, int]]:
    """A scan one character at a time, skipping whatever ``str.isspace``
    accepts: the reference the tokenizer's single pattern must agree with."""
    items = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        items.append((kind, m.group(kind), pos))
        pos = m.end()
    return items


# The grammar's characters, ASCII and Unicode whitespace, and stray
# characters (non-ASCII digits among them).
_SCAN_ALPHABET = ("ptPQGSCIProdBLSx(),;:0123456789"
                  " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u3000"
                  "３٣#")


@settings(max_examples=300)
@given(st.text(alphabet=_SCAN_ALPHABET, max_size=30))
def test_token_scan_matches_the_reference_scan(text):
    try:
        want = _reference_tokens(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _Tokens(text)
        assert str(got.value) == str(err) and got.value.position == err.position
    else:
        assert _Tokens(text).items == want


def test_token_scan_skips_exactly_the_isspace_characters():
    # One pattern skips what \s matches; the reference skips what
    # str.isspace accepts.  The two agree on every code point.
    space = re.compile(r"\s")
    assert all(bool(space.match(c)) == c.isspace()
               for c in map(chr, range(0x110000)))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_variety("CI(2,2:7)")
    assert err.value.position == 6


@pytest.mark.parametrize(
    "text, message, position",
    [
        # an empty list
        ("P()", "expected 'int', found ')'", 2),
        ("Q()", "expected 'int', found ')'", 2),
        ("G()", "expected 'int', found ')'", 2),
        ("CI()", "expected 'int', found ')'", 3),
        ("Prod()", "expected 'P', found ')'", 5),
        ("PB()", "expected 'int', found ')'", 3),
        ("LS()", "expected 'G', found ')'", 3),
        # a trailing comma
        ("G(2,)", "expected 'int', found ')'", 4),
        ("CI(2,;5)", "expected 'int', found ';'", 5),
        ("Prod(P(1):1,)", "expected 'P', found ')'", 12),
        ("PB(2,)", "expected 'int', found ')'", 5),
        ("LS(G(2,5),)", "expected 'int', found ')'", 10),
        # a missing ';' or ')'
        ("P(3", "expected ')', found end of input", 3),
        ("Q(3,4)", "expected ')', found ','", 3),
        ("SG(2,7", "expected ')', found end of input", 6),
        ("CI(2,3)", "expected ';', found ')'", 6),
        ("CI(2 3;5)", "expected ';', found '3'", 5),
        ("CI(2;5", "expected ')', found end of input", 6),
        ("Prod(P(1):1,P(2):1", "expected ')', found end of input", 18),
        ("PB(2,1", "expected ')', found end of input", 6),
        ("PB(2;1)", "expected ')', found ';'", 4),
        ("LS(G(2,5),1", "expected ')', found end of input", 11),
        # a bad item or factor
        ("P(x)", "expected 'int', found 'x'", 2),
        ("SG(2 7)", "expected ',', found '7'", 5),
        ("CI(2,3;", "expected 'int', found end of input", 7),
        ("Prod(Q(1):1,P(2):1)", "expected 'P', found 'Q'", 5),
        ("Prod(P(1),P(2):1)", "expected ':', found ','", 9),
        ("Prod(P(1):,P(2):1)", "expected 'int', found ','", 10),
        ("Prod(P(1:1)", "expected ')', found ':'", 8),
        ("PB(,1)", "expected 'int', found ','", 3),
        ("LS(G(2,6),1)", "expected '5', found '6'", 7),
        ("LS(G(2,5);1)", "expected ',', found ';'", 9),
    ],
)
def test_malformed_constructor_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_variety(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("text, char, position", [
    ("P(١٢)", "١", 2), ("P(３)", "３", 2), ("G(2,٥)", "٥", 4), ("CI(2;1２)", "２", 6),
])
def test_integers_are_ascii_digits_only(text, char, position):
    # Other Unicode digits are not integers of the grammar, even where
    # Python's int() would read them.
    with pytest.raises(ParseError) as err:
        parse_variety(text)
    assert str(err.value) == f"unexpected character {char!r} (at position {position})"
    assert err.value.position == position


def test_integer_past_the_conversion_limit_is_a_parse_error():
    # Python refuses int() on strings of more than 4,300 digits by default.
    with pytest.raises(ParseError) as err:
        parse_variety("CI(2;1" + "0" * 5000 + ")")
    assert err.value.position == 5
    assert "5001 digits" in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["G(0,3)", "SG(2,4)", "SG(1,5)", "CI(1,2;5)", "CI(2,2;2)", "Q(0)",
     "LS(G(2,5),5)", "PB(2,0)", "Prod(P(0):1,P(1):1)",
     "Prod(P(1):1)", "PB(2)"],  # single-item lists violate the constructors
)
def test_validation_errors_surface_from_parser(text):
    with pytest.raises(ValidationError):
        parse_variety(text)


def test_round_trip_over_catalog():
    for member in build_catalog(6, 3):
        assert parse_variety(to_text(member)) == member


def test_print_examples():
    assert to_text(LinearSpace(0)) == "pt"
    assert to_text(SympGrassmann(2, 6)) == "SG(2,6)"
    assert to_text(CompleteIntersection((2, 3), 6)) == "CI(2,3;6)"
    assert to_text(PolarizedProduct(((1, 2), (3, 1)))) == "Prod(P(1):2,P(3):1)"
    assert to_text(LinearSectionG25(0)) == "LS(G(2,5),0)"


def test_formatter_table_covers_every_constructor():
    # One formatter per constructor, keyed on the class: a term of each of
    # the eight prints as text that parses back to it, the point P^0 too.
    assert set(_FORMATS) == set(VarietyTerm.__subclasses__())
    assert len(_FORMATS) == 8
    samples = [LinearSpace(0), LinearSpace(4), Quadric(2), Grassmann(3, 5), SympGrassmann(3, 7),
               CompleteIntersection((3, 2, 2), 9), PolarizedProduct(((2, 1), (1, 3), (2, 1))),
               ProjBundleP1((1, 1)), LinearSectionG25(4)]
    assert {type(v) for v in samples} == set(_FORMATS)
    for v in samples:
        assert parse_variety(to_text(v)) == v


@pytest.mark.parametrize("arity", [2, 3, 4, 5, 6])
def test_products_print_the_reference_form_at_every_arity(arity):
    # Every arity prints from the factor texts, which must give the
    # factor-by-factor text; the factor texts kept stay bounded.
    for pairs in ([(1, 1), (2, 3)], [(12, 1), (3, 10)], [(10, 25), (1, 2), (99, 7)]):
        factors = tuple(sorted((pairs * arity)[:arity]))
        term = PolarizedProduct(factors)
        text = to_text(term)
        assert text == "Prod(" + ",".join("P(%s):%s" % f for f in factors) + ")"
        assert parse_variety(text) == term
    assert len(FACTOR_TEXTS) <= _FACTOR_TEXTS_MAX


def _reference_text(v: VarietyTerm) -> str:
    """A product through one format per arity and a complete intersection
    through the prefix of its degrees, each a second spelling from ``dsl``'s
    pieces that the printer must agree with; any other term as printed."""
    if type(v) is PolarizedProduct:
        arity = len(v.factors)
        fmt = PRODUCT_OPEN + PRODUCT_SEP.join([PRODUCT_FACTOR] * arity) + PRODUCT_CLOSE
        return fmt % sum(v.factors, ())
    if type(v) is CompleteIntersection:
        return ci_prefix(v.degrees) + str(v.N) + CI_CLOSE
    return to_text(v)


#: The digest of a catalog's member texts, one a line in catalog order; the
#: (30,5) one is the order digest the ``sweep`` benchmark checks.
_CATALOG_TEXT_DIGESTS = {(15, 4): "2fefb8386f299eda", (30, 5): "af40b84d73a9f685"}


@pytest.mark.parametrize("grid", sorted(_CATALOG_TEXT_DIGESTS))
def test_catalog_members_print_the_reference_text_and_parse_back(grid):
    members = build_catalog(*grid).members
    texts = [to_text(v) for v in members]
    assert texts == [_reference_text(v) for v in members]
    assert all(parse_variety(text) == v for text, v in zip(texts, members))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
    assert digest == _CATALOG_TEXT_DIGESTS[grid]


#: Order digests checked without the parse-back: (40,6) holds 525,687
#: members, and (20,2) pairs from ``add`` of degrees up to 20 above its deg_max.
_ORDER_DIGESTS = {(20, 2): "d2568f659b528a06", (40, 6): "d7b5b9936ba30e80"}


@pytest.mark.parametrize("grid", sorted(_ORDER_DIGESTS))
def test_catalog_order_matches_the_pinned_digest(grid):
    texts = map(to_text, build_catalog(*grid).members)
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16] == _ORDER_DIGESTS[grid]


# Values far above the CLI's cap on a term's integers (10**6).
_BIG = st.integers(1, 10**12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_BIG, _BIG), min_size=2, max_size=6))
def test_drawn_products_print_the_reference_text(factors):
    term = PolarizedProduct(tuple(factors))
    text = to_text(term)
    assert text == _reference_text(term)
    assert parse_variety(text) == term
    assert len(FACTOR_TEXTS) <= _FACTOR_TEXTS_MAX


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 10**12), min_size=1, max_size=8), st.integers(0, 10**12))
def test_drawn_complete_intersections_print_the_reference_text(degrees, extra):
    term = CompleteIntersection(tuple(degrees), len(degrees) + 1 + extra)
    text = to_text(term)
    assert text == _reference_text(term)
    assert parse_variety(text) == term


def test_a_full_factor_table_keeps_nothing_and_prints_the_same(monkeypatch):
    # With the bound at 0 every factor is spelled on each lookup: the texts,
    # and the catalog order built from them, are unchanged, and nothing is
    # kept.
    kept = dict(FACTOR_TEXTS)
    expected = build_catalog(12, 4).members
    FACTOR_TEXTS.clear()
    try:
        monkeypatch.setattr(dsl, "_FACTOR_TEXTS_MAX", 0)
        members = build_catalog(12, 4).members
        assert members == expected
        assert [to_text(v) for v in members] == [_reference_text(v) for v in members]
        big = PolarizedProduct(((10**9, 7), (3, 10**8), (1, 1)))
        assert to_text(big) == _reference_text(big)
        assert FACTOR_TEXTS == {}
    finally:
        FACTOR_TEXTS.update(kept)


def test_factor_table_stays_within_its_bound_under_threads(monkeypatch):
    # Eight threads on two cores spell distinct factors at a short switch
    # interval; the size check and the insert must act as one step.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    kept = dict(FACTOR_TEXTS)
    FACTOR_TEXTS.clear()
    interval = sys.getswitchinterval()
    try:
        monkeypatch.setattr(dsl, "_FACTOR_TEXTS_MAX", 50)
        sys.setswitchinterval(1e-6)

        def spell(t):
            terms = [PolarizedProduct(((t + 1, d), (1, 1))) for d in range(1, 400)]
            return [to_text(v) for v in terms] == [_reference_text(v) for v in terms]

        with ThreadPoolExecutor(8) as pool:
            done = [f.result(timeout=60) for f in [pool.submit(spell, t) for t in range(8)]]
        assert done == [True] * 8
        assert len(FACTOR_TEXTS) == 50
    finally:
        sys.setswitchinterval(interval)
        FACTOR_TEXTS.clear()
        FACTOR_TEXTS.update(kept)


@pytest.mark.parametrize("value",["P(3)", None, 3, (1, 2), VarietyTerm()])
def test_printing_a_non_term_is_a_type_error(value):
    with pytest.raises(TypeError) as err:
        to_text(value)
    assert str(err.value) == f"not a variety term: {value!r}"


def test_factor_table_holds_its_lock_for_the_size_check_and_the_insert():
    # While the lock is held, a thread that spells a missing factor waits
    # before the size check and the insert, and completes both once it is
    # released.
    import threading

    factor = (10**9 + 1, 7)
    kept = dict(FACTOR_TEXTS)
    FACTOR_TEXTS.clear()
    speller = threading.Thread(target=FACTOR_TEXTS.__getitem__, args=(factor,))
    try:
        with dsl._FactorTexts._adding:
            speller.start()
            speller.join(0.1)
            assert speller.is_alive()
            assert factor not in FACTOR_TEXTS
        speller.join(60)
        assert not speller.is_alive()
        assert FACTOR_TEXTS.get(factor) == PRODUCT_FACTOR % factor  # get: no __missing__
    finally:
        speller.join(60)
        FACTOR_TEXTS.clear()
        FACTOR_TEXTS.update(kept)
