"""Surface syntax for variety terms.

Grammar (whitespace-insensitive)::

    expr   := "pt" | "P(" n ")" | "Q(" n ")" | "G(" k "," N ")" | "SG(" k "," N ")"
            | "CI(" d ("," d)* ";" N ")" | "Prod(" factor ("," factor)+ ")"
            | "PB(" a ("," a)+ ")" | "LS(G(2,5)," c ")"
    factor := "P(" n "):" d

Each of the eight constructors has one name; the point is P^0, read from
``pt`` or ``P(0)`` and printed ``pt``.

Text is scanned by one pattern, ``_TOKEN``: each match skips the whitespace
before a token (whatever ``str.isspace`` accepts) and reads a name, an
integer, a symbol or any other character, which is a parse error at its
position.  Every integer is a run of the ASCII digits 0-9; any other Unicode
digit, such as a full-width or Arabic-Indic one, is such a character.

Printing produces the same syntax back, so ``parse_variety(to_text(t)) == t``
for every term.  :func:`to_text` reads one formatter table, ``_FORMATS``,
keyed on the term's constructor as the family rules are in ``_RULE_TABLE``;
a value of any other type raises ``TypeError``.  A product prints as its
factors' texts joined by ``PRODUCT_SEP`` in the frame ``PRODUCT_OPEN`` ...
``PRODUCT_CLOSE``; each factor's text, ``PRODUCT_FACTOR`` of ``(n, d)``, is
read from one table, ``FACTOR_TEXTS``, which spells a factor on its first
lookup and keeps at most ``_FACTOR_TEXTS_MAX`` texts.  A complete
intersection prints through one format per degree count, ``CI(%d,...,%d;%d)``
from the same pieces as ``ci_prefix`` and ``CI_CLOSE``, filled with its
degrees and N; nothing is kept per term or per degree sequence.  The catalog
build names no member: it orders its products by the factor texts of the
same table, its complete intersections by ``ci_prefix`` and then by the text
of N, and it splices each block where ``PRODUCT_OPEN`` or ``CI_OPEN`` sorts.

>>> parse_variety("CI(2,2;7)")
CompleteIntersection(degrees=(2, 2), N=7)
>>> to_text(parse_variety("  Prod( P(3):1 , P(1):2 ) "))
'Prod(P(1):2,P(3):1)'
"""

from __future__ import annotations

import re
import threading
from collections.abc import Callable
from functools import lru_cache

from .errors import ParseError
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
)

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<int>[0-9]+)|(?P<sym>[(),;:])|(?P<bad>\S))")


class _Tokens:
    """A scanned token stream with positions for error reporting."""

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):  # trailing whitespace matches nothing
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
            self.items.append((kind, m[kind], m.start(kind)))
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.i] if self.i < len(self.items) else None

    def next(self, kind: str, value: str | None = None) -> str:
        tok = self.peek()
        want = value if value is not None else kind
        if tok is None:
            raise ParseError(f"expected {want!r}, found end of input", len(self.text))
        k, v, pos = tok
        if k != kind or (value is not None and v != value):
            raise ParseError(f"expected {want!r}, found {v!r}", pos)
        self.i += 1
        return v

    def next_int(self) -> int:
        digits = self.next("int")
        try:
            return int(digits)
        except ValueError:  # past Python's integer-string conversion limit
            raise ParseError(f"integer of {len(digits)} digits is too long",
                             self.items[self.i - 1][2]) from None

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])


def parse_variety(text: str) -> VarietyTerm:
    """Parse an expression into a validity-checked term.

    Raises :class:`ParseError` with a position for syntax problems and
    :class:`~fanolines.errors.ValidationError` for well-formedness violations
    (for example ``G(0,3)``).
    """
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    toks = _Tokens(text)
    term = _parse_expr(toks)
    toks.expect_end()
    return term


#: The constructor each name of the grammar builds, one per constructor; the
#: point P^0 is ``P(0)``, and ``pt`` spells it too.
_CONSTRUCTORS = {"P": LinearSpace, "Q": Quadric, "G": Grassmann, "SG": SympGrassmann,
                 "CI": CompleteIntersection, "Prod": PolarizedProduct, "PB": ProjBundleP1,
                 "LS": LinearSectionG25}


def _parse_expr(toks: _Tokens) -> VarietyTerm:
    kind, value, pos = toks.peek()  # parse_variety has rejected blank text
    if kind != "name":
        raise ParseError(f"expected a constructor name, found {value!r}", pos)
    toks.i += 1
    if value == "pt":
        return LinearSpace(0)
    ctor = _CONSTRUCTORS.get(value)
    if ctor is None:
        raise ParseError(f"unknown constructor {value!r}", pos)
    toks.next("sym", "(")
    if ctor in (LinearSpace, Quadric):
        args = (toks.next_int(),)
    elif ctor in (Grassmann, SympGrassmann):
        k = toks.next_int()
        toks.next("sym", ",")
        args = (k, toks.next_int())
    elif ctor is CompleteIntersection:
        degrees = _parse_list(toks, _Tokens.next_int)
        toks.next("sym", ";")
        args = (degrees, toks.next_int())
    elif ctor is PolarizedProduct:
        args = (_parse_list(toks, _parse_factor),)
    elif ctor is ProjBundleP1:
        args = (_parse_list(toks, _Tokens.next_int),)
    else:  # LinearSectionG25: the tokens of "G(2,5)," come first
        for kind, want in (("name", "G"), ("sym", "("), ("int", "2"), ("sym", ","),
                           ("int", "5"), ("sym", ")"), ("sym", ",")):
            toks.next(kind, want)
        args = (toks.next_int(),)
    toks.next("sym", ")")  # every field is read before the term is validated
    return ctor(*args)


def _parse_list(toks: _Tokens, item: Callable[[_Tokens], object]) -> tuple:
    """One or more items separated by commas."""
    items = [item(toks)]
    while toks.peek() and toks.peek()[:2] == ("sym", ","):
        toks.next("sym", ",")
        items.append(item(toks))
    return tuple(items)


def _parse_factor(toks: _Tokens) -> tuple[int, int]:
    toks.next("name", "P")
    toks.next("sym", "(")
    n = toks.next_int()
    toks.next("sym", ")")
    toks.next("sym", ":")
    d = toks.next_int()
    return (n, d)


#: A product's spelling: its factors in the frame ``Prod(`` ... ``)``, one
#: ``P(n):d`` each, separated by commas.  The catalog build orders its
#: products by their factors' texts, which sort as the products' texts only
#: while the separator and the close sort below every digit and the close
#: below the separator; the spelling is written here alone.
PRODUCT_FACTOR = "P(%s):%s"
PRODUCT_OPEN, PRODUCT_SEP, PRODUCT_CLOSE = "Prod(", ",", ")"

#: How many factor texts ``FACTOR_TEXTS`` keeps at most; (30,5) has 170
#: distinct factors and (40,6) 268.
_FACTOR_TEXTS_MAX = 4096


class _FactorTexts(dict):
    """Each factor's ``PRODUCT_FACTOR`` text, keyed by the ``(n, d)`` factor.

    A missing factor is spelled on lookup and kept only while the table
    holds fewer than ``_FACTOR_TEXTS_MAX`` texts, so the table stays bounded
    whatever a caller prints, from any number of threads."""

    __slots__ = ()
    _adding = threading.Lock()

    def __missing__(self, factor: tuple[int, int]) -> str:
        text = PRODUCT_FACTOR % factor
        with self._adding:  # the size check and the insert, as one step
            if len(self) < _FACTOR_TEXTS_MAX:
                self[factor] = text
        return text


#: The one table of factor texts: products print from it, and the catalog
#: build orders its factors by it.
FACTOR_TEXTS = _FactorTexts()


#: A complete intersection's spelling: ``CI_OPEN``, its degrees separated by
#: commas, ``;``, its ambient dimension N and ``CI_CLOSE``.  A ``ci_prefix``
#: ends in the only ``;`` of a text, and the close sorts below every digit,
#: so texts sort by prefix, then by the text of N (``CI(3;10)`` before
#: ``CI(3;4)``): the catalog build's order.  The spelling is written here alone.
CI_OPEN, CI_CLOSE = "CI(", ")"
_CI_SEP, _CI_END = ",", ";"


def ci_prefix(degrees: tuple[int, ...]) -> str:
    """``CI(`` and the degrees separated by commas, up to and with the ``;``."""
    return CI_OPEN + _CI_SEP.join(map(str, degrees)) + _CI_END


@lru_cache(maxsize=64)  # a catalog's complete intersections have at most n_max degrees
def _ci_format(count: int) -> str:
    """The format of a complete intersection of ``count`` degrees, filled
    with its degrees and then N."""
    return CI_OPEN + _CI_SEP.join(["%d"] * count) + _CI_END + "%d" + CI_CLOSE


def _product_text(v: PolarizedProduct, text=FACTOR_TEXTS.__getitem__,
                  join=PRODUCT_SEP.join) -> str:
    # the lookup and the join are bound at definition, not found on each call
    return PRODUCT_OPEN + join(map(text, v.factors)) + PRODUCT_CLOSE


_FORMATS: dict[type[VarietyTerm], Callable[..., str]] = {
    LinearSpace: lambda v: f"P({v.n})" if v.n else "pt",
    Quadric: lambda v: f"Q({v.n})",
    Grassmann: lambda v: f"G({v.k},{v.N})",
    SympGrassmann: lambda v: f"SG({v.k},{v.N})",
    CompleteIntersection: lambda v: _ci_format(len(v.degrees)) % (*v.degrees, v.N),
    PolarizedProduct: _product_text,
    ProjBundleP1: lambda v: "PB(" + ",".join(map(str, v.twists)) + ")",
    LinearSectionG25: lambda v: f"LS(G(2,5),{v.c})",
}


def to_text(v: VarietyTerm) -> str:
    """Canonical textual form; inverse of :func:`parse_variety`.

    >>> to_text(PolarizedProduct(((3, 1), (1, 2))))
    'Prod(P(1):2,P(3):1)'
    >>> to_text(CompleteIntersection((3, 2), 6))
    'CI(2,3;6)'
    """
    fmt = _FORMATS.get(type(v))
    if fmt is None:
        raise TypeError(f"not a variety term: {v!r}")
    return fmt(v)
