"""Exhaustive catalogs of Fano terms up to size bounds.

A catalog holds every well-formed Fano term of each constructor with
dimension between 1 and ``n_max``, degrees (complete-intersection degrees and
product multidegrees) at most ``deg_max``, at most three product factors, and
scroll twists at most ``n_max``; members are stored in normal form, so
embedded-isomorphic duplicates (G(3,5) next to G(2,5), a lone quadric next to
Q^{N-1}, trivial scrolls next to their product form) appear once.  Only Fano
terms are members: the non-Fano scrolls are still covered by lines, and
keeping them would break every covered-implies-Fano sweep for a reason that
has nothing to do with the tables being checked.

Each constructor is enumerated directly within the bounds: complete
intersections as non-decreasing degree sequences whose excess sum(d_i - 1)
is at most the dimension (the Fano condition), products as factors taken in
canonical order, each loop bounded by the dimension left.  No candidate is
built only to be dropped by the dimension bound.  Products and complete
intersections are canonical by construction (sorted, valid fields), so both
are built in bulk by the column-wise trusted constructor
``terms._trusted_columns``, which skips the public constructors' re-sorting
and re-validation and makes every term of a constructor from one column per
field, and both skip ``add``, inserted as enumerated with no normalization
and no guard:

* a product has no normalize rule, every product is Fano, and its
  dimension lies between 2 and n_max;
* a complete intersection of excess e = sum(d_i - 1) >= 1 is enumerated
  for each dimension n in [e, n_max], and it is Fano, since sum(d_i) =
  e + #degrees <= n + #degrees = N.  Its one normalize rule, CI(2; N) ->
  Q^{N-1}, reaches only the normal forms that ``add(Quadric(n))`` has added
  for every n up to n_max, so the sequence (2,) is skipped and every other
  complete intersection is its own normal form.

What is left on ``add``, about 960 linear spaces, quadrics, Grassmannians,
scrolls and G(2,5) sections at (30,5), is normalized once, and the
dimension and Fano guards ask the normal form's own constructor.

Catalog order is the order of the members' texts, and the build names no
member: it places three ordered blocks.  What ``add`` keeps is held in a set
and sorted with ``to_text`` as the key; members are normal forms, so two are
equal exactly when their texts are.  The complete intersections (20,504 of
the 114,889 members at (30,5)) and the products (93,425) come out of their
own enumerations in catalog order.  Only a complete intersection's text
starts with ``dsl.CI_OPEN``, and only a product's with ``dsl.PRODUCT_OPEN``;
any other text that sorts after an opening differs from it within the
opening, so each block is contiguous and is spliced in where its opening
sorts.  A complete intersection's text is ``dsl.ci_prefix`` of its degrees,
then N and the close.  A prefix ends in ``;``, found nowhere else in the
text, so no prefix is a proper prefix of another; the close sorts below
every digit (``CI(3;10)`` before ``CI(3;4)``).  So the sequences are taken
in the order of their prefixes, and each one's N in the order of ``str(N)``.

In ``dsl``'s product spelling a product's text sorts as the tuple of its
factors' texts, because the separator and the closing parenthesis sort
below every digit, and a digit is the only thing that can follow a factor
text that is a proper prefix of another (``P(1):1`` and ``P(1):10``,
``P(1)`` and ``P(10)``); the close also sorts below the separator, so a pair
comes before the triples that extend it.  So the factors are ordered once by
their text, read from ``dsl.FACTOR_TEXTS``, the table ``to_text`` prints
products from, and the walk takes the factors a <= b <= c of each product
(numeric, the canonical field order) in that order.  ``add`` makes products
too: Q(2)'s Segre form and the trivial scrolls, 870 distinct at (30,5), some
with a degree above ``deg_max``, and every one a pair.  A pair the walk does
not make differs from each walk pair within their two factor texts, so it
sorts before or after that pair's whole run of triples, never inside it:
the walk emits it just before the first of its own pairs that sorts after
it, or after the last run, and drops the ones it makes itself.  Then the
whole block is built from its one column of factors.

The cyclic garbage collector is paused for the build, after the bounds
check, and its state on entry is restored however the build ends.  The
build frees almost nothing, and terms are frozen and slotted and hold only
ints and tuples, so a collection would walk the growing catalog and find no
cycle.  A build that returns then promotes every object the collector
tracks to its oldest generation (``gc.freeze`` then ``gc.unfreeze``, each a
constant-time list move), so that neither the first young collection after
the pause nor a later middle one walks the catalog again.  The promotion is
process-wide, and a caller sees it in one way: a young unreachable cycle of
its own, made before the build, waits for the next full collection, which
``gc.collect()`` or the collector's own full-collection trigger runs,
instead of the next young one.  Nothing is left frozen, and a caller that
has frozen objects itself is left as it was: the promotion is skipped.

:attr:`Catalog.index` files the Picard-number-1 members (the slice that the
classification suites and ``classify`` read), also by dimension, and the
members of dimension n >= 2 whose ceiling on S reaches n - 1 (the slice the
next-to-maximal suite reads), each in catalog order, and it counts every
(dimension, Picard number) class.  The build files the index of the catalog
it returns as it places the members, so no suite walks the catalog for it.
The members that are not products are filed by the per-member pass, which
asks each its own dimension, Picard number and ceiling on S, in catalog
order as the blocks are placed; so are the pairs and the products from
``add``, where the walk places them.  A triple is never asked: it has Picard
number 3 and a ceiling of at most n - 2, so it is in no slice, and the walk
counts the triples per pair from how many third factors of each dimension
the pair takes.  A catalog made from a tuple, ``Catalog(n_max, deg_max,
members)`` or a subclass, files its index on first use by the per-member
pass over ``__iter__``, the one walk of a catalog, which the member set
behind ``in`` reads too; that pass is the reference the build's filing is
tested against.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import repeat
from typing import Iterator, NamedTuple

from .dsl import CI_OPEN, FACTOR_TEXTS, PRODUCT_OPEN, ci_prefix, to_text
from .errors import ValidationError
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
    _trusted_columns,
    dim,
    normalize,
)


class CatalogIndex(NamedTuple):
    """The slices of a catalog that the suites read, and the size of every class."""

    picard_one: tuple[VarietyTerm, ...]  # Picard number 1, in catalog order
    by_dim: dict[int, tuple[VarietyTerm, ...]]  # the same, per dimension
    near_max: tuple[VarietyTerm, ...]  # n >= 2 and s_ceiling >= n - 1, catalog order
    counts: dict[tuple[int, int | None], int]  # (dim, Picard number) -> members

    def count(self, pred) -> int:
        """Members whose (dimension, Picard number) satisfies ``pred``."""
        return sum(c for (n, rho), c in self.counts.items() if pred(n, rho))


@dataclass(frozen=True)
class Catalog:
    """``__iter__`` yields ``members`` in order: the one walk, read by ``in``
    and by ``index`` where the build has not filed it."""

    n_max: int
    deg_max: int
    members: tuple[VarietyTerm, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v: VarietyTerm) -> bool:
        return normalize(v) in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[VarietyTerm]:
        """Built on the first lookup only; sweeps iterate and never need it."""
        return frozenset(self)

    @cached_property
    def index(self) -> CatalogIndex:
        """Filed by the build for a catalog it returns; for a catalog made
        from a tuple, filed on first use in one pass over ``__iter__``.
        Holds no reference to the other members."""
        filing = _filing()
        _file(self, filing)
        return _frozen(filing)


def _degree_sequences(deg_max: int, budget: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Non-decreasing degree sequences in [2, deg_max] with their excess
    sum(d - 1), for every excess up to ``budget``."""
    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while frontier:
        longer = []
        for degs, excess in frontier:
            for d in range(degs[-1] if degs else 2, deg_max + 1):
                if excess + d - 1 > budget:
                    break
                longer.append((degs + (d,), excess + d - 1))
        yield from longer
        frontier = longer


def _complete_intersections(n_max: int, deg_max: int) -> list[VarietyTerm]:
    """The complete intersections within the bounds but the quadrics, in
    catalog order: the sequences by their ``ci_prefix``, each one's N by
    ``str(N)`` (see the module docstring).

    A CI of dimension n in P^(n + count) is Fano iff its excess is <= n.  A
    CI skips ``add``: with 1 <= excess <= n <= n_max it is valid, Fano and
    within the bound as built, and its own normal form unless its degrees
    are (2,), the quadrics that ``add`` makes.  All are built trusted from
    their columns."""

    @cache
    def spaces_of(count: int, excess: int) -> list[int]:
        """The N of a sequence of ``count`` degrees and this excess, by text."""
        return sorted(range(excess + count, n_max + count + 1), key=str)  # dimension N - count

    degrees: list[tuple[int, ...]] = []
    ambients: list[int] = []
    for degs, excess in sorted(_degree_sequences(deg_max, n_max), key=lambda s: ci_prefix(s[0])):
        if degs == (2,):
            continue
        spaces = spaces_of(len(degs), excess)
        degrees += repeat(degs, len(spaces))
        ambients += spaces
    return _trusted_columns(CompleteIntersection, degrees, ambients)


def _filing() -> CatalogIndex:
    """An empty index to file members into, in lists until it is frozen."""
    return CatalogIndex([], {}, [], {})


def _file(members, filing: CatalogIndex) -> None:
    """File ``members`` into ``filing`` in their order, asking each its own
    dimension, Picard number and ceiling on S."""
    flat, by_dim, near_max, counts = filing
    for v in members:  # normal forms: ask their constructors directly
        n, rho = v._dim(), v._picard_number()
        counts[n, rho] = counts.get((n, rho), 0) + 1
        if rho == 1:
            flat.append(v)
            by_dim.setdefault(n, []).append(v)
        if n >= 2 and v._s_ceiling() >= n - 1:
            near_max.append(v)


def _frozen(filing: CatalogIndex) -> CatalogIndex:
    flat, by_dim, near_max, counts = filing
    return CatalogIndex(tuple(flat), {n: tuple(b) for n, b in by_dim.items()},
                        tuple(near_max), counts)


def _products(n_max: int, deg_max: int, made: set[tuple[tuple[int, int], tuple[int, int]]],
              filing: CatalogIndex) -> list[VarietyTerm]:
    """The two- and three-factor products within the bounds in catalog order,
    merged with the pairs of factors that ``add`` has ``made``, each filed
    into ``filing`` in that order.

    A product's text sorts as the tuple of its factors' texts (see the module
    docstring).  So the factors (n, d), 1 <= n < n_max, 1 <= d <= deg_max, are
    ordered once by text, and the walk takes factors a <= b <= c (numeric,
    the canonical field order) in that order within the dimension bound:
    each pair (a, b) is followed by the triples (a, b, c) that extend it.  A
    product skips ``add``: it has no normalize rule, every product is Fano,
    and its dimension is between 2 and n_max.  Each product from ``add`` is a
    pair, emitted by its factor texts just before the first walk pair that
    sorts after it, or after the walk, and dropped if the walk makes it: a
    pair that differs from a walk pair sorts before or after that pair's
    whole run of triples.  Every product's factors are sorted and valid, so
    all are built trusted, from one column.

    The pairs and the products from ``add`` are filed per member.  A triple
    has Picard number 3 and a ceiling on S of at most n - 2, since its
    largest factor has dimension at most n - 2; so it is only counted, per
    pair, from how many of the pair's third factors have each dimension."""
    text = FACTOR_TEXTS.__getitem__  # also for ``add``'s factors, some of degree above deg_max
    ordered = sorted([(n, d) for n in range(1, n_max) for d in range(1, deg_max + 1)], key=text)
    fits = [[f for f in ordered if f[0] <= room] for room in range(n_max)]

    @cache
    def tail(least: tuple[int, int], room: int) -> tuple[list, tuple]:
        """The factors f >= least of dimension at most ``room``, in text
        order, and how many of them have each dimension."""
        factors = [f for f in fits[room] if f >= least]
        return factors, tuple(Counter([m for m, _ in factors]).items())

    shapes: list[tuple[tuple[int, int], ...]] = []  # each product's factors, in catalog order
    asked: list[int] = []  # where the pairs and the products from ``add`` are in ``shapes``
    pending = sorted([(tuple(map(text, pair)), pair) for pair in made])
    i = 0  # the products from ``add`` emitted or dropped so far
    counts = filing.counts
    for a in ordered:
        for b in tail(a, n_max - a[0])[0]:
            texts = (text(a), text(b))
            while i < len(pending) and pending[i][0] <= texts:
                if pending[i][0] != texts:  # not the walk's
                    asked.append(len(shapes))
                    shapes.append(pending[i][1])
                i += 1
            asked.append(len(shapes))
            shapes.append((a, b))
            room = n_max - a[0] - b[0]
            factors, dims = tail(b, room)
            shapes += zip(repeat(a), repeat(b), factors)
            for m, k in dims:
                key = (a[0] + b[0] + m, 3)
                counts[key] = counts.get(key, 0) + k
    asked += range(len(shapes), len(shapes) + len(pending) - i)
    shapes += [pair for _, pair in pending[i:]]
    block = _trusted_columns(PolarizedProduct, shapes)
    del shapes
    _file(map(block.__getitem__, asked), filing)
    return block


def build_catalog(n_max: int, deg_max: int) -> Catalog:
    """Enumerate each constructor within the bounds, normalize what is not
    canonical as enumerated, place the members in text order and promote
    them to the collector's oldest generation; deterministic output."""
    if n_max < 2 or deg_max < 2:
        raise ValidationError("build_catalog requires n_max >= 2 and deg_max >= 2",
                              component="catalog")
    # Terms form no reference cycle, so the collector would only walk the
    # growing catalog over and over (see the module docstring).
    collecting = gc.isenabled()
    gc.disable()
    try:
        catalog = _build(n_max, deg_max)
        # Promote every tracked object to the oldest generation, so that no
        # young collection walks the catalog again; a caller's own freeze
        # is left as it is (see the module docstring).
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        return catalog
    finally:
        if collecting:
            gc.enable()


def _build(n_max: int, deg_max: int) -> Catalog:
    """What ``add`` keeps, sorted by text, and the two blocks spliced in
    where their openings sort; the index is filed in that order."""
    added: set[VarietyTerm] = set()  # normal forms: equal exactly when their texts are
    made: set[tuple[tuple[int, int], tuple[int, int]]] = set()  # the pairs ``add`` makes

    def add(term: VarietyTerm):
        term = term._normalize()  # normalized once; asked directly from here on
        if 1 <= term._dim() <= n_max and term._is_fano():
            if type(term) is PolarizedProduct:  # Q(2) and the trivial scrolls
                made.add(term.factors)
            else:
                added.add(term)

    for n in range(1, n_max + 1):
        add(LinearSpace(n))
        add(Quadric(n))

    # Grassmannians from their smallest N = 2k (+1 when isotropic) on: k <= N-k
    # suffices, duality is a normalize rule anyway.  The dimension grows with
    # N, and with k at the smallest N.
    for grassmannian, extra in ((Grassmann, 0), (SympGrassmann, 1)):
        k = 2
        while dim(grassmannian(k, 2 * k + extra)) <= n_max:
            N = 2 * k + extra
            while dim(term := grassmannian(k, N)) <= n_max:
                add(term)
                N += 1
            k += 1

    # Fano scrolls over a line: at most one twist above the minimum, by one.
    for k in range(2, n_max + 1):
        for d in range(1, n_max + 1):
            add(ProjBundleP1((d,) * k))
            if d + 1 <= n_max:
                add(ProjBundleP1((d + 1,) + (d,) * (k - 1)))

    for c in range(0, 5):
        add(LinearSectionG25(c))

    members = sorted(added, key=to_text)
    ci_at = bisect_left(members, CI_OPEN, key=to_text)
    product_at = bisect_left(members, PRODUCT_OPEN, key=to_text)
    filing = _filing()
    _file(members[:ci_at], filing)
    cis = _complete_intersections(n_max, deg_max)
    _file(cis, filing)
    _file(members[ci_at:product_at], filing)
    products = _products(n_max, deg_max, made, filing)
    _file(members[product_at:], filing)
    members[product_at:product_at] = products  # the later block first: ci_at stays
    del products
    members[ci_at:ci_at] = cis
    del cis
    catalog = Catalog(n_max, deg_max, tuple(members))
    vars(catalog)["index"] = _frozen(filing)  # the cached property, seeded
    return catalog
