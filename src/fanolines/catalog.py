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
and re-validation and makes many terms of a constructor at once, from one
column per field, and both skip ``add``, inserted as enumerated with no
normalization and no guard:

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
it, or after the last run, and drops the ones it makes itself.

The product block is kept as those runs, not as terms: each run is a pair
and the list of third factors that extend it, the list the walk already
shares among the pairs with the same second factor and room, and a pair
from ``add`` is a run with none.  Only the pairs are built, from one
column, and kept; at (30,5) they are 6,200 of the 93,425 products.  A
triple is built only when something iterates over the catalog, which
builds each run's triples from one column as it reaches the run and keeps
none.  ``len`` comes from the counts and the index from the walk, so
neither these nor any suite builds a triple; ``in`` iterates once, to make
the member set it answers from.

The cyclic garbage collector is paused for the build, after the bounds
check, and its state on entry is restored however the build ends.  The
build frees almost nothing, and terms are frozen and slotted and hold only
ints and tuples, so a collection would walk the growing catalog and find no
cycle.

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
the pair takes.  Any other catalog, ``Catalog(n_max, deg_max, members)``
from a tuple or a subclass, files its index on first use by the per-member
pass over ``__iter__``, the one walk of a catalog, which the member set
behind ``in`` reads too; that pass is the reference the build's filing is
tested against.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections import Counter
from collections.abc import Collection
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


class _Members(Collection):
    """The members of a built catalog, in catalog order: what ``add`` kept,
    sorted by text, with the complete intersections and the products spliced
    in where their openings sort (see the module docstring).

    The products are held as the walk's runs: each run's pair term and its
    third factors, which iteration extends the pair by.  Only the pair terms
    are kept.  Iteration builds each run's triples from its third factors,
    all at once, and keeps none.  ``len`` comes from the counts, and ``in``
    is a pass of that iteration.  Read-only: two builds of the same grid
    compare equal."""

    def __init__(self, added: tuple, ci_at: int, cis: list, product_at: int,
                 pairs: list, thirds: list):
        self._added = added  # what ``add`` kept, by text
        self._ci_at, self._product_at = ci_at, product_at  # where each block splices in
        self._cis = cis
        self._pairs = pairs  # each run's pair term
        self._thirds = thirds  # each run's third factors: shared lists, or () for ``add``'s
        self._len = len(added) + len(cis) + len(pairs) + sum(map(len, thirds))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[VarietyTerm]:
        added, ci_at, product_at = self._added, self._ci_at, self._product_at
        yield from added[:ci_at]
        yield from self._cis
        yield from added[ci_at:product_at]
        for pair, thirds in zip(self._pairs, self._thirds):
            yield pair
            if thirds:
                a, b = pair.factors
                yield from _trusted_columns(PolarizedProduct, list(zip(repeat(a), repeat(b), thirds)))
        yield from added[product_at:]

    def __contains__(self, v) -> bool:
        return any(m == v for m in self)

    def __eq__(self, other):
        if not isinstance(other, _Members):
            return NotImplemented
        return (self._added, self._cis, self._pairs, self._thirds) == \
            (other._added, other._cis, other._pairs, other._thirds)

    def __hash__(self) -> int:
        return hash((self._len, self._added))


@dataclass(frozen=True)
class Catalog:
    """``__iter__`` yields ``members`` in order: the one walk, read by ``in``
    and by ``index`` where the build has not filed it.

    A built catalog's ``members`` keeps the products as the walk's runs:
    ``len``, ``index`` and the suites build no three-factor product, and
    each iteration builds them anew.  Every catalog answers ``in`` from
    ``frozenset(self)``, made on first use, and anything but a term is not
    a member.  A catalog made from any other collection,
    ``Catalog(n_max, deg_max, members)`` or a subclass, also files
    ``index`` on first use, in one pass over ``__iter__``."""

    n_max: int
    deg_max: int
    members: Collection[VarietyTerm]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v: object) -> bool:
        return isinstance(v, VarietyTerm) and normalize(v) in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[VarietyTerm]:
        """Built on the first lookup only; sweeps iterate and never need it."""
        return frozenset(self)

    @cached_property
    def index(self) -> CatalogIndex:
        """Filed by the build for a catalog it returns; for any other
        catalog, filed on first use in one pass over ``__iter__``.  Holds no
        reference to the other members."""
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
              filing: CatalogIndex) -> tuple[list[VarietyTerm], list]:
    """The two- and three-factor products within the bounds, merged with the
    pairs of factors that ``add`` has ``made``, as runs in catalog order:
    each run's pair term and its third factors, each pair filed into
    ``filing`` in that order.

    A product's text sorts as the tuple of its factors' texts (see the module
    docstring).  So the factors (n, d), 1 <= n < n_max, 1 <= d <= deg_max, are
    ordered once by text, and the walk takes factors a <= b <= c (numeric,
    the canonical field order) in that order within the dimension bound:
    each pair (a, b) heads the run of triples (a, b, c) that extend it.  A
    product skips ``add``: it has no normalize rule, every product is Fano,
    and its dimension is between 2 and n_max.  Each product from ``add`` is a
    pair, a run with no third factors, emitted by its factor texts just
    before the first walk pair that sorts after it, or after the walk, and
    dropped if the walk makes it: a pair that differs from a walk pair sorts
    before or after that pair's whole run of triples.  Only the pairs are
    built, trusted, from one column; no triple is.

    The pairs are filed per member.  A triple has Picard number 3 and a
    ceiling on S of at most n - 2, since its largest factor has dimension at
    most n - 2; so it is only counted, per pair, from how many of the pair's
    third factors have each dimension."""
    text = FACTOR_TEXTS.__getitem__  # also for ``add``'s factors, some of degree above deg_max
    ordered = sorted([(n, d) for n in range(1, n_max) for d in range(1, deg_max + 1)], key=text)
    fits = [[f for f in ordered if f[0] <= room] for room in range(n_max)]

    @cache
    def tail(least: tuple[int, int], room: int) -> tuple[list, tuple]:
        """The factors f >= least of dimension at most ``room``, in text
        order, and how many of them have each dimension."""
        factors = [f for f in fits[room] if f >= least]
        return factors, tuple(Counter([m for m, _ in factors]).items())

    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []  # each run's pair, in catalog order
    thirds: list = []  # each run's third factors
    pending = sorted([(tuple(map(text, pair)), pair) for pair in made])
    i = 0  # the products from ``add`` emitted or dropped so far
    counts = filing.counts
    for a in ordered:
        for b in tail(a, n_max - a[0])[0]:
            texts = (text(a), text(b))
            while i < len(pending) and pending[i][0] <= texts:
                if pending[i][0] != texts:  # not the walk's
                    pairs.append(pending[i][1])
                    thirds.append(())
                i += 1
            pairs.append((a, b))
            factors, dims = tail(b, n_max - a[0] - b[0])
            thirds.append(factors)
            for m, k in dims:
                key = (a[0] + b[0] + m, 3)
                counts[key] = counts.get(key, 0) + k
    pairs += [pair for _, pair in pending[i:]]
    thirds += repeat((), len(pending) - i)
    terms = _trusted_columns(PolarizedProduct, pairs)
    _file(terms, filing)
    return terms, thirds


def build_catalog(n_max: int, deg_max: int) -> Catalog:
    """Enumerate each constructor within the bounds, normalize what is not
    canonical as enumerated and place the members in text order;
    deterministic output."""
    if n_max < 2 or deg_max < 2:
        raise ValidationError("build_catalog requires n_max >= 2 and deg_max >= 2",
                              component="catalog")
    # Terms form no reference cycle, so the collector would only walk the
    # growing catalog over and over (see the module docstring).
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _build(n_max, deg_max)
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

    members = tuple(sorted(added, key=to_text))
    ci_at = bisect_left(members, CI_OPEN, key=to_text)
    product_at = bisect_left(members, PRODUCT_OPEN, key=to_text)
    filing = _filing()
    _file(members[:ci_at], filing)
    cis = _complete_intersections(n_max, deg_max)
    _file(cis, filing)
    _file(members[ci_at:product_at], filing)
    pairs, thirds = _products(n_max, deg_max, made, filing)
    _file(members[product_at:], filing)
    members = _Members(members, ci_at, cis, product_at, pairs, thirds)
    catalog = Catalog(n_max, deg_max, members)
    vars(catalog)["index"] = _frozen(filing)  # the cached property, seeded
    return catalog
