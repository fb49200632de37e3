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
are built by the trusted constructor ``terms._trusted``, which skips the
public constructors' re-sorting and re-validation, and both skip ``add``,
inserted as enumerated with no normalization and no guard:

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

Catalog order is the order of the members' texts.  Each member that is not
a product is named once by its text, in a ``dict`` from name to member, and
the names are sorted with no key function; every member is a normal form
and ``parse_variety(to_text(t)) == t``, so names deduplicate as terms do.  A
member added through ``add`` is named by ``to_text``, a complete
intersection (20,504 of the 114,889 members at (30,5)) by appending N and
the closing parenthesis to its degree sequence's prefix in ``dsl``'s
complete intersection spelling.

The products (93,425 members at (30,5)) are never named: one walk emits
them already in catalog order.  In ``dsl``'s product spelling a product's
text sorts as the tuple of its factors' texts, because the separator and
the closing parenthesis sort below every digit, and a digit is the only
thing that can follow a factor text that is a proper prefix of another
(``P(1):1`` and ``P(1):10``, ``P(1)`` and ``P(10)``); the close also sorts
below the separator, so a pair comes before the triples that extend it.  So
the factors are ordered once by their text, and the walk takes the factors
a <= b <= c of each product (numeric, the canonical field order) in that
order.  Every product's text, and no other member's, starts with the
product opening, so the block is spliced into the sorted names where that
opening would sort.  ``add`` makes products too: Q(2)'s Segre form and the
trivial scrolls, 870 distinct at (30,5), some with a degree above
``deg_max``.  Each is merged into the block by its factor texts: a search
over the walk's pairs finds the run of products that share its first two
factors, and only that run is read, dropping the ones the walk has made.

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

:attr:`Catalog.index` is built on first use, in one pass over ``__iter__``,
the one walk of a catalog, which the member set behind ``in`` reads too.  It
files the Picard-number-1 members (the slice that the classification suites
and ``classify`` read), also by dimension, and the members of dimension
n >= 2 whose ceiling on S reaches n - 1 (the slice the next-to-maximal suite
reads), each in catalog order, and it counts every (dimension, Picard
number) class.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, NamedTuple

from .dsl import CI_CLOSE, PRODUCT_FACTOR, PRODUCT_OPEN, ci_prefix, to_text
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
    _trusted,
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
    """``__iter__`` yields ``members`` in order: the one walk, read by ``index`` and ``in``."""

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
        """Built on first use; holds no reference to the other members."""
        flat: list[VarietyTerm] = []
        by_dim: dict[int, list[VarietyTerm]] = {}
        near_max: list[VarietyTerm] = []
        counts: dict[tuple[int, int | None], int] = {}
        for v in self:  # normal forms: ask their constructors directly
            n, rho = v._dim(), v._picard_number()
            counts[n, rho] = counts.get((n, rho), 0) + 1
            if rho == 1:
                flat.append(v)
                by_dim.setdefault(n, []).append(v)
            if n >= 2 and v._s_ceiling() >= n - 1:
                near_max.append(v)
        return CatalogIndex(tuple(flat), {n: tuple(b) for n, b in by_dim.items()},
                            tuple(near_max), counts)


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


def _products(n_max: int, deg_max: int, made: set[VarietyTerm]) -> list[VarietyTerm]:
    """The two- and three-factor products within the bounds in catalog order,
    merged with the products ``made`` by ``add``.

    A product's text sorts as the tuple of its factors' texts (see the module
    docstring).  So the factors (n, d), 1 <= n < n_max, 1 <= d <= deg_max, are
    ordered once by text, and the walk takes factors a <= b <= c (numeric,
    the canonical field order) in that order within the dimension bound:
    each pair (a, b) is followed by the triples (a, b, c) that extend it.  A
    product skips ``add``: it has no normalize rule, every product is Fano,
    and its dimension is between 2 and n_max.  Its factors are sorted and
    valid as enumerated, so it is built trusted."""
    text = {(n, d): PRODUCT_FACTOR % (n, d)
            for n in range(1, n_max) for d in range(1, deg_max + 1)}
    ordered = sorted(text, key=text.__getitem__)
    fits = [[f for f in ordered if f[0] <= room] for room in range(n_max)]

    @cache
    def after(least: tuple[int, int], room: int) -> list[tuple[int, int]]:
        """The factors f >= least of dimension at most ``room``, in text order."""
        return [f for f in fits[room] if f >= least]

    block: list[VarietyTerm] = []
    pair_texts: list[tuple[str, str]] = []  # each pair's factor texts, in walk order
    starts: list[int] = []  # where each pair, then its triples, begin in ``block``
    for a in ordered:
        for b in after(a, n_max - a[0]):
            pair_texts.append((text[a], text[b]))
            starts.append(len(block))
            block.append(_trusted(PolarizedProduct, (a, b)))
            for c in after(b, n_max - a[0] - b[0]):
                block.append(_trusted(PolarizedProduct, (a, b, c)))
    starts.append(len(block))

    # A product from ``add`` goes before the first pair whose texts sort
    # after its first two factors' texts, or, when a pair has the same two,
    # into that pair's run: the walk's products are read only in that run,
    # and one the walk has made is dropped.
    def texts_of(v: VarietyTerm) -> tuple[str, ...]:
        return tuple([text[f] for f in v.factors])

    by_texts = {tuple([PRODUCT_FACTOR % f for f in v.factors]): v for v in made}
    merged: list[VarietyTerm] = []
    done = 0
    for key in sorted(by_texts):
        p = bisect_left(pair_texts, key[:2])
        at = starts[p]
        if p < len(pair_texts) and pair_texts[p] == key[:2]:
            at = bisect_left(block, key, at, starts[p + 1], key=texts_of)
            if at < starts[p + 1] and texts_of(block[at]) == key:
                continue  # the walk made it
        merged += block[done:at]
        merged.append(by_texts[key])
        done = at
    merged += block[done:]
    return merged


def build_catalog(n_max: int, deg_max: int) -> Catalog:
    """Enumerate each constructor within the bounds, normalize what is not
    canonical as enumerated, sort the members by their text and promote them
    to the collector's oldest generation; deterministic output."""
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
    named: dict[str, VarietyTerm] = {}  # text -> member; a member prints to its own text
    made: set[VarietyTerm] = set()  # the products ``add`` makes

    def add(term: VarietyTerm):
        term = term._normalize()  # normalized once; asked directly from here on
        if 1 <= term._dim() <= n_max and term._is_fano():
            if type(term) is PolarizedProduct:  # Q(2) and the trivial scrolls
                made.add(term)
            else:
                named[to_text(term)] = term

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

    # A CI of dimension n in P^(n + count) is Fano iff its excess is <= n.
    # A CI skips ``add``: with 1 <= excess <= n <= n_max it is valid, Fano
    # and within the bound as built, and its own normal form unless its
    # degrees are (2,), the quadrics added above (see the module docstring).
    # Each CI is named from its sequence's prefix.
    for degs, excess in _degree_sequences(deg_max, n_max):
        if degs == (2,):
            continue
        prefix, count = ci_prefix(degs), len(degs)
        for N in range(excess + count, n_max + count + 1):  # n = N - count
            named[prefix + str(N) + CI_CLOSE] = _trusted(CompleteIntersection, degs, N)

    # Fano scrolls over a line: at most one twist above the minimum, by one.
    for k in range(2, n_max + 1):
        for d in range(1, n_max + 1):
            add(ProjBundleP1((d,) * k))
            if d + 1 <= n_max:
                add(ProjBundleP1((d + 1,) + (d,) * (k - 1)))

    for c in range(0, 5):
        add(LinearSectionG25(c))

    # Every product's text, and no other member's, starts with PRODUCT_OPEN,
    # so the products are one block at that point of the sorted names.
    names = sorted(named)
    members = [named[name] for name in names]
    at = bisect_left(names, PRODUCT_OPEN)
    members[at:at] = _products(n_max, deg_max, made)
    return Catalog(n_max, deg_max, tuple(members))
