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
is at most the dimension (the Fano condition), products as index shapes
over the factors sorted by dimension, each loop bounded by the dimension
left.  No candidate is built only to be dropped by the dimension bound.
Products and complete intersections are canonical by construction (sorted,
valid fields), so both are built by the trusted constructor
``terms._trusted``, which skips the public constructors' re-sorting and
re-validation, and both skip ``add``, inserted as enumerated with no
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

Each member is named once by its text, in a ``dict`` from name to member,
and the names are sorted with no key function; every member is a normal
form and ``parse_variety(to_text(t)) == t``, so names deduplicate as terms
do.  A member added through ``add`` is named by ``to_text``; a product
(93,425 of the 114,889 members at (30,5)) by concatenating its factors'
texts in ``dsl``'s product spelling, sharing the prefix of its first two
factors; a complete intersection (20,504 of them) by appending N and the
closing parenthesis to its degree sequence's prefix in ``dsl``'s complete
intersection spelling.  The products are named in a second walk, after all
are built: names made between retained terms leave their memory scattered
when freed, which raised the benchmark sweep's peak RSS by about 2 MB.  The
complete intersections are named as they are built: one prefix per degree
sequence leaves few temporaries, and a process that builds (30,5) peaks
about 0.4 MB lower than with ``add``.

The cyclic garbage collector is paused for the build, after the bounds
check, and its state on entry is restored however the build ends.  The
build frees almost nothing, and terms are frozen and slotted and hold only
ints and tuples, so a collection would walk the growing catalog and find no
cycle.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from .dsl import (
    CI_CLOSE,
    PRODUCT_CLOSE,
    PRODUCT_FACTOR,
    PRODUCT_OPEN,
    PRODUCT_SEP,
    ci_prefix,
    to_text,
)
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


def _product_shapes(n_max: int, deg_max: int) -> Iterator[tuple[int, int, range]]:
    """The two- and three-factor products within the bounds, as indices into
    the factor list ``[(n, d) for n in range(1, n_max) for d in range(1,
    deg_max + 1)]``, in enumeration order: each ``(i, j, ks)`` is the pair
    (i, j), i <= j, followed by the triples (i, j, k) for k in ``ks``.  The
    list is sorted by dimension, and its factors of dimension at most m are
    its first m * deg_max entries: each loop bound is one multiplication."""
    for i in range((n_max - 1) * deg_max):
        room = n_max - i // deg_max - 1  # dimension left beside factor i
        for j in range(i, room * deg_max):
            yield i, j, range(j, (room - j // deg_max - 1) * deg_max)


def build_catalog(n_max: int, deg_max: int) -> Catalog:
    """Enumerate each constructor within the bounds, normalize what is not
    canonical as enumerated, name each member by its text and sort the
    names once; deterministic output."""
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
    named: dict[str, VarietyTerm] = {}  # text -> member; a member prints to its own text

    def add(term: VarietyTerm):
        term = term._normalize()  # normalized once; asked directly from here on
        if 1 <= term._dim() <= n_max and term._is_fano():
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

    # Two or three factors in sorted order, walked by ``_product_shapes``.  A
    # product skips ``add``: it has no normalize rule, every product is Fano,
    # and its dimension is between 2 and n_max.  Its factors are sorted and
    # valid as enumerated, so it is built trusted.  The products are named in
    # a second walk of the same shapes, after all of them are built (see the
    # module docstring), each extending the text of its first two factors.
    pairs = [(n, d) for n in range(1, n_max) for d in range(1, deg_max + 1)]
    products: list[VarietyTerm] = []
    for i, j, ks in _product_shapes(n_max, deg_max):
        a, b = pairs[i], pairs[j]
        products.append(_trusted(PolarizedProduct, (a, b)))
        for k in ks:
            products.append(_trusted(PolarizedProduct, (a, b, pairs[k])))
    texts = [PRODUCT_FACTOR % p for p in pairs]
    terms = iter(products)
    for i, j, ks in _product_shapes(n_max, deg_max):
        ab = PRODUCT_OPEN + texts[i] + PRODUCT_SEP + texts[j]
        named[ab + PRODUCT_CLOSE] = next(terms)
        ab += PRODUCT_SEP
        for k in ks:
            named[ab + texts[k] + PRODUCT_CLOSE] = next(terms)

    # Fano scrolls over a line: at most one twist above the minimum, by one.
    for k in range(2, n_max + 1):
        for d in range(1, n_max + 1):
            add(ProjBundleP1((d,) * k))
            if d + 1 <= n_max:
                add(ProjBundleP1((d + 1,) + (d,) * (k - 1)))

    for c in range(0, 5):
        add(LinearSectionG25(c))

    return Catalog(n_max, deg_max, tuple([named[name] for name in sorted(named)]))
