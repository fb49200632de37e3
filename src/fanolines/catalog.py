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
is at most the dimension (the Fano condition), products as nested loops over
the sorted factors that stop once the dimension passes ``n_max``.  No
candidate is built only to be dropped by the dimension bound.  Products and
complete intersections are canonical by construction (sorted, valid fields),
so both are built by the trusted constructor ``terms._trusted``, which skips
the public constructors' re-sorting and re-validation.  Every candidate but
a product, complete intersections included, is normalized once, and the
dimension and Fano guards ask the normal form's own constructor; a product
is inserted as enumerated, since it is its own normal form, Fano,
and within the dimension bound by construction.  A member is printed once,
as its sort key.  Members are deduplicated in enumeration order (a ``dict``,
not a ``set``, so the key pass and the sort walk long runs that are already
in order) and sorted once by ``to_text``; every member prints to its own
text, so the order is the same whatever container deduplicates.

:attr:`Catalog.index` is built on first use, in one pass over ``__iter__``,
the one walk of a catalog, which the member set behind ``in`` reads too.  It
files the Picard-number-1 members (the slice that the classification suites
and ``classify`` read), also by dimension, and the members of dimension
n >= 2 whose ceiling on S reaches n - 1 (the slice the next-to-maximal suite
reads), each in catalog order, and it counts every (dimension, Picard
number) class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from .dsl import to_text
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


def build_catalog(n_max: int, deg_max: int) -> Catalog:
    """Enumerate each constructor within the bounds, normalize, deduplicate
    in enumeration order and sort once by ``to_text``; deterministic output."""
    if n_max < 2 or deg_max < 2:
        raise ValidationError("build_catalog requires n_max >= 2 and deg_max >= 2",
                              component="catalog")
    found: dict[VarietyTerm, None] = {}  # insertion-ordered set

    def add(term: VarietyTerm):
        term = term._normalize()  # normalized once; asked directly from here on
        if 1 <= term._dim() <= n_max and term._is_fano():
            found[term] = None

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
    # The sequences are non-decreasing, every degree is >= 2 and n >= 1, so
    # each CI is valid as built; ``add`` still normalizes and guards it.
    for degs, excess in _degree_sequences(deg_max, n_max):
        for n in range(excess, n_max + 1):
            add(_trusted(CompleteIntersection, degs, n + len(degs)))

    # Two or three factors in sorted order; the factors are sorted by
    # dimension, so each loop stops at the first one past n_max.  A product
    # goes straight into ``found``, not through ``add``: it has no normalize
    # rule, every product is Fano, and its dimension is between 2 and n_max.
    # Its factors are sorted and valid as enumerated, so it is built trusted.
    pairs = [
        (n, d) for n in range(1, n_max) for d in range(1, deg_max + 1)
    ]
    for i, a in enumerate(pairs):
        for j in range(i, len(pairs)):
            b = pairs[j]
            ab = a[0] + b[0]
            if ab > n_max:
                break
            found[_trusted(PolarizedProduct, (a, b))] = None
            for k in range(j, len(pairs)):
                c = pairs[k]
                if ab + c[0] > n_max:
                    break
                found[_trusted(PolarizedProduct, (a, b, c))] = None

    # Fano scrolls over a line: at most one twist above the minimum, by one.
    for k in range(2, n_max + 1):
        for d in range(1, n_max + 1):
            add(ProjBundleP1((d,) * k))
            if d + 1 <= n_max:
                add(ProjBundleP1((d + 1,) + (d,) * (k - 1)))

    for c in range(0, 5):
        add(LinearSectionG25(c))

    return Catalog(n_max, deg_max, tuple(sorted(found, key=to_text)))
