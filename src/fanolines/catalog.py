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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

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
    dim,
    is_fano,
    normalize,
)


@dataclass(frozen=True)
class Catalog:
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
        return frozenset(self.members)


def build_catalog(n_max: int, deg_max: int) -> Catalog:
    """Enumerate, normalize, deduplicate and sort; deterministic output."""
    if n_max < 2 or deg_max < 2:
        raise ValidationError("build_catalog requires n_max >= 2 and deg_max >= 2")
    found: set[VarietyTerm] = set()

    def add(term: VarietyTerm):
        term = normalize(term)
        if 1 <= dim(term) <= n_max and is_fano(term):
            found.add(term)

    for n in range(1, n_max + 1):
        add(LinearSpace(n))
        add(Quadric(n))

    # Grassmannians: k <= N-k suffices, duality is a normalize rule anyway.
    k = 2
    while k * k <= n_max:
        N = 2 * k
        while k * (N - k) <= n_max:
            add(Grassmann(k, N))
            N += 1
        k += 1

    k = 2
    while k * (k + 1) - k * (k - 1) // 2 <= n_max:  # dimension at N = 2k+1
        N = 2 * k + 1
        while k * (N - k) - k * (k - 1) // 2 <= n_max:
            add(SympGrassmann(k, N))
            N += 1
        k += 1

    for count in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            N = n + count
            for degs in combinations_with_replacement(range(2, deg_max + 1), count):
                if sum(degs) <= N:  # Fano; the rest is filtered in add()
                    add(CompleteIntersection(degs, N))

    pairs = [
        (n, d) for n in range(1, n_max) for d in range(1, deg_max + 1)
    ]
    for r in (2, 3):
        for combo in combinations_with_replacement(pairs, r):
            if sum(n for n, _ in combo) <= n_max:
                add(PolarizedProduct(combo))

    # Fano scrolls over a line: at most one twist above the minimum, by one.
    for k in range(2, n_max + 1):
        for d in range(1, n_max + 1):
            add(ProjBundleP1((d,) * k))
            if d + 1 <= n_max:
                add(ProjBundleP1((d + 1,) + (d,) * (k - 1)))

    for c in range(0, 5):
        add(LinearSectionG25(c))

    return Catalog(n_max, deg_max, tuple(sorted(found, key=to_text)))
