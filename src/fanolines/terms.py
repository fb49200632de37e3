"""Term algebra of embedded projective varieties.

A :data:`VarietyTerm` is one of nine immutable constructors, each of which
fixes both an abstract variety and a projective embedding.  The operations in
this module are total tables of classical invariants (dimension, Picard
number, Fano-ness, family dimension, ambient spaces, maximal linear
subspaces) plus a canonicalising rewrite :func:`normalize` that identifies
terms denoting the same embedded variety.  Line coverage has no table of its
own: a term is covered by lines exactly when it is not a point and its
family dimension is non-negative.

Complete-intersection and linear-section terms always denote GENERAL members
of their families; every predicate is stated for the general member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import NamedTuple, Union

from .errors import NoLineFamily, ValidationError


# ---------------------------------------------------------------------------
# constructors


@dataclass(frozen=True)
class Point:
    """A single point, the terminal object of every chain."""


@dataclass(frozen=True)
class LinearSpace:
    """P^n, linearly embedded."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError("LinearSpace requires n >= 0")


@dataclass(frozen=True)
class Quadric:
    """Smooth quadric hypersurface Q^n in P^(n+1), n >= 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("Quadric requires n >= 1")


@dataclass(frozen=True)
class Grassmann:
    """G(k, C^N): k-dimensional subspaces of C^N, Pluecker embedded."""

    k: int
    N: int

    def __post_init__(self):
        if not 1 <= self.k <= self.N - 1:
            raise ValidationError("Grassmann requires 1 <= k <= N-1")


@dataclass(frozen=True)
class SympGrassmann:
    """Isotropic k-planes of a maximal-rank antisymmetric form on C^N.

    N >= 2k+1 covers both parities; for odd N this is the degenerate-form
    (odd) isotropic Grassmannian, which has the same dimension formula and
    Picard number 1.  Family rewrite rules exist only for k = 2.
    """

    k: int
    N: int

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError("SympGrassmann requires k >= 2")
        if self.N < 2 * self.k + 1:
            raise ValidationError("SympGrassmann requires N >= 2k+1")


@dataclass(frozen=True)
class CompleteIntersection:
    """General smooth complete intersection of the given degrees in P^N.

    Degrees are stored sorted ascending; each degree is >= 2 and the
    dimension N - #degrees is >= 1.
    """

    degrees: tuple[int, ...]
    N: int

    def __post_init__(self):
        degs = tuple(sorted(self.degrees))
        object.__setattr__(self, "degrees", degs)
        if not degs:
            raise ValidationError("CompleteIntersection requires at least one degree")
        if any(d < 2 for d in degs):
            raise ValidationError("CompleteIntersection degrees must all be >= 2")
        if len(degs) >= self.N:
            raise ValidationError("CompleteIntersection requires #degrees < N")


@dataclass(frozen=True)
class PolarizedProduct:
    """P^{n_1} x ... x P^{n_r} embedded by O(d_1, ..., d_r), r >= 2.

    Factors (n_i, d_i) are stored sorted; n_i >= 1 and d_i >= 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        facs = tuple(sorted(tuple(f) for f in self.factors))
        object.__setattr__(self, "factors", facs)
        if len(facs) < 2:
            raise ValidationError("PolarizedProduct requires at least two factors")
        if any(n < 1 or d < 1 for n, d in facs):
            raise ValidationError("PolarizedProduct factors require n_i >= 1 and d_i >= 1")


@dataclass(frozen=True)
class ProjBundleP1:
    """P(O(a_1) + ... + O(a_k)) over a line, tautologically embedded.

    Twists are stored sorted descending; k >= 2 and every a_i >= 1, so the
    tautological bundle is very ample and the image is a smooth scroll.
    """

    twists: tuple[int, ...]

    def __post_init__(self):
        tw = tuple(sorted(self.twists, reverse=True))
        object.__setattr__(self, "twists", tw)
        if len(tw) < 2:
            raise ValidationError("ProjBundleP1 requires at least two twists")
        if any(a < 1 for a in tw):
            raise ValidationError("ProjBundleP1 twists must all be >= 1")


@dataclass(frozen=True)
class LinearSectionG25:
    """General codimension-c linear section of G(2, C^5) in P^9, 0 <= c <= 4."""

    c: int

    def __post_init__(self):
        if not 0 <= self.c <= 4:
            raise ValidationError("LinearSectionG25 requires 0 <= c <= 4")


VarietyTerm = Union[
    Point,
    LinearSpace,
    Quadric,
    Grassmann,
    SympGrassmann,
    CompleteIntersection,
    PolarizedProduct,
    ProjBundleP1,
    LinearSectionG25,
]

class Bound(NamedTuple):
    """An exact value or a lower bound, tagged by ``kind``.

    ``str`` names no quantity (``= 3 (exact)``, ``>= 1 (lower bound)``); a
    report prefixes the name of what it bounds, as in ``S = 3 (exact)``.
    Build them with :func:`exact` and :func:`at_least`, which share one
    instance per (kind, value).
    """

    kind: str  # "exact" | "at_least"
    value: int

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def __str__(self) -> str:
        if self.is_exact:
            return f"= {self.value} (exact)"
        return f">= {self.value} (lower bound)"


@cache
def exact(value: int) -> Bound:
    return Bound("exact", value)


@cache
def at_least(value: int) -> Bound:
    return Bound("at_least", value)


# ---------------------------------------------------------------------------
# smart constructors (collapse degenerate shapes)


def linear_space(n: int) -> VarietyTerm:
    """P^n as a term; P^0 collapses to the point."""
    return Point() if n <= 0 else LinearSpace(n)


def segre_pair(a: int, b: int) -> VarietyTerm:
    """Segre-embedded P^a x P^b, collapsing zero-dimensional factors."""
    a, b = sorted((a, b))
    if b <= 0:
        return Point()
    if a <= 0:
        return LinearSpace(b)
    return PolarizedProduct(((a, 1), (b, 1)))


# ---------------------------------------------------------------------------
# invariant tables


def dim(v: VarietyTerm) -> int:
    """Dimension of the variety."""
    match v:
        case Point():
            return 0
        case LinearSpace(n):
            return n
        case Quadric(n):
            return n
        case Grassmann(k, N):
            return k * (N - k)
        case SympGrassmann(k, N):
            return k * (N - k) - k * (k - 1) // 2
        case CompleteIntersection(degrees, N):
            return N - len(degrees)
        case PolarizedProduct(factors):
            return sum(n for n, _ in factors)
        case ProjBundleP1(twists):
            return len(twists)
        case LinearSectionG25(c):
            return 6 - c
    raise TypeError(f"not a variety term: {v!r}")


def ambient_dim(v: VarietyTerm) -> int:
    """Dimension of the natural ambient projective space of the embedding.

    Every embedding is linearly normal and non-degenerate there, so this is
    also the dimension of its linear span.
    """
    match v:
        case Point():
            return 0
        case LinearSpace(n):
            return n
        case Quadric(n):
            return n + 1
        case Grassmann(k, N):
            return comb(N, k) - 1
        case SympGrassmann(k, N):
            # Pluecker ambient cut by the contraction with the 2-form.
            return comb(N, k) - comb(N, k - 2) - 1
        case CompleteIntersection(_, N):
            return N
        case PolarizedProduct(factors):
            prod = 1
            for n, d in factors:
                prod *= comb(n + d, n)
            return prod - 1
        case ProjBundleP1(twists):
            return sum(a + 1 for a in twists) - 1
        case LinearSectionG25(c):
            return 9 - c
    raise TypeError(f"not a variety term: {v!r}")


def picard_number(v: VarietyTerm) -> int | None:
    """Picard number, or None where the tables do not pin it down.

    General complete-intersection curves and surfaces are left unknown
    (general CI surfaces have large Picard rank); everything of dimension
    >= 3 follows from the Lefschetz hyperplane theorem.
    """
    v = normalize(v)
    match v:
        case Point():
            return 0
        case LinearSpace(_):
            return 1
        case Quadric(n):
            return 2 if n == 2 else 1
        case Grassmann(_, _):
            return 1
        case SympGrassmann(_, _):
            return 1
        case CompleteIntersection(_, _):
            return 1 if dim(v) >= 3 else None
        case PolarizedProduct(factors):
            return len(factors)
        case ProjBundleP1(_):
            return 2
        case LinearSectionG25(c):
            # c = 4 is the degree-5 del Pezzo surface (P^2 blown up in 4 points).
            return 5 if c == 4 else 1
    raise TypeError(f"not a variety term: {v!r}")


def is_fano(v: VarietyTerm) -> bool:
    """Ampleness of the anti-canonical bundle, per constructor."""
    v = normalize(v)
    match v:
        case Point():
            return False
        case LinearSpace(_) | Quadric(_) | Grassmann(_, _) | SympGrassmann(_, _):
            return True
        case CompleteIntersection(degrees, N):
            return sum(degrees) <= N
        case PolarizedProduct(_):
            return True
        case ProjBundleP1(twists):
            # Fano iff at most one twist exceeds the minimum, by exactly one.
            return sum(twists) <= len(twists) * twists[-1] + 1
        case LinearSectionG25(_):
            return True
    raise TypeError(f"not a variety term: {v!r}")


def family_dim(v: VarietyTerm) -> int:
    """Dimension of a family of lines through a general point.

    Evaluates the anticanonical-degree-minus-two formula per constructor; a
    negative value signals that no line passes through a general point.  For
    products (several families of different dimensions) this is the largest
    one.
    """
    match v:
        case Point() | LinearSpace(0):
            raise NoLineFamily("a point carries no family of lines")
        case LinearSpace(n):
            return n - 1
        case Quadric(n):
            return n - 2
        case Grassmann(_, N):
            return N - 2
        case SympGrassmann(k, N):
            return N - k - 1
        case CompleteIntersection(degrees, N):
            return N - 1 - sum(degrees)
        case PolarizedProduct(factors):
            return max((n - 1 for n, d in factors if d == 1), default=-1)
        case ProjBundleP1(twists):
            return len(twists) - 2
        case LinearSectionG25(c):
            return 3 - c
    raise TypeError(f"not a variety term: {v!r}")


def covered_by_lines(v: VarietyTerm) -> bool:
    """Is there a line on the variety through a general point?  Exactly when
    it is no point and its family of lines has non-negative dimension."""
    return dim(v) > 0 and family_dim(v) >= 0


def max_linear_in(v: VarietyTerm) -> Bound:
    """Maximal dimension of a linear subspace contained in the variety.

    Exact where the classical ruling tables apply; a lower bound for
    complete intersections (expected Fano-scheme dimension heuristic) and
    for the chain-invariant-based classes.
    """
    match v:
        case Point():
            return exact(0)
        case LinearSpace(n):
            return exact(n)
        case Quadric(n):
            return exact(n // 2)
        case Grassmann(k, N):
            return exact(max(N - k, k))
        case PolarizedProduct(factors):
            return exact(max((n for n, d in factors if d == 1), default=0))
        case ProjBundleP1(twists):
            return exact(len(twists) - 1)
        case CompleteIntersection(degrees, N):
            # Expected dimension of the lines-on-v scheme; heuristic beyond
            # the instances the verification suites rely on.
            expected_fano_scheme = 2 * N - 2 - len(degrees) - sum(degrees)
            return at_least(1 if expected_fano_scheme >= 0 else 0)
        case SympGrassmann(_, _) | LinearSectionG25(_):
            from .chains import s_invariant  # deferred: chains builds on terms

            return at_least(s_invariant(v).value)
    raise TypeError(f"not a variety term: {v!r}")


# ---------------------------------------------------------------------------
# canonical forms


def normalize(v: VarietyTerm) -> VarietyTerm:
    """Canonical form under the embedded-isomorphism rewrites.

    Identifications performed (each classical):

    * P^0 and the point;
    * G(k,N) with G(N-k,N); G(1,N) with P^{N-1}; G(2,4) with Q^4;
    * a single quadric hypersurface CI(2; P^N) with Q^{N-1};
    * Q^2 with P^1 x P^1 (Segre);
    * a trivial scroll P(O(d)^k) with (P^1 x P^{k-1}, O(d,1));
    * linear sections of G(2,5) of codimension 0 and 1 with G(2,C^5) and
      SG(2,C^5) respectively.

    Idempotent by construction; constructor-internal ordering (degrees,
    factors, twists) is already canonical on construction.
    """
    match v:
        case LinearSpace(0):
            return Point()
        case Grassmann(k, N):
            k = min(k, N - k)
            if k == 1:
                return linear_space(N - 1)
            if (k, N) == (2, 4):
                return Quadric(4)
            return Grassmann(k, N)
        case Quadric(2):
            return PolarizedProduct(((1, 1), (1, 1)))
        case CompleteIntersection(degrees, N):
            if degrees == (2,):
                return normalize(Quadric(N - 1))
            return v
        case ProjBundleP1(twists):
            if len(set(twists)) == 1:
                d, k = twists[0], len(twists)
                return PolarizedProduct(((1, d), (k - 1, 1)))
            return v
        case LinearSectionG25(0):
            return Grassmann(2, 5)
        case LinearSectionG25(1):
            return SympGrassmann(2, 5)
        case _:
            return v


def is_linear(v: VarietyTerm) -> bool:
    """Is the term a linearly embedded linear space (including P^0)?"""
    return isinstance(normalize(v), (LinearSpace, Point))
