"""Term algebra of embedded projective varieties.

A :class:`VarietyTerm` is one of eight immutable constructors, each of which
fixes both an abstract variety and a projective embedding; the point is P^0,
``LinearSpace(0)``, printed ``pt``.  The operations in this module are
classical invariants (dimension, Picard number, Fano-ness, family dimension,
ambient spaces) plus a canonicalising rewrite :func:`normalize` that
identifies terms denoting the same embedded variety.  Each constructor states
its own invariants next to its fields and its validation, as the private
methods listed on :class:`VarietyTerm`; the public functions only dispatch to
them.  The ruling tables of maximal linear subspaces live here too, behind
``max_linear_in``, a view of the chain engine.  Line coverage is defined here,
by one predicate for every term: a term is covered by lines exactly when
``family_dim >= 0``, that is when its ceiling on the chain invariant,
``s_ceiling``, is positive.  The point P^0 has family dimension -1;
``families.family_outcome`` makes the same test inline on the engine path.

Complete-intersection and linear-section terms always denote GENERAL members
of their families; every predicate is stated for the general member.

Every public constructor sorts and validates its fields.  The private
``_trusted(cls, *fields)`` skips both, and so does its column-wise form
``_trusted_columns(cls, *columns)``, which builds many terms at once: they
may be called only where the fields are already in the constructor's
canonical order and valid by construction, ``_trusted`` only from the
complete-intersection family rule and ``_trusted_columns`` only from the
catalog build (a test guards the call sites).  A trusted term equals,
hashes and pickles as its validated construction, but it need not be a
normal form: the rule's ``CompleteIntersection((2,), N)`` is a quadric, so
the chain engine still normalizes its memo keys.

>>> dim(Grassmann(2, 5))
6
>>> normalize(Grassmann(3, 5))
Grassmann(k=2, N=5)
>>> picard_number(Quadric(2))
2
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import comb, prod
from typing import NamedTuple

from .errors import ValidationError


class Bound(NamedTuple):
    """An exact value or a lower bound, tagged by ``kind``.

    ``str`` names no quantity (``= 3 (exact)``, ``>= 1 (lower bound)``); a
    report prefixes the name of what it bounds, as in ``S = 3 (exact)``.
    Build them with :func:`exact` and :func:`at_least`, which share one
    instance per (kind, value) among the most recently used values.
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


# Each distinct value S takes would otherwise leave one Bound behind for the
# life of the process; deep walks take up to 200,000 of them.  A walk deeper
# than the bound evicts at every node, so the bound sits above the S of every
# catalog member and of chains a few thousand steps deep.
_BOUNDS_KEPT = 4096


@lru_cache(maxsize=_BOUNDS_KEPT)
def exact(value: int) -> Bound:
    return Bound("exact", value)


@lru_cache(maxsize=_BOUNDS_KEPT)
def at_least(value: int) -> Bound:
    return Bound("at_least", value)


# ---------------------------------------------------------------------------
# constructors


class VarietyTerm:
    """Base of the eight term constructors; the point is P^0, printed ``pt``.

    Each constructor answers, next to its fields, the questions behind the
    public invariants: ``_dim``, ``_ambient_dim``, ``_picard_number``,
    ``_is_fano``, ``_family_dim``, ``_max_linear_in`` (the ruling table's
    exact value or bound, or None where the constructor has none) and
    ``_normalize``.  The defaults below hold unless a constructor overrides
    them: a term is its own normal form, has Picard number 1, is Fano and
    has no ruling table.  Picard number, Fano-ness and the maximal linear
    subspace are only asked of normal forms.  ``_s_ceiling``, the upper
    bound on the chain invariant, is defined here once for every
    constructor.

    The constructors are frozen dataclasses with hand-written ``__slots__``
    (``dataclass(slots=True)`` would re-create each class): an instance
    holds its fields and nothing else, which keeps a catalog of 10^5
    members small.
    """

    __slots__ = ()

    def __reduce__(self):  # a frozen slotted instance cannot be restored field by field
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _s_ceiling(self) -> int:
        # S <= 1 + family_dim on a term covered by lines, as S(H) <= dim(H)
        # <= family_dim on each family H, and S = 0 on one that is not.
        fd = self._family_dim()
        return 1 + fd if fd >= 0 else 0

    def _picard_number(self) -> int | None: return 1
    def _is_fano(self) -> bool: return True
    def _max_linear_in(self) -> Bound | None: return None
    def _normalize(self) -> VarietyTerm: return self


@dataclass(frozen=True)
class LinearSpace(VarietyTerm):
    """P^n, linearly embedded; P^0 is the point, where every chain ends."""

    __slots__ = ("n",)
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError("LinearSpace requires n >= 0")

    def _dim(self): return self.n
    def _ambient_dim(self): return self.n
    def _picard_number(self): return 1 if self.n else 0
    def _is_fano(self): return self.n > 0
    def _family_dim(self): return self.n - 1
    def _max_linear_in(self): return exact(self.n)


@dataclass(frozen=True)
class Quadric(VarietyTerm):
    """Smooth quadric hypersurface Q^n in P^(n+1), n >= 1."""

    __slots__ = ("n",)
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("Quadric requires n >= 1")

    def _dim(self): return self.n
    def _ambient_dim(self): return self.n + 1
    def _family_dim(self): return self.n - 2
    def _max_linear_in(self): return exact(self.n // 2)

    def _normalize(self):
        # Q^2 is P^1 x P^1 (Segre).
        return PolarizedProduct(((1, 1), (1, 1))) if self.n == 2 else self


@dataclass(frozen=True)
class Grassmann(VarietyTerm):
    """G(k, C^N): k-dimensional subspaces of C^N, Pluecker embedded."""

    __slots__ = ("k", "N")
    k: int
    N: int

    def __post_init__(self):
        if not 1 <= self.k <= self.N - 1:
            raise ValidationError("Grassmann requires 1 <= k <= N-1")

    def _dim(self): return self.k * (self.N - self.k)
    def _ambient_dim(self): return comb(self.N, self.k) - 1
    def _family_dim(self): return self.N - 2
    def _max_linear_in(self): return exact(self.N - self.k)

    def _normalize(self):
        # G(k,N) is G(N-k,N); G(1,N) is P^{N-1}; G(2,4) is Q^4.
        k = min(self.k, self.N - self.k)
        if k == 1:
            return LinearSpace(self.N - 1)
        if (k, self.N) == (2, 4):
            return Quadric(4)
        return Grassmann(k, self.N)


@dataclass(frozen=True)
class SympGrassmann(VarietyTerm):
    """Isotropic k-planes of a maximal-rank antisymmetric form on C^N.

    N >= 2k+1 covers both parities; for odd N this is the degenerate-form
    (odd) isotropic Grassmannian, which has the same dimension formula and
    Picard number 1.  Family rewrite rules exist only for k = 2.
    """

    __slots__ = ("k", "N")
    k: int
    N: int

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError("SympGrassmann requires k >= 2")
        if self.N < 2 * self.k + 1:
            raise ValidationError("SympGrassmann requires N >= 2k+1")

    def _dim(self): return self.k * (self.N - self.k) - self.k * (self.k - 1) // 2

    def _ambient_dim(self):
        # Pluecker ambient cut by the contraction with the 2-form.
        return comb(self.N, self.k) - comb(self.N, self.k - 2) - 1

    def _family_dim(self): return self.N - self.k - 1


@dataclass(frozen=True)
class CompleteIntersection(VarietyTerm):
    """General smooth complete intersection of the given degrees in P^N.

    Degrees are stored sorted ascending; each degree is >= 2 and the
    dimension N - #degrees is >= 1.
    """

    __slots__ = ("degrees", "N")
    degrees: tuple[int, ...]
    N: int

    def __post_init__(self):
        degs = tuple(sorted(self.degrees))
        object.__setattr__(self, "degrees", degs)
        if not degs:
            raise ValidationError("CompleteIntersection requires at least one degree")
        if degs[0] < 2:
            raise ValidationError("CompleteIntersection degrees must all be >= 2")
        if len(degs) >= self.N:
            raise ValidationError("CompleteIntersection requires #degrees < N")

    def _dim(self): return self.N - len(self.degrees)
    def _ambient_dim(self): return self.N

    def _picard_number(self):
        # Lefschetz from dimension 3 on; general CI surfaces have large
        # Picard rank, and curves are left unknown too.
        return 1 if self._dim() >= 3 else None

    def _is_fano(self): return sum(self.degrees) <= self.N
    def _family_dim(self): return self.N - 1 - sum(self.degrees)

    def _max_linear_in(self):
        # Expected dimension of the lines-on-v scheme; heuristic beyond the
        # instances the verification suites rely on.
        expected_fano_scheme = 2 * self.N - 2 - len(self.degrees) - sum(self.degrees)
        return at_least(1 if expected_fano_scheme >= 0 else 0)

    def _normalize(self):
        # A single quadric hypersurface is Q^{N-1}.
        return Quadric(self.N - 1)._normalize() if self.degrees == (2,) else self


@dataclass(frozen=True)
class PolarizedProduct(VarietyTerm):
    """P^{n_1} x ... x P^{n_r} embedded by O(d_1, ..., d_r), r >= 2.

    Factors (n_i, d_i) are stored sorted; n_i >= 1 and d_i >= 1.
    """

    __slots__ = ("factors",)
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        facs = tuple(sorted(map(tuple, self.factors)))
        object.__setattr__(self, "factors", facs)
        if len(facs) < 2:
            raise ValidationError("PolarizedProduct requires at least two factors")
        for n, d in facs:
            if n < 1 or d < 1:
                raise ValidationError("PolarizedProduct factors require n_i >= 1 and d_i >= 1")

    def _dim(self):
        # A loop, as in _family_dim: the catalog's per-member index pass
        # asks this of each product it files.
        n = 0
        for m, _ in self.factors:
            n += m
        return n

    def _ambient_dim(self): return prod(comb(n + d, n) for n, d in self.factors) - 1
    def _picard_number(self): return len(self.factors)
    def _family_dim(self):
        # A loop, not a generator: products are most of a catalog, and both
        # family_outcome and the catalog's per-member index pass (through
        # _s_ceiling) ask this of each product they are given.
        top = 0  # the largest degree-1 factor
        for n, d in self.factors:
            if d == 1 and n > top:
                top = n
        return top - 1

    def _max_linear_in(self):
        return exact(max((n for n, d in self.factors if d == 1), default=0))


@dataclass(frozen=True)
class ProjBundleP1(VarietyTerm):
    """P(O(a_1) + ... + O(a_k)) over a line, tautologically embedded.

    Twists are stored sorted descending; k >= 2 and every a_i >= 1, so the
    tautological bundle is very ample and the image is a smooth scroll.
    """

    __slots__ = ("twists",)
    twists: tuple[int, ...]

    def __post_init__(self):
        tw = tuple(sorted(self.twists, reverse=True))
        object.__setattr__(self, "twists", tw)
        if len(tw) < 2:
            raise ValidationError("ProjBundleP1 requires at least two twists")
        if tw[-1] < 1:
            raise ValidationError("ProjBundleP1 twists must all be >= 1")

    def _dim(self): return len(self.twists)
    def _ambient_dim(self): return sum(a + 1 for a in self.twists) - 1
    def _picard_number(self): return 2

    def _is_fano(self):
        # Fano iff at most one twist exceeds the minimum, by exactly one.
        return sum(self.twists) <= len(self.twists) * self.twists[-1] + 1

    def _family_dim(self): return len(self.twists) - 2
    def _max_linear_in(self): return exact(len(self.twists) - 1)

    def _normalize(self):
        # A trivial scroll P(O(d)^k) is (P^1 x P^{k-1}, O(d,1)).
        if len(set(self.twists)) == 1:
            return PolarizedProduct(((1, self.twists[0]), (len(self.twists) - 1, 1)))
        return self


@dataclass(frozen=True)
class LinearSectionG25(VarietyTerm):
    """General codimension-c linear section of G(2, C^5) in P^9, 0 <= c <= 4."""

    __slots__ = ("c",)
    c: int

    def __post_init__(self):
        if not 0 <= self.c <= 4:
            raise ValidationError("LinearSectionG25 requires 0 <= c <= 4")

    def _dim(self): return 6 - self.c
    def _ambient_dim(self): return 9 - self.c

    def _picard_number(self):
        # c = 4 is the degree-5 del Pezzo surface (P^2 blown up in 4 points).
        return 5 if self.c == 4 else 1

    def _family_dim(self): return 3 - self.c

    def _normalize(self):
        # Codimension 0 and 1 are G(2,C^5) and SG(2,C^5).
        if self.c == 0:
            return Grassmann(2, 5)
        return SympGrassmann(2, 5) if self.c == 1 else self


# ---------------------------------------------------------------------------
# the trusted constructors and a smart one (collapses a degenerate shape)

_new_instance = object.__new__
_set_field = object.__setattr__


def _trusted(cls, *fields):
    """An instance of ``cls`` whose ``fields``, in ``__slots__`` order, are
    already canonical and valid: no sorting, no check, no ``__post_init__``.
    A module-level function, not a classmethod, and an indexed loop, not
    ``zip``: the complete-intersection family rule calls it on the engine
    path, and on CPython 3.11 a classmethod took about 1.7 times and
    ``zip`` about 1.4 times as long a call."""
    term = _new_instance(cls)
    i = 0
    for name in cls.__slots__:
        _set_field(term, name, fields[i])
        i += 1
    return term


def _trusted_columns(cls, *columns) -> list:
    """One instance of ``cls`` per row of ``columns``, each as ``_trusted``
    builds it from that row.  There is one column per field, in
    ``__slots__`` order; the first is sized, and it gives the number of
    rows.  Column-wise, with no Python-level loop per instance: one ``map``
    makes the bare instances, then each slot's member descriptor sets that
    slot over its column.  The catalog build makes its products and complete
    intersections this way."""
    terms = list(map(_new_instance, repeat(cls, len(columns[0]))))
    for name, column in zip(cls.__slots__, columns):
        deque(map(vars(cls)[name].__set__, terms, column), maxlen=0)
    return terms


def segre_pair(a: int, b: int) -> VarietyTerm:
    """Segre-embedded P^a x P^b, collapsing zero-dimensional factors."""
    a, b = sorted((a, b))
    if a <= 0:
        return LinearSpace(b)
    return PolarizedProduct(((a, 1), (b, 1)))


# ---------------------------------------------------------------------------
# invariants, each answered by the term's constructor


def dim(v: VarietyTerm) -> int:
    """Dimension of the variety."""
    return v._dim()


def ambient_dim(v: VarietyTerm) -> int:
    """Dimension of the natural ambient projective space of the embedding.

    Every embedding is linearly normal and non-degenerate there, so this is
    also the dimension of its linear span.
    """
    return v._ambient_dim()


def picard_number(v: VarietyTerm) -> int | None:
    """Picard number, or None where the tables do not pin it down.

    General complete-intersection curves and surfaces are left unknown
    (general CI surfaces have large Picard rank); everything of dimension
    >= 3 follows from the Lefschetz hyperplane theorem.
    """
    return v._normalize()._picard_number()


def is_fano(v: VarietyTerm) -> bool:
    """Ampleness of the anti-canonical bundle, per constructor."""
    return v._normalize()._is_fano()


def family_dim(v: VarietyTerm) -> int:
    """Dimension of a family of lines through a general point.

    Evaluates the anticanonical-degree-minus-two formula per constructor; a
    negative value signals that no line passes through a general point, and
    the point P^0, printed ``pt``, has -1.  The term is covered by lines
    exactly when this is >= 0.  For products (several families of different
    dimensions) this is the largest one.
    """
    return v._family_dim()


def s_ceiling(v: VarietyTerm) -> int:
    """Upper bound on the chain invariant S: 1 + ``family_dim`` on a term
    covered by lines, and 0 (where S = 0) on one that is not.  The CLI's
    depth cap and every suite that skips S read it.

    >>> s_ceiling(Quadric(7)), s_ceiling(LinearSpace(0))
    (6, 0)
    """
    return v._s_ceiling()


def covered_by_lines(v: VarietyTerm) -> bool:
    """Is there a line on the variety through a general point?  Exactly when
    ``family_dim >= 0`` (the point P^0 has -1), that is when its
    :func:`s_ceiling` is positive."""
    return v._s_ceiling() > 0


def normalize(v: VarietyTerm) -> VarietyTerm:
    """Canonical form under the embedded-isomorphism rewrites.

    Identifications performed (each classical):

    * G(k,N) with G(N-k,N); G(1,N) with P^{N-1}; G(2,4) with Q^4;
    * a single quadric hypersurface CI(2; P^N) with Q^{N-1};
    * Q^2 with P^1 x P^1 (Segre);
    * a trivial scroll P(O(d)^k) with (P^1 x P^{k-1}, O(d,1));
    * linear sections of G(2,5) of codimension 0 and 1 with G(2,C^5) and
      SG(2,C^5) respectively.

    Idempotent by construction; constructor-internal ordering (degrees,
    factors, twists) is already canonical on construction.
    """
    return v._normalize()


def is_linear(v: VarietyTerm) -> bool:
    """Is the term a linearly embedded linear space (the point P^0 included)?"""
    return isinstance(normalize(v), LinearSpace)
