"""Exact-arithmetic laboratory for spans and secant-variety dimensions.

Both families that matter here are monomial images of products of projective
spaces: the two-factor product P^1 x P^{m-1} embedded by O(d,1), and the
scroll P(O(d+1) + O(d)^{m-1}) over a line under its tautological embedding.

A span is a count.  Distinct monomials are linearly independent over Q, so
a monomial map with N distinct exponent vectors spans exactly P^(N-1), and
``span_dim_numeric`` returns N - 1 with no randomness.  Over F_p the same
holds for exponent vectors that stay distinct mod p - 1 (distinct characters
of the torus), and the builders meet that with room to spare: no exponent
exceeds d + 1, 13 at the CLI caps, far below p - 1.  So the suite's
``secant.span-linear-normality`` record checks that each builder made
distinct monomials; the random evaluation rank that agrees with the count
is a test oracle.

Secant dimensions are computed as ranks of Jacobian matrices at random
points over large prime fields: exact arithmetic, with rank over F_p
lower-bounding rank over the rationals and agreeing away from a measure-zero
set of points and primes.  Every rank is taken once per trial over each of
the three fixed primes ``DEFAULT_PRIMES`` and the max is kept; more than one
disagreeing trial raises instead of reporting.

Two independent methods compute each secant dimension: the stacked-Jacobian
method (two tangent spaces at independent points span the secant's cone) and
the chord-map method (the Jacobian of (x, y, t) -> t*phi(x) + phi(y)).  They
must agree; neither is ever replaced by the other.

Jacobians are those of the HOMOGENEOUS parameterization (cone convention),
so every reported projective dimension subtracts exactly one from a rank.

Each parameterization keeps the sparse support of every monomial, its
``(param, exponent)`` pairs with a non-zero exponent (at most three here),
and evaluation and gradients loop over that support only.  There is one
monomial evaluator, ``_values``: each coordinate is one product of its
factors x_j^e, reduced mod p.  The Jacobian methods call it at four
points per (trial, prime), two for each method.

The Jacobians are ranked column-scaled, on fewer columns than there are
parameters.  With E the ``num_coords x num_params`` exponent matrix
(``monomials``), Phi = diag phi(x) and X = diag x at a point x with
non-zero coordinates, x_j d/dx_j x^e = e_j x^e gives J(x) X = Phi E.
Scaling column j by the non-zero x_j changes no rank over F_p, so the
Jacobians are taken as Phi E, with nothing inverted; their columns span
Phi colspace(E mod p), and so do their columns on B_p, the parameters whose
exponent columns mod p are independent of those before them.  The stacked
Jacobians and the chord matrix keep only those, and every rank stays
exactly as it is over F_p.  The chord matrix's value column phi(x) = Phi 1
lies in that span exactly when the all-ones vector lies in colspace(E mod
p), as it does for every map homogeneous of a degree not divisible by p
(then phi(x) = Phi E b for E b = 1); the column is dropped then and kept
otherwise, and the x-block keeps its t.  ``Parameterization.columns(p)``
reads both facts off the pivot columns of [E | 1] mod p, once per prime.
Both families have exponent rank m + 1, so their secant matrices are
2m + 2 wide, and at the secant rank 2m + 2 the streaming rank stops early.
A Jacobian entry is an exponent mod p times its coordinate's value (times
t) mod p, so below p**2, which ``rank_mod_p`` takes as it is.

Every random value is drawn by ``_point``, k values at a time, as the same
stream that k calls ``randrange(1, p)`` give, straight from ``getrandbits``
with the same rejection of draws of p - 1 and above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from math import prod

from .errors import DegenerateRandomness, ValidationError
from .modp import pivot_columns, rank_mod_p
from .reports import SuiteReport

#: The three distinct primes every rank is taken over, just below 2^31.
#: Points are drawn from [1, p-1]; over a small field they are degenerate so
#: often that the trials keep disagreeing whatever the seed (F_2, F_3, F_5
#: fail on a degree-2 Veronese surface), so each prime stays far above 2^16.
DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587)

DEFAULT_SEED = 20260809


Support = tuple[tuple[int, int], ...]  # the (param, exponent) pairs, exponent > 0
Columns = tuple  # (basis, value_column, slots): see Parameterization.columns


@dataclass(frozen=True)
class Parameterization:
    """A monomial map from parameter space onto the affine cone of a variety.

    ``monomials[c]`` is the exponent vector of coordinate c over the
    ``num_params`` homogeneous parameters, and ``supports[c]`` its non-zero
    entries as ``(param, exponent)`` pairs.
    """

    kind: str  # "segre" | "scroll"
    d: int
    m: int
    monomials: tuple[tuple[int, ...], ...]

    @property
    def num_params(self) -> int:
        return len(self.monomials[0])

    @property
    def num_coords(self) -> int:
        return len(self.monomials)

    @property
    def variety_dim(self) -> int:
        return self.m

    @cached_property
    def supports(self) -> tuple[Support, ...]:
        return tuple(tuple((j, e) for j, e in enumerate(exp) if e)
                     for exp in self.monomials)

    @cached_property
    def _columns_by_prime(self) -> dict[int, Columns]:
        return {}

    def columns(self, p: int) -> Columns:
        """What a Jacobian matrix over F_p keeps, worked out once per prime:
        ``(basis, value_column, slots)``.

        ``basis`` is B_p, the parameters whose exponent columns mod p are
        independent of the columns before them, and ``value_column`` whether
        the chord matrix keeps its value column (the all-ones vector lies
        outside their span): the pivot columns of [E | 1] mod p.  ``slots[c]``
        is coordinate c's support on B_p, as (position in ``basis``,
        exponent mod p) pairs.
        """
        if p not in self._columns_by_prime:
            kept = pivot_columns([(*exp, 1) for exp in self.monomials], p)
            basis = tuple(j for j in kept if j < self.num_params)
            at = {j: i for i, j in enumerate(basis)}
            slots = tuple(tuple((at[j], e % p) for j, e in sup if j in at)
                          for sup in self.supports)
            self._columns_by_prime[p] = (basis, self.num_params in kept, slots)
        return self._columns_by_prime[p]


def _monomial(m: int, deg: int, a: int, j: int) -> tuple[int, ...]:
    """Exponents of s^(deg-a) t^a times the j-th of m fibre parameters,
    over the parameters (s, t, fibre_0, ..., fibre_{m-1})."""
    return (deg - a, a) + tuple(int(i == j) for i in range(m))


def segre_veronese(d: int, m: int) -> Parameterization:
    """P^1 x P^{m-1} embedded by O(d, 1) in P^{dm+m-1}.

    Coordinates are s^(d-a) t^a u_j for 0 <= a <= d and 0 <= j <= m-1.
    """
    if d < 1 or m < 1:
        raise ValidationError("segre_veronese requires d >= 1 and m >= 1", component="secant")
    monos = tuple(_monomial(m, d, a, j) for a in range(d + 1) for j in range(m))
    return Parameterization("segre", d, m, monos)


def scroll(d: int, m: int) -> Parameterization:
    """P(O(d+1) + O(d)^{m-1}) in P^{dm+m} under the tautological embedding.

    Coordinates are v_0 times the degree-(d+1) monomials in (s, t) and v_j
    times the degree-d monomials for 1 <= j <= m-1.
    """
    if d < 1 or m < 1:
        raise ValidationError("scroll requires d >= 1 and m >= 1", component="secant")
    monos = [_monomial(m, d + 1, a, 0) for a in range(d + 2)]
    monos += [_monomial(m, d, a, j) for j in range(1, m) for a in range(d + 1)]
    return Parameterization("scroll", d, m, tuple(monos))


@dataclass(frozen=True)
class RankConfig:
    """Randomized-rank configuration; the seed is part of every report."""

    trials: int = 5
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.trials < 3:
            raise ValidationError("RankConfig requires trials >= 3", component="secant")


def _rng(cfg: RankConfig, label: str, trial: int, p: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{label}:{trial}:{p}")


def _point(rng: random.Random, k: int, p: int) -> list[int]:
    """k values in [1, p-1], the stream of k calls ``rng.randrange(1, p)``:
    each is 1 plus a draw of ``(p-1).bit_length()`` bits, a draw of p-1 or
    more being discarded and drawn again."""
    n = p - 1
    bits, draw = n.bit_length(), rng.getrandbits
    x: list[int] = []
    while len(x) < k:  # a discarded draw is made up for after the others
        x += [r + 1 for r in [draw(bits) for _ in range(k - len(x))] if r < n]
    return x


def _values(par: Parameterization, x: list[int], p: int) -> list[int]:
    """Every coordinate of ``par`` at ``x`` mod p: the product of its factors
    x_j^e over its support.  The values that :func:`_jacobian` scales."""
    return [prod([pow(x[j], e, p) for j, e in sup]) % p for sup in par.supports]


def _jacobian(par: Parameterization, x: list[int], p: int,
              scale: int = 1) -> list[tuple[int, list[int]]]:
    """Every coordinate of ``par`` at ``x`` as :func:`_values` gives it, with
    ``scale`` times its gradient on the columns B_p (``Parameterization.
    columns``), column j scaled by x_j: x_j d/dx_j x^e = e_j x^e.  Each entry
    is the exponent mod p times the scaled value mod p, so below p**2."""
    basis, _, slots_by_coord = par.columns(p)
    width = len(basis)
    out = []
    for value, slots in zip(_values(par, x, p), slots_by_coord):
        grad = [0] * width
        v = value * scale % p
        for i, e in slots:
            grad[i] = e * v
        out.append((value, grad))
    return out


def _stable_rank(ranks: list[int]) -> int:
    """Max rank across trials, tolerating at most one low outlier."""
    top = max(ranks)
    outliers = [r for r in ranks if r != top]
    if len(outliers) > 1:
        raise DegenerateRandomness(
            f"ranks disagree across trials: {sorted(ranks)}; re-seed advised"
        )
    return top


def _dimension(par: Parameterization, cfg: RankConfig, method: str, rows) -> int:
    """Projective dimension from the stable rank of the matrices ``rows(rng, p)``,
    one per (trial, prime) pair, each pair with its own random generator."""
    label = f"{method}:{par.kind}:{par.d}:{par.m}"
    ranks = [rank_mod_p(rows(_rng(cfg, label, trial, p), p), p)
             for trial, p in iproduct(range(cfg.trials), DEFAULT_PRIMES)]
    return _stable_rank(ranks) - 1


def span_dim_numeric(par: Parameterization) -> int:
    """Dimension of the projective linear span of the image: one less than
    the number of distinct monomials.

    Distinct monomials are linearly independent over Q, so the count is
    exact.  Over F_p a monomial is a character of the torus (F_p^*)^k that
    depends on its exponents mod p - 1 only, and distinct characters are
    independent too, so the count holds there while the exponent vectors stay
    distinct mod p - 1.  Both builders keep every exponent at most d + 1, 13
    at the CLI caps and far below p - 1 for each of ``DEFAULT_PRIMES``.
    """
    return len(set(par.monomials)) - 1


def secant_dim_terracini(par: Parameterization, cfg: RankConfig = RankConfig()) -> int:
    """Secant-variety dimension from two stacked Jacobians.

    The affine tangent spaces of the cone at two independent random points
    span the cone over the secant variety.
    """
    def rows(rng, p):
        x = _point(rng, par.num_params, p)
        y = _point(rng, par.num_params, p)
        return [dx + dy for (_, dx), (_, dy) in zip(_jacobian(par, x, p), _jacobian(par, y, p))]

    return _dimension(par, cfg, "terracini", rows)


def secant_dim_chordmap(par: Parameterization, cfg: RankConfig = RankConfig()) -> int:
    """Secant-variety dimension from the chord map (x, y, t) -> t*phi(x) + phi(y).

    Independent of the stacked-Jacobian route; the two must agree.
    """
    def rows(rng, p):
        x = _point(rng, par.num_params, p)
        y = _point(rng, par.num_params, p)
        t = _point(rng, 1, p)[0]
        jx, jy = _jacobian(par, x, p, t), _jacobian(par, y, p)
        if par.columns(p)[1]:  # the value column is kept
            return [dx + dy + [value] for (value, dx), (_, dy) in zip(jx, jy)]
        return [dx + dy for (_, dx), (_, dy) in zip(jx, jy)]

    return _dimension(par, cfg, "chord", rows)


def expected_secant_dim(d: int, m: int) -> int | None:
    """The secant dimension 2m+1 asserted of either family, None if unasserted.

    At d = 1 the product spans only a P^(2m-1); at m = 1 the variety is a
    rational normal curve, and the conic's secant is its plane, not a P^3.
    """
    return 2 * m + 1 if d >= 2 and m >= 2 else None


def secant_row(par: Parameterization, cfg: RankConfig = RankConfig()) -> dict:
    """One measurement row: span and both secant dimensions."""
    return {
        "kind": par.kind,
        "d": par.d,
        "m": par.m,
        "span": span_dim_numeric(par),
        "secant_terracini": secant_dim_terracini(par, cfg),
        "secant_chord": secant_dim_chordmap(par, cfg),
    }


def verify_secant_dimensions(d_range, m_range, cfg: RankConfig = RankConfig()) -> SuiteReport:
    """Secant dimensions of both families equal 2m+1 whenever d >= 2.

    Also records the d = 1 control rows: the product family then spans only
    a P^{2m-1} (the degeneracy that rules it out elsewhere), while the d = 1
    scroll values are reported without an asserted expectation.
    """
    if not d_range or not m_range or min(d_range) < 2 or min(m_range) < 2:
        raise ValidationError("verify_secant_dimensions requires non-empty d_range and"
                              " m_range with d >= 2 and m >= 2", component="secant")
    ds, ms = sorted(set(d_range)), sorted(set(m_range))
    rep = SuiteReport(
        "secant",
        {
            "d_range": ds,
            "m_range": ms,
            "seed": cfg.seed,
            "primes": list(DEFAULT_PRIMES),
            "trials": cfg.trials,
        },
    )
    for builder in (segre_veronese, scroll):
        for d in [1] + ds:
            last = None
            for m in ms:
                par = builder(d, m)
                row = secant_row(par, cfg)
                name = f"{par.kind}(d={d},m={m})"
                st, sc, span = row["secant_terracini"], row["secant_chord"], row["span"]
                rep.add(name, "secant.span-linear-normality",
                        span == par.num_coords - 1,
                        f"span {span} must fill P^{par.num_coords - 1}")
                rep.add(name, "secant.method-agreement", st == sc,
                        f"terracini {st} vs chord {sc}")
                rep.add(name, "secant.upper-bound",
                        st <= min(2 * par.variety_dim + 1, par.num_coords - 1),
                        f"secant {st} exceeds the trivial bound")
                expected = expected_secant_dim(d, m)
                if expected is not None:
                    rep.add(name, "secant.dimension",
                            st == expected and sc == expected,
                            f"expected 2m+1 = {expected}, got {st}/{sc}",
                            expected=expected, **row)
                elif par.kind == "segre":
                    rep.add(name, "secant.control-span", span == 2 * m - 1,
                            f"d = 1 product spans P^(2m-1) = P^{2 * m - 1}",
                            expected=2 * m - 1, **row)
                    rep.add(name, "secant.control-secant", None,
                            f"d = 1 secant dimensions reported: {st}/{sc}",
                            expected=None, **row)
                else:
                    rep.add(name, "secant.control-secant", None,
                            f"d = 1 scroll values reported: span {span},"
                            f" secant {st}/{sc}", expected=None, **row)
                if last is not None:
                    rep.add(name, "secant.monotone-in-m", st >= last,
                            f"secant dimension dropped from {last} to {st}")
                last = st
                rep.bump("rows")
    return rep
