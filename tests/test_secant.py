"""Exact rank computations: spans, secant dimensions, stability rules."""

import hashlib
import json
import random
from bisect import insort
from dataclasses import fields
from fractions import Fraction
from math import isqrt

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import fanolines.secant as secant_mod
from fanolines.errors import DegenerateRandomness, ValidationError
from fanolines.modp import rank_mod_p
from fanolines.secant import (
    DEFAULT_PRIMES,
    Parameterization,
    RankConfig,
    _jacobian,
    _span_row,
    _stable_rank,
    expected_secant_dim,
    scroll,
    secant_dim_chordmap,
    secant_dim_terracini,
    secant_row,
    segre_veronese,
    span_dim_numeric,
    verify_secant_dimensions,
)


# ---------------------------------------------------------------------------
# rank over F_p against an independent rational-arithmetic oracle


def rank_over_q(rows):
    """Fraction-based Gaussian elimination, written independently of modp."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        piv = work[rank][c]
        work[rank] = [x / piv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def test_rank_mod_p_matches_rational_rank_on_random_matrices():
    rng = random.Random(7)
    p = 2147483647
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        mat = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod_p(mat, p) == rank_over_q(mat)


def test_rank_mod_p_basics():
    p = 101
    assert rank_mod_p([[1, 0], [0, 1]], p) == 2
    assert rank_mod_p([[1, 2], [2, 4]], p) == 1
    assert rank_mod_p([[0, 0], [0, 0]], p) == 0
    assert rank_mod_p([], p) == 0
    assert rank_mod_p([[p, 2 * p]], p) == 0  # reduction happens mod p


# Above every minor of the matrices below (at most 7 x 7, entries at most 63
# in absolute value, so by Hadamard below 3.6e15): their F_p rank is their
# rational rank.
P61 = 2**61 - 1


@st.composite
def small_matrices(draw):
    """Products L R with inner dimension k (rank-deficient when k is below
    both sides), plus optional zero and duplicated rows."""
    rows, cols, k = draw(st.integers(0, 7)), draw(st.integers(1, 7)), draw(st.integers(0, 7))
    entry = st.integers(-3, 3)
    left = [[draw(entry) for _ in range(k)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(k)]
    mat = [[sum(a * b for a, b in zip(lrow, rcol)) for rcol in zip(*right)] if k else [0] * cols
           for lrow in left]
    for extra in draw(st.lists(st.sampled_from(["zero", "duplicate"]), max_size=3)):
        row = [0] * cols if extra == "zero" or not mat else list(draw(st.sampled_from(mat)))
        mat.insert(draw(st.integers(0, len(mat))), row)
    return mat


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_rank_mod_p_matches_rational_rank_property(mat):
    assert rank_mod_p(mat, P61) == rank_over_q(mat)
    assert rank_mod_p((row for row in mat), P61) == rank_over_q(mat)


def _random_rows(rng, rows, cols):
    return [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]


def _deficient(rng, rows, cols, k):
    left, right = _random_rows(rng, rows, k), _random_rows(rng, k, cols)
    return [[sum(a * b for a, b in zip(lrow, rcol)) for rcol in zip(*right)]
            for lrow in left]


SHAPES = {
    "tall": lambda rng: _random_rows(rng, 9, 4),
    "wide": lambda rng: _random_rows(rng, 3, 8),
    "rank-deficient": lambda rng: _deficient(rng, 6, 6, 3),
    "zero-rows": lambda rng: [[0] * 5, *_random_rows(rng, 2, 5), [0] * 5],
    "duplicate-rows": lambda rng: 2 * _random_rows(rng, 3, 6),
    "no-rows": lambda rng: [],
}


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rank_mod_p_shapes_match_rational_rank(shape, as_generator):
    rng = random.Random(shape)
    for _ in range(10):
        mat = SHAPES[shape](rng)
        rows = (row for row in mat) if as_generator else mat
        assert rank_mod_p(rows, P61) == rank_over_q(mat)


def test_rank_mod_p_stops_pulling_rows_at_full_column_rank():
    p, width = 2147483647, 12
    rng = random.Random(5)
    pulled = []

    def rows():
        for i in range(3 * width):
            pulled.append(i)
            yield [rng.randrange(p) for _ in range(width)]

    assert rank_mod_p(rows(), p) == width
    assert len(pulled) == width


# ---------------------------------------------------------------------------
# the packed rank against the list-based kernel it replaced


def rank_mod_p_reference(rows, p):
    """The list-based streaming reduction that the packed-slot kernel
    replaced, kept verbatim as the reference."""
    pivots = []
    width = None
    for row in rows:
        if width is None:
            width = len(row)
        work = [x % p for x in row]
        for col, tail in pivots:
            f = work[col] % p
            if f:
                work[col:] = [a - f * b for a, b in zip(work[col:], tail)]
        work = [x % p for x in work]
        lead = next((c for c, x in enumerate(work) if x), None)
        if lead is None:
            continue
        inv = pow(work[lead], -1, p)
        insort(pivots, (lead, [(x * inv) % p for x in work[lead:]]))
        if len(pivots) == width:
            break
    return len(pivots)


# 65537 is the smallest prime above 2^16, 2^31 - 1 the first default and
# 18446744073709551557 the largest prime below 2^64.
PRIMES = [65537, 2**31 - 1, 18446744073709551557]
# 157 is the coordinate count of scroll(12, 12), the widest CLI input.
MAX_WIDTH = scroll(12, 12).num_coords


def _field_rows(rng, p, rows, cols):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def _field_deficient(rng, p, rows, cols, k):
    """``k`` random rows and ``rows - k`` combinations of two of them, shuffled."""
    mat = _field_rows(rng, p, k, cols)
    for _ in range(rows - k):
        u, v, a, b = *rng.sample(mat[:k], 2), rng.randrange(p), rng.randrange(p)
        mat.append([a * x + b * y for x, y in zip(u, v)])
    rng.shuffle(mat)
    return mat


FIELD_SHAPES = {
    "square": lambda rng, p: _field_rows(rng, p, MAX_WIDTH, MAX_WIDTH),
    "tall": lambda rng, p: _field_rows(rng, p, 90, 61),
    "wide": lambda rng, p: _field_rows(rng, p, 40, MAX_WIDTH),
    "rank-deficient": lambda rng, p: _field_deficient(rng, p, MAX_WIDTH, MAX_WIDTH, 100),
    "rank-deficient-tall": lambda rng, p: _field_deficient(rng, p, 70, 29, 26),
}


@pytest.mark.parametrize("shape", sorted(FIELD_SHAPES))
@pytest.mark.parametrize("p", PRIMES)
def test_packed_rank_matches_the_list_kernel(p, shape):
    mat = FIELD_SHAPES[shape](random.Random(f"{shape}:{p}"), p)
    want = rank_mod_p_reference(mat, p)
    assert rank_mod_p(mat, p) == want
    assert rank_mod_p((row for row in mat), p) == want


def _low_rank_product(rng, p, rows, cols, k):
    """A (rows x k) times (k x cols) product mod p: rank at most k, so all
    but k of its rows are dependent."""
    a = _field_rows(rng, p, rows, k)
    b = _field_rows(rng, p, k, cols)
    return [[sum(x * y for x, y in zip(ar, bc)) % p for bc in zip(*b)] for ar in a]


@pytest.mark.parametrize("rows, cols, k", [
    (120, 40, 7), (30, MAX_WIDTH, 5), (MAX_WIDTH, MAX_WIDTH, 12), (61, 61, 1),
], ids=["tall", "wide", "square", "square-rank-1"])
@pytest.mark.parametrize("p", PRIMES)
def test_packed_rank_skips_dependent_rows(p, rows, cols, k):
    mat = _low_rank_product(random.Random(f"{rows}:{cols}:{k}:{p}"), p, rows, cols, k)
    want = rank_mod_p_reference(mat, p)
    assert want == k  # random factors have full rank k, away from tiny fields
    assert rank_mod_p(mat, p) == want
    assert rank_mod_p((row for row in mat), p) == want


@pytest.mark.parametrize("p", PRIMES)
def test_packed_rank_reduces_unreduced_and_negative_entries(p):
    rng = random.Random(p)
    for rows, cols in [(6, 6), (9, 4), (3, 8), (40, MAX_WIDTH)]:
        base = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        # the same matrix mod p, with every entry shifted by a multiple of p,
        # some far below zero
        shifted = [[x + rng.randrange(-5, 6) * p - (p * p if rng.random() < 0.1 else 0)
                    for x in row] for row in base]
        want = rank_mod_p_reference(base, p)
        assert rank_mod_p(shifted, p) == rank_mod_p_reference(shifted, p) == want
        if cols <= 8:
            assert want == rank_over_q(base)


def _worst_case_growth(p, width):
    """Rows whose reduction drives one slot to the largest value the packed
    kernel can meet from entries in [0, p), (p - 1) + (width - 1) * (p - 1)**2
    up to a residue.

    The first ``width - 1`` rows are pivots 1 followed by entries p - 1.  The
    last row makes the pivot factor f = 1 at every column, so each pivot adds
    (p - 1) * (p - 1) to every later slot; its final entry makes the last
    slot vanish mod p, so the rank is ``width - 1``.
    """
    pivots = [[0] * c + [1] + [p - 1] * (width - c - 1) for c in range(width - 1)]
    last = [(1 - k) % p for k in range(width - 1)] + [(1 - width) % p]
    return pivots + [last]


@pytest.mark.parametrize("p", PRIMES)
def test_packed_rank_survives_worst_case_slot_growth(p):
    mat = _worst_case_growth(p, MAX_WIDTH)
    assert rank_mod_p(mat, p) == rank_mod_p_reference(mat, p) == MAX_WIDTH - 1
    # The largest slot value reached from reduced entries needs as many bits
    # as (p - 1) + width * (p - 1)**2, the reduced part of the kernel's bound.
    bound = (p - 1) + MAX_WIDTH * (p - 1) ** 2
    reached = (1 - MAX_WIDTH) % p + (MAX_WIDTH - 1) * (p - 1) ** 2
    assert reached.bit_length() == bound.bit_length()
    # with the last entry made independent, the rank is full
    mat[-1][-1] = (mat[-1][-1] + 1) % p
    assert rank_mod_p(mat, p) == rank_mod_p_reference(mat, p) == MAX_WIDTH


def _slot_bytes(p, width):
    """The kernel's slot width in bytes: the bit length of its bound on a
    slot, (2**64 - 1) + width * (p - 1)**2, plus a margin bit, rounded up."""
    return -(-(((2**64 - 1) + width * (p - 1) ** 2).bit_length() + 1) // 8)


def _raised(row, p):
    """``row`` with each entry raised by the largest multiple of p that keeps
    it below 2**64: the same row mod p, packed unreduced."""
    return [x + (2**64 - 1 - x) // p * p for x in row]


@pytest.mark.parametrize("p", PRIMES)
def test_packed_rank_survives_worst_case_growth_of_unreduced_entries(p):
    mat = _worst_case_growth(p, MAX_WIDTH)
    mat[-1] = _raised(mat[-1], p)
    assert rank_mod_p(mat, p) == rank_mod_p_reference(mat, p) == MAX_WIDTH - 1
    # The last slot starts at its raised entry and meets every pivot, each
    # adding (p - 1) * (p - 1); that must fit below the slot's margin bit.
    reached = mat[-1][-1] + (MAX_WIDTH - 1) * (p - 1) ** 2
    assert reached > 2**64 - p + (MAX_WIDTH - 1) * (p - 1) ** 2
    assert reached < 2 ** (8 * _slot_bytes(p, MAX_WIDTH) - 1)
    mat[-1][-1] += 1
    assert rank_mod_p(mat, p) == rank_mod_p_reference(mat, p) == MAX_WIDTH


def test_slots_are_nine_bytes_for_the_default_primes_up_to_the_caps():
    assert {_slot_bytes(p, MAX_WIDTH) for p in DEFAULT_PRIMES} == {9}


@pytest.mark.parametrize("p", PRIMES)
def test_packed_rank_takes_entries_up_to_2_to_the_64_unreduced(p):
    rng = random.Random(f"unreduced:{p}")
    for rows, cols, k in [(6, 6, 6), (12, 9, 4), (40, MAX_WIDTH, 40), (MAX_WIDTH, 61, 20)]:
        mat = [[x % p for x in row] for row in _field_deficient(rng, p, rows, cols, k)]
        # odd rows raised as far as they go, even rows by random multiples
        big = [_raised(row, p) if r % 2
               else [x + rng.randrange((2**64 - 1 - x) // p + 1) * p for x in row]
               for r, row in enumerate(mat)]
        big[0][0] = 2**64 - 1
        mat[0][0] = (2**64 - 1) % p
        want = rank_mod_p_reference(mat, p)
        assert rank_mod_p(big, p) == rank_mod_p_reference(big, p) == want
        assert rank_mod_p(iter(big), p) == want


@pytest.mark.parametrize("p", [0, 1, 2**64, 2**64 + 13])
def test_rank_mod_p_rejects_a_modulus_outside_the_slot_range(p):
    with pytest.raises(ValueError, match="modulus"):
        rank_mod_p([[1, 2], [3, 4]], p)
    with pytest.raises(ValueError, match="modulus"):
        rank_mod_p([], p)


@pytest.mark.parametrize("rows", [[[0], [0, 1, 0]], [[1, 2, 3], [1]], [[1, 0], [2, 0], [1, 1, 1]]])
def test_rank_mod_p_rejects_ragged_rows(rows):
    with pytest.raises(ValueError, match="row of length"):
        rank_mod_p(rows, 2147483647)
    with pytest.raises(ValueError, match="row of length"):
        rank_mod_p(iter(rows), 2147483647)


def test_span_draws_only_num_coords_points_per_trial(monkeypatch):
    drawn = []

    def counting_point(rng, k, p):
        drawn.append(k)
        return point(rng, k, p)

    point = secant_mod._point
    monkeypatch.setattr(secant_mod, "_point", counting_point)
    par, cfg = scroll(2, 3), RankConfig()
    assert span_dim_numeric(par, cfg) == par.num_coords - 1
    assert len(drawn) == cfg.trials * len(DEFAULT_PRIMES) * par.num_coords


# ---------------------------------------------------------------------------
# monomial values and gradients against naive per-coordinate formulas


def value_oracle(exp, x, p):
    """The monomial with exponents ``exp`` at ``x`` mod p, one power per
    parameter."""
    out = 1
    for e, xi in zip(exp, x):
        out = (out * pow(xi, e, p)) % p
    return out


def partial_oracle(exp, j, x, p):
    """d/dx_j of the monomial with exponents ``exp`` at ``x`` mod p, as one
    product of powers per partial."""
    e = exp[j]
    if e == 0:
        return 0
    out = e % p
    for i, (ei, xi) in enumerate(zip(exp, x)):
        if i == j:
            ei -= 1
        if ei:
            out = (out * pow(xi, ei, p)) % p
    return out


def _reduced(entries, p):
    """``entries`` mod p, after checking that each lies in [0, p**2): the
    range that row builders may leave unreduced for ``rank_mod_p``."""
    assert all(0 <= a < p * p for a in entries)
    return [a % p for a in entries]


def _span_row_mod_p(par, x, p):
    return _reduced(_span_row(par, x, p), p)


def _jacobian_mod_p(par, x, p, scale=1):
    return [(*_reduced([value], p), _reduced(grad, p))
            for value, grad in _jacobian(par, x, p, scale)]


def _jacobian_oracle(par, x, p, scale=1):
    """Each coordinate's value and ``scale`` times its partials on the columns
    B_p, from the naive formulas."""
    basis = par.columns(p)[0]
    return [(value_oracle(exp, x, p), [scale * partial_oracle(exp, j, x, p) % p for j in basis])
            for exp in par.monomials]


@pytest.mark.parametrize("p", [101, 2147483629])
def test_gradient_matches_the_partial_product_formula(p):
    rng = random.Random(p)
    random_monomials = tuple(tuple(rng.randrange(0, 250) for _ in range(5)) for _ in range(20))
    pars = [scroll(3, 3), segre_veronese(2, 4), Parameterization("test", 0, 0, random_monomials)]
    for par in pars:
        for _ in range(3):
            x = [rng.randrange(1, p) for _ in range(par.num_params)]
            assert _jacobian_mod_p(par, x, p) == _jacobian_oracle(par, x, p)
            t = rng.randrange(1, p)  # the chord's scaled gradient at x
            assert _jacobian_mod_p(par, x, p, t) == _jacobian_oracle(par, x, p, t)


@st.composite
def parameterizations_and_points(draw):
    """A parameterization over 1-6 parameters with 3-30 coordinates of
    exponents 0-5: an all-zero vector, two that differ only in the last
    parameter's exponent, so share a head, and up to 27 drawn; and a point."""
    k = draw(st.integers(1, 6))
    exps = st.tuples(*[st.integers(0, 5)] * k)
    monos = draw(st.lists(exps, max_size=27))
    base = draw(exps)[:-1]
    monos += [(0,) * k, base + (1,), base + (draw(st.integers(2, 5)),)]
    monos = draw(st.permutations(monos))
    p = draw(st.sampled_from([101, DEFAULT_PRIMES[0]]))
    x = draw(st.lists(st.integers(1, p - 1), min_size=k, max_size=k))
    return Parameterization("test", 0, 0, tuple(monos)), x, p


@settings(max_examples=200, deadline=None)
@given(parameterizations_and_points())
def test_span_row_and_jacobian_match_the_oracles_on_drawn_parameterizations(drawn):
    par, x, p = drawn
    assert len(par.heads) < par.num_coords  # the paired coordinates share one
    assert _span_row_mod_p(par, x, p) == [value_oracle(exp, x, p) for exp in par.monomials]
    assert _jacobian_mod_p(par, x, p) == _jacobian_oracle(par, x, p)


@st.composite
def maps_with_degenerate_columns(draw):
    """A monomial map, seldom homogeneous, over 3-7 parameters with 1-12
    coordinates of exponents 0-5: one parameter that no coordinate uses and
    one whose exponent column repeats another's, among 1-5 drawn columns."""
    rows = draw(st.integers(1, 12))
    column = st.lists(st.integers(0, 5), min_size=rows, max_size=rows)
    cols = draw(st.lists(column, min_size=1, max_size=5))
    cols += [[0] * rows, draw(st.sampled_from(cols))]
    return Parameterization("test", 0, 0, tuple(zip(*draw(st.permutations(cols)))))


def _in_span(vectors, v, p):
    return rank_mod_p_reference([*vectors, v], p) == rank_mod_p_reference(vectors, p)


@settings(max_examples=200, deadline=None)
@given(maps_with_degenerate_columns(), st.sampled_from([2, 3, 101, DEFAULT_PRIMES[0]]),
       st.integers(0, 2**32))
@example(segre_veronese(1, 4), DEFAULT_PRIMES[0], 0)
@example(segre_veronese(1, 2), 3, 1)
@example(scroll(3, 1), DEFAULT_PRIMES[0], 0)
@example(scroll(1, 1), 2, 1)
def test_jacobian_ranks_on_the_column_basis_equal_the_full_ranks(par, p, seed):
    # J(x) = diag(phi(x)) E diag(x)^-1, so over F_p the columns of J(x) span
    # diag(phi(x)) colspace(E mod p), as do its columns on B_p; and phi(x) =
    # diag(phi(x)) 1 lies in that span exactly when 1 lies in colspace(E mod p).
    rng = random.Random(seed)
    x, y = ([rng.randrange(1, p) for _ in range(par.num_params)] for _ in "xy")
    t = rng.randrange(1, p)
    basis, value_column, _ = par.columns(p)
    exps = [[e % p for e in col] for col in zip(*par.monomials)]
    kept = [exps[j] for j in basis]
    assert rank_mod_p_reference(kept, p) == len(kept) == rank_mod_p_reference(exps, p)
    assert all(_in_span(exps[:j], exps[j], p) for j in range(len(exps)) if j not in basis)
    assert value_column == (not _in_span(exps, [1] * par.num_coords, p))

    def full(z, scale=1):
        return [(value_oracle(exp, z, p), [scale * partial_oracle(exp, j, z, p) % p
                                            for j in range(len(exp))]) for exp in par.monomials]

    terracini = [dx + dy for (_, dx), (_, dy) in zip(full(x), full(y))]
    chord = [dx + dy + [value] for (value, dx), (_, dy) in zip(full(x, t), full(y))]
    on_basis = [dx + dy for (_, dx), (_, dy) in zip(_jacobian(par, x, p), _jacobian(par, y, p))]
    assert rank_mod_p_reference(on_basis, p) == rank_mod_p_reference(terracini, p)
    chord_on_basis = [dx + dy + [value] * value_column for (value, dx), (_, dy)
                      in zip(_jacobian(par, x, p, t), _jacobian(par, y, p))]
    assert rank_mod_p_reference(chord_on_basis, p) == rank_mod_p_reference(chord, p)


@pytest.mark.parametrize("p", [*DEFAULT_PRIMES, 2, 65537])
def test_point_draws_the_stream_of_randrange(p):
    # At 65537 a draw is 17 bits and about half of them are discarded.
    ours, theirs = random.Random(f"point:{p}"), random.Random(f"point:{p}")
    for k in (1, 3, 14, 40, 157):
        assert secant_mod._point(ours, k, p) == [theirs.randrange(1, p) for _ in range(k)]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("builder", [segre_veronese, scroll])
def test_span_row_matches_monomial_evaluation(builder):
    rng = random.Random(builder.__name__)
    for d in range(1, 13):
        for m in (1, 2, 4, 8, 12):
            par = builder(d, m)
            for p in DEFAULT_PRIMES:
                for _ in range(2):
                    x = [rng.randrange(1, p) for _ in range(par.num_params)]
                    assert _span_row_mod_p(par, x, p) == [value_oracle(exp, x, p)
                                                          for exp in par.monomials]


# ---------------------------------------------------------------------------
# parameterizations


def test_segre_veronese_monomial_counts():
    par = segre_veronese(2, 3)
    assert par.num_coords == (2 + 1) * 3
    assert par.num_params == 5
    assert len(set(par.monomials)) == par.num_coords  # distinct monomials


@pytest.mark.parametrize("par", [segre_veronese(4, 12), scroll(4, 12), scroll(1, 2)])
def test_supports_are_the_nonzero_exponents(par):
    assert len(par.supports) == par.num_coords
    for exp, support in zip(par.monomials, par.supports):
        assert all(e > 0 for _, e in support) and len(support) <= 3
        assert [dict(support).get(j, 0) for j in range(par.num_params)] == list(exp)
    assert par.supports is par.supports  # computed once per parameterization


def test_scroll_monomial_counts():
    par = scroll(2, 3)
    assert par.num_coords == (2 + 2) + (3 - 1) * (2 + 1)
    assert par.num_params == 5
    assert len(set(par.monomials)) == par.num_coords


def test_builders_validate():
    with pytest.raises(ValidationError):
        segre_veronese(0, 3)
    with pytest.raises(ValidationError):
        scroll(2, 0)
    with pytest.raises(ValidationError):
        RankConfig(trials=2)


def test_rank_config_holds_only_trials_and_seed():
    assert [f.name for f in fields(RankConfig)] == ["trials", "seed"]


def test_default_primes_are_distinct_primes_far_above_small_fields():
    # Over fields below 2^16 random points are degenerate so often that the
    # trials keep disagreeing whatever the seed; below 2^31 products of two
    # field entries stay small.
    def by_trial_division(n):
        return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))

    assert len(DEFAULT_PRIMES) == len(set(DEFAULT_PRIMES)) == 3
    for q in DEFAULT_PRIMES:
        assert 2**16 <= q < 2**31
        assert by_trial_division(q)


# ---------------------------------------------------------------------------
# spans


@pytest.mark.parametrize(
    "par, expected",
    [
        (segre_veronese(1, 3), 5),  # the degenerate P^(2m-1) span
        (segre_veronese(2, 2), 5),
        (segre_veronese(1, 2), 3),
        (scroll(1, 3), 6),  # monomial count 7
        (scroll(3, 2), 8),
    ],
)
def test_span_values(par, expected):
    assert span_dim_numeric(par) == expected


def test_span_always_fills_the_monomial_space():
    for par in (segre_veronese(3, 4), scroll(2, 5), segre_veronese(1, 5)):
        assert span_dim_numeric(par) == par.num_coords - 1


def test_segre_degree_one_span_is_2m_minus_1():
    for m in range(2, 6):
        assert span_dim_numeric(segre_veronese(1, m)) == 2 * m - 1


# ---------------------------------------------------------------------------
# secant dimensions


@pytest.mark.parametrize(
    "par, expected",
    [
        (segre_veronese(2, 2), 5),
        (scroll(3, 2), 5),
        (segre_veronese(2, 3), 7),
        (scroll(2, 4), 9),
    ],
)
def test_secant_dimension_is_2m_plus_1(par, expected):
    assert secant_dim_terracini(par) == expected
    assert secant_dim_chordmap(par) == expected


def test_degree_one_product_secant_fills_its_span():
    # 2 x m matrices never exceed rank 2, so the chords fill the span P^(2m-1).
    assert secant_dim_terracini(segre_veronese(1, 2)) == 3
    assert secant_dim_chordmap(segre_veronese(1, 2)) == 3
    assert secant_dim_terracini(segre_veronese(1, 4)) == 7


def test_methods_agree_on_the_degree_one_scroll():
    par = scroll(1, 3)
    assert secant_dim_terracini(par) == secant_dim_chordmap(par)


def test_secant_row_is_deterministic_given_the_seed():
    cfg = RankConfig(seed=123)
    assert secant_row(scroll(2, 3), cfg) == secant_row(scroll(2, 3), cfg)


def test_different_seeds_agree_on_values():
    a = secant_row(segre_veronese(3, 3), RankConfig(seed=1))
    b = secant_row(segre_veronese(3, 3), RankConfig(seed=999))
    assert a == b


def test_symbolic_spans_match_numeric_ranks():
    # The span table in the term algebra against the evaluation-rank route.
    from fanolines.terms import PolarizedProduct, ProjBundleP1, ambient_dim

    assert ambient_dim(PolarizedProduct(((1, 1), (2, 1)))) == 5 == span_dim_numeric(
        segre_veronese(1, 3)
    )
    assert ambient_dim(PolarizedProduct(((1, 2), (1, 1)))) == 5 == span_dim_numeric(
        segre_veronese(2, 2)
    )
    assert ambient_dim(ProjBundleP1((2, 1, 1))) == 6 == span_dim_numeric(scroll(1, 3))
    assert ambient_dim(ProjBundleP1((3, 2))) == 6 == span_dim_numeric(scroll(2, 2))


def test_conic_three_point_rank_oracle():
    # Cross-module oracle for the conic not being covered by lines: three
    # random points of the degree-2 rational normal curve always span the
    # plane (rank 3), so no three of its points are collinear and it
    # contains no line.
    from fanolines.secant import _point, _rng
    from fanolines.terms import Quadric, covered_by_lines

    par = segre_veronese(2, 1)  # the conic, with a trivial second factor
    cfg = RankConfig()
    p = DEFAULT_PRIMES[0]
    for trial in range(cfg.trials):
        rng = _rng(cfg, "conic-trisecant", trial, p)
        rows = []
        for _ in range(3):
            x = _point(rng, par.num_params, p)
            rows.append([value_oracle(exp, x, p) for exp in par.monomials])
        assert rank_mod_p(rows, p) == 3
    assert covered_by_lines(Quadric(1)) is False


# ---------------------------------------------------------------------------
# the verification sweep


def test_verify_secant_dimensions_sweep():
    rep = verify_secant_dimensions((2, 3), (2, 3, 4))
    assert rep.ok, [f.line() for f in rep.failures]
    assert rep.params["seed"] == RankConfig().seed
    rows = [r for r in rep.records if r.check == "secant.dimension"]
    assert len(rows) == 2 * 2 * 3  # kinds x degrees x m values
    controls = [r for r in rep.records if r.check == "secant.control-span"]
    assert controls and all(r.passed for r in controls)
    reported = [r for r in rep.records if r.passed is None]
    assert reported  # the d = 1 secants are data, not assertions


def test_verify_secant_dimensions_report_is_pinned():
    # Recorded before the streaming rank and the gradient rows replaced the
    # full-matrix elimination and the per-partial products; ranks are exact,
    # so the report must not move by a byte.
    doc = json.dumps(verify_secant_dimensions((2, 3), (2, 3, 4)).as_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "2fb091fbf351454071bf46f9ac272905a03f3dc72208aa455af4b15aef4dfb29"
    )


@pytest.mark.parametrize("builder, digest", [
    (scroll, "514fd1ea3c07078238821920df46ee5eff0df30887a6095adb910adffd3f3f9f"),
    (segre_veronese, "68ed67b724c8cc0004b9dd87d9835365c7e8cdb0fb1bac26195c4f3cf1d2134d"),
])
def test_widest_benchmark_rows_are_pinned(builder, digest):
    # The widest rows of the benchmark grid (d = 4, m = 12), recorded with
    # the list-based rank kernel and dense monomial evaluation.
    row = secant_row(builder(4, 12), RankConfig(seed=1))
    assert hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("builder, d, m, span, secant", [
    (scroll, 4, 12, 61, 26),
    (segre_veronese, 4, 12, 60, 26),
    (segre_veronese, 1, 12, 24, 24),
    (scroll, 1, 12, 25, 25),
])
def test_every_rank_of_each_method_trial_and_prime_is_pinned(monkeypatch, builder, d, m,
                                                              span, secant):
    # Recorded before the Jacobian matrices were ranked on a column basis of
    # the exponent matrix: every single rank, not only the stable maximum
    # that a report keeps, in (trial, prime) order.
    ranks = []

    def recording_rank(rows, p):
        ranks.append((p, rank(rows, p)))
        return ranks[-1][1]

    rank = secant_mod.rank_mod_p
    monkeypatch.setattr(secant_mod, "rank_mod_p", recording_rank)
    par, cfg = builder(d, m), RankConfig(seed=secant_mod.DEFAULT_SEED)
    for method, want in [(span_dim_numeric, span), (secant_dim_terracini, secant),
                         (secant_dim_chordmap, secant)]:
        ranks.clear()
        assert method(par, cfg) == want - 1
        assert ranks == [(p, want) for _ in range(cfg.trials) for p in DEFAULT_PRIMES]


def test_suite_calls_the_patchable_row_and_rank_globals(monkeypatch):
    # The benchmark times rows, the three methods and ranks by patching these
    # module globals, so the suite must keep calling them by name.
    rows, primes, methods = [], [], []

    def counting_row(par, cfg):
        rows.append((par.kind, par.d, par.m))
        return row(par, cfg)

    def counting_rank(mat, p):
        primes.append(p)
        return rank(mat, p)

    row, rank = secant_mod.secant_row, secant_mod.rank_mod_p
    monkeypatch.setattr(secant_mod, "secant_row", counting_row)
    monkeypatch.setattr(secant_mod, "rank_mod_p", counting_rank)
    names = ("span_dim_numeric", "secant_dim_terracini", "secant_dim_chordmap")
    for name in names:
        def counting_method(par, cfg, name=name, method=getattr(secant_mod, name)):
            methods.append(name)
            return method(par, cfg)

        monkeypatch.setattr(secant_mod, name, counting_method)
    rep = verify_secant_dimensions((2,), (2,))
    grid = [(kind, d, 2) for kind in ("segre", "scroll") for d in (1, 2)]
    assert rows == grid and rep.counters["rows"] == len(grid)
    assert methods == list(names) * len(grid)
    # one rank per (method, trial, prime): span, terracini and chord, in turn
    assert primes == list(DEFAULT_PRIMES) * (len(grid) * 3 * RankConfig().trials)


def test_verify_secant_dimensions_validates_ranges():
    with pytest.raises(ValidationError):
        verify_secant_dimensions((1, 2), (2, 3))
    with pytest.raises(ValidationError):
        verify_secant_dimensions((2,), (1,))


def test_verify_secant_dimensions_runs_each_value_once():
    # A repeated m or d is one row, and the echoed ranges list distinct values.
    once = verify_secant_dimensions((2,), (2,)).as_dict()
    assert verify_secant_dimensions((2,), (2, 2)).as_dict() == once
    assert verify_secant_dimensions((2, 2), (2,)).as_dict() == once
    assert (once["params"]["d_range"], once["params"]["m_range"]) == ([2], [2])
    assert (once["passed"], once["info"]) == (15, 2)


@pytest.mark.parametrize("d_range, m_range", [((2,), ()), ((), (4,))], ids=["no-m", "no-d"])
def test_verify_secant_dimensions_rejects_an_empty_range(d_range, m_range):
    # An empty range would assert no secant dimension and read as an all-pass.
    with pytest.raises(ValidationError, match="non-empty") as err:
        verify_secant_dimensions(d_range, m_range)
    assert err.value.component == "secant"


@pytest.mark.parametrize("d, m, expected", [
    (1, 4, None), (2, 1, None), (4, 1, None), (2, 2, 5), (3, 4, 9), (4, 12, 25),
])
def test_expected_secant_dim_asserts_only_d_and_m_from_2(d, m, expected):
    assert expected_secant_dim(d, m) == expected


# ---------------------------------------------------------------------------
# stability policy


def test_stable_rank_tolerates_one_outlier():
    assert _stable_rank([5, 5, 5, 4]) == 5
    assert _stable_rank([7, 7, 7]) == 7


def test_stable_rank_raises_on_two_outliers():
    with pytest.raises(DegenerateRandomness):
        _stable_rank([5, 5, 4, 4])
    with pytest.raises(DegenerateRandomness):
        _stable_rank([5, 4, 3, 5])
