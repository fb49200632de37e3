"""Exact matrix rank over prime fields.

``rank_mod_p`` is a streaming row-echelon reduction on Python integers.
Rows are pulled one at a time from any iterable and reduced against the
pivot rows kept so far, in ascending pivot-column order; a row that stays
non-zero becomes a new pivot, stored only from its pivot column on and
normalised to 1 there.  The inner update skips ``% p``: Python integers are
exact, so each row is reduced once after all pivots are applied, and its
entries stay below about ``width * p**2`` until then.  The reduction stops
as soon as the rank equals the row width, without pulling further rows, so
a caller may pass a lazy generator of more rows than it expects to need.

``is_prime`` is the deterministic primality test that guards the choice of
field.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Sequence
from functools import lru_cache


def rank_mod_p(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank of the matrix with the given integer rows, over F_p."""
    # (pivot column, row tail from that column), ascending; the columns are
    # distinct, so the tuples order by column alone.
    pivots: list[tuple[int, list[int]]] = []
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


#: Miller-Rabin with these bases is exact for every n below 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 2**64


@lru_cache(maxsize=64)  # every RankConfig checks its primes, mostly the defaults
def is_prime(n: int) -> bool:
    """Deterministic primality test for ``n < PRIME_LIMIT``."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"is_prime is exact only below 2^64, got {n}")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
