"""Exact matrix rank over prime fields.

``rank_mod_p`` is a streaming row-echelon reduction on Python integers.
Rows are pulled one at a time from any iterable and reduced against the
pivot rows kept so far, in ascending pivot-column order; a row that stays
non-zero becomes a new pivot, normalised to 1 at its pivot column.  The
reduction stops as soon as the rank equals the row width, without pulling
further rows, so a caller may pass a lazy generator of more rows than it
expects to need.  Every row must have the width of the first.

Each row, and each stored pivot, is one Python integer with a ``B``-bit
slot per column, column c in bits [c*B, (c+1)*B), where ``B`` is the bit
length of ``(p-1) + width * (p-1)**2`` plus one.  A pivot is applied with
one multiply-add on the whole integer, ``w += (p - f) * tail``, where ``f``
is the row's entry at the pivot column mod p and ``tail`` the pivot row,
entries in [0, p), zero left of its column.  Only non-negative values are
added, so no slot borrows.  A slot starts below p and each pivot adds at
most ``(p-1)**2`` to it; a row meets at most ``width - 1`` pivots, so a slot
stays below that bound and never carries into the next (the extra bit is a
margin).  A row is unpacked once, after all pivots are applied, reduced
mod p and scanned for its leading column.

The field is the caller's: the secant laboratory passes its three fixed
primes just below 2^31, and nothing here checks that ``p`` is prime.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Sequence


def rank_mod_p(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank of the matrix with the given integer rows, over F_p.

    Raises ``ValueError`` on a row whose length differs from the first
    row's; rows after full column rank are never pulled, so never checked.
    """
    # (slot offset of the pivot column, packed pivot row), ascending; the
    # offsets are distinct, so the pairs order by offset alone.
    pivots: list[tuple[int, int]] = []
    width = None
    for row in rows:
        if width is None:
            width = len(row)
            bits = ((p - 1) + width * (p - 1) ** 2).bit_length() + 1
            mask = (1 << bits) - 1
            offsets = range(0, width * bits, bits)
        elif len(row) != width:
            raise ValueError(f"rank_mod_p: row of length {len(row)}, expected {width}")
        w = _pack([x % p for x in row], bits)
        for offset, tail in pivots:
            f = ((w >> offset) & mask) % p
            if f:
                w += (p - f) * tail
        work = [((w >> offset) & mask) % p for offset in offsets]
        lead = next((c for c, x in enumerate(work) if x), None)
        if lead is None:
            continue
        inv = pow(work[lead], -1, p)
        tail = _pack([(x * inv) % p for x in work[lead:]], bits)
        insort(pivots, (offsets[lead], tail << offsets[lead]))
        if len(pivots) == width:
            break
    return len(pivots)


def _pack(entries: list[int], bits: int) -> int:
    """One integer holding ``entries[c]`` in the ``bits``-wide slot c."""
    w = 0
    for x in reversed(entries):
        w = (w << bits) | x
    return w

