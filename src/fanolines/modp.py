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
margin).

After the pivots are applied, in ascending order, every pivot column of
the row is 0 mod p: a pivot's tail may touch later pivot columns, but the
pivot of each such column is applied after it.  So only the free columns,
those without a pivot, are read, kept as an ascending list.  The row is
scanned on them for its leading column; a row that is 0 mod p on all of
them is dependent and is dropped without being unpacked.  A new pivot's
normalised tail is built in one pass over the free columns after the lead:
the lead slot holds 1 and every pivot column 0.

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
            free = list(range(width))  # the non-pivot columns, ascending
        elif len(row) != width:
            raise ValueError(f"rank_mod_p: row of length {len(row)}, expected {width}")
        w = _pack([x % p for x in row], bits)
        for offset, tail in pivots:
            f = ((w >> offset) & mask) % p
            if f:
                w += (p - f) * tail
        for i, lead in enumerate(free):
            x = ((w >> lead * bits) & mask) % p
            if x:
                break
        else:
            continue  # zero mod p on every column: a dependent row
        del free[i]
        inv = pow(x, -1, p)
        entries = [0] * (width - lead)
        entries[0] = 1
        for c in free[i:]:
            entries[c - lead] = ((w >> c * bits) & mask) * inv % p
        offset = lead * bits
        insort(pivots, (offset, _pack(entries, bits) << offset))
        if not free:
            break
    return len(pivots)


def _pack(entries: list[int], bits: int) -> int:
    """One integer holding ``entries[c]`` in the ``bits``-wide slot c."""
    w = 0
    for x in reversed(entries):
        w = (w << bits) | x
    return w

