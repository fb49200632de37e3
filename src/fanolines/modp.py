"""Exact matrix rank, and the columns that carry it, over prime fields.

``pivot_columns`` is a streaming row-echelon reduction on Python integers,
and ``rank_mod_p`` counts the pivot columns it returns.
Rows are pulled one at a time from any iterable and reduced against the
pivot rows kept so far, in ascending pivot-column order; a row that stays
non-zero becomes a new pivot, normalised to 1 at its pivot column.  The
reduction stops as soon as the rank equals the row width, without pulling
further rows, so a caller may pass a lazy generator of more rows than it
expects to need.  Every row must have the width of the first.

Each row, and each stored pivot, is one Python integer with a byte-aligned
slot per column, column c in bits [c*B, (c+1)*B).  ``B`` is the bit length
of ``(2**64 - 1) + width * (p-1)**2`` plus one margin bit, rounded up to
whole bytes: 9 bytes for the fixed primes below 2^31 at every width up to
the CLI caps.  A row is packed by one ``struct.Struct`` built per call, an
unsigned 64-bit field and ``B/8 - 8`` zero pad bytes per column, and read
back with ``int.from_bytes``: one C call each per row.  Entries in
[0, 2**64) go in unreduced, since every slot read reduces mod p anyway; a
row that the ``Struct`` rejects (an entry below 0, or 2**64 and up) is
reduced mod p first and packed by the same ``Struct``.
That is why ``p`` must lie in (1, 2**64): a reduced entry, and every pivot
entry, fits the 64-bit field.

A pivot is applied with one multiply-add on the whole integer,
``w += (p - f) * tail``, where ``f`` is the row's entry at the pivot column
mod p and ``tail`` the pivot row, entries in [0, p), zero left of its column.
Only non-negative values are added, so no slot borrows.  A slot starts below
2**64 and each pivot adds at most ``(p-1)**2`` to it; a row meets at most
``width - 1`` pivots, so a slot stays below the bound above and never carries
into the next.

After the pivots are applied, in ascending order, every pivot column of
the row is 0 mod p: a pivot's tail may touch later pivot columns, but the
pivot of each such column is applied after it.  So only the free columns,
those without a pivot, are read, kept as an ascending list.  The row is
scanned on them for its leading column; a row that is 0 mod p on all of
them is dependent and is dropped without being unpacked.  A new pivot's
tail is a full-width entry list, 1 at the lead, the normalised free columns
after it and 0 elsewhere, packed by the same ``Struct``.

The pivot columns come out ascending.  Whatever order the rows come in,
they are the columns independent of those before them, as in any echelon
form; the secant laboratory takes its column basis from them, so the
package's one modular inverse is the pivot normalisation here.

The field is the caller's: the secant laboratory passes its three fixed
primes just below 2^31, and nothing here checks that ``p`` is prime.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Sequence
from struct import Struct, error as StructError


def rank_mod_p(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank of the matrix with the given integer rows, over F_p: the number
    of its :func:`pivot_columns`.

    Raises ``ValueError`` unless 1 < p < 2**64, and on a row whose length
    differs from the first row's; rows after full column rank are never
    pulled, so never checked.  Entries may be any integers; the second row
    below is twice the first, and the third reads [100, 0, 7] mod 101:

    >>> rank_mod_p([[1, 2, 3], [2, 4, 6], [-1, 0, 108]], 101)
    2
    """
    return len(pivot_columns(rows, p))


def pivot_columns(rows: Iterable[Sequence[int]], p: int) -> list[int]:
    """The columns of the matrix with the given integer rows that are
    independent over F_p of the columns before them, ascending; the checks
    and the early stop are ``rank_mod_p``'s.  Below, column 1 is twice
    column 0, and column 3 is column 0 plus column 2 mod 7 but not mod 5:

    >>> rows = [[1, 2, 0, 1], [3, 6, 1, 4], [0, 0, 0, 7]]
    >>> pivot_columns(rows, 7), pivot_columns(rows, 5)
    ([0, 2], [0, 2, 3])
    """
    if not 1 < p < 2**64:
        raise ValueError(f"rank_mod_p: modulus {p} is outside (1, 2**64)")
    # (slot offset of the pivot column, packed pivot row), ascending; the
    # offsets are distinct, so the pairs order by offset alone.
    pivots: list[tuple[int, int]] = []
    width = None
    for row in rows:
        if width is None:
            width = len(row)
            nbytes = -(-(((2**64 - 1) + width * (p - 1) ** 2).bit_length() + 1) // 8)
            bits = 8 * nbytes
            mask = (1 << bits) - 1
            pack = Struct("<" + ("Q%dx" % (nbytes - 8)) * width).pack
            free = list(range(width))  # the non-pivot columns, ascending
        elif len(row) != width:
            raise ValueError(f"rank_mod_p: row of length {len(row)}, expected {width}")
        try:
            w = int.from_bytes(pack(*row), "little")
        except StructError:
            w = int.from_bytes(pack(*[x % p for x in row]), "little")
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
        entries = [0] * width
        entries[lead] = 1
        for c in free[i:]:
            entries[c] = ((w >> c * bits) & mask) * inv % p
        insort(pivots, (lead * bits, int.from_bytes(pack(*entries), "little")))
        if not free:
            break
    return [offset // bits for offset, _ in pivots]
