"""Exact rank of sparse integer/rational matrices, two ways.

Both routes clear each row's denominators and then eliminate in integers;
neither ever builds a Fraction.  rank_bareiss is fraction-free Gaussian
elimination (Bareiss): it pivots on the sparsest row and keeps its
entries small by exact division by the previous pivot.  rank_gauss pivots
on the densest column instead, and keeps its rows small by dividing each
new row by the gcd of its entries.  Different pivot rules and different
normalisations keep the two routes independent; tests compare them on
every block they both see.  Float entries are rejected: the ranks are
exact, and a binary float is not the rational it was meant to be.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd, lcm

__all__ = ["rank_bareiss", "rank_gauss"]

Row = dict  # column index -> int | Fraction


def _integer_rows(rows: list[Row]) -> list[dict]:
    """Each nonzero row times the lcm of its denominators."""
    out = []
    for row in rows:
        try:
            den = lcm(*(v.denominator for v in row.values()))
        except AttributeError as exc:
            raise TypeError(f"exact rank needs int or Fraction entries: {exc}") from None
        r = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        if r:
            out.append(r)
    return out


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("Bareiss division was not exact")
    return q


def rank_bareiss(rows: list[Row]) -> int:
    """Rank by fraction-free elimination; entries stay integers throughout."""
    rows = _integer_rows(rows)
    rank = 0
    prev = 1
    while rows:
        # sparsest row first, smallest pivot column within it
        best = min(range(len(rows)), key=lambda i: (len(rows[i]), min(rows[i])))
        pivot_row = rows.pop(best)
        col = min(pivot_row)
        piv = pivot_row[col]
        rank += 1
        nxt = []
        for row in rows:
            f = row.get(col)
            if f is None:
                # the update v * piv / prev is the identity when piv == prev
                if piv != prev:
                    row = {c: _exact_div(v * piv, prev) for c, v in row.items()}
                nxt.append(row)
                continue
            new = {}
            for c, v in row.items():
                nv = v * piv - f * pivot_row.get(c, 0)
                if nv:
                    new[c] = _exact_div(nv, prev)
            for c, v in pivot_row.items():
                if c not in row:
                    new[c] = _exact_div(-f * v, prev)
            if new:
                nxt.append(new)
        rows = nxt
        prev = piv
    return rank


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def rank_gauss(rows: list[Row]) -> int:
    """Rank by integer row elimination, densest-column-first pivoting.

    A row with entry f at the pivot column becomes a * row - b * pivot_row,
    with a = piv / g and b = f / g for g = gcd(piv, f), so the pivot
    column cancels exactly; the new row is then divided by the gcd of its
    entries, which keeps every row primitive.
    """
    rows = [_primitive(r) for r in _integer_rows(rows)]
    rank = 0
    while rows:
        counts = Counter(chain.from_iterable(rows))
        col = max(counts, key=lambda c: (counts[c], c))
        idx = next(i for i, row in enumerate(rows) if col in row)
        pivot_row = rows.pop(idx)
        piv = pivot_row.pop(col)
        rank += 1
        nxt = []
        for row in rows:
            # rows are private to this call, so each one is updated in place
            f = row.pop(col, None)
            if f is not None:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                if a != 1:
                    for c in row:
                        row[c] *= a
                for c, v in pivot_row.items():
                    nv = row.get(c, 0) - b * v
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                if not row:
                    continue
                row = _primitive(row)
            nxt.append(row)
        rows = nxt
    return rank
