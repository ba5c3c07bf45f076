"""Exact rank of sparse integer/rational matrices, two ways.

rank_bareiss is the working route: fraction-free Gaussian elimination
(Bareiss) on sparse integer rows, pivoting for sparsity.  rank_gauss is
an independent rational elimination with a different pivot rule; tests
compare the two on every block they both see.  Denominators are cleared
row by row, which changes no rank.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["rank_bareiss", "rank_gauss"]

Row = dict  # column index -> int | Fraction


def _integer_rows(rows: list[Row]) -> list[dict]:
    out = []
    for row in rows:
        if not row:
            continue
        den = 1
        for v in row.values():
            f = Fraction(v)
            den = den * f.denominator // gcd(den, f.denominator)
        r = {c: int(Fraction(v) * den) for c, v in row.items()}
        r = {c: v for c, v in r.items() if v}
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
                new = {c: _exact_div(v * piv, prev) for c, v in row.items()}
            else:
                new = {}
                for c, v in row.items():
                    nv = v * piv - f * pivot_row.get(c, 0)
                    if nv:
                        new[c] = _exact_div(nv, prev)
                for c, v in pivot_row.items():
                    if c not in row:
                        nv = -f * v
                        if nv:
                            new[c] = _exact_div(nv, prev)
                new.pop(col, None)
            if new:
                nxt.append(new)
        rows = nxt
        prev = piv
    return rank


def rank_gauss(rows: list[Row]) -> int:
    """Rank by plain rational elimination, densest-column-first pivoting."""
    rows = [
        {c: Fraction(v) for c, v in row.items() if v} for row in rows if row
    ]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        counts: dict[int, int] = {}
        for row in rows:
            for c in row:
                counts[c] = counts.get(c, 0) + 1
        col = max(counts, key=lambda c: (counts[c], c))
        idx = next(i for i, row in enumerate(rows) if col in row)
        pivot_row = rows.pop(idx)
        inv = 1 / pivot_row[col]
        pivot_row = {c: v * inv for c, v in pivot_row.items()}
        rank += 1
        nxt = []
        for row in rows:
            f = row.get(col)
            if f:
                row = dict(row)
                for c, v in pivot_row.items():
                    nv = row.get(c, 0) - f * v
                    if nv:
                        row[c] = nv
                    elif c in row:
                        del row[c]
            if row:
                nxt.append(row)
        rows = nxt
    return rank
