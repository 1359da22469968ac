"""Exact arithmetic the benchmark does on its own, independent of the
package it measures: naive matrix products, rank over the rationals, and
the closed-form count of ternary vectors with a given sum."""

from __future__ import annotations

from fractions import Fraction
from math import comb

Rows = tuple[tuple[int, ...], ...]


def mul(p: Rows, q: Rows) -> Rows:
    """The product p @ q: each entry is a row of p dotted with a column of q."""
    cols = tuple(zip(*q))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in p
    )


def rank(rows: Rows) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    m = [[Fraction(e) for e in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def count_sum_t(n: int, t: int) -> int:
    """Ternary vectors of length n with entry sum t: choose s entries -1 and
    s + |t| entries +1."""
    t = abs(t)
    return sum(comb(n, s) * comb(n - s, s + t) for s in range(n + 1) if n - s >= s + t)
