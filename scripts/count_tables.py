#!/usr/bin/env python3
"""Emit CSV tables of the closed-form counts over small parameter grids,
optionally cross-checked against the brute-force census."""

from __future__ import annotations

import argparse

from bohemian import census as cs
from bohemian import counting as ct
from bohemian.matrices import TernaryMatrix, ones


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-cells", type=int, default=16,
                    help="census cell budget for the cross-check column")
    ap.add_argument("--no-census", action="store_true",
                    help="skip the census column (formulas only)")
    args = ap.parse_args()

    print("formula_id,params,value,method,census")

    def census_or_blank(a, spec, rank=None):
        cells = a.rows * a.cols
        if args.no_census or cells > args.max_cells:
            return ""
        return str(cs.brute_force_inverses(
            a, spec, rank_filter=rank, cell_budget=cells, count_only=True
        ).count)

    for n in range(0, 13):
        for t in (0, 1):
            rep = ct.evaluate_formula("count_sum_t", n=n, t=t)
            print(f"{rep.csv_row()},")

    inner_grid = [(m, n) for m in range(1, 10) for n in range(1, 10) if m * n <= 9]
    inner_grid += [
        (m, n) for m in range(1, 17) for n in range(1, 17) if 9 < m * n <= 16
    ]
    for m, n in inner_grid:
        rep = ct.evaluate_formula("inner_type_I", m=m, n=n)
        print(f"{rep.csv_row()},{census_or_blank(ones(m, n), '1')}")

    outer_grid = [(m, n) for m in range(1, 4) for n in range(1, 4)]
    outer_grid += [
        (m, n) for m in range(1, 17) for n in range(1, 17) if 9 < m * n <= 16
    ]
    # each outer A is rank one, so its nonzero outer inverses have rank 1
    for m, n in outer_grid:
        rep = ct.evaluate_formula("outer_type_I", m=m, n=n, include_zero=False)
        print(f"{rep.csv_row()},{census_or_blank(ones(m, n), '2', rank=1)}")

    zeros_grid = [
        (m, n1, n2) for m in range(1, 3) for n1 in range(1, 4) for n2 in range(0, 3)
    ]
    zeros_grid += [
        (m, n1, n2)
        for m in range(1, 5) for n1 in range(1, 16) for n2 in range(1, 3)
        if 10 < m * (n1 + n2) <= 16
    ]
    for m, n1, n2 in zeros_grid:
        rep = ct.evaluate_formula(
            "outer_type_III", m=m, n1=n1, n2=n2, include_zero=False
        )
        a = TernaryMatrix.from_rows([(1,) * n1 + (0,) * n2] * m)
        print(f"{rep.csv_row()},{census_or_blank(a, '2', rank=1)}")

    for n1 in range(1, 5):
        for n2 in range(1, 5):
            rep = ct.evaluate_formula("outer_S4", n1=n1, n2=n2)
            print(f"{rep.csv_row()},")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
