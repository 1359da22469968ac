"""Acceptance suite: one test per exit criterion.

Each test prints a single pass/fail line (visible under ``pytest -s`` or in
the captured output section); the assertions themselves carry the exact
expected values, all integer-exact, no tolerances anywhere.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from bohemian import census as cs
from bohemian import classify as cl
from bohemian import counting as ct
from bohemian import families as fam
from bohemian import verify as vf
from bohemian.matrices import (
    IntMatrix,
    TernaryMatrix,
    exact_rank,
    identity,
    iter_signed_permutations,
    ones,
    penrose_check,
    transform_inverse,
)

from conftest import all_ternary, rational_inner_holds

M = TernaryMatrix.from_rows
F = Fraction


@contextmanager
def criterion(number: int, name: str, limit: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:>2} FAIL {name}")
        raise
    elapsed = time.monotonic() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, limit {limit}s"
    print(f"CRITERION {number:>2} PASS {name} ({elapsed:.1f}s)")


def oracle(a, spec, **kw):
    kw.setdefault("cell_budget", a.rows * a.cols)
    return cs.brute_force_inverses(a, spec, **kw)


def oracle_nonzero(a, spec, **kw):
    res = oracle(a, spec, **kw)
    kept = tuple(filter(any, res.matrices))
    return cs.EnumerationResult(res.shape, kept, len(kept))


def type_ii(m, n1, n2, sign=1):
    return TernaryMatrix.from_rows([(sign,) * n1 + (-sign,) * n2] * m)


def test_criterion_1_sum_count_formula():
    with criterion(1, "sum-count formula vs exhaustive vectors, n <= 12", 10.0):
        for n in range(0, 13):
            tally: dict[int, int] = {}
            for v in product((-1, 0, 1), repeat=n):
                s = sum(v)
                tally[s] = tally.get(s, 0) + 1
            for t in range(-n, n + 1):
                assert ct.count_sum_t(n, t) == tally.get(t, 0)
            assert ct.count_sum_t(n, n + 1) == 0


def test_criterion_2_inner_count_type_I():
    with criterion(2, "all-ones inner counts vs census, mn <= 9", 30.0):
        assert ct.inner_count_full_type_I(2, 2) == 16
        assert ct.inner_count_full_type_I(3, 3) == 2907
        for m in range(1, 10):
            for n in range(1, 10):
                if m * n > 9:
                    continue
                got = oracle(ones(m, n), "1", count_only=True).count
                assert ct.inner_count_full_type_I(m, n) == got, (m, n)


def test_criterion_3_outer_counts():
    with criterion(3, "outer count formulas vs census", 60.0):
        # ternary population, all-ones matrices
        assert ct.outer_count_full_type_I(2, 2) == 4
        for m, n in product(range(1, 4), repeat=2):
            got = oracle_nonzero(ones(m, n), "2").count
            assert ct.outer_count_full_type_I(m, n) == got, (m, n)
        # ones-and-zeros matrices
        assert ct.outer_count_full_type_III(1, 1, 1) == 3
        for m in range(1, 4):
            for n1 in range(1, 8):
                for n2 in range(0, 8):
                    if m * (n1 + n2) > 8 or (n1 + n2) < 1:
                        continue
                    a = TernaryMatrix.from_rows([(1,) * n1 + (0,) * n2] * m)
                    got = oracle_nonzero(a, "2").count
                    assert ct.outer_count_full_type_III(m, n1, n2) == got, (m, n1, n2)
        # natural populations
        assert ct.outer_count_natural_pop(2, 3, True) == 7
        assert ct.outer_count_natural_pop(1, 1, False) == 1
        for m, n in product(range(1, 4), repeat=2):
            with_zero = cs.brute_force_inverses(
                ones(m, n), "2", population=cs.Population((0, 1)), count_only=True
            ).count
            assert ct.outer_count_natural_pop(m, n, True) == with_zero, (m, n)
        for m, n in product(range(1, 3), repeat=2):
            without = cs.brute_force_inverses(
                ones(m, n), "2", population=cs.Population((1,)), count_only=True
            ).count
            assert ct.outer_count_natural_pop(m, n, False) == without, (m, n)


def test_criterion_4_characterization_equality():
    with criterion(4, "family materializations equal census sets", 120.0):
        # two-block sign matrices, both signs
        for m in range(1, 5):
            for n1 in range(1, 8):
                for n2 in range(1, 8):
                    if m * (n1 + n2) > 8:
                        continue
                    for sign in (1, -1):
                        family = cs.materialize_family(
                            fam.inner_full_type_II(m, n1, n2, sign)
                        )
                        orc = oracle(type_ii(m, n1, n2, sign), "1")
                        assert cs.set_equal(family, orc).equal, (m, n1, n2, sign)

        # balanced two-row stack: half-integer system, empty over ternary
        s1 = cs.materialize_family(fam.inner_S1(1, 1, 1))
        s1_oracle = oracle(M([[1, 1], [1, -1]]), "1")
        assert s1.count == 0 and s1_oracle.count == 0

        # ones over plus/minus/zero
        s2 = cs.materialize_family(fam.inner_S2(1, 1, 1, 1))
        assert cs.set_equal(s2, oracle(M([[1, 1, 1], [1, -1, 0]]), "1")).equal

        # four-block two-row stack, full 3^8 census
        s3 = cs.materialize_family(fam.inner_S3(1, 1, (1, 1, 1, 1)))
        assert cs.set_equal(
            s3, oracle(M([[1, 1, 1, 0], [1, -1, 0, 1]]), "1")
        ).equal

        # star-graph incidence transpose: exactly the sixteen 0/1-labelled members
        star = [
            (1, -1, 0, 0, 0),
            (1, 0, -1, 0, 0),
            (1, 0, 0, 0, -1),
            (1, 0, 0, -1, 0),
        ]
        refl = cs.materialize_family(
            fam.reflexive_full_row_rank(star)
        )
        expected = set()
        for a_, b_, c_, d_ in product((0, 1), repeat=4):
            expected.add(
                (
                    a_, b_, c_, d_,
                    a_ - 1, b_, c_, d_,
                    a_, b_ - 1, c_, d_,
                    a_, b_, c_, d_ - 1,
                    a_, b_, c_ - 1, d_,
                )
            )
        assert {m.entries for m in refl} == expected

        # final worked example: nine members, equal to the census
        a = M([[1, 1, 0], [1, 0, 0]])
        refl2 = cs.materialize_family(
            fam.reflexive_full_row_rank(a.row_tuples())
        )
        assert refl2.count == 9
        assert cs.set_equal(refl2, oracle(a, "1")).equal
        assert cs.set_equal(refl2, oracle(a, "12")).equal


EX410_BLOCKS = (
    M([[1, 1, 1, 1]]),
    M([[1, 1, -1, -1]]),
    M([[1, -1, 0, 0]]),
)
EX410_STACK = M([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 0, 0]])


def _ex410_conditions(x) -> bool:
    """The worked rank-three condition list, for the all-widths-one case."""
    g = lambda r, c: F(x[r][c])
    return (
        g(0, 0) == g(1, 0) == F(1, 4)
        and g(2, 0) + g(3, 0) == F(1, 2)
        and g(0, 1) == g(1, 1) == F(1, 4)
        and g(2, 1) + g(3, 1) == F(-1, 2)
        and g(0, 2) == F(1, 2)
        and g(1, 2) == F(-1, 2)
        and g(2, 2) + g(3, 2) == 0
    )


def test_criterion_5_membership_equivalence():
    with criterion(5, "stacked-blocks membership equals the defining equation"):
        # 2 x 4 instance, every ternary candidate; members also satisfy the
        # blockwise necessary condition
        blocks = (M([[1, 1, 1, 0]]), M([[1, -1, 0, 1]]))
        stack = M([[1, 1, 1, 0], [1, -1, 0, 1]])
        for ent in product((-1, 0, 1), repeat=8):
            x = IntMatrix(4, 2, ent)
            is_inner = penrose_check(stack, x).satisfies_1
            assert fam.class3_inner_membership(blocks, x) == is_inner
            if is_inner:
                assert fam.class3_inner_necessary(blocks, x)

        # 3 x 4 instance, every ternary candidate (3^12 of them)
        for ent in product((-1, 0, 1), repeat=12):
            x = IntMatrix(4, 3, ent)
            is_inner = penrose_check(EX410_STACK, x).satisfies_1
            assert fam.class3_inner_membership(EX410_BLOCKS, x) == is_inner
            if is_inner:
                assert fam.class3_inner_necessary(EX410_BLOCKS, x)

        # the worked rank-three condition list is reproduced exactly
        for s1, s2, s3 in product((F(0), F(1, 2), F(-1, 4)), repeat=3):
            member = (
                (F(1, 4), F(1, 4), F(1, 2)),
                (F(1, 4), F(1, 4), F(-1, 2)),
                (s1, s2, s3),
                (F(1, 2) - s1, F(-1, 2) - s2, -s3),
            )
            assert _ex410_conditions(member)
            assert fam.class3_inner_membership(EX410_BLOCKS, member)
            assert rational_inner_holds(EX410_STACK.row_tuples(), member)
            broken = tuple(
                tuple(e + (1 if (r, c) == (0, 0) else 0) for c, e in enumerate(row))
                for r, row in enumerate(member)
            )
            assert not _ex410_conditions(broken)
            assert not fam.class3_inner_membership(EX410_BLOCKS, broken)
        # assorted rational candidates agree with the condition list
        vals = (F(0), F(1, 4), F(-1, 4), F(1, 2), F(1))
        for seed in range(200):
            x = [[vals[(seed * 7 + r * 5 + c * 3) % len(vals)] for c in range(3)] for r in range(4)]
            assert fam.class3_inner_membership(EX410_BLOCKS, x) == _ex410_conditions(x)


def test_criterion_6_factorization_round_trips():
    with criterion(6, "rank-one and constant-row-block round trips, <= 3x3"):
        for m, n in product(range(1, 4), repeat=2):
            for a in all_ternary(m, n):
                rank = exact_rank(a)
                if rank == 1:
                    f = cl.rank_one_factorize(a)
                    assert f.reassemble() == a
                rep_terms = cl._class_terms(a, rank)
                if rep_terms is not None:
                    d = cl.uw_decompose(a)
                    assert d.u.apply_left(d.w) == IntMatrix(m, n, a.entries)
                    pos = 0
                    for size in d.row_block_sizes:
                        rows = [d.w.row(i) for i in range(pos, pos + size)]
                        assert all(r == rows[0] for r in rows)
                        pos += size


def test_criterion_7_transform_invariance_and_count_equalities():
    with criterion(7, "signed-permutation invariance and count equality claims"):
        # exhaustive pairs for the small shapes, all transforms
        for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            us = list(iter_signed_permutations(m))
            vs = list(iter_signed_permutations(n))
            for a in all_ternary(m, n):
                for x in all_ternary(n, m):
                    base = penrose_check(a, x)
                    for u in us:
                        ua = u.apply_left(a)
                        for v in vs:
                            uav = v.apply_right(ua)
                            moved = penrose_check(uav, transform_inverse(x, u, v))
                            assert moved.satisfies_1 == base.satisfies_1
                            assert moved.satisfies_2 == base.satisfies_2

        # larger shapes: all transforms against a deterministic pair sample
        for m, n in [(1, 3), (2, 3)]:
            us = list(iter_signed_permutations(m))
            vs = list(iter_signed_permutations(n))
            a_all = list(all_ternary(m, n))
            x_all = list(all_ternary(n, m))
            pairs = [
                (a_all[(13 * k) % len(a_all)], x_all[(29 * k) % len(x_all)])
                for k in range(40)
            ]
            for a, x in pairs:
                base = penrose_check(a, x)
                for u in us:
                    ua = u.apply_left(a)
                    for v in vs:
                        uav = v.apply_right(ua)
                        moved = penrose_check(uav, transform_inverse(x, u, v))
                        assert moved.satisfies_1 == base.satisfies_1
                        assert moved.satisfies_2 == base.satisfies_2

        # equal counts for the all-ones matrix and its sign-split variants
        for m in range(1, 5):
            for n1 in range(1, 8):
                for n2 in range(1, 8):
                    if m * (n1 + n2) > 8:
                        continue
                    base = oracle(ones(m, n1 + n2), "1", count_only=True).count
                    split = oracle(type_ii(m, n1, n2), "1", count_only=True).count
                    assert base == split, (m, n1, n2)

        # rank-one pairs with matching zero-row and zero-column counts
        pairs = [
            (((1, 1), (1, 1)), ((1, -1), (-1, 1))),
            (((1, 1), (0, 0)), ((-1, 1), (0, 0))),
            (((1, 0), (1, 0), (0, 0)), ((0, 1), (0, -1), (0, 0))),
            (((1, 1, 0),), ((0, 1, -1),)),
        ]
        for rows_a, rows_b in pairs:
            ca = oracle(M(rows_a), "1", count_only=True).count
            cb = oracle(M(rows_b), "1", count_only=True).count
            assert ca == cb, (rows_a, rows_b)

        # block-diagonal sign and split variants, plus a generalized block
        variants = {
            "pure": ((1, 1, 0), (1, 1, 0), (0, 0, 1)),
            "split": ((1, -1, 0), (1, -1, 0), (0, 0, 1)),
            "mixed": ((1, 1, 0), (1, 1, 0), (0, 0, -1)),
            "gws": ((1, -1, 0), (-1, 1, 0), (0, 0, 1)),
        }
        counts = {
            name: oracle(M(rows), "1", count_only=True).count
            for name, rows in variants.items()
        }
        assert len(set(counts.values())) == 1, counts

        small = {
            "pure": ((1, 1, 0), (0, 0, 1)),
            "split": ((1, -1, 0), (0, 0, 1)),
            "gws": ((-1, 1, 0), (0, 0, -1)),
        }
        small_counts = {
            name: oracle(M(rows), "1", count_only=True).count
            for name, rows in small.items()
        }
        assert len(set(small_counts.values())) == 1, small_counts


def test_criterion_8_binomial_identity():
    with criterion(8, "two-block counting identity, m <= 4, n1,n2 <= 4", 1.0):
        cases = 0
        for m in range(1, 5):
            for n1 in range(1, 5):
                for n2 in range(1, 5):
                    chk = ct.binomial_identity_check(m, n1, n2)
                    assert chk.equal, (m, n1, n2, chk)
                    cases += 1
        assert cases >= 25


def test_criterion_9_documented_gap_reproduction():
    with criterion(9, "column-scaled gap reproduced and reported"):
        assert ct.outer_count_S4(1, 1) == 9

        lam = cs.materialize_family(fam.outer_rank1_full_row_rank([(1, 0), (0, 1)]))
        assert lam.count == 7

        orc = cs.brute_force_inverses(identity(2), "2", rank_filter=1)
        assert orc.count == 10

        diff = cs.set_equal(lam, orc)
        assert not diff.only_in_a and len(diff.only_in_b) == 3
        assert all(all(row[0] == 0 for row in m.to_lists()) for m in diff.only_in_b)

        outcomes, ok_with = vf.run_verify("outer", 8, allow_known_gaps=True)
        _, ok_without = vf.run_verify("outer", 8, allow_known_gaps=False)
        assert ok_with and not ok_without
        records = [
            d
            for o in outcomes
            for d in o.discrepancies
            if d.theorem_id == "Thm5.19"
        ]
        assert len(records) == 1
        record = records[0]
        assert record.known_gap
        assert record.family_count == 9 and record.oracle_count == 12
        assert record.diff_sample
        for rows in record.diff_sample:
            assert all(row[0] == 0 for row in rows)


def test_criterion_10_full_verify_deterministic():
    with criterion(10, "verify all suites at budget 9, twice", 300.0):
        first, ok1 = vf.run_verify("all", 9, allow_known_gaps=True)
        second, ok2 = vf.run_verify("all", 9, allow_known_gaps=True)
        assert ok1 and ok2
        payload1 = json.dumps([o.to_json() for o in first], sort_keys=True)
        payload2 = json.dumps([o.to_json() for o in second], sort_keys=True)
        assert payload1 == payload2
        for outcome in first:
            assert outcome.cases_passed <= outcome.cases_run
            assert bool(outcome.discrepancies) == (
                outcome.cases_passed < outcome.cases_run
            )
