from __future__ import annotations

from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bohemian import counting as ct
from bohemian.matrices import DomainError


class TestCountSumT:
    def test_examples(self):
        assert ct.count_sum_t(2, 1) == 2
        assert ct.count_sum_t(2, 0) == 3
        assert ct.count_sum_t(3, 1) == 6
        assert ct.count_sum_t(1, 1) == 1

    def test_empty_vector(self):
        assert ct.count_sum_t(0, 0) == 1
        assert ct.count_sum_t(0, 1) == 0

    def test_out_of_range_sum(self):
        assert ct.count_sum_t(3, 4) == 0
        assert ct.count_sum_t(3, -4) == 0

    @given(st.integers(0, 40), st.integers(-45, 45))
    def test_sign_symmetry(self, n, t):
        assert ct.count_sum_t(n, t) == ct.count_sum_t(n, -t)

    @given(st.integers(0, 12))
    def test_total_is_power_of_three(self, n):
        assert sum(ct.count_sum_t(n, t) for t in range(-n, n + 1)) == 3**n

    def test_exhaustive_small(self):
        for n in range(0, 9):
            tally = {}
            for v in product((-1, 0, 1), repeat=n):
                tally[sum(v)] = tally.get(sum(v), 0) + 1
            for t in range(-n, n + 1):
                assert ct.count_sum_t(n, t) == tally.get(t, 0)

    def test_incremental_sum_matches_binomials(self):
        # each term is the previous one times a ratio of small integers
        for n in range(0, 61):
            for t in range(-3, 4):
                want = sum(
                    ct.binom(n, s) * ct.binom(n - s, s + abs(t)) for s in range(n + 1)
                )
                assert ct.count_sum_t(n, t) == want, (n, t)

    def test_big_values_are_exact_ints(self):
        v = ct.count_sum_t(60, 1)
        assert isinstance(v, int)
        assert v > 3**36


class TestFormulas:
    def test_inner_type_I(self):
        assert ct.inner_count_full_type_I(1, 1) == 1
        assert ct.inner_count_full_type_I(2, 2) == 16
        assert ct.inner_count_full_type_I(3, 3) == 2907

    def test_outer_type_I(self):
        assert ct.outer_count_full_type_I(2, 2) == 4
        assert ct.outer_count_full_type_I(1, 1) == 1
        assert ct.outer_count_full_type_I(2, 3) == 12
        assert ct.outer_count_full_type_I(2, 3, include_zero=True) == 13

    def test_natural_pop(self):
        assert ct.outer_count_natural_pop(2, 3, True) == 7
        assert ct.outer_count_natural_pop(1, 1, False) == 1
        assert ct.outer_count_natural_pop(2, 2, False) == 0

    def test_outer_type_III(self):
        assert ct.outer_count_full_type_III(1, 1, 1) == 3
        assert ct.outer_count_full_type_III(1, 1, 0) == 1
        assert ct.outer_count_full_type_III(2, 2, 1) == 12

    def test_outer_S4(self):
        assert ct.outer_count_S4(1, 1) == 9
        assert ct.outer_count_S4(2, 1) == 25

    def test_inner_pure_ws(self):
        assert ct.inner_count_pure_ws([(1, 1), (1, 1)]) == 1
        assert ct.inner_count_pure_ws([(1, 2), (1, 1)]) == 6
        assert ct.inner_count_pure_ws([(2, 3)]) == ct.inner_count_full_type_I(2, 3)

    def test_inner_pure_ws_validation(self):
        with pytest.raises(ValueError):
            ct.inner_count_pure_ws([])
        with pytest.raises(ValueError):
            ct.inner_count_pure_ws([(0, 1)])

    @pytest.mark.parametrize("fn, args", [
        (ct.inner_count_full_type_I, (0, 3)),
        (ct.outer_count_full_type_I, (2, 0)),
        (ct.outer_count_natural_pop, (0, 0, True)),
        (ct.outer_count_full_type_III, (1, 0, 2)),
        (ct.outer_count_full_type_III, (0, 1, 1)),
        (ct.outer_count_S4, (0, 0)),
        (ct.outer_count_S4, (1, 0)),
    ])
    def test_empty_matrix_shapes_raise(self, fn, args):
        # no matrix of the library has zero rows or columns
        with pytest.raises(DomainError, match="needs positive dimensions"):
            fn(*args)


class TestBinomialIdentity:
    def test_smallest(self):
        assert ct.binomial_identity_check(1, 1, 1) == (2, 2, True)

    def test_known_values(self):
        chk = ct.binomial_identity_check(2, 1, 1)
        assert chk.lhs == 16 and chk.equal
        chk = ct.binomial_identity_check(1, 2, 1)
        assert chk.lhs == 6 and chk.equal

    def test_lhs_matches_count_formula(self):
        for m, n1, n2 in product(range(1, 4), repeat=3):
            chk = ct.binomial_identity_check(m, n1, n2)
            assert chk.lhs == ct.count_sum_t((n1 + n2) * m, 1)

    def test_skewed_shape_at_the_limit_reads_a_bounded_number_of_binomials(
        self, monkeypatch
    ):
        # 1,101 + 2 * 2 * 2,201 terms pass the guard; each term reads at most
        # four binomials, however skewed the blocks are
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return comb(a, b)

        monkeypatch.setattr(ct, "comb", counted)
        chk = ct.binomial_identity_check(1, 2200, 1)
        assert chk.equal and chk.lhs == ct.count_sum_t(2201, 1)
        assert len(calls) <= 2 * 1101 + 4 * 2 * 2 * 2201

    def test_diagonals_are_the_binomials_they_replace(self):
        # the recurrence along each diagonal, started at its first
        # in-range entry, against one binomial per entry
        for w1 in range(9):
            for d in range(-11, 11):
                want = [ct.binom(w1 - s1, d + s1 + 1) for s1 in range(w1 + 1)]
                assert ct._tail(w1, d) == want, (w1, d)

    def test_long_single_block_reads_a_binomial_per_diagonal(self, monkeypatch):
        # 3,333 + 1 + 6,666 terms pass the guard; the sums of thousand-bit
        # binomials are taken by recurrences, not one binomial per term
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return comb(a, b)

        monkeypatch.setattr(ct, "comb", counted)
        chk = ct.binomial_identity_check(1, 6665, 0)
        assert chk.equal
        assert len(calls) <= 4


class TestReports:
    def test_registry_evaluation(self):
        rep = ct.evaluate_formula("outer_type_I", m=2, n=2, include_zero=False)
        assert rep.value == 4
        assert rep.method == "closed_form"
        assert rep.parameters == {
            "m": 2,
            "n": 2,
            "include_zero": False,
        }

    def test_unknown_formula(self):
        with pytest.raises(KeyError):
            ct.evaluate_formula("nope")

    def test_csv_row(self):
        rep = ct.CardinalityReport(7, "natural_pop", {"m": 2, "n": 3})
        assert rep.csv_row() == "natural_pop,m=2 n=3,7,closed_form"
        # RFC 4180: a field with a comma or a double quote is quoted, and
        # its inner quotes doubled
        rep = ct.CardinalityReport(1, "x", {"s": 'a"b,c'})
        assert rep.csv_row() == 'x,"s=a""b,c",1,closed_form'

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ct.CardinalityReport(-1, "x", {})
