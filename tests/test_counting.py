from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bohemian import counting as ct


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


class TestReports:
    def test_registry_evaluation(self):
        rep = ct.evaluate_formula("outer_type_I", m=2, n=2, include_zero=False)
        assert rep.value == 4
        assert rep.method == "closed_form"
        assert rep.to_json()["parameters"] == {
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

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ct.CardinalityReport(-1, "x", {})
