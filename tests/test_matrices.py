from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohemian.matrices import (
    BlockPartition,
    DomainError,
    IntMatrix,
    ParseError,
    ShapeError,
    SignedPermutation,
    TernaryMatrix,
    block_sums,
    entry_sum,
    exact_rank,
    identity,
    iter_signed_permutations,
    multiply,
    ones,
    parse_matrix,
    penrose_check,
    serialize_matrix,
    transform_inverse,
    unit,
    zeros,
)

from conftest import all_ternary, signed_permutations, ternary_matrices


def M(rows):
    return TernaryMatrix.from_rows(rows)


class TestConstruction:
    def test_entry_count_must_match(self):
        with pytest.raises(ShapeError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_dimensions_positive(self):
        with pytest.raises(ShapeError):
            IntMatrix(0, 2, ())

    def test_ternary_rejects_out_of_population(self):
        with pytest.raises(DomainError):
            TernaryMatrix(1, 2, (1, 2))

    def test_int_matrix_rejects_fractions(self):
        with pytest.raises(DomainError):
            IntMatrix(1, 1, (Fraction(1, 2),))

    def test_ragged_rows(self):
        with pytest.raises(ShapeError):
            TernaryMatrix.from_rows([[1, 0], [1]])

    def test_equality_across_subclass(self):
        assert IntMatrix(1, 2, (1, 0)) == TernaryMatrix(1, 2, (1, 0))
        assert hash(IntMatrix(1, 2, (1, 0))) == hash(TernaryMatrix(1, 2, (1, 0)))

    @pytest.mark.parametrize("bad", [1.0, "a", [1], None])
    def test_int_matrix_names_the_bad_entry(self, bad):
        with pytest.raises(DomainError) as err:
            IntMatrix(1, 3, (0, bad, 1))
        assert str(err.value) == f"entries must be integers, got {bad!r}"

    @pytest.mark.parametrize("bad", [1.0, "a", 2, [1], None])
    def test_ternary_matrix_names_the_bad_entry(self, bad):
        with pytest.raises(DomainError) as err:
            TernaryMatrix(1, 3, (0, bad, 1))
        assert str(err.value) == f"ternary entries must be -1, 0 or 1, got {bad!r}"

    def test_first_bad_entry_is_named(self):
        with pytest.raises(DomainError, match="got 'a'"):
            IntMatrix(1, 3, (1, "a", 2.5))
        with pytest.raises(DomainError, match="got 5"):
            TernaryMatrix(1, 3, (1, 5, 2.5))

    def test_bool_and_big_ints_accepted(self):
        big = 2**64 + 1
        assert IntMatrix(1, 3, (True, big, -big)).entries == (1, big, -big)
        assert TernaryMatrix(1, 2, (True, False)).entries == (1, 0)

    def test_entries_become_a_tuple(self):
        assert IntMatrix(1, 2, [3, 4]).entries == (3, 4)


class TestRank:
    def test_repeated_rows(self):
        assert exact_rank(M([[1, 1], [1, 1]])) == 1

    def test_worked_example(self):
        assert exact_rank(M([[1, 1, 0], [1, 0, 0]])) == 2

    def test_zero(self):
        assert exact_rank(zeros(2, 3)) == 0

    def test_identity(self):
        assert exact_rank(identity(3)) == 3

    @given(ternary_matrices())
    def test_transpose_invariant(self, a):
        assert exact_rank(a) == exact_rank(a.transpose())

    @given(ternary_matrices())
    def test_against_rational_elimination(self, a):
        # independent rank computation over exact rationals
        rows = [[Fraction(e) for e in r] for r in a.row_tuples()]
        rank = 0
        for col in range(a.cols):
            piv = next((r for r in range(rank, a.rows) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for r in range(rank + 1, a.rows):
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
        assert exact_rank(a) == rank

    def test_exhaustive_transpose_small(self):
        for m, n in product(range(1, 4), repeat=2):
            for a in all_ternary(m, n):
                assert exact_rank(a) == exact_rank(a.transpose())


class TestEntrySum:
    def test_examples(self):
        assert entry_sum(M([[1, -1], [1, 0]])) == 1
        assert entry_sum(ones(2, 3)) == 6
        assert entry_sum(M([[1, -1], [-1, 1]])) == 0


class TestBlockSums:
    def test_identity_split(self):
        part = BlockPartition.from_sizes([1, 1], [1, 1])
        assert block_sums(identity(2), part) == IntMatrix.from_rows([[1, 0], [0, 1]])

    def test_column_split(self):
        part = BlockPartition.from_sizes([1], [2, 1])
        assert block_sums(M([[1, -1, 0]]), part) == IntMatrix.from_rows([[0, 0]])

    def test_no_cuts(self):
        part = BlockPartition.from_sizes([2], [2])
        assert block_sums(M([[1, 1], [1, -1]]), part) == IntMatrix.from_rows([[2]])

    def test_incompatible_partition(self):
        with pytest.raises(ShapeError):
            block_sums(identity(2), BlockPartition.from_sizes([3], [2]))

    @given(ternary_matrices())
    def test_total_is_entry_sum(self, a):
        part = BlockPartition.from_sizes([1] * a.rows, [1] * a.cols)
        assert sum(block_sums(a, part).entries) == entry_sum(a)


class TestPenrose:
    def test_identity_scalar(self):
        rep = penrose_check(M([[1]]), M([[1]]))
        assert (rep.satisfies_1, rep.satisfies_2, rep.satisfies_3, rep.satisfies_4) == (
            True,
            True,
            True,
            True,
        )

    def test_all_ones_with_corner_unit(self):
        rep = penrose_check(ones(2, 2), unit(2, 2, 0, 0))
        assert (rep.satisfies_1, rep.satisfies_2, rep.satisfies_3, rep.satisfies_4) == (
            True,
            True,
            False,
            False,
        )

    def test_zero_matrix(self):
        rep = penrose_check(zeros(2, 2), unit(2, 2, 0, 0))
        assert (rep.satisfies_1, rep.satisfies_2, rep.satisfies_3, rep.satisfies_4) == (
            True,
            False,
            True,
            True,
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            penrose_check(ones(2, 3), ones(2, 3))

    def test_flags_match_defining_equations_small_shapes(self):
        # exhaustive cross-check against an index-by-index evaluation of the
        # defining equations, every shape up to 2 x 3
        def naive(a_rows, b_rows, m, k, n):
            return tuple(
                tuple(
                    sum(a_rows[i][t] * b_rows[t][j] for t in range(k))
                    for j in range(n)
                )
                for i in range(m)
            )

        for m, n in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3)]:
            for a in all_ternary(m, n):
                ar = a.row_tuples()
                for x in all_ternary(n, m):
                    xr = x.row_tuples()
                    rep = penrose_check(a, x)
                    axa = naive(naive(ar, xr, m, n, m), ar, m, m, n)
                    xax = naive(naive(xr, ar, n, m, n), xr, n, n, m)
                    assert rep.satisfies_1 == (axa == ar)
                    assert rep.satisfies_2 == (xax == xr)


class TestSignedPermutation:
    def test_validation(self):
        with pytest.raises(DomainError):
            SignedPermutation((0, 0), (1, 1))
        with pytest.raises(DomainError):
            SignedPermutation((0, 1), (1, 2))

    @given(st.data())
    def test_apply_matches_matrix_product(self, data):
        a = data.draw(ternary_matrices(max_rows=3, max_cols=3))
        u = data.draw(signed_permutations(a.rows))
        v = data.draw(signed_permutations(a.cols))
        assert u.apply_left(a) == multiply(u.to_matrix(), a)
        assert v.apply_right(a) == multiply(a, v.to_matrix())

    @given(st.data())
    def test_transpose_is_inverse(self, data):
        u = data.draw(signed_permutations(data.draw(st.integers(1, 5))))
        assert multiply(u.to_matrix(), u.transpose().to_matrix()) == identity(u.size)

    def test_enumeration_count(self):
        assert len(list(iter_signed_permutations(2))) == 8
        assert len(list(iter_signed_permutations(3))) == 48


class TestTransformInverse:
    def test_identity_transform(self):
        x = M([[1, 0], [0, -1]])
        u = SignedPermutation.identity(2)
        assert transform_inverse(x, u, u) == IntMatrix(2, 2, x.entries)

    def test_sign_flip_column(self):
        # A = [1, -1] becomes [1, 1] under V = diag(1, -1); the carried
        # inverse stays an inner inverse of the transformed matrix.
        a = M([[1, -1]])
        x = M([[1], [0]])
        u = SignedPermutation.identity(1)
        v = SignedPermutation((0, 1), (1, -1))
        uav = v.apply_right(u.apply_left(a))
        assert uav == IntMatrix.from_rows([[1, 1]])
        moved = transform_inverse(x, u, v)
        assert moved == IntMatrix.from_rows([[1], [0]])
        assert penrose_check(uav, moved).satisfies_1

    def test_single_sign_flip(self):
        x = M([[1]])
        u = SignedPermutation((0,), (-1,))
        v = SignedPermutation.identity(1)
        assert transform_inverse(x, u, v) == IntMatrix(1, 1, (-1,))

    @given(st.data())
    @settings(max_examples=200)
    def test_membership_preserved(self, data):
        a = data.draw(ternary_matrices(max_rows=3, max_cols=3))
        ent = data.draw(
            st.tuples(*[st.sampled_from((-1, 0, 1)) for _ in range(a.rows * a.cols)])
        )
        x = TernaryMatrix(a.cols, a.rows, ent)
        u = data.draw(signed_permutations(a.rows))
        v = data.draw(signed_permutations(a.cols))
        base = penrose_check(a, x)
        uav = v.apply_right(u.apply_left(a))
        moved = penrose_check(uav, transform_inverse(x, u, v))
        assert moved.satisfies_1 == base.satisfies_1
        assert moved.satisfies_2 == base.satisfies_2


class TestTextFormat:
    def test_parse_basic(self):
        text = "# comment\n1 -1 0\n\n0 0 1\n"
        assert parse_matrix(text) == M([[1, -1, 0], [0, 0, 1]])

    def test_serialize_canonical(self):
        assert serialize_matrix(M([[1, -1], [0, 1]])) == "1 -1\n0 1\n"

    def test_round_trip_byte_identical(self):
        text = "1 -1 0\n0 0 1\n"
        assert serialize_matrix(parse_matrix(text)) == text

    @given(ternary_matrices())
    def test_round_trip_any(self, a):
        assert parse_matrix(serialize_matrix(a)) == a

    def test_bad_entry_position(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1 0\n0 2\n")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_ragged_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1 0\n1\n")
        assert err.value.line == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_matrix("# nothing\n")


def _triple_loop(a, b):
    return [
        [sum(a.at(i, k) * b.at(k, j) for k in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


class TestMultiply:
    def test_matches_triple_loop_on_random_int_matrices(self):
        rng = random.Random(13)
        shapes = [(1, 1, 1), (1, 4, 1), (4, 1, 4), (1, 3, 5), (5, 3, 1), (2, 3, 4)]
        pools = [range(-9, 10), (-(2**70), 2**65 + 3, -1, 0, 7)]
        for (m, k, n), pool in product(shapes, pools):
            for _ in range(20):
                a = IntMatrix(m, k, tuple(rng.choice(pool) for _ in range(m * k)))
                b = IntMatrix(k, n, tuple(rng.choice(pool) for _ in range(k * n)))
                got = multiply(a, b)
                assert type(got) is IntMatrix
                assert got.shape == (m, n)
                assert got.to_lists() == _triple_loop(a, b)

    def test_shape_error_text(self):
        with pytest.raises(ShapeError, match="^cannot multiply 2x3 by 2x3$"):
            multiply(IntMatrix(2, 3, (0,) * 6), IntMatrix(2, 3, (0,) * 6))


class TestAllOnesProducts:
    def test_sandwich_collapses_to_entry_sum(self):
        for n, r in product(range(1, 4), repeat=2):
            for x in all_ternary(n, r):
                for m, s in ((1, 1), (2, 3), (3, 2)):
                    got = multiply(multiply(ones(m, n), x), ones(r, s))
                    assert got == IntMatrix(m, s, (entry_sum(x),) * (m * s))
