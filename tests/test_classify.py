from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given

from bohemian.classify import (
    TYPE_I,
    TYPE_II,
    TYPE_III,
    TYPE_IV,
    FullForm,
    class_membership,
    full_form,
    gws_detect,
    rank_one_factorize,
    uw_decompose,
)
from bohemian.matrices import (
    DomainError,
    IntMatrix,
    TernaryMatrix,
    exact_rank,
    identity,
    ones,
    zeros,
)

from conftest import all_ternary, rank_one_matrices

M = TernaryMatrix.from_rows


class TestFullForm:
    def test_all_ones(self):
        assert full_form(ones(2, 3)) == FullForm(TYPE_I, 1, (3, 0, 0))

    def test_two_block(self):
        assert full_form(M([[1, -1], [1, -1]])) == FullForm(TYPE_II, 1, (1, 1, 0))

    def test_ones_then_zero(self):
        assert full_form(M([[1, 0], [1, 0]])) == FullForm(TYPE_III, 1, (1, 0, 1))

    def test_negative_leading_block(self):
        assert full_form(M([[-1, 1, 0]])) == FullForm(TYPE_IV, -1, (1, 1, 1))

    def test_zero_matrix_is_not_full(self):
        assert full_form(zeros(2, 2)) is None

    def test_non_constant_rows(self):
        assert full_form(M([[1, 1], [1, -1]])) is None

    def test_wrong_block_order(self):
        assert full_form(M([[1, 0, 1]])) is None
        assert full_form(M([[0, 1]])) is None

    def test_round_trip_all_legal_forms(self):
        kinds = {
            TYPE_I: [(n1, 0, 0) for n1 in range(1, 4)],
            TYPE_II: [(a, b, 0) for a in range(1, 4) for b in range(1, 4)],
            TYPE_III: [(a, 0, c) for a in range(1, 4) for c in range(1, 4)],
            TYPE_IV: [
                (a, b, c)
                for a in range(1, 4)
                for b in range(1, 4)
                for c in range(1, 4)
            ],
        }
        for kind, width_list in kinds.items():
            for widths in width_list:
                for sign in (1, -1):
                    for m in range(1, 5):
                        form = FullForm(kind, sign, widths)
                        assert full_form(form.materialize(m)) == form

    def test_only_legal_rows_are_full(self):
        # every ternary row of up to 6 entries is detected exactly when it
        # is sign ones, then opposite ones, then zeros, in that order
        for n in range(1, 7):
            legal = {}
            for n1 in range(1, n + 1):
                for n2 in range(n - n1 + 1):
                    n3 = n - n1 - n2
                    kind = [[TYPE_I, TYPE_III], [TYPE_II, TYPE_IV]][n2 > 0][n3 > 0]
                    for sign in (1, -1):
                        form = FullForm(kind, sign, (n1, n2, n3))
                        legal[form.materialize(1).row_tuples()[0]] = form
            for row in product((-1, 0, 1), repeat=n):
                for m in (1, 2):
                    assert full_form(M([row] * m)) == legal.get(row), (row, m)


class TestRankOneFactorize:
    def test_worked_four_by_four(self):
        a = M([[1, -1, 0, 1], [-1, 1, 0, -1], [1, -1, 0, 1], [0, 0, 0, 0]])
        f = rank_one_factorize(a)
        assert f.d1 == (1, -1, 1, 1)
        assert f.zero_row_count == 1
        assert f.core == M([[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 0]])
        assert f.core_form.kind == TYPE_III
        assert f.reassemble() == a

    def test_negative_scalar(self):
        f = rank_one_factorize(M([[-1]]))
        assert f.p1 == (0,) and f.p2 == (0,)
        assert f.d1 == (-1,) and f.d2 == (1,)
        assert f.core == M([[1]])

    def test_column_swap(self):
        a = M([[0, 1], [0, -1]])
        f = rank_one_factorize(a)
        assert f.core == M([[1, 0], [1, 0]])
        assert f.d1 == (1, -1)
        assert f.reassemble() == a

    def test_requires_rank_one(self):
        with pytest.raises(DomainError):
            rank_one_factorize(identity(2))
        with pytest.raises(DomainError):
            rank_one_factorize(zeros(1, 1))

    @given(rank_one_matrices(max_rows=4, max_cols=5))
    def test_round_trip_random(self, a):
        f = rank_one_factorize(a)
        assert f.reassemble() == a
        assert f.u_factor().apply_left(f.v_factor().apply_right(f.core)) == a

    def test_core_is_canonical(self):
        for a in all_ternary(2, 3):
            if exact_rank(a) != 1:
                continue
            f = rank_one_factorize(a)
            core_rows = f.core.row_tuples()
            support = f.core_form.widths[0]
            for i, row in enumerate(core_rows):
                if i < a.rows - f.zero_row_count:
                    assert row == (1,) * support + (0,) * (a.cols - support)
                else:
                    assert row == (0,) * a.cols


class TestGws:
    def test_two_block_example(self):
        a = M([[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1]])
        dec = gws_detect(a)
        assert dec is not None
        assert len(dec.blocks) == 2
        assert not class_membership(a).is_well_settled

    def test_dense_class_two_matrix_is_not_gws(self):
        assert gws_detect(M([[1, 1, 1], [1, -1, -1], [1, -1, -1]])) is None

    def test_identity(self):
        dec = gws_detect(identity(2))
        assert dec is not None and len(dec.blocks) == 2
        assert class_membership(identity(2)).is_well_settled

    def test_all_ones_is_ws(self):
        assert class_membership(ones(3, 2)).is_well_settled

    def test_zero_rows_break_ws_but_not_gws(self):
        a = M([[1, 0], [0, 1], [0, 0]])
        assert gws_detect(a) is not None
        assert not class_membership(a).is_well_settled

    def test_zero_column_does_not_break_ws(self):
        assert class_membership(M([[1, 0]])).is_well_settled

    def test_detection_matches_definition_exhaustive_small(self):
        # None exactly when two nonzero rows meet in a column without being
        # +- equal, which forces a block of rank >= 2; otherwise one rank-one
        # block per independent direction
        shapes = [(m, n) for m in range(1, 4) for n in range(1, 4)] + [(2, 4), (4, 2)]
        for m, n in shapes:
            for a in all_ternary(m, n):
                rows = [r for r in a.row_tuples() if any(r)]
                clash = any(
                    any(x and y for x, y in zip(v, w))
                    and v != w and v != tuple(-e for e in w)
                    for i, v in enumerate(rows)
                    for w in rows[i + 1:]
                )
                dec = gws_detect(a)
                assert (dec is None) == clash, a
                if dec is not None:
                    assert len(dec.blocks) == exact_rank(a)

    def test_block_structure_exhaustive_small(self):
        for m, n in [(2, 2), (2, 3), (3, 2)]:
            for a in all_ternary(m, n):
                dec = gws_detect(a)
                if dec is None:
                    continue
                permuted = [[a.at(r, c) for c in dec.col_perm] for r in dec.row_perm]
                # every listed block is rank one and sits on the diagonal
                covered = set()
                for b in dec.blocks:
                    r0, r1 = b.row_span
                    c0, c1 = b.col_span
                    assert exact_rank(b.matrix) == 1
                    for r in range(r0, r1):
                        for c in range(c0, c1):
                            covered.add((r, c))
                            assert permuted[r][c] == b.matrix.at(r - r0, c - c0)
                for r in range(m):
                    for c in range(n):
                        if (r, c) not in covered:
                            assert permuted[r][c] == 0


class TestClassMembership:
    def test_dense_class_two(self):
        rep = class_membership(M([[1, 1, 1], [1, -1, -1], [1, -1, -1]]))
        assert rep.is_class_II and not rep.is_class_III and not rep.is_class_I
        assert rep.rank == 2
        total = [[0] * 3 for _ in range(3)]
        for u, v in rep.terms:
            for i in range(3):
                for j in range(3):
                    total[i][j] += u[i] * v[j]
        assert M(total) == M([[1, 1, 1], [1, -1, -1], [1, -1, -1]])

    def test_orthogonal_pair(self):
        rep = class_membership(M([[1, 1], [1, -1]]))
        assert rep.is_class_III and not rep.is_class_I
        assert rep.s_structure == "S1"

    def test_identity_class_one(self):
        rep = class_membership(identity(2))
        assert rep.is_class_I
        assert rep.s_structure == "S4"

    def test_column_wise_flag(self):
        # rows do not group, columns do
        a = M([[1, 1], [1, -1], [0, 1]]).transpose()
        rep = class_membership(a)
        assert rep.is_class_II_columnwise or rep.is_class_II

    def test_inclusion_chain_and_gws_equivalence(self):
        # every shape up to 3 x 4
        for m in range(1, 4):
            for n in range(1, 5):
                for a in all_ternary(m, n):
                    rep = class_membership(a)
                    assert rep.rank == exact_rank(a)
                    if rep.is_class_I:
                        assert rep.is_class_III
                    if rep.is_class_III:
                        assert rep.is_class_II
                    assert rep.is_generalized_well_settled == rep.is_class_I
                    if rep.is_well_settled:
                        assert rep.is_generalized_well_settled

    def test_terms_reassemble_exhaustive(self):
        for a in all_ternary(2, 3):
            rep = class_membership(a)
            if not rep.terms:
                continue
            total = [[0] * 3 for _ in range(2)]
            for u, v in rep.terms:
                for i in range(2):
                    for j in range(3):
                        total[i][j] += u[i] * v[j]
            assert IntMatrix.from_rows(total).entries == a.entries
            # u supports are pairwise disjoint
            for i in range(2):
                assert sum(1 for u, _ in rep.terms if u[i] != 0) <= 1

    def test_report_json_fields(self):
        data = class_membership(identity(2)).to_json()
        for key in (
            "rank",
            "full_form",
            "is_rank_one",
            "is_well_settled",
            "is_generalized_well_settled",
            "is_class_I",
            "is_class_II",
            "is_class_III",
            "terms",
            "s_structure",
        ):
            assert key in data


class TestStructures:
    def test_s1(self):
        assert class_membership(M([[1, 1], [1, -1]])).s_structure == "S1"

    def test_s2(self):
        assert class_membership(M([[1, 1, 1], [1, -1, 0]])).s_structure == "S2"

    def test_s3(self):
        assert class_membership(M([[1, 1, 1, 0], [1, -1, 0, 1]])).s_structure == "S3"

    def test_s4(self):
        assert class_membership(identity(2)).s_structure == "S4"

    def test_rank_mismatch_returns_none(self):
        assert class_membership(ones(2, 2)).s_structure is None

    def test_non_class3_rejected(self):
        assert class_membership(M([[1, 1, 1], [1, -1, -1]])).s_structure is None

    def test_shared_zero_column_matches_nothing(self):
        assert class_membership(M([[1, 0, 0], [0, 1, 0]])).s_structure is None

    def test_detection_is_sign_and_permutation_blind(self):
        a = M([[1, -1], [-1, -1]])  # signed/permuted version of the S1 layout
        if class_membership(a).is_class_III:
            assert class_membership(a).s_structure in {"S1", "S2", "S3", "S4"}


class TestUwDecompose:
    def test_sign_collapse(self):
        d = uw_decompose(M([[1, 1], [-1, -1]]))
        assert d.w == ones(2, 2)
        assert d.u.signs == (1, -1)
        assert d.u.apply_left(d.w) == M([[1, 1], [-1, -1]])

    def test_already_constant(self):
        a = M([[1, 1], [1, -1]])
        d = uw_decompose(a)
        assert d.w == a
        assert d.u.to_matrix() == identity(2)

    def test_zero_row_goes_to_trailing_block(self):
        a = M([[1, -1], [0, 0], [1, 1]])
        d = uw_decompose(a)
        assert d.row_block_sizes == (1, 1, 1)
        assert d.w.row(2) == (0, 0)
        assert d.u.apply_left(d.w) == a

    def test_requires_class_two(self):
        # rank 2 but three distinct row classes
        with pytest.raises(DomainError):
            uw_decompose(M([[1, 1], [1, 0], [0, 1]]))

    def test_blocks_constant_rows_exhaustive_small(self):
        for a in all_ternary(3, 2):
            rep = class_membership(a)
            if not rep.is_class_II:
                continue
            d = uw_decompose(a)
            assert d.u.apply_left(d.w) == IntMatrix(a.rows, a.cols, a.entries)
            pos = 0
            for size in d.row_block_sizes:
                rows = [d.w.row(i) for i in range(pos, pos + size)]
                assert all(r == rows[0] for r in rows)
                pos += size
