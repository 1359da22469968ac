from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from bohemian import census as cs
from bohemian import families as fam
from bohemian.classify import TYPE_I, TYPE_II, TYPE_III, TYPE_IV, FullForm, full_form
from bohemian.matrices import (
    DomainError,
    IntMatrix,
    TernaryMatrix,
    exact_rank,
    identity,
    ones,
    ShapeError,
    penrose_check,
    zeros,
)

from conftest import all_ternary, rational_inner_holds

M = TernaryMatrix.from_rows
F = Fraction


def members(family, population=cs.TERNARY):
    return cs.materialize_family(family, population)


def oracle(a, spec, **kw):
    return cs.brute_force_inverses(a, spec, **kw)


def oracle_nonzero(a, spec, **kw):
    res = oracle(a, spec, **kw)
    kept = tuple(filter(any, res.matrices))
    return cs.EnumerationResult(res.shape, kept, len(kept))


class TestInnerTypeI:
    def test_scalar(self):
        got = members(fam.inner_full_type_I(1, 1))
        assert [m.to_lists() for m in got] == [[[1]]]

    def test_two_by_two_matches_oracle(self):
        fml = members(fam.inner_full_type_I(2, 2))
        assert fml.count == 16
        assert cs.set_equal(fml, oracle(ones(2, 2), "1")).equal

    def test_one_by_two(self):
        got = members(fam.inner_full_type_I(1, 2))
        assert next(iter(got)).shape == (2, 1)
        assert {m.entries for m in got} == {(1, 0), (0, 1)}

    def test_bad_sign_and_empty_block_raise(self):
        # the sign and widths are checked as the full shape's: a sign of 2
        # no longer gives an empty family, nor n = 0 a ShapeError
        with pytest.raises(DomainError, match="sign must be"):
            fam.inner_full_type_I(1, 2, sign=2)
        with pytest.raises(DomainError, match="sign must be"):
            fam.inner_full_type_IV(1, 1, 1, 1, sign=0)
        with pytest.raises(DomainError, match="do not fit"):
            fam.inner_full_type_I(2, 0)


class TestInnerFull:
    def test_constructors_are_the_full_shape_rule(self):
        for sign in (1, -1):
            cases = [
                (fam.inner_full_type_I(2, 3, sign), TYPE_I, (3, 0, 0)),
                (fam.inner_full_type_II(2, 1, 2, sign), TYPE_II, (1, 2, 0)),
                (fam.inner_full_type_III(2, 2, 1, sign), TYPE_III, (2, 0, 1)),
                (fam.inner_full_type_IV(2, 1, 1, 2, sign), TYPE_IV, (1, 1, 2)),
            ]
            for family, kind, widths in cases:
                assert family == fam.inner_full(FullForm(kind, sign, widths), 2)

    def test_matches_oracle_on_every_full_shape(self):
        # every full-shape ternary A of at most 6 cells: n (n + 1) per shape
        checked = 0
        shapes = [(m, n) for m in range(1, 7) for n in range(1, 7) if m * n <= 6]
        for m, n in shapes:
            for a in all_ternary(m, n):
                form = full_form(a)
                if form is not None:
                    got = members(fam.inner_full(form, m))
                    assert cs.set_equal(got, oracle(a, "1")).equal, a
                    checked += 1
        assert checked == sum(n * (n + 1) for _, n in shapes)


class TestInnerTypeII:
    def test_single_row(self):
        got = members(fam.inner_full_type_II(1, 1, 1))
        assert {m.entries for m in got} == {(1, 0), (0, -1)}

    def test_sign_flip_negates_members(self):
        plus = {m.entries for m in members(fam.inner_full_type_II(1, 1, 1, 1))}
        minus = {m.entries for m in members(fam.inner_full_type_II(1, 1, 1, -1))}
        assert minus == {tuple(-e for e in ent) for ent in plus}

    def test_two_rows_matches_oracle(self):
        a = M([[1, -1], [1, -1]])
        assert cs.set_equal(
            members(fam.inner_full_type_II(2, 1, 1)), oracle(a, "1")
        ).equal


class TestHalfIntegerSystems:
    def test_s1_empty_over_ternary(self):
        fml = fam.inner_S1(1, 1, 1)
        assert members(fml).count == 0
        assert oracle(M([[1, 1], [1, -1]]), "1").count == 0

    def test_s1_rational_member(self):
        fml = fam.inner_S1(1, 1, 1)
        x = [[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]]
        assert fml.body.is_member(x)
        assert rational_inner_holds(((1, 1), (1, -1)), x)
        doubled = [[2 * e for e in row] for row in x]
        assert not fml.body.is_member(doubled)

    def test_s2_parity_obstruction(self):
        # the system forces the two leading first-column blocks to share
        # the value (1 - third block sum) / 2
        fml = fam.inner_S2(1, 1, 1, 1)
        for m in members(fml):
            x13 = m.at(2, 0)
            assert m.at(0, 0) == m.at(1, 0)
            assert 2 * m.at(0, 0) == 1 - x13

    def test_s2_matches_oracle(self):
        a = M([[1, 1, 1], [1, -1, 0]])
        assert cs.set_equal(members(fam.inner_S2(1, 1, 1, 1)), oracle(a, "1")).equal

    def test_s2_zero_never_member(self):
        assert not fam.inner_S2(1, 1, 1, 1).body.is_member(zeros(3, 2))

    def test_s3_matches_oracle(self):
        a = M([[1, 1, 1, 0], [1, -1, 0, 1]])
        assert cs.set_equal(
            members(fam.inner_S3(1, 1, (1, 1, 1, 1))), oracle(a, "1")
        ).equal

    def test_s3_rejects_all_zero_and_negation(self):
        body = fam.inner_S3(1, 1, (1, 1, 1, 1)).body
        assert not body.is_member(zeros(4, 2))
        for m in members(fam.inner_S3(1, 1, (1, 1, 1, 1))):
            negated = [[-e for e in row] for row in m.to_lists()]
            assert not body.is_member(negated)


S3_BLOCKS = (M([[1, 1, 1, 0]]), M([[1, -1, 0, 1]]))
S3_STACK = M([[1, 1, 1, 0], [1, -1, 0, 1]])


class TestClass3Membership:
    def test_validates_preconditions(self):
        with pytest.raises(DomainError):
            fam.class3_inner_membership((identity(2), M([[1, 1]])), zeros(2, 3))
        with pytest.raises(DomainError):
            fam.class3_inner_membership((M([[1, 1]]), M([[1, 1]])), zeros(2, 2))

    def test_rational_member(self):
        x = [
            [F(1, 4), F(1, 2)],
            [F(1, 4), F(-1, 2)],
            [F(1, 2), 0],
            [0, 0],
        ]
        assert fam.class3_inner_membership(S3_BLOCKS, x)
        assert rational_inner_holds(S3_STACK.row_tuples(), x)

    def test_necessary_is_implied(self):
        for ent in product((-1, 0, 1), repeat=8):
            x = IntMatrix(4, 2, ent)
            if fam.class3_inner_membership(S3_BLOCKS, x):
                assert fam.class3_inner_necessary(S3_BLOCKS, x)

    def test_necessary_not_sufficient(self):
        blocks = (M([[1, 0, 0], [0, 0, 0]]), M([[0, 1, 0], [0, 0, 0]]))
        stacked = M([[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 0]])
        x = M([[1, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]])
        assert fam.class3_inner_necessary(blocks, x)
        assert not fam.class3_inner_membership(blocks, x)
        assert not penrose_check(stacked, x).satisfies_1

    def test_zero_candidate_fails(self):
        assert not fam.class3_inner_necessary(S3_BLOCKS, zeros(4, 2))

    def test_system_matches_membership(self):
        system = fam.class3_inner_system(S3_BLOCKS)
        for ent in product((-1, 0, 1), repeat=8):
            x = IntMatrix(4, 2, ent)
            assert system.body.is_member(x) == fam.class3_inner_membership(
                S3_BLOCKS, x
            )


class TestOuterRankOne:
    def test_scalar(self):
        got = members(fam.outer_rank_one_general((1,), (1,)))
        assert [m.to_lists() for m in got] == [[[1]]]

    def test_all_ones_two_by_two(self):
        got = members(fam.outer_full_type_I(2, 2))
        assert got.count == 4
        assert cs.set_equal(got, oracle_nonzero(ones(2, 2), "2")).equal

    def test_mixed_sign_factors(self):
        fml = fam.outer_rank_one_general((1, 1), (1, -1))
        a = M([[1, -1], [1, -1]])
        assert cs.set_equal(members(fml), oracle_nonzero(a, "2")).equal

    def test_type_iii_free_rows(self):
        fml = fam.outer_full_type_III(1, 1, 1)
        got = members(fml)
        assert {m.entries for m in got} == {(1, -1), (1, 0), (1, 1)}
        assert cs.set_equal(got, oracle_nonzero(M([[1, 0]]), "2")).equal

    def test_rejects_zero_factors(self):
        with pytest.raises(DomainError):
            fam.outer_rank_one_general((0, 0), (1,))


class TestOuterBlockFamilies:
    def test_block_diagonal_identity(self):
        fml = fam.outer_rank1_block_diagonal(
            [TernaryMatrix(1, 1, (1,)), TernaryMatrix(1, 1, (1,))]
        )
        got = members(fml)
        assert got.count == 10
        assert cs.set_equal(got, oracle(identity(2), "2", rank_filter=1)).equal

    def test_block_diagonal_single_block_degenerates(self):
        one = members(fam.outer_rank1_block_diagonal([ones(2, 2)]))
        gen = members(fam.outer_rank_one_general((1, 1), (1, 1)))
        assert cs.set_equal(one, gen).equal

    def test_row_partitioned(self):
        rows = [(1, 1), (1, -1)]
        fml = fam.outer_rank1_row_partitioned([M([r]) for r in rows])
        assert cs.set_equal(
            members(fml), oracle(M(rows), "2", rank_filter=1)
        ).equal

    def test_row_partitioned_shares_columns(self):
        with pytest.raises(Exception):
            fam.outer_rank1_row_partitioned([M([[1, 1]]), M([[1]])])

    def test_row_partitioned_single_block_degenerates(self):
        one = members(fam.outer_rank1_row_partitioned([ones(2, 2)]))
        gen = members(fam.outer_rank_one_general((1, 1), (1, 1)))
        assert cs.set_equal(one, gen).equal

    def test_higher_rank_block_falls_back_to_rows(self):
        blocks = [identity(2)]
        fml = fam.outer_rank1_block_diagonal(blocks)
        assert cs.set_equal(
            members(fml), oracle(identity(2), "2", rank_filter=1)
        ).equal


#: (family, the rows of its A written out by hand); the block-diagonal,
#: row-partitioned and full-row-rank cases each hold a block of rank two
PRODUCT_CASES = {
    "general": (
        fam.outer_rank_one_general((1, -1, 0), (0, 1, -1)),
        [[0, 1, -1], [0, -1, 1], [0, 0, 0]],
    ),
    "typeI": (fam.outer_full_type_I(2, 3), [[1, 1, 1], [1, 1, 1]]),
    "typeIII": (fam.outer_full_type_III(2, 2, 1), [[1, 1, 0], [1, 1, 0]]),
    "block-diagonal": (
        fam.outer_rank1_block_diagonal(
            [M([[1, -1]]), M([[1, 0], [1, 1], [0, 0]])]
        ),
        [[1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 0]],
    ),
    "row-partitioned": (
        fam.outer_rank1_row_partitioned(
            [M([[1, 1, 0], [-1, -1, 0]]), M([[1, -1, 1], [0, 1, 1]])]
        ),
        [[1, 1, 0], [-1, -1, 0], [1, -1, 1], [0, 1, 1]],
    ),
    "full-row-rank": (
        fam.outer_rank1_full_row_rank([(1, 1, 0), (0, 1, -1)]),
        [[1, 1, 0], [0, 1, -1]],
    ),
}


class TestProductConditionIsQAP:
    """The bilinear condition of every rank-one product builder is q^T A p
    for the A it was built from, on every pair of ternary factors."""

    @pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
    def test_condition_value(self, name):
        family, a = PRODUCT_CASES[name]
        m, n = len(a), len(a[0])
        assert family.shape == (n, m)
        for p in product((-1, 0, 1), repeat=n):
            ap = [sum(row[j] * p[j] for j in range(n)) for row in a]
            for q in product((-1, 0, 1), repeat=m):
                want = sum(q[i] * ap[i] for i in range(m))
                assert family.body.condition_value(p, q) == want, (p, q)


class TestColumnScaled:
    def test_identity_has_seven_members(self):
        fml = fam.outer_rank1_full_row_rank([(1, 0), (0, 1)])
        assert members(fml).count == 7

    def test_gap_is_exactly_zero_first_column(self):
        fml = members(fam.outer_rank1_full_row_rank([(1, 0), (0, 1)]))
        orc = oracle(identity(2), "2", rank_filter=1)
        assert orc.count == 10
        diff = cs.set_equal(fml, orc)
        assert not diff.only_in_a
        assert len(diff.only_in_b) == 3
        for m in diff.only_in_b:
            assert all(row[0] == 0 for row in m.to_lists())

    def test_final_worked_example_condition(self):
        fml = fam.outer_rank1_full_row_rank([(1, 1, 0), (1, 0, 0)])
        body = fml.body
        # y11 + y12 + lam*y11 = 1 with columns (y | lam*y) = y (1, lam)^T
        assert body.condition_value((1, 0, 0), (1,) + (0,)) == 1
        assert body.condition_value((0, 1, -1), (1,) + (1,)) == 1
        assert body.condition_value((0, 0, 1), (1,) + (0,)) == 0

    def test_requires_independent_rows(self):
        with pytest.raises(DomainError):
            fam.outer_rank1_full_row_rank([(1, 1), (1, 1)])

    def test_note_records_restriction(self):
        fml = fam.outer_rank1_full_row_rank([(1, 0), (0, 1)])
        assert "first column" in fml.note

    def test_contains_is_rank_one_outer_with_nonzero_first_column(self):
        # every full-row-rank A of at most 5 cells: the members are the
        # ternary X of rank 1 with a nonzero first column and XAX = X
        checked = 0
        for m, n in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 2)]:
            shaped = [
                x for x in all_ternary(n, m) if exact_rank(x) == 1 and any(x.column(0))
            ]
            for a in all_ternary(m, n):
                if exact_rank(a) != m:
                    continue
                got = members(fam.outer_rank1_full_row_rank(a.row_tuples())).matrices
                want = tuple(x.entries for x in shaped if penrose_check(a, x).satisfies_2)
                assert got == want, a.entries
                checked += 1
        assert checked == 358 + 48

    def test_members_are_sound_with_nonzero_first_column(self):
        for rows in ([(1, 0), (0, 1)], [(1, 1, 0), (1, 0, 0)], [(1, 1), (1, -1)]):
            a = M(rows)
            for x in members(fam.outer_rank1_full_row_rank(rows)):
                assert penrose_check(a, x).satisfies_2
                assert any(x.at(i, 0) for i in range(x.rows))


class TestRank2OuterAndUnions:
    def test_s4_smallest(self):
        got = members(fam.outer_rank2_class3("S4", (1, 1)))
        assert [m.to_lists() for m in got] == [[[1, 0], [0, 1]]]
        assert cs.set_equal(got, oracle(identity(2), "2", rank_filter=2)).equal

    def test_s1_empty(self):
        got = members(fam.outer_rank2_class3("S1", (1,)))
        assert got.count == 0
        assert oracle(M([[1, 1], [1, -1]]), "2", rank_filter=2).count == 0

    def test_s3_matches_oracle(self):
        got = members(fam.outer_rank2_class3("S3", (1, 1, 1, 1)))
        assert cs.set_equal(got, oracle(S3_STACK, "2", rank_filter=2)).equal

    def test_bad_structure(self):
        with pytest.raises(DomainError):
            fam.outer_rank2_class3("S5", (1,))
        with pytest.raises(DomainError):
            fam.outer_rank2_class3("S4", (1,))

    def test_union_on_identity(self):
        union = members(fam.outer_full_set_S4(1, 1))
        assert union.count == 9
        full = oracle(identity(2), "2")
        assert full.count == 12
        diff = cs.set_equal(union, full)
        assert not diff.only_in_a
        assert all(
            all(row[0] == 0 for row in m.to_lists()) for m in diff.only_in_b
        )

    def test_union_contains_zero(self):
        union = members(fam.outer_full_set_S4(1, 1))
        assert zeros(2, 2) in frozenset(union)


class TestReflexive:
    def test_identity_unique(self):
        got = members(fam.reflexive_full_row_rank([(1, 0), (0, 1)]))
        assert [m.to_lists() for m in got] == [[[1, 0], [0, 1]]]

    def test_final_example_nine_members(self):
        got = members(fam.reflexive_full_row_rank([(1, 1, 0), (1, 0, 0)]))
        assert got.count == 9
        for m in got:
            rows = m.to_lists()
            assert rows[0][:2] == [0, 1] and rows[1][:2] == [1, -1]

    def test_rank_deficient_rejected(self):
        with pytest.raises(DomainError):
            fam.reflexive_full_row_rank([(1, 1), (1, 1)])


class TestRankOneCore:
    def test_support_block_condition(self):
        a = M([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]])
        got = members(fam.inner_rank_one(a))
        assert cs.set_equal(got, oracle(a, "1", cell_budget=12)).equal


class TestSoundness:
    def test_every_materialized_member_satisfies_its_equations(self):
        # family, target matrix, equations the members must satisfy
        catalogue = [
            (fam.inner_full_type_I(2, 3), ones(2, 3), "1"),
            (fam.inner_full_type_II(2, 2, 1), M([[1, 1, -1]] * 2), "1"),
            (fam.inner_full_type_II(1, 1, 2, -1), M([[-1, 1, 1]]), "1"),
            (fam.inner_S2(1, 1, 1, 1), M([[1, 1, 1], [1, -1, 0]]), "1"),
            (fam.inner_S3(1, 1, (1, 1, 1, 1)), S3_STACK, "1"),
            (fam.outer_full_type_I(3, 2), ones(3, 2), "2"),
            (fam.outer_full_type_III(2, 1, 2), M([[1, 0, 0]] * 2), "2"),
            (fam.outer_rank_one_general((1, -1), (1, 0, 1)), M([[1, 0, 1], [-1, 0, -1]]), "2"),
            (fam.outer_rank1_block_diagonal([ones(1, 2), identity(1)]), M([[1, 1, 0], [0, 0, 1]]), "2"),
            (fam.outer_rank1_row_partitioned([M([[1, 1]]), M([[1, -1]])]), M([[1, 1], [1, -1]]), "2"),
            (fam.outer_rank1_full_row_rank([(1, 1, 0), (1, 0, 0)]), M([[1, 1, 0], [1, 0, 0]]), "2"),
            (fam.outer_rank2_class3("S2", (1, 1)), M([[1, 1, 1], [1, -1, 0]]), "12"),
            (fam.reflexive_full_row_rank([(1, 1, 0), (1, 0, 0)]), M([[1, 1, 0], [1, 0, 0]]), "12"),
            (fam.outer_full_set_S4(1, 2), M([[1, 0, 0], [0, 1, 1]]), "2"),
            (fam.inner_rank_one(M([[1, 1, 0], [1, 1, 0]])), M([[1, 1, 0], [1, 1, 0]]), "1"),
        ]
        for family, a, spec in catalogue:
            got = members(family)
            assert got.count > 0 or isinstance(
                family.body, fam.SumConstraintSystem
            ), family.theorem_id
            for x in got:
                assert penrose_check(a, x).satisfies(spec), (family.theorem_id, x)


class TestSerialization:
    def test_rationals_as_num_den(self):
        data = fam.inner_S1(1, 1, 1).to_json()
        assert data["theorem_id"] == "Thm4.5"
        assert data["kind"] == "sum_constraints"
        rhs = data["constraints"][0]["rhs"]
        assert rhs == {"num": 1, "den": 2}
        # one coefficient per row-major cell of X, no block grid
        assert "partition" not in data
        one, zero = {"num": 1, "den": 1}, {"num": 0, "den": 1}
        assert data["constraints"][0]["coeffs"] == [one, zero, zero, zero]

    def test_union_payload(self):
        data = fam.outer_full_set_S4(1, 1).to_json()
        assert data["kind"] == "union"
        assert data["include_zero"] is True
        kinds = {c["kind"] for c in data["components"]}
        assert kinds == {"rank_one_product", "sum_constraints"}
        rank1 = next(c for c in data["components"] if c["kind"] == "rank_one_product")
        assert rank1["pinned_lead"] is True

    def test_product_payload(self):
        assert fam.outer_full_type_III(2, 1, 1).to_json() == {
            "theorem_id": "Thm5.5",
            "spec": "{2}_1",
            "shape": [2, 2],
            "kind": "rank_one_product",
            "terms": [{"q": [1, 1], "p": [1, 0]}],
        }


class TestConstraintRows:
    def test_wrong_coefficient_count_raises(self):
        with pytest.raises(ShapeError, match="coefficients"):
            fam.SumConstraintSystem((2, 2), (fam.LinearConstraint((1, 0, 0), 1),))
        with pytest.raises(ShapeError, match="coefficients"):
            fam.SumConstraintSystem(
                (1, 2), (fam.LinearConstraint((1, 0), 1), fam.LinearConstraint((1, 0, 1), 0))
            )

    @pytest.mark.parametrize(
        "build, sizes",
        [
            (lambda: fam.inner_S1(0, 1, 1), "[0, 1]"),
            (lambda: fam.inner_S2(1, 0, 1, 1), "[1, 0]"),
            (lambda: fam.inner_S3(0, 1, (1, 1, 1, 1)), "[0, 1]"),
            (lambda: fam.inner_full_type_I(0, 2), "[0]"),
        ],
        ids=["S1", "S2", "S3", "typeI"],
    )
    def test_empty_block_raises(self, build, sizes):
        with pytest.raises(ShapeError) as info:
            build()
        assert str(info.value) == f"block sizes must be positive: {sizes}"

    def test_block_sums_are_written_on_cells(self):
        # S2 with n3 = 1: X is 3x2, its rows the blocks of widths 1, 1, 1
        # and its columns the blocks of m1 = m2 = 1
        rows = [con.coeffs for con in fam.inner_S2(1, 1, 1, 1).body.constraints]
        assert rows == [
            (1, 0, 1, 0, 1, 0),
            (0, 1, 0, -1, 0, 0),
            (1, 0, -1, 0, 0, 0),
            (0, 1, 0, 1, 0, 1),
        ]


def _rank_one_core(shape, rows, cols):
    """The canonical rank-one core's unit condition: the entries of the
    leading rows x cols support block of X sum to 1."""
    n, m = shape
    unit = tuple(int(i < rows and j < cols) for i in range(n) for j in range(m))
    body = fam.SumConstraintSystem(shape, (fam.LinearConstraint(unit, 1),))
    return fam.InverseFamily("RankOneInner", "{1}", shape, body)


class TestCellClasses:
    """Block-sum systems written cell by cell, whose cells share few
    coefficient vectors, against the literal filter and the census."""

    BLOCK_FAMILIES = [
        fam.inner_full_type_I(2, 3),
        fam.inner_full_type_II(2, 2, 1),
        fam.inner_full_type_II(1, 1, 2, -1),
        fam.inner_S1(1, 2, 1),
        fam.inner_S2(1, 1, 1, 1),
        fam.inner_S3(1, 1, (1, 1, 1, 1)),
        fam.outer_rank2_class3("S1", (1,)),
        fam.outer_rank2_class3("S2", (1, 1)),
        fam.outer_rank2_class3("S3", (1, 1, 1, 1)),
        fam.outer_rank2_class3("S4", (1, 2)),
        fam.reflexive_full_row_rank([(1, 1, 0), (1, 0, 0)]),
        _rank_one_core((3, 2), 2, 2),
        _rank_one_core((3, 3), 2, 2),
    ]
    POPULATIONS = [cs.TERNARY, cs.Population((0, 1)), cs.Population((-1, 0))]

    @pytest.mark.parametrize(
        "family", BLOCK_FAMILIES, ids=lambda f: f"{f.theorem_id}-{f.shape}"
    )
    def test_single_cell_form_gives_the_block_stream(self, family):
        # each block term is one run of cells with one coefficient vector;
        # the stream and the count over each population are the literal
        # filter's, in odometer order
        body = family.body
        n, m = family.shape
        assert n * m <= 9
        literal = [
            x for x in product((-1, 0, 1), repeat=n * m)
            if body.is_member(IntMatrix(n, m, x))
        ]
        for population in self.POPULATIONS:
            want = [x for x in literal if all(v in population for v in x)]
            got = cs.enumerate_sum_constrained(body, population)
            assert got.matrices == tuple(want), (family.theorem_id, population)
            quick = cs.enumerate_sum_constrained(body, population, True)
            assert quick.count == got.count == len(want)
        # the S1 systems have half-integer block sums
        assert literal or family.theorem_id in ("Thm4.5", "Rank2OuterS1")

    @pytest.mark.parametrize("population", POPULATIONS, ids=str)
    def test_signed_rank_one_stack_streams_the_census(self, population):
        # one run of +- equal rows: the Thm4.7 system has a term on every
        # cell, with two coefficient vectors
        from bohemian.theorems import select_theorem

        a = M([[1, 1, -1, 1], [-1, -1, 1, -1], [1, 1, -1, 1]])
        sel = select_theorem(a, "1")
        assert sel.theorem_id == "Thm4.7"
        got = cs.materialize_family(sel, population)
        want = oracle(a, "1", population=population)
        assert got.matrices == want.matrices
        assert cs.materialize_family(sel, population, count_only=True).count == want.count
        if population == cs.TERNARY:
            assert want.count == 69_576
