from __future__ import annotations

import random
from operator import mul
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohemian.matrices import (
    PLAN_LIMIT,
    _composed_flags,
    _entry_rank,
    _penrose_flags,
    _penrose_plan,
    _rank_plan,
    _row_rank,
    DomainError,
    IntMatrix,
    ParseError,
    ShapeError,
    SignedPermutation,
    TernaryMatrix,
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

    @pytest.mark.parametrize("cls", [IntMatrix, TernaryMatrix])
    def test_bool_entries_are_stored_as_int(self, cls):
        m = cls(1, 3, (True, False, -1))
        assert [type(e) for e in m.entries] == [int, int, int]
        assert serialize_matrix(m) == "1 0 -1\n"

    @pytest.mark.parametrize("bad", [2.0, True, "2", None])
    @pytest.mark.parametrize("cls", [IntMatrix, TernaryMatrix])
    def test_dimensions_must_be_ints(self, cls, bad):
        # 2.0 and True compare equal to an int dimension; each must be
        # refused before any plan cached for that shape is reached
        with pytest.raises(ShapeError) as rows_err:
            cls(bad, 2, (1, 0, 0, 1))
        assert str(rows_err.value) == f"matrix rows must be an int, got {bad!r}"
        with pytest.raises(ShapeError) as cols_err:
            cls(2, bad, (1, 0, 0, 1))
        assert str(cols_err.value) == f"matrix cols must be an int, got {bad!r}"

    @pytest.mark.parametrize("bad", [2.0, True, "2", None])
    def test_constructors_check_dimensions_first(self, bad):
        # each constructor refuses a non-int dimension with the constructor's
        # text, before computing any entry from it
        calls = [
            ("rows", lambda d: zeros(d, 2)), ("cols", lambda d: zeros(2, d)),
            ("rows", lambda d: ones(d, 2)), ("cols", lambda d: ones(2, d)),
            ("rows", lambda d: identity(d)),
            ("rows", lambda d: unit(d, 2, 0, 0)), ("cols", lambda d: unit(2, d, 0, 0)),
        ]
        for which, call in calls:
            with pytest.raises(ShapeError) as err:
                call(bad)
            assert str(err.value) == f"matrix {which} must be an int, got {bad!r}"
        with pytest.raises(ShapeError, match="^matrix dimensions must be positive"):
            unit(0, 2, 0, 0)

    @pytest.mark.parametrize(
        "i, j, which, bad",
        [(0, 2, "column", "2"), (1, -1, "column", "-1"), (0, 5, "column", "5"),
         (0.0, 0, "row", "0.0"), (2, 0, "row", "2")],
    )
    def test_unit_checks_its_indices(self, i, j, which, bad):
        # an index outside the shape is refused, never wrapped into another
        # cell or left to the list's own IndexError or TypeError
        with pytest.raises(ShapeError) as err:
            unit(2, 2, i, j)
        assert str(err.value) == (
            f"{which} index must be an int in [0, 2) for a 2x2 matrix, got {bad}"
        )
        assert unit(2, 2, 1, 1).entries == (0, 0, 0, 1)


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

    def test_plan_matches_elimination_on_every_small_ternary_matrix(self):
        shapes = [(m, n) for m, n in product(range(1, 10), repeat=2) if m * n <= 9]
        for m, n in shapes:
            plan = _rank_plan(m, n)
            for ent in product((-1, 0, 1), repeat=m * n):
                assert plan(ent) == _row_rank(zip(*[iter(ent)] * n))

    def test_plan_matches_elimination_on_random_int_matrices(self):
        # the compiled shapes up to 9 x 9, and the first shapes above the
        # bound, which exact_rank eliminates and the plan is compiled for
        # here only; products of an m x r and an r x n factor give every
        # rank r, so each order's chain of minors falls through
        compiled = [(m, 1) for m in range(1, 10)] + [(1, n) for n in range(2, 10)]
        compiled += [(2, n) for n in range(2, 9)] + [(m, 2) for m in range(3, 9)]
        compiled += [(3, 3), (3, 4), (4, 3)]
        above = [(2, 9), (9, 2), (3, 5), (5, 3), (4, 4)]
        rng = random.Random(19)
        pools = [range(-5, 6), (-(2**65), 2**65, -1, 0, 1)]
        for (m, n), pool in product(compiled + above, pools):
            is_plan = _entry_rank(m, n).__name__ == f"rank_{m}x{n}"
            assert is_plan == ((m, n) in compiled)
            plan = _rank_plan(m, n)
            for r in range(min(m, n) + 1):
                for _ in range(10):
                    left = [[rng.choice(pool) for _ in range(r)] for _ in range(m)]
                    right = [[rng.choice(pool) for _ in range(n)] for _ in range(r)]
                    rows = [
                        tuple(sum(map(mul, row, col)) for col in zip(*right))
                        if r
                        else (0,) * n
                        for row in left
                    ]
                    a = IntMatrix.from_rows(rows)
                    want = _row_rank(rows)
                    assert want <= r
                    assert plan(a.entries) == exact_rank(a) == want


class TestEntrySum:
    def test_examples(self):
        assert entry_sum(M([[1, -1], [1, 0]])) == 1
        assert entry_sum(ones(2, 3)) == 6
        assert entry_sum(M([[1, -1], [-1, 1]])) == 0


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
        def naive(ae, be, m, k, n):
            out = []
            for i in range(m):
                for j in range(n):
                    total = 0
                    for t in range(k):
                        total += ae[i * k + t] * be[t * n + j]
                    out.append(total)
            return tuple(out)

        for m, n in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3)]:
            xs = [(x, x.entries) for x in all_ternary(n, m)]
            for a in all_ternary(m, n):
                ae = a.entries
                for x, xe in xs:
                    rep = penrose_check(a, x)
                    axa = naive(naive(ae, xe, m, n, m), ae, m, m, n)
                    xax = naive(naive(xe, ae, n, m, n), xe, n, n, m)
                    assert rep.satisfies_1 == (axa == ae)
                    assert rep.satisfies_2 == (xax == xe)

    def test_plan_matches_composed_flags_on_every_small_ternary_pair(self):
        # every compiled shape whose A and X have up to 8 cells together
        for m, n in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1), (2, 2)]:
            plan, composed = _penrose_plan(m, n), _composed_flags(m, n)
            for ae, xe in product(product((-1, 0, 1), repeat=m * n), repeat=2):
                assert plan(ae, xe) == composed(ae, xe)

    def test_plan_matches_composed_flags_on_random_int_pairs(self):
        # the compiled shapes, and the first shape above the bound for each
        # m, which penrose_check composes and the plan is compiled for here
        # only.  A = U E V with E = [I_r 0; 0 0] and X = V^-1 E^T U^-1, for
        # integer shears U and V, satisfies equations 1 and 2; one changed
        # entry of X breaks them at some entry other than the first
        compiled = [
            (m, n)
            for m, n in product(range(1, 9), repeat=2)
            if m * n * max(m, n) <= PLAN_LIMIT
        ]
        above = [(1, 9), (2, 6), (3, 5), (4, 5), (5, 3), (6, 2), (7, 2), (8, 2), (9, 1)]
        rng = random.Random(23)

        def sheared(k, factors):
            # a unimodular k x k matrix and its inverse, as entry lists
            u = [[int(i == j) for j in range(k)] for i in range(k)]
            inv = [row[:] for row in u]
            for _ in range(2 * k if k > 1 else 0):
                i, j = rng.sample(range(k), 2)
                c = rng.choice(factors)
                u[i] = [e + c * f for e, f in zip(u[i], u[j])]
                for row in inv:
                    row[j] -= c * row[i]
            return u, inv

        def times(a, b):
            return [[sum(map(mul, r, c)) for c in zip(*b)] for r in a]

        def flat(rows):
            return tuple(e for r in rows for e in r)

        pools = [range(-5, 6), (-(2**65), 2**65)]
        for (m, n), factors in product(compiled + above, pools):
            flags = _penrose_flags(m, n)
            assert (flags.__name__ == f"penrose_{m}x{n}") == ((m, n) in compiled)
            plan, composed = _penrose_plan(m, n), _composed_flags(m, n)
            seen = set()
            for r in range(min(m, n) + 1):
                for _ in range(6):
                    u, u_inv = sheared(m, factors)
                    v, v_inv = sheared(n, factors)
                    e = [[int(i == j < r) for j in range(n)] for i in range(m)]
                    a = flat(times(times(u, e), v))
                    x = flat(times(times(v_inv, [list(c) for c in zip(*e)]), u_inv))
                    changed = list(x)
                    changed[rng.randrange(len(x))] += rng.choice((-1, 1))
                    noise = tuple(rng.choice(factors) for _ in x)
                    for xe in (x, tuple(changed), noise, (0,) * len(x)):
                        got = plan(a, xe)
                        assert got == composed(a, xe)
                        rep = penrose_check(IntMatrix(m, n, a), IntMatrix(n, m, xe))
                        assert got == (
                            rep.satisfies_1, rep.satisfies_2,
                            rep.satisfies_3, rep.satisfies_4,
                        )
                        seen.add(got)
                    assert plan(a, x)[:2] == (True, True)
            # each flag takes both values, but a symmetry flag of a 1 x 1
            # product, which is always True
            for i, size in enumerate((0, 0, m, n)):
                assert {f[i] for f in seen} == ({True} if size == 1 else {False, True})

    def test_symmetry_flags_match_transpose_equality(self):
        # every ternary (A, X) pair of each shape, against AX and XA formed
        # by the triple loop and compared with their transposes
        for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
            for a in all_ternary(m, n):
                for x in all_ternary(n, m):
                    rep = penrose_check(a, x)
                    ax, xa = _triple_loop(a, x), _triple_loop(x, a)
                    assert rep.satisfies_3 == (ax == [list(c) for c in zip(*ax)])
                    assert rep.satisfies_4 == (xa == [list(c) for c in zip(*xa)])


class TestSignedPermutation:
    def test_validation(self):
        with pytest.raises(DomainError):
            SignedPermutation((0, 0), (1, 1))
        with pytest.raises(DomainError):
            SignedPermutation((0, 1), (1, 2))

    @pytest.mark.parametrize(
        "perm, signs, named",
        [
            ((0, 1), (1.0, -1.0), "signs must be integers: (1.0, -1.0)"),
            ((0, 1), (True, -1), "signs must be integers: (True, -1)"),
            ((0.0, 1), (1, 1), "perm entries must be integers: (0.0, 1)"),
        ],
    )
    def test_entries_equal_to_integers_are_refused(self, perm, signs, named):
        # each compares equal to a valid entry, so only its type is wrong
        with pytest.raises(DomainError) as exc:
            SignedPermutation(perm, signs)
        assert str(exc.value) == named

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

    def test_built_results_equal_validated_constructions(self, monkeypatch):
        # enumerated and transposed signed permutations are built without
        # __post_init__; each must equal, type and fields alike, the one
        # constructed with every check from its matrix
        def from_matrix(rows):
            # column t holds its one nonzero entry at row perm[t]
            cols = list(zip(*rows))
            perm = tuple(next(r for r, e in enumerate(c) if e) for c in cols)
            return SignedPermutation(perm, tuple(c[r] for c, r in zip(cols, perm)))

        want = []
        for k in range(1, 5):
            for perm in permutations(range(k)):
                for signs in product((1, -1), repeat=k):
                    rows = SignedPermutation(perm, signs).to_matrix().row_tuples()
                    want.append((from_matrix(rows), from_matrix(zip(*rows))))

        def refuse(self):
            raise AssertionError("a built signed permutation was checked again")

        monkeypatch.setattr(SignedPermutation, "__post_init__", refuse)
        got = [u for k in range(1, 5) for u in iter_signed_permutations(k)]
        assert len(got) == len(want) == 2 + 8 + 48 + 384
        for u, (u_want, t_want) in zip(got, want):
            t = u.transpose()
            for g, w in ((u, u_want), (t, t_want)):
                assert type(g) is SignedPermutation
                assert vars(g) == vars(w)
                assert [type(e) for e in g.perm + g.signs] == [int] * (2 * g.size)


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
        # every shape up to 4 x 4 x 4 runs as one compiled plan; (5, 4, 6)
        # has more than PLAN_LIMIT multiplications and runs row by row, and
        # (2, 9, 8) also has a right factor of more than PLAN_LIMIT entries,
        # so each row-column sum is taken by sum(map(mul, ...))
        rng = random.Random(13)
        shapes = [
            *product(range(1, 5), repeat=3), (1, 3, 5), (5, 3, 1), (5, 4, 6), (2, 9, 8)
        ]
        assert 9 * 8 > PLAN_LIMIT >= 4 * 6
        assert 5 * 4 * 6 > PLAN_LIMIT >= 4 * 4 * 4
        pools = [range(-9, 10), (-(2**70), 2**65 + 3, -1, 0, 7)]
        for (m, k, n), pool in product(shapes, pools):
            for _ in range(20):
                a = IntMatrix(m, k, tuple(rng.choice(pool) for _ in range(m * k)))
                b = IntMatrix(k, n, tuple(rng.choice(pool) for _ in range(k * n)))
                got = multiply(a, b)
                assert type(got) is IntMatrix
                assert got.shape == (m, n)
                assert got.to_lists() == _triple_loop(a, b)
        # an inner sum of 3,000 terms
        assert multiply(ones(1, 3000), ones(3000, 1)).to_lists() == [[3000]]

    def test_built_results_equal_checked_ones_without_the_checks(self, monkeypatch):
        # products, transposes and signed-permutation transforms are built
        # from checked operands without __post_init__; each must equal, type
        # and fields alike, the checked matrix of the triple-loop result
        rng = random.Random(17)
        pools = {TernaryMatrix: (-1, 0, 1), IntMatrix: (-(2**70), -3, 0, 5)}
        cases = []

        def signed(k):
            perm = tuple(rng.sample(range(k), k))
            return SignedPermutation(perm, tuple(rng.choice((-1, 1)) for _ in perm))

        # 9 x 8 has more than PLAN_LIMIT entries: the uncached transpose
        shapes = [*product(range(1, 4), repeat=2), (9, 8)]
        for (m, n), (cls, pool) in product(shapes, pools.items()):
            a = cls(m, n, tuple(rng.choice(pool) for _ in range(m * n)))
            x = cls(n, m, tuple(rng.choice(pool) for _ in range(m * n)))
            b = IntMatrix(n, 2, tuple(rng.choice(pool) for _ in range(n * 2)))
            u, v = signed(m), signed(n)
            vt_x = IntMatrix.from_rows(_triple_loop(v.transpose().to_matrix(), x))
            want = [
                IntMatrix.from_rows(_triple_loop(a, b)),
                cls.from_rows(zip(*a.row_tuples())),  # a TernaryMatrix stays one
                IntMatrix.from_rows(_triple_loop(u.to_matrix(), a)),
                IntMatrix.from_rows(_triple_loop(a, v.to_matrix())),
                IntMatrix.from_rows(_triple_loop(vt_x, u.transpose().to_matrix())),
            ]
            cases.append((a, x, b, u, v, want))

        def refuse(self):
            raise AssertionError("a built result was checked again")

        monkeypatch.setattr(IntMatrix, "__post_init__", refuse)
        for a, x, b, u, v, want in cases:
            got = [
                multiply(a, b),
                a.transpose(),
                u.apply_left(a),
                v.apply_right(a),
                transform_inverse(x, u, v),
            ]
            for g, w in zip(got, want):
                assert type(g) is type(w)
                assert vars(g) == vars(w)

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
