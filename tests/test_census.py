from __future__ import annotations

import inspect
import random
import types
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import given, settings

from bohemian import census as cs
from bohemian import counting as ct
from bohemian import families as fam
from bohemian.matrices import (
    DomainError,
    IntMatrix,
    ShapeError,
    TernaryMatrix,
    _product_rows,
    _row_rank,
    exact_rank,
    identity,
    multiply,
    ones,
    penrose_check,
    serialize_matrix,
    zeros,
)

from conftest import all_ternary, ternary_matrices

M = TernaryMatrix.from_rows


class TestPopulation:
    def test_default_is_ternary(self):
        assert cs.TERNARY.values == (-1, 0, 1)

    def test_must_increase(self):
        with pytest.raises(DomainError):
            cs.Population((1, 0))

    def test_size_cap(self):
        with pytest.raises(DomainError):
            cs.Population(tuple(range(9)))

    def test_nonempty(self):
        with pytest.raises(DomainError):
            cs.Population(())

    def test_bool_values_refused(self):
        # bool is an int subclass; its members would be written True/False
        with pytest.raises(DomainError, match="integers"):
            cs.Population((False, True))
        assert cs.Population((0, 1)).values == (0, 1)


class TestBruteForce:
    def test_two_block_row(self):
        res = cs.brute_force_inverses(M([[1, -1]]), "1")
        assert [m.to_lists() for m in res] == [[[0], [-1]], [[1], [0]]]
        assert res.count == 2

    def test_zero_scalar_outer(self):
        res = cs.brute_force_inverses(M([[0]]), "2")
        assert [m.to_lists() for m in res] == [[[0]]]

    def test_all_ones_outer_count(self):
        assert cs.brute_force_inverses(ones(2, 2), "2").count == 5

    def test_budget_guard(self):
        with pytest.raises(cs.ResourceLimitError):
            cs.brute_force_inverses(ones(3, 3), "1", cell_budget=8)

    def test_count_only_matches(self):
        full = cs.brute_force_inverses(ones(2, 2), "1")
        quick = cs.brute_force_inverses(ones(2, 2), "1", count_only=True)
        assert quick.count == full.count
        assert quick.matrices is None

    def test_rank_filter(self):
        res = cs.brute_force_inverses(identity(2), "2", rank_filter=1)
        assert res.count == 10
        assert all(m != zeros(2, 2) for m in res)

    def test_reflexive_is_intersection_exhaustive(self):
        # every shape up to 2 x 3
        for m in range(1, 3):
            for n in range(1, 4):
                for a in all_ternary(m, n):
                    both = frozenset(cs.brute_force_inverses(a, "12"))
                    inner = frozenset(cs.brute_force_inverses(a, "1"))
                    outer = frozenset(cs.brute_force_inverses(a, "2"))
                    assert both == inner & outer

    def test_determinism(self):
        a = M([[1, 0], [1, -1]])
        r1 = cs.brute_force_inverses(a, "1").serialize()
        r2 = cs.brute_force_inverses(a, "1").serialize()
        assert r1 == r2

    def test_custom_population(self):
        res = cs.brute_force_inverses(
            ones(1, 2), "2", population=cs.Population((0, 1))
        )
        assert res.count == 3

    @pytest.mark.parametrize(
        "shape, budget, count",
        [((4, 4), 16, 4_969_152), ((2, 8), 16, 4_969_152), ((4, 5), 20, 363_985_680)],
        ids=["4x4", "2x8", "4x5"],
    )
    def test_inner_count_reach(self, shape, budget, count):
        # spec-1 counts past 12 cells, against the closed form
        res = cs.brute_force_inverses(ones(*shape), "1", cell_budget=budget,
                                      count_only=True)
        assert res.count == count == ct.inner_count_full_type_I(*shape)

    @pytest.mark.parametrize(
        "a, budget, count, closed_form",
        [
            (ones(4, 4), 16, 257, ct.outer_count_full_type_I(4, 4, include_zero=True)),
            (ones(2, 8), 16, 2_033, ct.outer_count_full_type_I(2, 8, include_zero=True)),
            (ones(4, 5), 20, 721, ct.outer_count_full_type_I(4, 5, include_zero=True)),
            (M([[1] * 4 + [0] * 4] * 2), 16, 2_593,
             ct.outer_count_full_type_III(2, 4, 4, include_zero=True)),
        ],
        ids=["4x4", "2x8", "4x5", "2x8-ones-zeros"],
    )
    def test_outer_count_reach(self, a, budget, count, closed_form):
        # spec-2 and spec-12 counts past 12 cells, against the closed forms
        res = cs.brute_force_inverses(a, "2", cell_budget=budget, count_only=True)
        assert res.count == count == closed_form
        # each A has rank one, and the zero matrix is its only rank-0 outer
        # inverse, so every other one is reflexive
        both = cs.brute_force_inverses(a, "12", cell_budget=budget, count_only=True)
        assert both.count == count - 1

    @pytest.mark.parametrize("values", [(-1, 0, 1), (0, 1), (1,)])
    def test_nonzero_outer_of_rank_one_is_rank_filter_one(self, values):
        # XAX = X gives rank(X) = rank(XAX) <= rank(A), so the nonzero outer
        # inverses of a rank-one A are exactly the rank-1 slice
        pop = cs.Population(values)
        for m, n in product(range(1, 7), repeat=2):
            if m * n > 6:
                continue
            for a in all_ternary(m, n):
                if exact_rank(a) != 1:
                    continue
                full = cs.brute_force_inverses(a, "2", pop)
                ranked = cs.brute_force_inverses(a, "2", pop, rank_filter=1)
                assert ranked.matrices == tuple(filter(any, full.matrices)), a
                quick = cs.brute_force_inverses(
                    a, "2", pop, rank_filter=1, count_only=True
                )
                assert quick.count == ranked.count == len(ranked.matrices)

    def test_unreachable_rank_builds_no_table(self, monkeypatch):
        # AXA = A gives rank(X) >= rank(A) and XAX = X gives rank(X) <=
        # rank(A), so a filter outside those ranks is answered before any
        # table, join or row space is built
        def refuse(*args, **kwargs):
            raise AssertionError("the scan built a table")

        for name in ("_product_rows", "_join", "_subspaces"):
            monkeypatch.setattr(cs, name, refuse)
        cases = [
            (ones(2, 3), "1", 0), (ones(2, 3), "1", 3), (identity(2), "1", 1),
            (ones(2, 2), "2", 2), (zeros(1, 2), "2", 1), (identity(2), "2", 3),
            (ones(3, 2), "12", 0), (ones(3, 2), "12", 2), (identity(2), "12", 1),
        ]
        for a, spec, rank in cases:
            for count_only in (False, True):
                res = cs.brute_force_inverses(
                    a, spec, rank_filter=rank, count_only=count_only
                )
                assert res.shape == (a.cols, a.rows)
                assert res.count == 0
                assert res.matrices == (None if count_only else ()), (a, spec, rank)

    def test_row_spaces_stop_at_the_rank(self, monkeypatch):
        # the outer joins ask for no row space of dimension above rank(A),
        # or above the rank filter when one is given
        tops = []
        real = cs._subspaces

        def spy(m, values, top):
            tops.append(top)
            return real(m, values, top)

        monkeypatch.setattr(cs, "_subspaces", spy)
        for m, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            for a in all_ternary(m, n):
                rank = exact_rank(a)
                for spec, rank_filter in [("2", None), ("12", None), ("2", 1)]:
                    tops.clear()
                    cs.brute_force_inverses(
                        a, spec, rank_filter=rank_filter, count_only=True
                    )
                    if rank_filter is None or rank_filter <= rank:
                        want = rank if rank_filter is None else rank_filter
                        assert tops == [want], (a, spec, rank_filter)
                    else:
                        assert tops == [], a

    def test_reflexive_count_reach(self):
        # spec 12 builds the row spaces of dimension rank(A) = 1 only, so the
        # 25-cell all-ones count needs no m = 5 lattice
        res = cs.brute_force_inverses(ones(5, 5), "12", cell_budget=25,
                                      count_only=True)
        assert res.count == 2_025 == ct.outer_count_full_type_I(5, 5)


SCAN_POPULATIONS = [(-1, 0, 1), (0, 1), (-1, 0), (1,), (-2, -1, 0, 1, 2)]


def _reference(a, values):
    """(X, PenroseReport, rank) for the X over ``values`` satisfying
    equation 1 or 2, from one penrose_check per candidate, in odometer
    order."""
    checked = []
    for ent in product(values, repeat=a.rows * a.cols):
        x = IntMatrix(a.cols, a.rows, ent)
        report = penrose_check(a, x)
        if report.satisfies_1 or report.satisfies_2:
            checked.append((x, report, exact_rank(x)))
    return checked


def _assert_scan_matches(
    a, population, checked, ranks, count_ranks=(None,), serialized=False
):
    """Scans of every spec at each rank in ``ranks``, and count-only scans
    at each rank in ``count_ranks``, against the reference members over
    ``population``.  Streams are compared as matrices and, with
    ``serialized``, as bytes, against each member as ``serialize_matrix``
    writes it followed by a blank line, and the count record."""
    checked = [c for c in checked if all(e in population for e in c[0].entries)]
    for spec in ("1", "2", "12"):
        for rank in ranks:
            want = tuple(
                x for x, report, r in checked
                if report.satisfies(spec) and rank in (None, r)
            )
            got = cs.brute_force_inverses(a, spec, population, rank)
            assert tuple(got) == want and got.count == len(want), (
                a, spec, population, rank,
            )
            if serialized:
                want_text = "".join(serialize_matrix(x) + "\n" for x in want)
                assert got.serialize() == want_text + f"count: {len(want)}\n", (
                    a, spec, population, rank,
                )
            if rank in count_ranks:
                quick = cs.brute_force_inverses(
                    a, spec, population, rank, count_only=True
                )
                assert quick.matrices is None and quick.count == got.count


class TestScanMatchesReference:
    """The row-table scan against a naive check of every candidate."""

    @pytest.mark.parametrize("cells", [1, 2, 3, 4, 5])
    def test_every_small_matrix(self, cells):
        # One reference over the widest population serves its
        # sub-populations.  Five cells over five values would need 1.5M
        # reference checks, so {-2, ..., 2} stops at four cells.
        widest = SCAN_POPULATIONS[-1] if cells < 5 else SCAN_POPULATIONS[0]
        for m in range(1, cells + 1):
            if cells % m:
                continue
            for a in all_ternary(m, cells // m):
                checked = _reference(a, widest)
                ranks = (None,) + tuple(range(1, min(a.shape) + 1))
                for values in SCAN_POPULATIONS:
                    if set(values) <= set(widest):
                        population = cs.Population(values)
                        _assert_scan_matches(a, population, checked, ranks,
                                             serialized=population == cs.TERNARY)

    @pytest.mark.parametrize(
        "a, reflexive",
        [
            (ones(4, 1), 16),
            (ones(1, 4), 16),
            (M([[1, 1], [1, 1], [1, 0], [0, 0]]), 54),
            (M([[1, 0, -1, 1], [0, 1, 1, 0]]), 30),
            # a zero column: every row of X facing it is free, so each
            # AXA = A bucket holds 27 suffixes and spec 12 keeps a third
            (M([[1, 1, 0], [0, 1, 0], [1, -1, 0]]), 36),
            # one row of X: the walk before the lookup is empty
            (M([[1]]), 1),
        ],
        ids=["4x1", "1x4", "4x2", "2x4", "3x3-zero-column", "1x1"],
    )
    def test_transposed_and_wide_scans(self, a, reflexive):
        # count-only runs are checked at every rank against the streams,
        # so the summed bucket sizes of each split shape are too
        checked = _reference(a, cs.TERNARY.values)
        ranks = (None, 0, 1, 2)
        _assert_scan_matches(a, cs.TERNARY, checked, ranks, ranks, serialized=True)
        assert cs.brute_force_inverses(a, "12").count == reflexive

    @pytest.mark.parametrize(
        "a",
        [
            M([[1, 0, 1], [0, 1, -1], [1, 1, 1]]),
            # row 3 = row 1 + row 2: some row spaces W have rank(B A) < dim W
            M([[1, 0, 1], [0, 1, -1], [1, 1, 0]]),
        ],
        ids=["3x3-full-rank", "3x3-rank-2"],
    )
    def test_outer_scans_over_wide_populations(self, a):
        # XAX = X by one join per row space, on populations without 0, of
        # one value, and of four values, streamed and counted at every rank
        checked = _reference(a, (-1, 0, 1, 2))
        ranks = (None, 0, 1, 2, 3)
        for values in [(-1, 1), (1,), (-1, 0, 1, 2)]:
            _assert_scan_matches(a, cs.Population(values), checked, ranks, ranks)

    @pytest.mark.parametrize(
        "shape, seed",
        [((3, 3), 1), ((3, 3), 13), ((2, 4), 3), ((4, 2), 3), ((2, 5), 1), ((5, 2), 3)],
        ids=["3x3-full-rank", "3x3-rank-2", "2x4", "4x2", "2x5", "5x2"],
    )
    def test_eight_to_ten_cells(self, shape, seed):
        # seeded A with 8-10 cells reach joins of three to five positions
        # and, for a tall A, the scan of A^T, streamed as text and counted
        # at every rank over {-1, 0, 1} and {0, 1}; each rank-2 A has
        # reflexive inverses over both
        rng = random.Random(seed)
        a = TernaryMatrix(*shape, tuple(rng.choice((-1, 0, 1))
                                        for _ in range(shape[0] * shape[1])))
        checked = _reference(a, cs.TERNARY.values)
        ranks = (None,) + tuple(range(min(shape) + 1))
        for values in [(-1, 0, 1), (0, 1)]:
            _assert_scan_matches(a, cs.Population(values), checked, ranks, ranks,
                                 serialized=True)


def _mul(p, q):
    """The product of two matrices given as row tuples, by plain loops."""
    return tuple(tuple(sum(row[t] * q[t][j] for t in range(len(q)))
                       for j in range(len(q[0]))) for row in p)


#: every shape m x n (m <= n) of a scanned A with at most 10 cells
HIT_SHAPES = [(m, n) for m in range(1, 4) for n in range(m, 11) if m * n <= 10]


class TestHitPlans:
    """The compiled confirmation of the XAX = X joins' hits, on arbitrary
    index tuples: the joins yield members only, so their hits alone would
    not show a plan that skips an equation."""

    @pytest.mark.parametrize("m, n", HIT_SHAPES, ids=[f"{m}x{n}" for m, n in HIT_SHAPES])
    def test_plan_is_the_defining_equations(self, m, n):
        rng = random.Random(10 * m + n)
        kinds = set()
        # a rank-one A with reflexive inverses, and a random one
        rank_one = ((1,) * n,) + ((0,) * n,) * (m - 1)
        for values in [(-1, 0, 1), (0, 1), (-2, -1, 0, 1, 2)]:
            rows = tuple(product(values, repeat=m))
            random_a = tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(n))
                             for _ in range(m))
            for ar in (rank_one, random_a):
                ra = _product_rows(rows, ar)
                codes, joins = cs._outer_joins(ar, rows, ra, values, _row_rank(ar),
                                               None, False)
                hits = list(chain.from_iterable(joins))
                tuples = rng.sample(hits, min(len(hits), 60)) + [
                    tuple(rng.randrange(len(rows)) for _ in range(n)) for _ in range(60)
                ] + [(rows.index((0,) * m),) * n]
                for flip, reflexive in product((False, True), repeat=2):
                    inner = cs._inner_codes(ar, ra) if reflexive else ()
                    plan = cs._row_plan(n, m, flip, "12" if reflexive else "2")(
                        rows, ra, codes, *inner)
                    for idx in tuples:
                        x = tuple(rows[i] for i in idx)  # n x m
                        outer = _mul(_mul(x, ar), x) == x
                        inner_ok = _mul(_mul(ar, x), ar) == ar
                        kind = (reflexive, outer, inner_ok if reflexive else None)
                        kinds.add(kind)
                        want = None
                        if outer and (inner_ok or not reflexive):
                            want = tuple(chain.from_iterable(zip(*x) if flip else x))
                        assert plan(idx) == want, (ar, values, flip, reflexive, idx)
        # every outcome was met: no outer inverse, an outer inverse, and,
        # for spec 12, an outer one that is not inner, and a reflexive one
        assert kinds >= {(False, False, None), (False, True, None),
                         (True, False, False), (True, True, False), (True, True, True)}

    def test_unconfirmed_plan_concatenates(self):
        # spec 1's blocks: leads and suffixes of any length, zero included
        rows = tuple(product((0, 1, 2), repeat=2))
        for length in range(5):
            plan = cs._row_plan(length, 0, False, None)(rows)
            for idx in product(range(len(rows)), repeat=length):
                assert plan(idx) == tuple(chain.from_iterable(rows[i] for i in idx))


def _assert_capped_prefixes(m, values, spaces):
    """The lattice capped at dimension r is the dimension-<= r part of the
    whole one, for every r."""
    for r in range(m + 1):
        assert cs._subspaces(m, values, r) == tuple(
            s for s in spaces if len(s.basis) <= r
        )


def _names_used(code):
    """Every global or attribute name the code object reads, nested code
    (inner functions, comprehensions) included."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names_used(const)


def _homes(fn):
    """The module each global name used by ``fn`` resolves to in census."""
    fn = inspect.unwrap(fn)
    homes = {}
    for name in set(_names_used(fn.__code__)):
        if name in fn.__globals__:
            obj = fn.__globals__[name]
            homes[name] = (
                obj.__name__ if isinstance(obj, types.ModuleType)
                else getattr(obj, "__module__", None)
            )
        else:
            homes[name] = None
    return homes


class TestScanIndependence:
    """The scan uses only the matrices kernel, never the families, the
    classification or the dispatch that it checks."""

    SCAN = ("brute_force_inverses", "_join", "_inner_codes", "_outer_joins",
            "_subspaces", "_normal_basis", "_powers", "_entry_blocks",
            "_of_rank", "_row_plan")
    CHECKED = {"bohemian.families", "bohemian.classify", "bohemian.theorems"}

    def test_scan_names_resolve_outside_the_checked_modules(self):
        used = {}
        for name in self.SCAN:
            for attr, home in _homes(getattr(cs, name)).items():
                assert home not in self.CHECKED, (name, attr, home)
                assert attr not in {"families", "classify", "theorems"}, (name, attr)
                used[attr] = home
        # the walk reaches the kernel, and nested code: ``compress`` is read
        # only inside the generator that ``_join`` returns
        assert used["_product_rows"] == "bohemian.matrices"
        assert used["compress"] == "itertools"
        assert used["_join"] == used["_subspaces"] == "bohemian.census"
        # every census function the scan calls is walked as well
        called = {
            attr for attr, home in used.items()
            if home == "bohemian.census" and callable(getattr(cs, attr))
            and not isinstance(getattr(cs, attr), type)
        }
        assert called <= set(self.SCAN), called - set(self.SCAN)

    def test_compiled_plans_read_no_global_name(self):
        # the walk above cannot see inside exec-compiled source, so every
        # plan's code objects, nested ones included, are read directly
        plans = [cs._row_plan(length, 0, False, None) for length in range(4)] + [
            cs._row_plan(n, m, flip, confirm)
            for m, n in [(1, 1), (1, 3), (2, 2), (2, 5), (3, 3)]
            for flip, confirm in product((False, True), (None, "2", "12"))
        ]
        for plan in plans:
            assert set(_names_used(plan.__code__)) == set(), plan.__name__

    def test_walk_sees_family_use(self):
        # family materialization does read the families module's types
        homes = _homes(cs._materialize_body)
        assert homes["SumConstraintSystem"] == "bohemian.families"


class TestSubspaces:
    """The row spaces of a population table, one XAX = X join each."""

    @pytest.mark.parametrize(
        "m, values, count",
        [(1, (-1, 0, 1), 2), (2, (-1, 0, 1), 6), (3, (-1, 0, 1), 40),
         (4, (-1, 0, 1), 1_084), (4, (0, 1), 117)],
    )
    def test_counts(self, m, values, count):
        spaces = cs._subspaces(m, values, m)
        assert len(spaces) == count
        _assert_capped_prefixes(m, values, spaces)

    @pytest.mark.parametrize(
        "m, values",
        [(m, v) for m in (1, 2, 3) for v in [(-1, 0, 1), (0, 1), (-1, 1), (1,), (0,)]]
        + [(2, (-1, 0, 1, 2)), (3, (-1, 0, 1, 2))],
    )
    def test_member_sets(self, m, values):
        # each member set is every row x with rank(basis + x) = dim W, and
        # no two row spaces share one
        rows = list(product(values, repeat=m))
        spaces = cs._subspaces(m, values, m)
        _assert_capped_prefixes(m, values, spaces)
        assert len({s.members for s in spaces}) == len(spaces)
        assert [len(s.basis) for s in spaces] == sorted(len(s.basis) for s in spaces)
        for space in spaces:
            basis = [rows[b] for b in space.basis]
            r = len(basis)
            assert r == 0 or exact_rank(IntMatrix.from_rows(basis)) == r
            want = tuple(
                i for i, x in enumerate(rows)
                if exact_rank(IntMatrix.from_rows(basis + [x])) == r
            )
            assert space.members == want, (values, space)


class TestLemma24Consistency:
    def test_zero_column_stacks(self):
        # every block shape up to 2 x 2, one appended zero column
        for bm in range(1, 3):
            for bn in range(1, 3):
                for b in all_ternary(bm, bn):
                    a = M([r + (0,) for r in b.row_tuples()])
                    for x in cs.brute_force_inverses(a, "2"):
                        rows = x.row_tuples()
                        x1 = IntMatrix.from_rows(rows[:bn])
                        x2 = IntMatrix.from_rows(rows[bn:])
                        assert multiply(multiply(x1, b), x1) == x1
                        assert multiply(multiply(x2, b), x1) == x2


class TestSumConstrained:
    def test_single_block_sum_one(self):
        fml = fam.inner_full_type_I(2, 2)
        res = cs.enumerate_sum_constrained(fml.body)
        assert res.count == 16

    def test_half_rhs_is_empty(self):
        fml = fam.inner_S1(1, 1, 1)
        res = cs.enumerate_sum_constrained(fml.body)
        assert res.count == 0
        assert cs.enumerate_sum_constrained(fml.body, count_only=True).count == 0

    def test_independent_blocks_multiply(self):
        # one cell pinned to sum 1, the other two cells pinned to sum 0
        system = fam.SumConstraintSystem(
            (1, 3),
            (fam.LinearConstraint((1, 0, 0), 1), fam.LinearConstraint((0, 1, 1), 0)),
        )
        res = cs.enumerate_sum_constrained(system)
        assert res.count == 3
        assert {m.entries for m in res} == {(1, -1, 1), (1, 0, 0), (1, 1, -1)}

    def test_fully_pinned_pair(self):
        system = fam.SumConstraintSystem(
            (1, 2),
            (fam.LinearConstraint((1, 0), 1), fam.LinearConstraint((0, 1), 0)),
        )
        res = cs.enumerate_sum_constrained(system)
        assert [m.entries for m in res] == [(1, 0)]

    def test_count_only_agrees_with_stream(self):
        fml = fam.inner_S3(1, 1, (1, 1, 1, 1))
        full = cs.enumerate_sum_constrained(fml.body)
        quick = cs.enumerate_sum_constrained(fml.body, count_only=True)
        assert full.count == quick.count

    def test_odometer_order(self):
        fml = fam.inner_full_type_I(2, 1)
        res = cs.enumerate_sum_constrained(fml.body)
        entries = [m.entries for m in res]
        assert entries == sorted(entries)


class TestResultBoundary:
    """Results hold entry tuples; members are built, and checked, only
    where a caller iterates a result."""

    def test_members_are_entry_tuples(self):
        res = cs.brute_force_inverses(M([[1, -1]]), "1")
        assert res.shape == (2, 1)
        assert res.matrices == ((0, -1), (1, 0))
        assert list(res) == [IntMatrix(2, 1, (0, -1)), IntMatrix(2, 1, (1, 0))]

    def test_non_integer_entry_raises_on_iteration(self):
        res = cs.EnumerationResult((1, 2), ((1, 0), (0, 0.5)), 2)
        with pytest.raises(DomainError):
            list(res)

    def test_wrong_length_entry_tuple_raises_on_iteration(self):
        res = cs.EnumerationResult((2, 2), ((1, 0, 0, 1), (1, 0, 1)), 2)
        with pytest.raises(ShapeError):
            list(res)

    def test_count_only_result(self):
        res = cs.brute_force_inverses(ones(2, 2), "1", count_only=True)
        assert res.matrices is None and res.shape == (2, 2)
        with pytest.raises(DomainError):
            iter(res)
        assert res.serialize() == f"count: {res.count}\n"

    def test_empty_stream_serializes_to_count_zero(self):
        res = cs.brute_force_inverses(ones(1, 2), "1", population=cs.Population((0,)))
        assert res.matrices == () and res.count == 0
        assert res.serialize() == "count: 0\n"
        assert cs.EnumerationResult((3, 2), (), 0).serialize() == "count: 0\n"


class TestMaterializeAndCompare:
    def test_family_matches_oracle(self):
        fml = fam.inner_full_type_I(2, 2)
        assert cs.set_equal(
            cs.materialize_family(fml), cs.brute_force_inverses(ones(2, 2), "1")
        ).equal

    def test_diff_report(self):
        a = [identity(2)]
        b = [identity(2), ones(2, 2)]
        cmpres = cs.set_equal(a, b)
        assert not cmpres.equal
        assert cmpres.only_in_a == ()
        assert [m.to_lists() for m in cmpres.only_in_b] == [[[1, 1], [1, 1]]]

    def test_stream_serialization_has_count_record(self):
        res = cs.brute_force_inverses(M([[1, -1]]), "1")
        text = res.serialize()
        assert text.endswith("count: 2\n")
        assert text.count("\n\n") == 2

    def test_set_equal_takes_a_result_and_a_list_together(self):
        res = cs.brute_force_inverses(M([[1, -1]]), "1")
        assert cs.set_equal(res, list(res)).equal
        assert cs.set_equal(list(res), res).equal
        cmpres = cs.set_equal(res, [M([[1], [0]]), M([[1], [1]])])
        assert cmpres.only_in_a == (IntMatrix(2, 1, (0, -1)),)
        assert cmpres.only_in_b == (IntMatrix(2, 1, (1, 1)),)
        assert not cmpres.equal

    @given(ternary_matrices(max_rows=2, max_cols=2))
    @settings(max_examples=30)
    def test_materialized_members_are_population_valued(self, a):
        if not any(a.entries):
            return
        if exact_rank(a) != 1:
            return
        from bohemian.classify import _row_classes

        classes, _ = _row_classes(a.row_tuples())
        rep, members_list = classes[0]
        zeta = [0] * a.rows
        for idx, sign in members_list:
            zeta[idx] = sign
        fml = fam.outer_rank_one_general(tuple(zeta), rep)
        for m in cs.materialize_family(fml):
            assert all(e in (-1, 0, 1) for e in m.entries)


TRITS = (-1, 0, 1)
#: populations of theorem mode; each is a subset of TRITS, so one reference
#: over TRITS serves them all
SUB_POPULATIONS = [(-1, 0, 1), (0, 1), (-1, 0), (1,)]


def _frac_system(shape, *constraints):
    """The system of (coefficient row, rhs) constraints, every value read
    as a Fraction."""
    return fam.SumConstraintSystem(shape, tuple(
        fam.LinearConstraint(tuple(map(Fraction, coeffs)), Fraction(rhs))
        for coeffs, rhs in constraints
    ))


#: every sum-constraint family builder, on shapes of at most 9 cells
SUM_FAMILIES = {
    "typeI-1x1": fam.inner_full_type_I(1, 1),
    "typeI-2x2-neg": fam.inner_full_type_I(2, 2, -1),
    "typeI-3x3": fam.inner_full_type_I(3, 3),
    "typeI-1x4": fam.inner_full_type_I(1, 4),
    "typeI-2x3": fam.inner_full_type_I(2, 3),
    "typeII-1x2": fam.inner_full_type_II(1, 1, 1),
    "typeII-1x3-neg": fam.inner_full_type_II(1, 1, 2, -1),
    "typeII-2x3": fam.inner_full_type_II(2, 2, 1),
    "typeII-2x3-neg": fam.inner_full_type_II(2, 1, 2, -1),
    "typeII-3x3": fam.inner_full_type_II(3, 2, 1),
    "typeIII-2x3-neg": fam.inner_full_type_III(2, 2, 1, -1),
    "typeIII-3x3": fam.inner_full_type_III(3, 1, 2),
    "typeIV-1x3": fam.inner_full_type_IV(1, 1, 1, 1),
    "typeIV-2x4-neg": fam.inner_full_type_IV(2, 1, 1, 2, -1),
    "rank1-core-2x2": fam.inner_rank_one(M([[1, 0], [0, 0]])),
    "rank1-core-2x3": fam.inner_rank_one(M([[1, 1, 0], [1, 1, 0]])),
    "rank1-core-3x3": fam.inner_rank_one(M([[1, 1, 0], [1, 1, 0], [0, 0, 0]])),
    "rank1-core-2x4": fam.inner_rank_one(M([[1, 1, 0, 0], [1, 1, 0, 0]])),
    "S1-1-1-1": fam.inner_S1(1, 1, 1),
    "S1-1-2-1": fam.inner_S1(1, 2, 1),
    "S1-2-1-1": fam.inner_S1(2, 1, 1),
    "S2-1-1-1-0": fam.inner_S2(1, 1, 1, 0),
    "S2-1-1-1-1": fam.inner_S2(1, 1, 1, 1),
    "S2-2-1-1-1": fam.inner_S2(2, 1, 1, 1),
    "S3-1-1": fam.inner_S3(1, 1, (1, 1, 1, 1)),
    "class3-2": fam.class3_inner_system([M([[1, 1, 0]]), M([[0, 0, 1]])]),
    "class3-3": fam.class3_inner_system(
        [M([[1, 1, 0], [-1, -1, 0]]), M([[1, -1, 0]])]
    ),
    "class3-signs": fam.class3_inner_system([M([[1, -1]]), M([[1, 1]])]),
    "rank2-S1": fam.outer_rank2_class3("S1", (1,)),
    "rank2-S2": fam.outer_rank2_class3("S2", (1, 1)),
    "rank2-S3": fam.outer_rank2_class3("S3", (1, 1, 1, 1)),
    "rank2-S4": fam.outer_rank2_class3("S4", (2, 2)),
    "rank2-S4-1-2": fam.outer_rank2_class3("S4", (1, 2)),
    "reflexive-2x3": fam.reflexive_full_row_rank([(1, 1, 0), (1, 0, 0)]),
    "reflexive-2x4": fam.reflexive_full_row_rank([(1, 1, 0, 1), (0, 1, 1, 1)]),
    "reflexive-3x3": fam.reflexive_full_row_rank(
        [(1, 0, 1), (0, 1, -1), (1, 1, 1)]
    ),
    # s0 / 2 + s1 = 1, s0 the sum of columns 0-1 and s1 of column 2: a
    # fractional coefficient
    "frac-coeff": fam.InverseFamily("FracCoeff", _frac_system(
        (2, 3), (("1/2", "1/2", 1, "1/2", "1/2", 1), 1),
    )),
    # s0 / 3 - s1 / 6 = 1/2, s0 the sum of row 0 and s1 of rows 1-2, that
    # is 2 s0 - s1 = 3: fractional rhs too
    "frac-rhs": fam.InverseFamily("FracRhs", _frac_system(
        (3, 2), (("1/3", "1/3", "-1/6", "-1/6", "-1/6", "-1/6"), "1/2"),
    )),
    # 2 x0 = 1 has no integer solution
    "frac-rhs-empty": fam.InverseFamily("FracEmpty", _frac_system(
        (1, 3), ((2, 0, 0), "1/2"), ((0, 1, 1), 0),
    )),
    # no constraint: every cell is free
    "free-2x2": fam.InverseFamily("Free", _frac_system((2, 2))),
}
#: the families with no ternary member; the S1 systems have half-integer
#: block sums
EMPTY_SUM_FAMILIES = {
    "S1-1-1-1", "S1-1-2-1", "S1-2-1-1", "S2-1-1-1-0", "class3-3", "class3-signs",
    "frac-rhs-empty", "rank2-S1", "reflexive-3x3",
}


def _members_over(values, ternary_members):
    return [e for e in ternary_members if all(v in values for v in e)]


class TestSumConstrainedMatchesFilter:
    """Integer constraints, split fillings and the itemgetter assembly
    against the literal filter, whose ``is_member`` works in Fraction."""

    @pytest.mark.parametrize("name", sorted(SUM_FAMILIES))
    def test_family(self, name):
        family = SUM_FAMILIES[name]
        body = family.body
        n, m = body.shape
        assert n * m <= 9
        literal = [
            x for x in product(TRITS, repeat=n * m)
            if body.is_member(IntMatrix(n, m, x))
        ]
        assert bool(literal) == (name not in EMPTY_SUM_FAMILIES)
        for values in SUB_POPULATIONS:
            population = cs.Population(values)
            want = _members_over(values, literal)
            got = cs.enumerate_sum_constrained(body, population)
            assert [x.entries for x in got] == want, (name, values)
            assert got.count == len(want)
            quick = cs.enumerate_sum_constrained(body, population, count_only=True)
            assert quick.matrices is None and quick.count == len(want)
            assert [x.entries for x in cs.materialize_family(family, population)] == want


#: populations of the random systems, one beyond theorem mode's
RANDOM_POPULATIONS = [(-1, 0, 1), (0, 1), (-1, 0), (-2, -1, 0, 1, 2)]


def _random_system(rng):
    """A system on a 1-3 x 1-4 X of 0-3 constraints with integer and half
    coefficients, whose components interleave in row-major order."""
    n, m = rng.randint(1, 3), rng.randint(1, 4)
    half = Fraction(1, 2)
    coeffs = (0, 0, 0, 1, -1, 2, half, -half)
    return fam.SumConstraintSystem((n, m), tuple(
        fam.LinearConstraint(
            tuple(rng.choice(coeffs) for _ in range(n * m)),
            rng.choice((0, 0, 1, -1, 2, half)),
        )
        for _ in range(rng.randint(0, 3))
    ))


class TestRandomSystemsMatchFilter:
    """The completion-table walk on seeded random systems against the
    literal filter: the stream in odometer order, the count-only count and
    the serialized text, member by member, also at each rank."""

    @pytest.mark.parametrize("seed", range(40))
    def test_system(self, seed):
        import random

        from bohemian.matrices import serialize_matrix

        body = _random_system(random.Random(seed))
        n, m = body.shape
        for values in RANDOM_POPULATIONS:
            if len(values) ** (n * m) > 60_000:
                continue
            population = cs.Population(values)
            want = [
                x for x in map(lambda e: IntMatrix(n, m, e), product(values, repeat=n * m))
                if body.is_member(x)
            ]
            got = cs.enumerate_sum_constrained(body, population)
            assert list(got) == want, (seed, values)
            quick = cs.enumerate_sum_constrained(body, population, count_only=True)
            assert quick.matrices is None and quick.count == got.count == len(want)
            text = "".join(serialize_matrix(x) + "\n" for x in want)
            assert got.serialize() == text + f"count: {len(want)}\n", (seed, values)
            family = fam.InverseFamily("Random", body)
            for rank in range(min(n, m) + 1):
                kept = [x for x in want if exact_rank(x) == rank]
                ranked = cs.materialize_family(family, population, rank)
                assert list(ranked) == kept, (seed, values, rank)
                text = "".join(serialize_matrix(x) + "\n" for x in kept)
                assert ranked.serialize() == text + f"count: {len(kept)}\n"

    def test_orthogonal_stack_streams_the_census(self):
        # three mutually orthogonal rank-one row blocks; the Thm4.7 system
        # has 20 cells and 12,600 ternary members
        from bohemian.theorems import select_theorem

        a = M([[1, 1, 1, 0, 0], [-1, -1, -1, 0, 0], [1, -1, 0, 1, 0], [0, 0, 0, 0, 1]])
        family = select_theorem(a, "1")
        assert family.theorem_id == "Thm4.7"
        got = cs.materialize_family(family)
        want = cs.brute_force_inverses(a, "1", cell_budget=20)
        assert got == want and want.count == 12_600
        assert got.serialize() == want.serialize()


def _row_space(rows):
    """The reduced row echelon form of the rows, in Fraction: one key per
    row space, made without the census code."""
    echelon = []
    for row in rows:
        row = list(map(Fraction, row))
        for pivot in echelon:
            c = next(c for c, e in enumerate(pivot) if e)
            row = [e - row[c] * p for e, p in zip(row, pivot)]
        if any(row):
            lead = next(e for e in row if e)
            row = [e / lead for e in row]
            c = row.index(1)
            echelon = [[e - p[c] * r for e, r in zip(p, row)] for p in echelon]
            echelon.append(row)
    return tuple(sorted(tuple(r) for r in echelon))


class TestOfRank:
    """``_of_rank`` against ``exact_rank`` member by member, and its kept
    nodes shared by every block and parent that reach one node with one
    prefix rest and head space."""

    @staticmethod
    def _check(result):
        n, m = result.shape
        stream = result.matrices
        last = result._depth - 1
        kept_nodes = 0
        for rank in range(min(n, m) + 1):
            want = tuple(e for e in stream if exact_rank(IntMatrix(n, m, e)) == rank)
            got = cs._of_rank(result, rank)
            assert got.matrices == want and got.count == len(want), rank
            # each kept block keeps its prefix, and each (node, rest, head
            # space) is cut into one kept node, the head space growing by
            # each row above the last level
            held = {}

            def walk(node, kept, level, rest, head):
                key = (id(node), rest, _row_space(head))
                assert held.setdefault(key, kept) is kept, (rank, level, head)
                if level < last:
                    children = dict(node)
                    for row, child in kept:
                        walk(children[row], child, level + 1, (), head + [row])

            source = {p: node for p, node in result._blocks}
            for p, kept in got._blocks:
                whole = len(p) - len(p) % m
                walk(source[p], kept, 0, p[whole:], list(zip(*[iter(p[:whole])] * m)))
            kept_nodes += len({id(kept) for _, kept in got._blocks})
        return kept_nodes

    @pytest.mark.parametrize(
        "rows",
        [
            [[1], [1], [0], [0], [0], [0], [0]],
            [[1], [-1], [-1], [0], [0], [0], [0]],
            [[1, 1, 0, 0, 0, 0, 0]],
            [[-1, 1, 1, 0, 0, 0, 0]],
            [[1, 1, -1, -1, -1], [1, 1, -1, -1, -1]],
            [[1, 1], [1, 1], [-1, -1], [-1, -1], [-1, -1]],
            [[1, 1, 1, 0, 0], [-1, -1, -1, 0, 0], [1, -1, 0, 1, 0], [0, 0, 0, 0, 1]],
        ],
        ids=["typeIII-7x1", "typeIV-7x1", "typeIII-1x7", "typeIV-1x7",
             "typeII-2x5", "typeII-5x2", "orthogonal-stack-4x5"],
    )
    def test_theorem_families(self, rows):
        # a 7x1 A has a one-row X, which the walk splits mid-row
        from bohemian.theorems import select_theorem

        a = M(rows)
        result = cs.materialize_family(select_theorem(a, "1"))
        assert len(result._blocks) > 1
        if a.cols == 1:
            assert 0 < len(result._blocks[0][0]) < a.rows
        kept_nodes = self._check(result)
        if a.rows == 2:  # heads of one row space share their kept nodes
            assert kept_nodes < sum(
                len(cs._of_rank(result, r)._blocks) for r in range(3))

    @pytest.mark.parametrize(
        "a",
        [ones(2, 3), ones(3, 2), M([[1, 0, -1], [0, 1, 1]]), M([[1, 1, 0], [0, 1, 1]]),
         M([[1, 0], [1, -1], [0, 1]]), ones(2, 4), ones(3, 3), ones(2, 5)],
        ids=["ones-2x3", "ones-3x2", "2x3", "2x3-b", "3x2", "ones-2x4", "ones-3x3",
             "ones-2x5"],
    )
    def test_spec1_scans(self, a):
        # the scan's prefixes and leads are whole rows of X, and a node or
        # bucket is shared by every prefix or lead that it completes
        full = cs.brute_force_inverses(a, "1")
        for rank in range(min(a.shape) + 1):
            got = cs.brute_force_inverses(a, "1", rank_filter=rank)
            want = tuple(x for x in full if exact_rank(x) == rank)
            assert tuple(got) == want, rank
        if a.rows <= a.cols:  # the scan's own blocks
            self._check(full)


#: each name's result at a rank, or unfiltered at None
STREAM_PRODUCERS = {
    # theorem systems, by the rows of X
    "system-2-rows": lambda r: _theorem_stream(
        [[1, 1], [1, 1], [-1, -1], [-1, -1], [-1, -1]], r),
    "system-3-rows": lambda r: _theorem_stream(ones(2, 3).row_tuples(), r),
    "system-3-rows-b": lambda r: _theorem_stream([[1, 1, 0], [0, 1, 1]], r),
    "system-4-rows": lambda r: _theorem_stream([[1, 1, -1, -1], [1, 1, -1, -1]], r),
    "system-5-rows": lambda r: _theorem_stream(
        [[1, 1, 1, 0, 0], [-1, -1, -1, 0, 0], [1, -1, 0, 1, 0], [0, 0, 0, 0, 1]], r),
    "system-one-column": lambda r: _theorem_stream([[1, 1, 0, -1, 0]], r),
    "system-one-row": lambda r: _theorem_stream([[1], [-1], [-1], [0], [0], [0], [0]], r),
    # 2 x = 1 has no integer solution
    "system-empty": lambda r: cs.materialize_family(fam.InverseFamily(
        "Empty", fam.SumConstraintSystem((2, 2), (fam.LinearConstraint((2, 0, 0, 0), 1),))),
        rank=r),
    "scan-spec1": lambda r: cs.brute_force_inverses(
        M([[1, 0, -1], [0, 1, 1]]), "1", rank_filter=r),
    "scan-spec1-transposed": lambda r: cs.brute_force_inverses(
        M([[1, 0], [1, -1], [0, 1]]), "1", rank_filter=r),
    "scan-spec1-dense": lambda r: cs.brute_force_inverses(ones(3, 3), "1", rank_filter=r),
    "scan-spec1-2x5": lambda r: cs.brute_force_inverses(ones(2, 5), "1", rank_filter=r),
    "scan-spec2": lambda r: cs.brute_force_inverses(
        M([[1, 1, 0], [0, 1, 1]]), "2", rank_filter=r),
    "product": lambda r: cs.materialize_family(PRODUCT_FAMILIES["typeI"], rank=r),
    "union": lambda r: _theorem_stream([[1, 1, 0, 1, -1], [0, 1, 1, 1, 1]], r, "2"),
}


def _theorem_stream(rows, rank, spec="1"):
    from bohemian.theorems import select_theorem

    return cs.materialize_family(select_theorem(M(rows), spec), rank=rank)


class TestStreamLayout:
    """Every producer's result, whatever its blocks and nodes, against its
    own member stream: the text ``serialize_matrix`` writes member by
    member, strict odometer order and the count, unfiltered and at each
    rank."""

    @pytest.mark.parametrize("name", sorted(STREAM_PRODUCERS))
    def test_serialize_is_the_member_stream(self, name):
        produce = STREAM_PRODUCERS[name]
        result = produce(None)
        n, m = result.shape
        for rank in (None, *range(min(n, m) + 1)):
            got = produce(rank) if rank is not None else result
            stream = got.matrices
            assert got.count == len(stream), (name, rank)
            assert all(a < b for a, b in zip(stream, stream[1:])), (name, rank)
            text = "".join(serialize_matrix(IntMatrix(n, m, e)) + "\n" for e in stream)
            assert got.serialize() == text + f"count: {len(stream)}\n", (name, rank)
        if name == "system-empty":
            assert result.count == 0
        else:
            assert result.count > 1

    def test_systems_have_one_level_per_row(self):
        # the rows after the prefix's are one level each, and a one-row X
        # split mid-row, or a one-column X, has one level
        for name, rows, depth in [("system-5-rows", 5, 3), ("system-4-rows", 4, 2),
                                  ("system-one-column", 5, 1), ("system-one-row", 1, 1)]:
            result = STREAM_PRODUCERS[name](None)
            assert (result.shape[0], result._depth) == (rows, depth), name
        prefix = STREAM_PRODUCERS["system-one-row"](None)._blocks[0][0]
        assert 0 < len(prefix) < 7

    def test_spec1_scan_shares_one_node_per_rest(self):
        # X is 3x3: the prefix is row 0, the last lead row 1, the tail row 2,
        # and a prefix's rest is A - A[:, 0] (x_0 A), its completions' key
        a = ones(3, 3)
        result = STREAM_PRODUCERS["scan-spec1-dense"](None)
        assert (result._depth, len(result._blocks)) == (2, 27)
        assert {p for p, _ in result._blocks} == set(product(TRITS, repeat=3))
        by_rest, by_node = {}, {}
        for p, node in result._blocks:
            xa = _mul((p,), a.row_tuples())[0]
            rest = tuple(tuple(e - row[0] * f for e, f in zip(row, xa))
                         for row in a.row_tuples())
            by_rest.setdefault(rest, set()).add(id(node))
            by_node.setdefault(id(node), set()).add(rest)
        assert len(by_node) == 7
        assert all(len(v) == 1 for v in (*by_rest.values(), *by_node.values()))

    def test_spec1_scan_stays_flat_where_blocks_are_cheaper(self):
        # 8 live prefixes have 16 live leads; their 4 nodes would hold 72
        # members, no fewer than 8 texts for each of the 8 blocks saved
        result = cs.brute_force_inverses(M([[1, 1, 0], [1, 1, 0]]), "1")
        assert (result._depth, len(result._blocks), result.count) == (1, 16, 144)
        assert all(len(p) == 4 for p, _ in result._blocks)  # two rows of the 3x2 X


def _product_reference(body, values):
    n, m = body.shape
    seen = set()
    for p in product(TRITS, repeat=n):
        for q in product(TRITS, repeat=m):
            if body.condition_value(p, q) == 1:
                seen.add(tuple(pi * qj for pi in p for qj in q))
    return _members_over(values, sorted(seen))


def _column_scaled_reference(rows, values):
    """The paper's (X1 | l_1 X1 | ... | l_{m-1} X1), X1 != 0, with
    sum_i l_i (row_i . X1) = 1 and l_0 = 1."""
    n, m = len(rows[0]), len(rows)
    seen = set()
    for x1 in product(TRITS, repeat=n):
        if not any(x1):
            continue
        dots = [sum(r * v for r, v in zip(row, x1)) for row in rows]
        for lambdas in product(TRITS, repeat=m - 1):
            scalars = (1,) + lambdas
            if sum(s * d for s, d in zip(scalars, dots)) == 1:
                seen.add(tuple(s * x1[i] for i in range(n) for s in scalars))
    return _members_over(values, sorted(seen))


PRODUCT_FAMILIES = {
    "general": fam.outer_rank_one_general((1, -1), (1, 0, 1)),
    "typeI": fam.outer_full_type_I(2, 3),
    "typeIII": fam.outer_full_type_III(2, 1, 2),
    "block-diagonal": fam.outer_rank1_block_diagonal(
        [M([[1, 1]]), M([[1, 0], [0, 1]])]
    ),
    "row-partitioned": fam.outer_rank1_row_partitioned(
        [M([[1, 1, 0]]), M([[1, -1, 1], [0, 1, 1]])]
    ),
    # (q1 + q2)(p1 + p2) - q1 p2 = 1: two terms, no builder's pairing
    "two-term": fam.InverseFamily("TwoTermProduct", fam.RankOneProductFamily(
        (2, 2), (((1, 1), (1, 1)), ((-1, 0), (0, 1))),
    )),
}

#: rows of full-row-rank A for ``outer_rank1_full_row_rank``
COLUMN_SCALED_ROWS = {
    "2x2": ((1, 0), (0, 1)),
    "2x3": ((1, 1, 0), (0, 1, 1)),
    "2x4": ((1, 1, 0, 1), (0, 1, -1, 1)),
    "3x3": ((1, 0, 1), (0, 1, -1), (1, 1, 1)),
}


class TestFactorMaterializersMatchConditions:
    """Form values taken once per factor vector, against ``condition_value``
    on every pair of ternary factors; the pinned family against the paper's
    column-scaled loop."""

    @pytest.mark.parametrize("name", sorted(PRODUCT_FAMILIES))
    def test_product(self, name):
        family = PRODUCT_FAMILIES[name]
        assert not family.body.pinned_lead  # the reference draws every q
        for values in SUB_POPULATIONS:
            population = cs.Population(values)
            want = _product_reference(family.body, values)
            assert sorted(cs._materialize_product(family.body, population)) == want
            got = cs.materialize_family(family, population)
            assert [x.entries for x in got] == want and got.count == len(want)

    @pytest.mark.parametrize("name", sorted(COLUMN_SCALED_ROWS))
    def test_column_scaled(self, name):
        rows = COLUMN_SCALED_ROWS[name]
        family = fam.outer_rank1_full_row_rank(rows)
        assert family.body.pinned_lead
        for values in SUB_POPULATIONS:
            population = cs.Population(values)
            want = _column_scaled_reference(rows, values)
            got = cs.materialize_family(family, population)
            assert [x.entries for x in got] == want, (name, values)
            assert got.count == len(want)
