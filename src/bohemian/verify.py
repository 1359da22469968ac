"""Cross-check harness: families and closed forms versus the census.

Each suite runs a budget-bounded grid of instances and compares the
characterized description against the literal brute-force census.  Any
mismatch becomes a discrepancy record; the one known, documented mismatch
(the column-scaled rank-one families missing zero-first-column members) is
shipped as an explicit allowlist and can be tolerated with a flag, never
silently hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import census as cs
from . import classify as cl
from . import counting as ct
from . import families as fam
from .matrices import (
    IntMatrix,
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
    zeros,
)

#: Documented family-versus-census mismatches, keyed by theorem id, each
#: tracking one recorded open question about the source characterizations.
KNOWN_GAPS = {
    "Thm5.19": "union's rank-one branch is column-scaled and misses members "
    "with a zero first column",
    "OuterRank1FullRowRank": "column-scaled parametrization misses rank-one "
    "members with a zero first column",
}


@dataclass(frozen=True)
class Discrepancy:
    theorem_id: str
    instance: str
    family_count: int
    oracle_count: int
    diff_sample: tuple[tuple[list, ...], ...]
    known_gap: bool = False

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "family_count": self.family_count,
            "oracle_count": self.oracle_count,
            "diff_sample": [list(m) for m in self.diff_sample],
            "known_gap": self.known_gap,
        }


@dataclass
class VerifyOutcome:
    suite: str
    cases_run: int = 0
    cases_passed: int = 0
    discrepancies: list[Discrepancy] = field(default_factory=list)

    def record(self, ok: bool):
        self.cases_run += 1
        if ok:
            self.cases_passed += 1

    def fail(
        self,
        theorem_id: str,
        instance: str,
        family_count: int = -1,
        oracle_count: int = -1,
        diff=(),
        known_gap: bool = False,
    ):
        self.cases_run += 1
        sample = tuple(tuple(m.to_lists()) for m in list(diff)[:8])
        self.discrepancies.append(
            Discrepancy(theorem_id, instance, family_count, oracle_count, sample, known_gap)
        )

    def compare_sets(self, theorem_id: str, instance: str, family_res, oracle_res):
        cmpres = cs.set_equal(family_res, oracle_res)
        if cmpres.equal:
            self.record(True)
        else:
            self.fail(
                theorem_id,
                instance,
                family_count=family_res.count,
                oracle_count=oracle_res.count,
                diff=cmpres.only_in_a + cmpres.only_in_b,
            )
        return cmpres.equal

    def compare_gap_sets(self, theorem_id: str, instance: str, family_res, oracle_res):
        """Like compare_sets for a family with the documented gap: the
        mismatch is a known gap when the family only misses members with a
        zero first column, and the sample lists the missed members."""
        cmpres = cs.set_equal(family_res, oracle_res)
        if cmpres.equal:
            self.record(True)
            return
        structural = not cmpres.only_in_a and not any(
            any(m.column(0)) for m in cmpres.only_in_b
        )
        self.fail(
            theorem_id,
            instance,
            family_res.count,
            oracle_res.count,
            diff=cmpres.only_in_b,
            known_gap=structural,
        )

    def compare_counts(
        self, theorem_id: str, instance: str, family_count: int, oracle_count: int
    ):
        if family_count == oracle_count:
            self.record(True)
        else:
            self.fail(theorem_id, instance, family_count, oracle_count)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "discrepancies": [d.to_json() for d in self.discrepancies],
        }


def _all_ternary(rows: int, cols: int):
    for ent in product((-1, 0, 1), repeat=rows * cols):
        yield TernaryMatrix(rows, cols, ent)


def _naive_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    out = []
    for i in range(a.rows):
        out.append(
            [
                sum(a.at(i, k) * b.at(k, j) for k in range(a.cols))
                for j in range(b.cols)
            ]
        )
    return IntMatrix.from_rows(out)


def _oracle_nonzero(a, spec, rank_filter=None, budget=None):
    res = cs.brute_force_inverses(
        a, spec, rank_filter=rank_filter, cell_budget=budget or a.rows * a.cols
    )
    kept = tuple(filter(any, res.matrices))
    return cs.EnumerationResult(res.shape, kept, len(kept))


# ---------------------------------------------------------------------------
# core suite

def suite_core(budget: int) -> VerifyOutcome:
    out = VerifyOutcome("core")

    # Penrose flags versus an independent naive evaluation of the equations.
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (2, 3), (3, 2)]:
        if 2 * m * n > budget:
            continue
        bad = 0
        for a in _all_ternary(m, n):
            for x in _all_ternary(n, m):
                rep = penrose_check(a, x)
                axa = _naive_mul(_naive_mul(a, x), a)
                xax = _naive_mul(_naive_mul(x, a), x)
                if rep.satisfies_1 != (axa == a):
                    bad += 1
                elif rep.satisfies_2 != (xax == x):
                    bad += 1
        if bad:
            out.fail("PenroseDefinition", f"shape {m}x{n}", bad, 0)
        else:
            out.record(True)

    # Membership flags invariant under every signed-permutation transform.
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        if 2 * m * n > budget:
            continue
        us = list(iter_signed_permutations(m))
        vs = list(iter_signed_permutations(n))
        bad = 0
        for a in _all_ternary(m, n):
            for x in _all_ternary(n, m):
                base = penrose_check(a, x)
                for u in us:
                    ua = u.apply_left(a)
                    for v in vs:
                        uav = v.apply_right(ua)
                        moved = penrose_check(uav, transform_inverse(x, u, v))
                        if (
                            moved.satisfies_1 != base.satisfies_1
                            or moved.satisfies_2 != base.satisfies_2
                        ):
                            bad += 1
        if bad:
            out.fail("TransformInvariance", f"shape {m}x{n}", bad, 0)
        else:
            out.record(True)

    # Rank is transpose-invariant.
    for m, n in product(range(1, 4), repeat=2):
        if m * n > budget:
            continue
        ok = all(
            exact_rank(a) == exact_rank(a.transpose()) for a in _all_ternary(m, n)
        )
        if ok:
            out.record(True)
        else:
            out.fail("RankTranspose", f"shape {m}x{n}")

    # All-ones sandwich products collapse to the entry sum.
    for n, r in product(range(1, 4), repeat=2):
        if n * r > budget:
            continue
        bad = 0
        for x in _all_ternary(n, r):
            for m, s in product(range(1, 4), repeat=2):
                lhs = multiply(multiply(ones(m, n), x), ones(r, s))
                want = entry_sum(x)
                if any(e != want for e in lhs.entries):
                    bad += 1
        if bad:
            out.fail("AllOnesProducts", f"inner shape {n}x{r}", bad, 0)
        else:
            out.record(True)

    # Rank-one factorization round trip, with the unitary-factor view.
    for m, n in product(range(1, 4), repeat=2):
        if m * n > budget:
            continue
        bad = 0
        for a in _all_ternary(m, n):
            if exact_rank(a) != 1:
                continue
            f = cl.rank_one_factorize(a)
            if f.reassemble() != a:
                bad += 1
            elif f.u_factor().apply_left(f.v_factor().apply_right(f.core)) != a:
                bad += 1
        if bad:
            out.fail("Thm3.2RoundTrip", f"shape {m}x{n}", bad, 0)
        else:
            out.record(True)

    # Text round trip on a deterministic matrix sample.
    sample = [ones(2, 3), identity(3), zeros(1, 4), parse_matrix("1 -1 0\n0 0 1\n")]
    if all(parse_matrix(serialize_matrix(m)) == m for m in sample):
        out.record(True)
    else:
        out.fail("TextRoundTrip", "sample")
    return out


# ---------------------------------------------------------------------------
# inner suite

def _type_ii_matrix(m, n1, n2, sign=1) -> TernaryMatrix:
    row = (sign,) * n1 + (-sign,) * n2
    return TernaryMatrix.from_rows([row] * m)


def _s_stack(w1, w2) -> TernaryMatrix:
    return TernaryMatrix.from_rows([w1, w2])


def suite_inner(budget: int) -> VerifyOutcome:
    out = VerifyOutcome("inner")

    # all-ones inner family on a small grid
    for m, n in product(range(1, 4), repeat=2):
        if m * n > budget:
            continue
        out.compare_sets(
            "InnerTypeI",
            f"m={m} n={n}",
            cs.materialize_family(fam.inner_full_type_I(m, n)),
            cs.brute_force_inverses(ones(m, n), "1", cell_budget=budget),
        )

    # two-block sign matrices, both signs
    for m in range(1, 5):
        for n1 in range(1, 8):
            for n2 in range(1, 8):
                if m * (n1 + n2) > min(8, budget):
                    continue
                for sign in (1, -1):
                    a = _type_ii_matrix(m, n1, n2, sign)
                    out.compare_sets(
                        "Thm3.5",
                        f"m={m} n1={n1} n2={n2} sign={sign:+d}",
                        cs.materialize_family(fam.inner_full_type_II(m, n1, n2, sign)),
                        cs.brute_force_inverses(a, "1", cell_budget=budget),
                    )

    # S1: half-integer system, empty over the ternary population
    for m1, m2, n1 in [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)]:
        a = TernaryMatrix.from_rows(
            [(1,) * (2 * n1)] * m1 + [(1,) * n1 + (-1,) * n1] * m2
        )
        cells = 2 * n1 * (m1 + m2)
        if cells > budget:
            continue
        out.compare_sets(
            "Thm4.5",
            f"m1={m1} m2={m2} n1={n1}",
            cs.materialize_family(fam.inner_S1(m1, m2, n1)),
            cs.brute_force_inverses(a, "1", cell_budget=budget),
        )

    # S2 and S3 smallest instances
    for m1, m2, n1, n3 in [(1, 1, 1, 1), (1, 1, 1, 2)]:
        n = 2 * n1 + n3
        if n * (m1 + m2) > budget:
            continue
        a = TernaryMatrix.from_rows(
            [(1,) * n] * m1 + [(1,) * n1 + (-1,) * n1 + (0,) * n3] * m2
        )
        out.compare_sets(
            "Thm4.6",
            f"m1={m1} m2={m2} n1={n1} n3={n3}",
            cs.materialize_family(fam.inner_S2(m1, m2, n1, n3)),
            cs.brute_force_inverses(a, "1", cell_budget=budget),
        )
    if 8 <= budget:
        a = _s_stack((1, 1, 1, 0), (1, -1, 0, 1))
        out.compare_sets(
            "Thm4.8",
            "widths (1,1,1,1) m1=m2=1",
            cs.materialize_family(fam.inner_S3(1, 1, (1, 1, 1, 1))),
            cs.brute_force_inverses(a, "1", cell_budget=budget),
        )

    # stacked-orthogonal-blocks membership equals the defining equation
    instances = [
        [((1, 1, 1, 0),), ((1, -1, 0, 1),)],
    ]
    if budget >= 12:
        instances.append([((1, 1, 1, 1),), ((1, 1, -1, -1),), ((1, -1, 0, 0),)])
    for block_rows in instances:
        blocks = [TernaryMatrix.from_rows(rs) for rs in block_rows]
        a = TernaryMatrix.from_rows([r for rs in block_rows for r in rs])
        cells = a.rows * a.cols
        if cells > budget:
            continue
        bad = 0
        for ent in product((-1, 0, 1), repeat=cells):
            x = IntMatrix(a.cols, a.rows, ent)
            if fam.class3_inner_membership(blocks, x) != penrose_check(a, x).satisfies_1:
                bad += 1
        if bad:
            out.fail("Thm4.7", f"{a.rows}x{a.cols} stack", bad, 0)
        else:
            out.record(True)
        out.compare_sets(
            "Thm4.7",
            f"{a.rows}x{a.cols} stack system",
            cs.materialize_family(fam.class3_inner_system(blocks)),
            cs.brute_force_inverses(a, "1", cell_budget=budget),
        )

    # full-row-rank reflexive family: the star-graph incidence transpose
    star_rows = [
        (1, -1, 0, 0, 0),
        (1, 0, -1, 0, 0),
        (1, 0, 0, 0, -1),
        (1, 0, 0, -1, 0),
    ]
    blocks = [TernaryMatrix.from_rows([r]) for r in star_rows]
    members = cs.materialize_family(fam.reflexive_full_row_rank(blocks))
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
    if set(members.matrices) == expected:
        out.record(True)
    else:
        out.fail("Thm5.16", "star graph incidence transpose", members.count, len(expected))

    # final worked 2x3 example: reflexive set equals both oracle sets
    a = TernaryMatrix.from_rows([[1, 1, 0], [1, 0, 0]])
    if a.rows * a.cols <= budget:
        refl = cs.materialize_family(
            fam.reflexive_full_row_rank(
                [TernaryMatrix.from_rows([r]) for r in a.row_tuples()]
            )
        )
        out.compare_sets(
            "Thm5.16", "2x3 full-row-rank, vs inner census",
            refl, cs.brute_force_inverses(a, "1", cell_budget=budget),
        )
        out.compare_sets(
            "Thm5.16", "2x3 full-row-rank, vs reflexive census",
            refl, cs.brute_force_inverses(a, "12", cell_budget=budget),
        )
    return out


# ---------------------------------------------------------------------------
# outer suite

def suite_outer(budget: int) -> VerifyOutcome:
    out = VerifyOutcome("outer")

    # all-ones outer family
    for m, n in product(range(1, 4), repeat=2):
        if m * n > budget:
            continue
        out.compare_sets(
            "Cor5.2",
            f"m={m} n={n}",
            cs.materialize_family(fam.outer_full_type_I(m, n)),
            _oracle_nonzero(ones(m, n), "2", budget=budget),
        )

    # ones-and-zeros outer family
    for m in range(1, 4):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                if m * (n1 + n2) > min(8, budget):
                    continue
                a = TernaryMatrix.from_rows([(1,) * n1 + (0,) * n2] * m)
                out.compare_sets(
                    "Thm5.5",
                    f"m={m} n1={n1} n2={n2}",
                    cs.materialize_family(fam.outer_full_type_III(m, n1, n2)),
                    _oracle_nonzero(a, "2", budget=budget),
                )

    # general outer products
    for zeta, eta in [((1, 1), (1, -1)), ((1, -1, 0), (1, 1)), ((1, 0, -1), (0, 1))]:
        m, n = len(zeta), len(eta)
        if m * n > budget:
            continue
        a = TernaryMatrix.from_rows([[z * e for e in eta] for z in zeta])
        out.compare_sets(
            "Thm5.1",
            f"zeta={zeta} eta={eta}",
            cs.materialize_family(fam.outer_rank_one_general(zeta, eta)),
            _oracle_nonzero(a, "2", budget=budget),
        )

    # rank-one outer inverses of block-diagonal and row-partitioned stacks
    ident = TernaryMatrix.from_rows([[1]])
    for blocks, label in [
        ([ident, ident], "diag(1,1)"),
        ([ones(1, 2), ident], "diag(ones 1x2, 1)"),
    ]:
        a_rows = []
        total_cols = sum(b.cols for b in blocks)
        coff = 0
        for b in blocks:
            for r in b.row_tuples():
                a_rows.append((0,) * coff + r + (0,) * (total_cols - coff - b.cols))
            coff += b.cols
        a = TernaryMatrix.from_rows(a_rows)
        if a.rows * a.cols > budget:
            continue
        out.compare_sets(
            "Thm5.10",
            label,
            cs.materialize_family(fam.outer_rank1_block_diagonal(blocks)),
            cs.brute_force_inverses(a, "2", rank_filter=1, cell_budget=budget),
        )

    for rows in [[(1, 1), (1, -1)], [(1, 1, 1), (1, -1, 0)]]:
        a = TernaryMatrix.from_rows(rows)
        if a.rows * a.cols > budget:
            continue
        out.compare_sets(
            "OuterRank1RowBlocks",
            f"rows {rows}",
            cs.materialize_family(
                fam.outer_rank1_row_partitioned(
                    [TernaryMatrix.from_rows([r]) for r in rows]
                )
            ),
            cs.brute_force_inverses(a, "2", rank_filter=1, cell_budget=budget),
        )

    # rank-two systems for the canonical two-row layouts
    layouts = [
        ("S1", (1,), _s_stack((1, 1), (1, -1))),
        ("S2", (1, 1), _s_stack((1, 1, 1), (1, -1, 0))),
        ("S3", (1, 1, 1, 1), _s_stack((1, 1, 1, 0), (1, -1, 0, 1))),
        ("S4", (1, 1), identity(2)),
    ]
    for structure, widths, a in layouts:
        if a.rows * a.cols > budget:
            continue
        out.compare_sets(
            f"Rank2Outer{structure}",
            f"widths {widths}",
            cs.materialize_family(fam.outer_rank2_class3(structure, widths)),
            cs.brute_force_inverses(a, "2", rank_filter=2, cell_budget=budget),
        )

    # the documented gap: column-scaled rank-one families on the identity
    out.compare_gap_sets(
        "OuterRank1FullRowRank",
        "identity 2x2, rank-one outer set",
        cs.materialize_family(fam.outer_rank1_full_row_rank([(1, 0), (0, 1)])),
        cs.brute_force_inverses(identity(2), "2", rank_filter=1),
    )
    out.compare_gap_sets(
        "Thm5.19",
        "identity 2x2, full outer set",
        cs.materialize_family(fam.outer_full_set_S4(1, 1)),
        cs.brute_force_inverses(identity(2), "2"),
    )

    # zero-column stacks: census members decompose blockwise
    bad = 0
    checked = 0
    for b in _all_ternary(2, 2):
        a = TernaryMatrix.from_rows([r + (0,) for r in b.row_tuples()])
        if a.rows * a.cols > budget:
            break
        for x in cs.brute_force_inverses(a, "2", cell_budget=budget).matrices:
            # X is 3x2: rows 1-2 are X1, row 3 is X2
            x1 = IntMatrix(2, 2, x[:4])
            x2 = IntMatrix(1, 2, x[4:])
            checked += 1
            if multiply(multiply(x1, b), x1) != x1:
                bad += 1
            elif multiply(multiply(x2, b), x1) != x2:
                bad += 1
    if bad:
        out.fail("Lemma2.4", "2x2 blocks, one zero column", bad, checked)
    else:
        out.record(True)
    return out


# ---------------------------------------------------------------------------
# counts suite

def suite_counts(budget: int) -> VerifyOutcome:
    out = VerifyOutcome("counts")

    # ternary vectors with a fixed sum
    for n in range(0, min(12, budget) + 1):
        tally: dict[int, int] = {}
        for v in product((-1, 0, 1), repeat=n):
            s = sum(v)
            tally[s] = tally.get(s, 0) + 1
        ok = all(
            ct.count_sum_t(n, t) == tally.get(t, 0) for t in range(-n - 1, n + 2)
        )
        if ok:
            out.record(True)
        else:
            out.fail("CountSumT", f"n={n}")

    # inner counts for the all-ones matrices
    for m in range(1, 10):
        for n in range(1, 10):
            if m * n > min(9, budget):
                continue
            out.compare_counts(
                "InnerTypeICount",
                f"m={m} n={n}",
                ct.inner_count_full_type_I(m, n),
                cs.brute_force_inverses(
                    ones(m, n), "1", count_only=True, cell_budget=budget
                ).count,
            )

    # outer counts: ternary, and natural populations
    for m, n in product(range(1, 4), repeat=2):
        if m * n > budget:
            continue
        out.compare_counts(
            "Cor5.4",
            f"m={m} n={n}",
            ct.outer_count_full_type_I(m, n),
            _oracle_nonzero(ones(m, n), "2", budget=budget).count,
        )
        out.compare_counts(
            "Cor5.3",
            f"m={m} n={n} pop {{0,1}}",
            ct.outer_count_natural_pop(m, n, True),
            cs.brute_force_inverses(
                ones(m, n), "2", population=cs.Population((0, 1)),
                count_only=True, cell_budget=budget,
            ).count,
        )
        out.compare_counts(
            "Cor5.3",
            f"m={m} n={n} pop {{1}}",
            ct.outer_count_natural_pop(m, n, False),
            cs.brute_force_inverses(
                ones(m, n), "2", population=cs.Population((1,)),
                count_only=True, cell_budget=budget,
            ).count,
        )

    for m in range(1, 4):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                if m * (n1 + n2) > min(8, budget):
                    continue
                a = TernaryMatrix.from_rows([(1,) * n1 + (0,) * n2] * m)
                out.compare_counts(
                    "Thm5.5Count",
                    f"m={m} n1={n1} n2={n2}",
                    ct.outer_count_full_type_III(m, n1, n2),
                    _oracle_nonzero(a, "2", budget=budget).count,
                )

    # block-diagonal inner counts
    for dims in [[(1, 1), (1, 1)], [(1, 2), (1, 1)], [(2, 1), (1, 1)], [(2, 2), (1, 1)]]:
        rows = sum(m for m, _ in dims)
        cols = sum(n for _, n in dims)
        if rows * cols > budget:
            continue
        a_rows = []
        coff = 0
        for mi, ni in dims:
            for _ in range(mi):
                a_rows.append((0,) * coff + (1,) * ni + (0,) * (cols - coff - ni))
            coff += ni
        a = TernaryMatrix.from_rows(a_rows)
        out.compare_counts(
            "PureWsInnerCount",
            f"dims {dims}",
            ct.inner_count_pure_ws(dims),
            cs.brute_force_inverses(a, "1", count_only=True, cell_budget=budget).count,
        )

    # the two-block counting identity
    for m in range(1, 5):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                chk = ct.binomial_identity_check(m, n1, n2)
                if chk.equal:
                    out.record(True)
                else:
                    out.fail(
                        "BinomialIdentity", f"m={m} n1={n1} n2={n2}", chk.lhs, chk.rhs
                    )

    # cardinality equality claims across sign variants
    for m in range(1, 4):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                if m * (n1 + n2) > min(8, budget):
                    continue
                base = cs.brute_force_inverses(
                    ones(m, n1 + n2), "1", count_only=True, cell_budget=budget
                ).count
                split = cs.brute_force_inverses(
                    _type_ii_matrix(m, n1, n2), "1", count_only=True, cell_budget=budget
                ).count
                out.compare_counts(
                    "Cor3.7", f"m={m} n1={n1} n2={n2}", base, split
                )

    # rank-one pairs with matching zero-row and zero-column counts
    pairs = [
        (((1, 1), (1, 1)), ((1, -1), (-1, 1))),
        (((1, 1), (0, 0)), ((1, -1), (0, 0))),
        (((1, 0), (1, 0), (0, 0)), ((0, 1), (0, -1), (0, 0))),
    ]
    for rows_a, rows_b in pairs:
        a = TernaryMatrix.from_rows(rows_a)
        b = TernaryMatrix.from_rows(rows_b)
        if a.rows * a.cols > budget:
            continue
        out.compare_counts(
            "Thm3.8",
            f"{rows_a} vs {rows_b}",
            cs.brute_force_inverses(a, "1", count_only=True, cell_budget=budget).count,
            cs.brute_force_inverses(b, "1", count_only=True, cell_budget=budget).count,
        )

    # pure, split, mixed, and generalized block-diagonal variants agree
    variants = {
        "pure": [(1, 1, 0), (1, 1, 0), (0, 0, 1)],
        "split": [(1, -1, 0), (1, -1, 0), (0, 0, 1)],
        "mixed": [(1, 1, 0), (1, 1, 0), (0, 0, -1)],
        "gws": [(1, -1, 0), (-1, 1, 0), (0, 0, 1)],
    }
    counts = {}
    for name, rows in variants.items():
        a = TernaryMatrix.from_rows(rows)
        if a.rows * a.cols > budget:
            counts = {}
            break
        counts[name] = cs.brute_force_inverses(
            a, "1", count_only=True, cell_budget=budget
        ).count
    if counts:
        baseline = counts["pure"]
        for name in ("split", "mixed", "gws"):
            out.compare_counts(
                "Thm3.11/3.15", f"pure vs {name}", baseline, counts[name]
            )

    # the disjoint-layout outer formula against its own components
    for n1, n2 in [(1, 1), (2, 1), (1, 2)]:
        rows = ((1,) * n1 + (0,) * n2, (0,) * n1 + (1,) * n2)
        lam = cs.materialize_family(fam.outer_rank1_full_row_rank(rows)).count
        rank2 = cs.materialize_family(fam.outer_rank2_class3("S4", (n1, n2))).count
        out.compare_counts(
            "S4CountComposition",
            f"n1={n1} n2={n2}",
            ct.outer_count_S4(n1, n2),
            1 + lam + rank2,
        )
    return out


SUITES = {
    "core": suite_core,
    "inner": suite_inner,
    "outer": suite_outer,
    "counts": suite_counts,
}


def run_verify(suite: str, budget: int, allow_known_gaps: bool = False):
    """Run one suite (or all) and decide the overall verdict.

    The verdict is ok when there are no discrepancies, or when the flag is
    set and every discrepancy is a recorded known gap.
    """
    names = list(SUITES) if suite == "all" else [suite]
    outcomes = [SUITES[name](budget) for name in names]
    ok = True
    for outcome in outcomes:
        for d in outcome.discrepancies:
            if not (allow_known_gaps and d.known_gap and d.theorem_id in KNOWN_GAPS):
                ok = False
    return outcomes, ok
