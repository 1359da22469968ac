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
from functools import partial
from itertools import product
from typing import Callable, Optional

from . import census as cs
from . import classify as cl
from . import counting as ct
from . import families as fam
from .matrices import (
    IntMatrix,
    TernaryMatrix,
    _entry_product,
    _penrose_flags,
    exact_rank,
    identity,
    iter_signed_permutations,
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


@dataclass
class VerifyOutcome:
    suite: str
    cases_run: int = 0
    cases_passed: int = 0
    discrepancies: list[Discrepancy] = field(default_factory=list)

    def check(
        self,
        theorem_id: str,
        instance: str,
        ok: bool,
        family_count: int = -1,
        oracle_count: int = -1,
        diff=(),
        known_gap: bool = False,
    ):
        """Count one case; a failed one becomes a discrepancy record."""
        self.cases_run += 1
        if ok:
            self.cases_passed += 1
            return
        sample = tuple(tuple(m.to_lists()) for m in list(diff)[:8])
        self.discrepancies.append(
            Discrepancy(theorem_id, instance, family_count, oracle_count, sample, known_gap)
        )

    def compare_sets(
        self,
        theorem_id: str,
        instance: str,
        family: fam.InverseFamily,
        a: TernaryMatrix,
        spec: str,
        budget: int,
        rank: Optional[int] = None,
    ):
        """Compare the family's members with the census of A.

        For a family in ``KNOWN_GAPS`` a mismatch is a known gap when the
        family only misses members with a zero first column, and the sample
        lists the missed members.
        """
        oracle = _census(a, spec, budget, rank)
        if oracle is None:
            return
        members = cs.materialize_family(family)
        cmpres = cs.set_equal(members, oracle)
        if theorem_id in KNOWN_GAPS:
            diff = cmpres.only_in_b
            structural = not cmpres.only_in_a and not any(
                any(m.column(0)) for m in diff
            )
        else:
            diff = cmpres.only_in_a + cmpres.only_in_b
            structural = False
        self.check(
            theorem_id, instance, cmpres.equal, members.count, oracle.count,
            diff, structural,
        )

    def compare_count(
        self,
        theorem_id: str,
        instance: str,
        expected: Callable[[], int],
        a: TernaryMatrix,
        spec: str,
        budget: int,
        population: cs.Population = cs.TERNARY,
        rank: Optional[int] = None,
    ):
        """Compare ``expected()`` with the census count of A."""
        oracle = _census(a, spec, budget, rank, population, count_only=True)
        if oracle is not None:
            want = expected()
            self.check(theorem_id, instance, want == oracle.count, want, oracle.count)


def _census(
    a: TernaryMatrix,
    spec: str,
    budget: int,
    rank: Optional[int] = None,
    population: cs.Population = cs.TERNARY,
    count_only: bool = False,
) -> Optional[cs.EnumerationResult]:
    """The census of A, as ``bohemian inverses`` prints it for the same
    spec, population, rank and budget; None, so that the case is skipped
    and not counted, when A has more cells than the budget.

    The nonzero outer inverses of a rank-one A are its census at rank 1,
    by this lemma (Ben-Israel and Greville, *Generalized Inverses*,
    ch. 1): XAX = X gives rank(X) = rank(XAX) <= rank(A), and the one
    matrix of rank 0 is the zero matrix.
    """
    if a.rows * a.cols > budget:
        return None
    return cs.brute_force_inverses(a, spec, population, rank, budget, count_only)


def _all_ternary(rows: int, cols: int):
    # every entry tuple is drawn from the population, so none is checked
    for ent in product((-1, 0, 1), repeat=rows * cols):
        yield TernaryMatrix._trusted(rows, cols, ent)


def _naive_mul(ae: tuple, be: tuple, m: int, n: int, p: int) -> tuple:
    """Row-major entries of the product of an m x n and an n x p matrix,
    given theirs, by the textbook triple loop, independent of the kernel's."""
    out = []
    for i in range(m):
        for j in range(p):
            total = 0
            for k in range(n):
                total += ae[i * n + k] * be[k * p + j]
            out.append(total)
    return tuple(out)


def _block_diagonal(blocks) -> TernaryMatrix:
    cols = sum(b.cols for b in blocks)
    rows = []
    coff = 0
    for b in blocks:
        for r in b.row_tuples():
            rows.append((0,) * coff + r + (0,) * (cols - coff - b.cols))
        coff += b.cols
    return TernaryMatrix.from_rows(rows)


def _inner_count(a: TernaryMatrix, budget: int) -> int:
    return _census(a, "1", budget, count_only=True).count


# ---------------------------------------------------------------------------
# core suite

def suite_core(budget: int) -> VerifyOutcome:
    out = VerifyOutcome("core")

    # Penrose flags versus an independent naive evaluation of the equations.
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (2, 3), (3, 2)]:
        if 2 * m * n > budget:
            continue
        xs = list(_all_ternary(n, m))
        bad = 0
        for a in _all_ternary(m, n):
            ae = a.entries
            for x in xs:
                xe = x.entries
                rep = penrose_check(a, x)
                # AXA = (AX)A and XAX = X(AX), from one AX
                ax = _naive_mul(ae, xe, m, n, m)
                axa = _naive_mul(ax, ae, m, m, n)
                xax = _naive_mul(xe, ax, n, m, m)
                if rep.satisfies_1 != (axa == ae):
                    bad += 1
                elif rep.satisfies_2 != (xax == xe):
                    bad += 1
        out.check("PenroseDefinition", f"shape {m}x{n}", not bad, bad, 0)

    # Membership flags invariant under every signed-permutation transform:
    # X carried to V^T X U^T against U A V, for every (U, V), the flags of
    # equations (1) and (2) read off the kernel's plan for the shape.
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        if 2 * m * n > budget:
            continue
        flags = _penrose_flags(m, n)
        uvs = list(product(iter_signed_permutations(m), iter_signed_permutations(n)))
        xs = [
            (x.entries, [transform_inverse(x, u, v).entries for u, v in uvs])
            for x in _all_ternary(n, m)
        ]
        bad = 0
        for a in _all_ternary(m, n):
            ae = a.entries
            uavs = [v.apply_right(u.apply_left(a)).entries for u, v in uvs]
            for xe, moved_xs in xs:
                base = flags(ae, xe)[:2]
                for moved in map(flags, uavs, moved_xs):
                    if moved[:2] != base:
                        bad += 1
        out.check("TransformInvariance", f"shape {m}x{n}", not bad, bad, 0)

    # Rank is transpose-invariant.
    for m, n in product(range(1, 4), repeat=2):
        if m * n > budget:
            continue
        ok = all(
            exact_rank(a) == exact_rank(a.transpose()) for a in _all_ternary(m, n)
        )
        out.check("RankTranspose", f"shape {m}x{n}", ok)

    # All-ones sandwich products collapse to the entry sum: J_m X by the
    # kernel's m x n x r plan, once per m, then (J_m X) J_s for every s.
    for n, r in product(range(1, 4), repeat=2):
        if n * r > budget:
            continue
        lefts = [
            (
                ones(m, n).entries,
                _entry_product(m, n, r),
                [(ones(r, s).entries, _entry_product(m, r, s)) for s in range(1, 4)],
            )
            for m in range(1, 4)
        ]
        bad = 0
        for xe in product((-1, 0, 1), repeat=n * r):
            want = sum(xe)
            for left, left_times, rights in lefts:
                left_x = left_times(left, xe)
                for right, times_right in rights:
                    lhs = times_right(left_x, right)
                    if lhs.count(want) != len(lhs):
                        bad += 1
        out.check("AllOnesProducts", f"inner shape {n}x{r}", not bad, bad, 0)

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
        out.check("Thm3.2RoundTrip", f"shape {m}x{n}", not bad, bad, 0)

    # Text round trip on a deterministic matrix sample.
    sample = [ones(2, 3), identity(3), zeros(1, 4), parse_matrix("1 -1 0\n0 0 1\n")]
    ok = all(parse_matrix(serialize_matrix(m)) == m for m in sample)
    out.check("TextRoundTrip", "sample", ok)
    return out


# ---------------------------------------------------------------------------
# inner suite

def suite_inner(budget: int) -> VerifyOutcome:
    out = VerifyOutcome("inner")

    # all-ones inner family on a small grid
    for m, n in product(range(1, 4), repeat=2):
        out.compare_sets(
            "InnerTypeI", f"m={m} n={n}", fam.inner_full_type_I(m, n),
            ones(m, n), "1", budget,
        )

    # two-block sign matrices, both signs
    for m, n1, n2 in product(range(1, 5), range(1, 8), range(1, 8)):
        if m * (n1 + n2) > 8:
            continue
        for sign in (1, -1):
            out.compare_sets(
                "Thm3.5",
                f"m={m} n1={n1} n2={n2} sign={sign:+d}",
                fam.inner_full_type_II(m, n1, n2, sign),
                cl.FullForm(cl.TYPE_II, sign, (n1, n2, 0)).materialize(m), "1", budget,
            )

    # S1: half-integer system, empty over the ternary population
    for m1, m2, n1 in [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)]:
        a = TernaryMatrix.from_rows(
            [(1,) * (2 * n1)] * m1 + [(1,) * n1 + (-1,) * n1] * m2
        )
        out.compare_sets(
            "Thm4.5", f"m1={m1} m2={m2} n1={n1}", fam.inner_S1(m1, m2, n1),
            a, "1", budget,
        )

    # S2 and S3 smallest instances
    for m1, m2, n1, n3 in [(1, 1, 1, 1), (1, 1, 1, 2)]:
        n = 2 * n1 + n3
        a = TernaryMatrix.from_rows(
            [(1,) * n] * m1 + [(1,) * n1 + (-1,) * n1 + (0,) * n3] * m2
        )
        out.compare_sets(
            "Thm4.6", f"m1={m1} m2={m2} n1={n1} n3={n3}",
            fam.inner_S2(m1, m2, n1, n3), a, "1", budget,
        )
    out.compare_sets(
        "Thm4.8", "widths (1,1,1,1) m1=m2=1", fam.inner_S3(1, 1, (1, 1, 1, 1)),
        TernaryMatrix.from_rows([(1, 1, 1, 0), (1, -1, 0, 1)]), "1", budget,
    )

    # stacked-orthogonal-blocks membership equals the defining equation
    for rows in [
        [(1, 1, 1, 0), (1, -1, 0, 1)],
        [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 0, 0)],
    ]:
        blocks = [TernaryMatrix.from_rows([r]) for r in rows]
        a = TernaryMatrix.from_rows(rows)
        cells = a.rows * a.cols
        if cells > budget:
            continue
        bad = 0
        for ent in product((-1, 0, 1), repeat=cells):
            x = IntMatrix(a.cols, a.rows, ent)
            if fam.class3_inner_membership(blocks, x) != penrose_check(a, x).satisfies_1:
                bad += 1
        out.check("Thm4.7", f"{a.rows}x{a.cols} stack", not bad, bad, 0)
        out.compare_sets(
            "Thm4.7", f"{a.rows}x{a.cols} stack system",
            fam.class3_inner_system(blocks), a, "1", budget,
        )

    # full-row-rank reflexive family: the star-graph incidence transpose
    star_rows = [
        (1, -1, 0, 0, 0),
        (1, 0, -1, 0, 0),
        (1, 0, 0, 0, -1),
        (1, 0, 0, -1, 0),
    ]
    members = cs.materialize_family(fam.reflexive_full_row_rank(star_rows))
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
    out.check(
        "Thm5.16", "star graph incidence transpose",
        set(members.matrices) == expected, members.count, len(expected),
    )

    # final worked 2x3 example: reflexive set equals both oracle sets
    a = TernaryMatrix.from_rows([[1, 1, 0], [1, 0, 0]])
    refl = fam.reflexive_full_row_rank(a.row_tuples())
    out.compare_sets(
        "Thm5.16", "2x3 full-row-rank, vs inner census", refl, a, "1", budget
    )
    out.compare_sets(
        "Thm5.16", "2x3 full-row-rank, vs reflexive census", refl, a, "12", budget
    )
    return out


# ---------------------------------------------------------------------------
# outer suite

def suite_outer(budget: int) -> VerifyOutcome:
    out = VerifyOutcome("outer")

    # all-ones outer family
    for m, n in product(range(1, 4), repeat=2):
        out.compare_sets(
            "Cor5.2", f"m={m} n={n}", fam.outer_full_type_I(m, n),
            ones(m, n), "2", budget, rank=1,
        )

    # ones-and-zeros outer family
    for m, n1, n2 in product(range(1, 4), range(1, 5), range(1, 5)):
        if m * (n1 + n2) > 8:
            continue
        out.compare_sets(
            "Thm5.5", f"m={m} n1={n1} n2={n2}", fam.outer_full_type_III(m, n1, n2),
            cl.FullForm(cl.TYPE_III, 1, (n1, 0, n2)).materialize(m),
            "2", budget, rank=1,
        )

    # general outer products
    for zeta, eta in [((1, 1), (1, -1)), ((1, -1, 0), (1, 1)), ((1, 0, -1), (0, 1))]:
        out.compare_sets(
            "Thm5.1", f"zeta={zeta} eta={eta}", fam.outer_rank_one_general(zeta, eta),
            TernaryMatrix.from_rows([[z * e for e in eta] for z in zeta]),
            "2", budget, rank=1,
        )

    # rank-one outer inverses of block-diagonal and row-partitioned stacks
    ident = TernaryMatrix.from_rows([[1]])
    for blocks, label in [
        ([ident, ident], "diag(1,1)"),
        ([ones(1, 2), ident], "diag(ones 1x2, 1)"),
    ]:
        out.compare_sets(
            "Thm5.10", label, fam.outer_rank1_block_diagonal(blocks),
            _block_diagonal(blocks), "2", budget, rank=1,
        )

    for rows in [[(1, 1), (1, -1)], [(1, 1, 1), (1, -1, 0)]]:
        out.compare_sets(
            "OuterRank1RowBlocks",
            f"rows {rows}",
            fam.outer_rank1_row_partitioned(
                [TernaryMatrix.from_rows([r]) for r in rows]
            ),
            TernaryMatrix.from_rows(rows), "2", budget, rank=1,
        )

    # rank-two systems for the canonical two-row layouts
    layouts = [
        ("S1", (1,), [(1, 1), (1, -1)]),
        ("S2", (1, 1), [(1, 1, 1), (1, -1, 0)]),
        ("S3", (1, 1, 1, 1), [(1, 1, 1, 0), (1, -1, 0, 1)]),
        ("S4", (1, 1), [(1, 0), (0, 1)]),
    ]
    for structure, widths, rows in layouts:
        out.compare_sets(
            f"Rank2Outer{structure}", f"widths {widths}",
            fam.outer_rank2_class3(structure, widths),
            TernaryMatrix.from_rows(rows), "2", budget, rank=2,
        )

    # the documented gap: column-scaled rank-one families on the identity,
    # checked at every budget
    out.compare_sets(
        "OuterRank1FullRowRank", "identity 2x2, rank-one outer set",
        fam.outer_rank1_full_row_rank([(1, 0), (0, 1)]),
        identity(2), "2", cs.DEFAULT_CELL_BUDGET, rank=1,
    )
    out.compare_sets(
        "Thm5.19", "identity 2x2, full outer set", fam.outer_full_set_S4(1, 1),
        identity(2), "2", cs.DEFAULT_CELL_BUDGET,
    )

    # zero-column stacks: census members decompose blockwise; the 2x3
    # stacks are skipped, and not counted, below 6 cells of budget
    if budget < 6:
        return out
    # X is 3x2: rows 1-2 are X1, row 3 is X2, so rows 1-2 of X B X1 are
    # X1 B X1 and row 3 is X2 B X1; the census members are entry tuples,
    # and both products run the kernel's 3 x 2 x 2 plan on them
    times = _entry_product(3, 2, 2)
    bad = 0
    checked = 0
    for b in _all_ternary(2, 2):
        a = TernaryMatrix.from_rows([r + (0,) for r in b.row_tuples()])
        for x in cs.brute_force_inverses(a, "2", cell_budget=budget).matrices:
            xbx1 = times(times(x, b.entries), x[:4])
            checked += 1
            if xbx1[:4] != x[:4]:
                bad += 1
            elif xbx1[4:] != x[4:]:
                bad += 1
    out.check("Lemma2.4", "2x2 blocks, one zero column", not bad, bad, checked)
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
        out.check("CountSumT", f"n={n}", ok)

    # inner counts for the all-ones matrices
    for m, n in product(range(1, 10), repeat=2):
        if m * n > 9:
            continue
        out.compare_count(
            "InnerTypeICount", f"m={m} n={n}",
            partial(ct.inner_count_full_type_I, m, n), ones(m, n), "1", budget,
        )

    # outer counts: ternary, and natural populations
    for m, n in product(range(1, 4), repeat=2):
        out.compare_count(
            "Cor5.4", f"m={m} n={n}", partial(ct.outer_count_full_type_I, m, n),
            ones(m, n), "2", budget, rank=1,
        )
        out.compare_count(
            "Cor5.3", f"m={m} n={n} pop {{0,1}}",
            partial(ct.outer_count_natural_pop, m, n, True),
            ones(m, n), "2", budget, population=cs.Population((0, 1)),
        )
        out.compare_count(
            "Cor5.3", f"m={m} n={n} pop {{1}}",
            partial(ct.outer_count_natural_pop, m, n, False),
            ones(m, n), "2", budget, population=cs.Population((1,)),
        )

    for m, n1, n2 in product(range(1, 4), range(1, 5), range(1, 5)):
        if m * (n1 + n2) > 8:
            continue
        out.compare_count(
            "Thm5.5Count", f"m={m} n1={n1} n2={n2}",
            partial(ct.outer_count_full_type_III, m, n1, n2),
            cl.FullForm(cl.TYPE_III, 1, (n1, 0, n2)).materialize(m),
            "2", budget, rank=1,
        )

    # block-diagonal inner counts
    for dims in [[(1, 1), (1, 1)], [(1, 2), (1, 1)], [(2, 1), (1, 1)], [(2, 2), (1, 1)]]:
        out.compare_count(
            "PureWsInnerCount", f"dims {dims}", partial(ct.inner_count_pure_ws, dims),
            _block_diagonal([ones(mi, ni) for mi, ni in dims]), "1", budget,
        )

    # the two-block counting identity
    for m, n1, n2 in product(range(1, 5), repeat=3):
        chk = ct.binomial_identity_check(m, n1, n2)
        out.check(
            "BinomialIdentity", f"m={m} n1={n1} n2={n2}", chk.equal, chk.lhs, chk.rhs
        )

    # cardinality equality claims: the census count of a reference A
    # against that of a same-shape variant
    for m, n1, n2 in product(range(1, 4), range(1, 5), range(1, 5)):
        if m * (n1 + n2) > 8:
            continue
        out.compare_count(
            "Cor3.7", f"m={m} n1={n1} n2={n2}",
            partial(_inner_count, ones(m, n1 + n2), budget),
            cl.FullForm(cl.TYPE_II, 1, (n1, n2, 0)).materialize(m), "1", budget,
        )

    # rank-one pairs with matching zero-row and zero-column counts
    pairs = [
        (((1, 1), (1, 1)), ((1, -1), (-1, 1))),
        (((1, 1), (0, 0)), ((1, -1), (0, 0))),
        (((1, 0), (1, 0), (0, 0)), ((0, 1), (0, -1), (0, 0))),
    ]
    for rows_a, rows_b in pairs:
        out.compare_count(
            "Thm3.8", f"{rows_a} vs {rows_b}",
            partial(_inner_count, TernaryMatrix.from_rows(rows_a), budget),
            TernaryMatrix.from_rows(rows_b), "1", budget,
        )

    # pure, split, mixed, and generalized block-diagonal variants agree
    pure = TernaryMatrix.from_rows([(1, 1, 0), (1, 1, 0), (0, 0, 1)])
    variants = {
        "split": [(1, -1, 0), (1, -1, 0), (0, 0, 1)],
        "mixed": [(1, 1, 0), (1, 1, 0), (0, 0, -1)],
        "gws": [(1, -1, 0), (-1, 1, 0), (0, 0, 1)],
    }
    for name, rows in variants.items():
        out.compare_count(
            "Thm3.11/3.15", f"pure vs {name}", partial(_inner_count, pure, budget),
            TernaryMatrix.from_rows(rows), "1", budget,
        )

    # the disjoint-layout outer formula against its own components
    for n1, n2 in [(1, 1), (2, 1), (1, 2)]:
        rows = ((1,) * n1 + (0,) * n2, (0,) * n1 + (1,) * n2)
        lam = cs.materialize_family(fam.outer_rank1_full_row_rank(rows)).count
        rank2 = cs.materialize_family(fam.outer_rank2_class3("S4", (n1, n2))).count
        want, got = ct.outer_count_S4(n1, n2), 1 + lam + rank2
        out.check("S4CountComposition", f"n1={n1} n2={n2}", want == got, want, got)
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
            if not (allow_known_gaps and d.known_gap):
                ok = False
    return outcomes, ok
