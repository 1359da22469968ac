"""Machine-checkable descriptions of inner and outer inverse sets.

Each characterized set is carried as data, not a closure: an
:class:`InverseFamily` bundles a stable ``theorem_id``, the inverse shape,
and one of three constraint payloads (block-sum linear systems, rank-one
product conditions, or explicit unions).  Families can be serialized,
diffed, and materialized over a finite population, and every one is
cross-checked against the brute-force census in the tests.

All right-hand sides are exact rationals; a constraint like "block sum =
1/2" is kept as stated, and its emptiness over integer populations is a
computed outcome rather than a special case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence, Union

from .classify import TYPE_I, TYPE_II, TYPE_III, TYPE_IV, FullForm, _class_terms
from .matrices import (
    BlockPartition,
    DomainError,
    IntMatrix,
    ShapeError,
    TernaryMatrix,
    _product_rows,
    exact_rank,
)

#: The paper's column-scaled rank-one family (a product family with its
#: leading factor pinned) cannot express rank-one matrices whose first
#: column vanishes, although such matrices can satisfy the defining outer
#: equation; comparisons against the census report the difference.
FIRST_COLUMN_GAP_NOTE = (
    "members always have a nonzero first column; rank-one solutions with a "
    "zero first column lie outside this parametrization"
)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _coerce_rows(x, shape: tuple[int, int]):
    """Row tuples of x, which may be an IntMatrix or nested sequences of
    ints/Fractions of the given (rows, cols) shape."""
    if isinstance(x, IntMatrix):
        if (x.rows, x.cols) != shape:
            raise ShapeError(f"expected {shape[0]}x{shape[1]}, got {x.rows}x{x.cols}")
        return x.row_tuples()
    rows = [tuple(r) for r in x]
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise ShapeError(f"expected {shape[0]}x{shape[1]} nested sequence")
    return tuple(rows)


def _rat_json(x: Fraction) -> dict:
    x = _frac(x)
    return {"num": x.numerator, "den": x.denominator}


@dataclass(frozen=True)
class LinearConstraint:
    """Sum of coefficient-weighted block sums equal to an exact rational."""

    terms: tuple[tuple[Fraction, tuple[int, int]], ...]
    rhs: Fraction

    def evaluate(self, sums) -> Fraction:
        return sum((c * sums[b] for c, b in self.terms), start=Fraction(0))

    def to_json(self) -> dict:
        return {
            "terms": [{"coeff": _rat_json(c), "block": list(b)} for c, b in self.terms],
            "rhs": _rat_json(self.rhs),
        }


def _constraint(terms: Iterable[tuple[object, tuple[int, int]]], rhs) -> LinearConstraint:
    kept = tuple((_frac(c), b) for c, b in terms if c)
    return LinearConstraint(kept, _frac(rhs))


@dataclass(frozen=True)
class SumConstraintSystem:
    """Linear equations on block entry-sums of the candidate inverse."""

    shape: tuple[int, int]
    partition: BlockPartition
    constraints: tuple[LinearConstraint, ...]

    kind = "sum_constraints"

    def __post_init__(self):
        if self.partition.shape != self.shape:
            raise ShapeError("partition does not cover the family shape")
        nrb, ncb = self.partition.n_row_blocks, self.partition.n_col_blocks
        for con in self.constraints:
            for _, (i, j) in con.terms:
                if not (0 <= i < nrb and 0 <= j < ncb):
                    raise ShapeError(f"constraint references missing block ({i},{j})")

    def block_sum_map(self, x) -> dict[tuple[int, int], Fraction]:
        rows = _coerce_rows(x, self.shape)
        part = self.partition
        sums = {}
        for i in range(part.n_row_blocks):
            for j in range(part.n_col_blocks):
                r0, r1, c0, c1 = part.block_span(i, j)
                sums[(i, j)] = sum(
                    (_frac(rows[r][c]) for r in range(r0, r1) for c in range(c0, c1)),
                    start=Fraction(0),
                )
        return sums

    def is_member(self, x) -> bool:
        sums = self.block_sum_map(x)
        return all(con.evaluate(sums) == con.rhs for con in self.constraints)

    def to_json(self) -> dict:
        return {
            "partition": self.partition.to_json(),
            "constraints": [c.to_json() for c in self.constraints],
        }


@dataclass(frozen=True)
class RankOneProductFamily:
    """Rank-one candidates X = p q^T with a bilinear condition equal to 1.

    ``terms`` holds integer vector pairs (u, v), u as long as q and v as
    long as p; membership requires sum (q . u)(p . v) to be exactly 1, the
    condition q^T A p = 1 for A = sum u v^T.  The zero matrix is never a
    member.  With ``pinned_lead`` the leading factor entry is q_1 = 1, as
    in the paper's column-scaled form (X1 | l_1 X1 | ... | l_{m-1} X1), so
    every member has a nonzero first column.
    """

    shape: tuple[int, int]
    terms: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    pinned_lead: bool = False

    kind = "rank_one_product"

    def condition_value(self, p, q):
        return sum(
            sum(map(mul, q, u)) * sum(map(mul, p, v)) for u, v in self.terms
        )

    def to_json(self) -> dict:
        out = {"terms": [{"q": list(u), "p": list(v)} for u, v in self.terms]}
        if self.pinned_lead:
            out["pinned_lead"] = True
        return out


@dataclass(frozen=True)
class ExplicitUnion:
    """The zero matrix together with disjoint sub-families of nonzero
    members."""

    components: tuple["InverseFamily", ...]

    kind = "union"

    def to_json(self) -> dict:
        return {
            "include_zero": True,
            "components": [c.to_json() for c in self.components],
        }


FamilyBody = Union[SumConstraintSystem, RankOneProductFamily, ExplicitUnion]


@dataclass(frozen=True)
class InverseFamily:
    """A theorem-indexed, serializable description of an inverse set."""

    theorem_id: str
    spec: str
    shape: tuple[int, int]
    body: FamilyBody
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "theorem_id": self.theorem_id,
            "spec": self.spec,
            "shape": list(self.shape),
            "kind": self.body.kind,
        }
        out.update(self.body.to_json())
        if self.note:
            out["note"] = self.note
        return out


# ---------------------------------------------------------------------------
# inner-inverse families

_INNER_FULL_IDS = {
    TYPE_I: "InnerTypeI",
    TYPE_II: "Thm3.5",
    TYPE_III: "InnerTypeIII",
    TYPE_IV: "InnerTypeIV",
}


def inner_full(form: FullForm, m: int) -> InverseFamily:
    """Inner inverses of the m-row full shape ``form``: sign times the sum
    of the candidate's row block facing the sign columns, minus sign times
    the sum of the block facing the opposite columns when there are any,
    equals one; the rows facing the zero columns are free."""
    sizes = [w for w in form.widths if w]
    n = sum(sizes)
    part = BlockPartition.from_sizes(sizes, [m])
    terms = [(form.sign, (0, 0))]
    if form.widths[1]:
        terms.append((-form.sign, (1, 0)))
    body = SumConstraintSystem((n, m), part, (_constraint(terms, 1),))
    return InverseFamily(_INNER_FULL_IDS[form.kind], "{1}", (n, m), body)


def inner_full_type_I(m: int, n: int, sign: int = 1) -> InverseFamily:
    """Inner inverses of the all-ones (or all-minus-ones) m x n matrix:
    total entry sum equal to the sign."""
    return inner_full(FullForm(TYPE_I, sign, (n, 0, 0)), m)


def inner_full_type_II(m: int, n1: int, n2: int, sign: int = 1) -> InverseFamily:
    """Inner inverses of (sign ones | -sign ones): the two row-block sums of
    the candidate differ by exactly one, in the direction of the sign."""
    if n1 < 1 or n2 < 1:
        raise DomainError("both column blocks must be nonempty")
    return inner_full(FullForm(TYPE_II, sign, (n1, n2, 0)), m)


def inner_full_type_III(m: int, n1: int, n2: int, sign: int = 1) -> InverseFamily:
    """Inner inverses of (sign ones | zeros): condition on the top row block
    only, the rows facing the zero columns are free."""
    if n1 < 1 or n2 < 1:
        raise DomainError("use the all-ones family when the zero block is empty")
    return inner_full(FullForm(TYPE_III, sign, (n1, 0, n2)), m)


def inner_full_type_IV(
    m: int, n1: int, n2: int, n3: int, sign: int = 1
) -> InverseFamily:
    """Inner inverses of (sign ones | -sign ones | zeros)."""
    if n1 < 1 or n2 < 1 or n3 < 1:
        raise DomainError("all three column blocks must be nonempty")
    return inner_full(FullForm(TYPE_IV, sign, (n1, n2, n3)), m)


def inner_S1(m1: int, m2: int, n1: int) -> InverseFamily:
    """Inner inverses for the S1 stack (all-ones over the balanced
    plus/minus row): four half-integer block-sum equations."""
    if n1 < 1:
        raise DomainError("column half-width must be positive")
    part = BlockPartition.from_sizes([n1, n1], [m1, m2])
    half = Fraction(1, 2)
    body = SumConstraintSystem(
        (2 * n1, m1 + m2),
        part,
        (
            _constraint([(1, (0, 0))], half),
            _constraint([(1, (1, 0))], half),
            _constraint([(1, (0, 1))], half),
            _constraint([(-1, (1, 1))], half),
        ),
    )
    return InverseFamily("Thm4.5", "{1}", (2 * n1, m1 + m2), body)


def inner_S2(m1: int, m2: int, n1: int, n3: int) -> InverseFamily:
    """Inner inverses for the S2 stack (all-ones over plus/minus/zero)."""
    if n1 < 1 or n3 < 0:
        raise DomainError("need n1 >= 1 and n3 >= 0")
    row_sizes = [n1, n1] + ([n3] if n3 else [])
    n = 2 * n1 + n3
    part = BlockPartition.from_sizes(row_sizes, [m1, m2])
    first_col = [(1, (0, 0)), (1, (1, 0))] + ([(1, (2, 0))] if n3 else [])
    second_col = [(1, (0, 1)), (1, (1, 1))] + ([(1, (2, 1))] if n3 else [])
    body = SumConstraintSystem(
        (n, m1 + m2),
        part,
        (
            _constraint(first_col, 1),
            _constraint([(1, (0, 1)), (-1, (1, 1))], 1),
            _constraint([(1, (0, 0)), (-1, (1, 0))], 0),
            _constraint(second_col, 0),
        ),
    )
    return InverseFamily("Thm4.6", "{1}", (n, m1 + m2), body)


def inner_S3(m1: int, m2: int, widths: Sequence[int]) -> InverseFamily:
    """Inner inverses for the S3 stack, as four block-sum equations."""
    if len(widths) != 4 or any(w < 1 for w in widths):
        raise DomainError("S3 needs four positive column widths")
    n1, n2, n3, n4 = widths
    n = sum(widths)
    part = BlockPartition.from_sizes([n1, n2, n3, n4], [m1, m2])
    body = SumConstraintSystem(
        (n, m1 + m2),
        part,
        (
            _constraint([(1, (0, 0)), (1, (1, 0)), (1, (2, 0))], 1),
            _constraint([(1, (3, 0)), (-1, (1, 0)), (1, (0, 0))], 0),
            _constraint([(1, (0, 1)), (1, (1, 1)), (1, (2, 1))], 0),
            _constraint([(1, (3, 1)), (-1, (1, 1)), (1, (0, 1))], 1),
        ),
    )
    return InverseFamily("Thm4.8", "{1}", (n, m1 + m2), body)


def _rank_one_uv(block: TernaryMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ternary outer-product factors (u, v) of a rank-one block, with v the
    sign-normalized first nonzero row."""
    terms = _class_terms(block, 1)
    if terms is None:
        raise DomainError("block is not rank one")
    return terms[0]


@lru_cache(maxsize=256)
def _validate_class3_blocks(blocks: tuple[TernaryMatrix, ...]):
    if not blocks:
        raise DomainError("at least one block required")
    n = blocks[0].cols
    if any(b.cols != n for b in blocks):
        raise ShapeError("blocks must share their column count")
    uv = tuple(_rank_one_uv(b) for b in blocks)
    reps = [v for _, v in uv]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if sum(x * y for x, y in zip(reps[i], reps[j])) != 0:
                raise DomainError(
                    f"row blocks {i} and {j} are not mutually orthogonal"
                )
    return uv


def class3_inner_system(blocks: Sequence[TernaryMatrix]) -> InverseFamily:
    """Inner inverses of a stack of mutually orthogonal rank-one blocks:
    weighted row-sum conditions, one equation per ordered block pair."""
    blocks = tuple(blocks)
    uv = _validate_class3_blocks(blocks)
    n = blocks[0].cols
    ms = [b.rows for b in blocks]
    m = sum(ms)
    part = BlockPartition.from_sizes([1] * n, [1] * m)
    offsets = [sum(ms[:j]) for j in range(len(ms))]
    constraints = []
    for i, (_, v_i) in enumerate(uv):
        for j, (u_j, _) in enumerate(uv):
            terms = [
                (v_i[r] * u_j[k], (r, offsets[j] + k))
                for r in range(n)
                for k in range(ms[j])
            ]
            constraints.append(_constraint(terms, 1 if i == j else 0))
    body = SumConstraintSystem((n, m), part, tuple(constraints))
    return InverseFamily("Thm4.7", "{1}", (n, m), body)


def inner_rank_one(a: TernaryMatrix) -> InverseFamily:
    """Inner inverses of a rank-one A = u v^T, written on A's own cells:
    the X with v^T X u = 1.  That is the Thm4.7 system with A as its only
    block.

    Proof.  AXA = u (v^T X u) v^T.  If AXA = A then u (v^T X u) v^T =
    u v^T, which is nonzero, so v^T X u = 1; the converse is immediate.
    A's signed-permutation factorization U C V carries the core C's one
    block condition to this constraint term by term, so it has the same
    cell classes (+1 cells, -1 cells, free cells) and enumerates alike.
    """
    return replace(
        class3_inner_system([a]),
        theorem_id="RankOneInner",
        note="applied through the signed-permutation factorization",
    )


def class3_inner_membership(blocks: Sequence[TernaryMatrix], x) -> bool:
    """Exact membership test for the stacked-orthogonal-blocks inner set:
    every column block inverts its own block and the weighted row sums of
    the others vanish.  Equivalent to the defining equation AXA = A."""
    blocks = tuple(blocks)
    uv = _validate_class3_blocks(blocks)
    n = blocks[0].cols
    ms = [b.rows for b in blocks]
    rows = _coerce_rows(x, (n, sum(ms)))
    offsets = [sum(ms[:j]) for j in range(len(ms))]
    for j, (u_j, _) in enumerate(uv):
        off = offsets[j]
        e_j = [
            sum(rows[r][off + k] * u_j[k] for k in range(ms[j])) for r in range(n)
        ]
        for i, (_, v_i) in enumerate(uv):
            want = 1 if i == j else 0
            if sum(v * e for v, e in zip(v_i, e_j)) != want:
                return False
    return True


def class3_inner_necessary(blocks: Sequence[TernaryMatrix], x) -> bool:
    """Blockwise necessary condition: each column block is an inner inverse
    of its own row block.  Implied by AXA = A, but not sufficient."""
    n = blocks[0].cols
    ms = [b.rows for b in blocks]
    rows = _coerce_rows(x, (n, sum(ms)))
    off = 0
    for b, mi in zip(blocks, ms):
        br = b.row_tuples()
        xb = tuple(tuple(row[off : off + mi]) for row in rows)
        if _product_rows(_product_rows(br, xb), br) != br:
            return False
        off += mi
    return True


# ---------------------------------------------------------------------------
# outer-inverse families

def outer_rank_one_general(
    zeta: Sequence[int], eta: Sequence[int]
) -> InverseFamily:
    """Nonzero outer inverses of the outer product zeta eta^T: products
    p q^T whose paired inner products multiply to one."""
    zeta = tuple(zeta)
    eta = tuple(eta)
    if not any(zeta) or not any(eta):
        raise DomainError("outer-product factors must be nonzero")
    m, n = len(zeta), len(eta)
    body = RankOneProductFamily((n, m), ((zeta, eta),))
    return InverseFamily("Thm5.1", "{2}_1", (n, m), body)


def outer_full_type_I(m: int, n: int) -> InverseFamily:
    """Nonzero outer inverses of the all-ones matrix: both factor sums 1."""
    fam = outer_rank_one_general((1,) * m, (1,) * n)
    return InverseFamily("Cor5.2", "{2}_1", fam.shape, fam.body)


def outer_full_type_III(m: int, n1: int, n2: int) -> InverseFamily:
    """Nonzero outer inverses of (ones | zeros): the rows facing the zero
    columns are unconstrained."""
    if n2 < 0 or n1 < 1:
        raise DomainError("need n1 >= 1 and n2 >= 0")
    fam = outer_rank_one_general((1,) * m, (1,) * n1 + (0,) * n2)
    return InverseFamily("Thm5.5", "{2}_1", fam.shape, fam.body)


def _padded(vec: Sequence[int], offset: int, total: int) -> tuple[int, ...]:
    out = [0] * total
    for k, v in enumerate(vec):
        out[offset + k] = v
    return tuple(out)


def _rank_one_terms(
    blocks: Sequence[TernaryMatrix], col_offsets: Sequence[int], n: int
) -> tuple:
    """Terms of a rank-one outer family over stacked row blocks, block i
    sitting at column col_offsets[i] of n: a rank-one block gives one padded
    (u, v) term, any other block one unit term per row."""
    m = sum(b.rows for b in blocks)
    terms = []
    roff = 0
    for b, coff in zip(blocks, col_offsets):
        try:
            u, v = _rank_one_uv(b)
            pairs = [(_padded(u, roff, m), v)]
        except DomainError:
            pairs = [
                (_padded((1,), roff + r, m), row)
                for r, row in enumerate(b.row_tuples())
            ]
        terms.extend((u, _padded(v, coff, n)) for u, v in pairs)
        roff += b.rows
    return tuple(terms)


def outer_rank1_block_diagonal(blocks: Sequence[TernaryMatrix]) -> InverseFamily:
    """Rank-one outer inverses of a block-diagonal matrix: the per-block
    bilinear contributions sum to one."""
    if not blocks:
        raise DomainError("at least one block required")
    if not all(any(b.entries) for b in blocks):
        raise DomainError("blocks must be nonzero")
    col_offsets = tuple(accumulate((b.cols for b in blocks), initial=0))
    m, n = sum(b.rows for b in blocks), col_offsets[-1]
    body = RankOneProductFamily((n, m), _rank_one_terms(blocks, col_offsets, n))
    return InverseFamily("Thm5.10", "{2}_1", (n, m), body)


def outer_rank1_row_partitioned(blocks: Sequence[TernaryMatrix]) -> InverseFamily:
    """Rank-one outer inverses of a row-partitioned matrix: a single right
    factor against the stacked blocks."""
    if not blocks:
        raise DomainError("at least one block required")
    n = blocks[0].cols
    if any(b.cols != n for b in blocks):
        raise ShapeError("blocks must share their column count")
    m = sum(b.rows for b in blocks)
    body = RankOneProductFamily((n, m), _rank_one_terms(blocks, [0] * len(blocks), n))
    return InverseFamily("OuterRank1RowBlocks", "{2}_1", (n, m), body)


def outer_rank1_full_row_rank(rows: Sequence[Sequence[int]]) -> InverseFamily:
    """Rank-one outer inverses of a full-row-rank matrix in the paper's
    column-scaled form (X1 | l_1 X1 | ... | l_{m-1} X1): X = p q^T with
    p = X1 and q = (1, l), under q^T A p = 1.  That is the single-row-block
    row-partitioned family with q_1 pinned to 1; see the recorded
    first-column restriction."""
    a = TernaryMatrix.from_rows(rows)
    if exact_rank(a) != a.rows:
        raise DomainError("rows must be linearly independent")
    blocks = [TernaryMatrix.from_rows([r]) for r in a.row_tuples()]
    body = replace(outer_rank1_row_partitioned(blocks).body, pinned_lead=True)
    return InverseFamily(
        "OuterRank1FullRowRank",
        "{2}_1",
        (a.cols, a.rows),
        body,
        note=FIRST_COLUMN_GAP_NOTE,
    )


def outer_rank2_class3(structure: str, widths: Sequence[int]) -> InverseFamily:
    """Rank-two outer inverses (equivalently reflexive inverses) of the
    canonical two-row layouts S1 to S4."""
    widths = tuple(widths)
    if structure == "S1":
        if len(widths) != 1:
            raise DomainError("S1 takes a single half-width")
        fam = inner_S1(1, 1, widths[0])
        return InverseFamily("Rank2OuterS1", "{2}_r", fam.shape, fam.body)
    if structure == "S2":
        if len(widths) != 2:
            raise DomainError("S2 takes (n1, n3)")
        fam = inner_S2(1, 1, widths[0], widths[1])
        return InverseFamily("Rank2OuterS2", "{2}_r", fam.shape, fam.body)
    if structure == "S3":
        if len(widths) != 4:
            raise DomainError("S3 takes four widths")
        fam = inner_S3(1, 1, widths)
        return InverseFamily("Rank2OuterS3", "{2}_r", fam.shape, fam.body)
    if structure == "S4":
        if len(widths) != 2 or any(w < 1 for w in widths):
            raise DomainError("S4 takes two positive widths")
        n1, n2 = widths
        part = BlockPartition.from_sizes([n1, n2], [1, 1])
        body = SumConstraintSystem(
            (n1 + n2, 2),
            part,
            (
                _constraint([(1, (0, 0))], 1),
                _constraint([(1, (1, 1))], 1),
                _constraint([(1, (1, 0))], 0),
                _constraint([(1, (0, 1))], 0),
            ),
        )
        return InverseFamily("Rank2OuterS4", "{2}_r", (n1 + n2, 2), body)
    raise DomainError(f"unknown structure {structure!r}")


def reflexive_full_row_rank(rows: Sequence[Sequence[int]]) -> InverseFamily:
    """Reflexive inverses of a full-row-rank matrix: the product with the
    candidate is the identity, one exact linear condition per entry.  For
    such matrices this is the whole inner-inverse set as well."""
    a = TernaryMatrix.from_rows(rows)
    m, n = a.rows, a.cols
    if exact_rank(a) != m:
        raise DomainError("rows must be linearly independent")
    part = BlockPartition.from_sizes([1] * n, [1] * m)
    ar = a.row_tuples()
    constraints = []
    for i in range(m):
        for c in range(m):
            terms = [(ar[i][k], (k, c)) for k in range(n)]
            constraints.append(_constraint(terms, 1 if i == c else 0))
    body = SumConstraintSystem((n, m), part, tuple(constraints))
    return InverseFamily(
        "Thm5.16",
        "{1,2}",
        (n, m),
        body,
        note="for full-row-rank matrices the reflexive and inner sets coincide",
    )


def outer_union(
    theorem_id: str, shape: tuple[int, int], components, note: str = ""
) -> InverseFamily:
    """Zero together with the given disjoint outer families."""
    body = ExplicitUnion(tuple(components))
    return InverseFamily(theorem_id, "{2}", shape, body, note=note)


def outer_full_set_S4(n1: int, n2: int) -> InverseFamily:
    """The complete outer-inverse set for the disjoint two-row layout:
    zero, the column-scaled rank-one family, and the rank-two system."""
    if n1 < 1 or n2 < 1:
        raise DomainError("both widths must be positive")
    rows = ((1,) * n1 + (0,) * n2, (0,) * n1 + (1,) * n2)
    rank1 = outer_rank1_full_row_rank(rows)
    rank2 = outer_rank2_class3("S4", (n1, n2))
    return outer_union("Thm5.19", (n1 + n2, 2), (rank1, rank2), FIRST_COLUMN_GAP_NOTE)
