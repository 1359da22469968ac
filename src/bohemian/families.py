"""Machine-checkable descriptions of inner and outer inverse sets.

Each characterized set is carried as data, not a closure: an
:class:`InverseFamily` bundles a stable ``theorem_id``, one of three
bodies (a linear system on the entries of X, a rank-one product
condition, or an explicit union), which also holds the inverse shape,
and a note.  Families can be compared and materialized over a finite
population, and every one is cross-checked against the brute-force
census in the tests.

A linear constraint holds one exact coefficient per row-major cell of X.
The paper's block-sum equations, "sum of c_b times the entry sum of
block b", are written out cell by cell, each cell carrying its block's
coefficient.  All coefficients and right-hand sides are exact rationals;
a constraint like "block sum = 1/2" is kept as stated, and its emptiness
over integer populations is a computed outcome rather than a special
case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from operator import mul
from typing import Sequence, Union

from .classify import TYPE_I, TYPE_II, TYPE_III, TYPE_IV, FullForm, _class_terms
from .matrices import (
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


@dataclass(frozen=True)
class LinearConstraint:
    """Sum of coeffs[k] * x_k over the row-major entries x_k of the
    candidate, equal to ``rhs``.  Coefficients and rhs are exact: an int,
    or a Fraction where the value is fractional."""

    coeffs: tuple[Union[int, Fraction], ...]
    rhs: Union[int, Fraction]

    def evaluate(self, entries) -> Fraction:
        return sum(map(mul, self.coeffs, entries), start=Fraction(0))


@dataclass(frozen=True)
class SumConstraintSystem:
    """Linear equations on the entries of the candidate inverse."""

    shape: tuple[int, int]
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        cells = self.shape[0] * self.shape[1]
        for con in self.constraints:
            if len(con.coeffs) != cells:
                raise ShapeError(
                    f"constraint has {len(con.coeffs)} coefficients, "
                    f"expected one per cell of {self.shape[0]}x{self.shape[1]}"
                )

    def is_member(self, x) -> bool:
        entries = tuple(chain.from_iterable(_coerce_rows(x, self.shape)))
        return all(con.evaluate(entries) == con.rhs for con in self.constraints)


def _block_system(
    row_sizes: Sequence[int], col_sizes: Sequence[int], *equations
) -> SumConstraintSystem:
    """The system of ``equations``, each ({(i, j): c_b}, rhs) meaning
    sum of c_b * (entry sum of block b) = rhs, written on the cells of the
    grid of contiguous row blocks of ``row_sizes`` and column blocks of
    ``col_sizes``."""
    for sizes in (row_sizes, col_sizes):
        if any(s < 1 for s in sizes):
            raise ShapeError(f"block sizes must be positive: {sizes}")
    cols = [j for j, s in enumerate(col_sizes) for _ in range(s)]
    cells = [(i, j) for i, s in enumerate(row_sizes) for _ in range(s) for j in cols]
    constraints = tuple(
        LinearConstraint(tuple(terms.get(b, 0) for b in cells), rhs)
        for terms, rhs in equations
    )
    return SumConstraintSystem((sum(row_sizes), len(cols)), constraints)


def _inner_system(terms, shape: tuple[int, int]) -> SumConstraintSystem:
    """Inner inverses of A = sum of u_j v_j^T over the terms (u_j, v_j),
    where the u's are independent and the v's are independent: the X of
    the given shape with v_i^T X u_j = [i = j], one equation per ordered
    pair (i, j), i-major.

    Proof.  Let U have the columns u_j and V the columns v_j, so A = U V^T
    and AXA = U (V^T X U) V^T, where entry (i, j) of V^T X U is
    v_i^T X u_j.  U has a left inverse and V^T a right inverse, since
    their columns and rows are independent, so U M V^T = U V^T exactly
    when M = I.  In v_i^T X u_j, cell (r, c) of X carries v_i[r] * u_j[c].
    """
    return SumConstraintSystem(shape, tuple(
        LinearConstraint(tuple(a * b for a in v_i for b in u_j), int(i == j))
        for i, (_, v_i) in enumerate(terms)
        for j, (u_j, _) in enumerate(terms)
    ))


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

    def condition_value(self, p, q):
        return sum(
            sum(map(mul, q, u)) * sum(map(mul, p, v)) for u, v in self.terms
        )


@dataclass(frozen=True)
class ExplicitUnion:
    """The zero matrix together with disjoint sub-families of nonzero
    members, all of the given shape."""

    shape: tuple[int, int]
    components: tuple["InverseFamily", ...]


FamilyBody = Union[SumConstraintSystem, RankOneProductFamily, ExplicitUnion]


@dataclass(frozen=True)
class InverseFamily:
    """A theorem-indexed description of an inverse set."""

    theorem_id: str
    body: FamilyBody
    note: str = ""

    @property
    def shape(self) -> tuple[int, int]:
        return self.body.shape


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
    terms = {(0, 0): form.sign}
    if form.widths[1]:
        terms[(1, 0)] = -form.sign
    body = _block_system([w for w in form.widths if w], [m], (terms, 1))
    return InverseFamily(_INNER_FULL_IDS[form.kind], body)


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
    half = Fraction(1, 2)
    body = _block_system(
        [n1, n1],
        [m1, m2],
        ({(0, 0): 1}, half),
        ({(1, 0): 1}, half),
        ({(0, 1): 1}, half),
        ({(1, 1): -1}, half),
    )
    return InverseFamily("Thm4.5", body)


def inner_S2(m1: int, m2: int, n1: int, n3: int) -> InverseFamily:
    """Inner inverses for the S2 stack (all-ones over plus/minus/zero)."""
    if n1 < 1 or n3 < 0:
        raise DomainError("need n1 >= 1 and n3 >= 0")
    row_sizes = [n1, n1] + ([n3] if n3 else [])
    first_col = {(i, 0): 1 for i in range(len(row_sizes))}
    second_col = {(i, 1): 1 for i in range(len(row_sizes))}
    body = _block_system(
        row_sizes,
        [m1, m2],
        (first_col, 1),
        ({(0, 1): 1, (1, 1): -1}, 1),
        ({(0, 0): 1, (1, 0): -1}, 0),
        (second_col, 0),
    )
    return InverseFamily("Thm4.6", body)


def inner_S3(m1: int, m2: int, widths: Sequence[int]) -> InverseFamily:
    """Inner inverses for the S3 stack, as four block-sum equations."""
    if len(widths) != 4 or any(w < 1 for w in widths):
        raise DomainError("S3 needs four positive column widths")
    body = _block_system(
        widths,
        [m1, m2],
        ({(0, 0): 1, (1, 0): 1, (2, 0): 1}, 1),
        ({(3, 0): 1, (1, 0): -1, (0, 0): 1}, 0),
        ({(0, 1): 1, (1, 1): 1, (2, 1): 1}, 0),
        ({(3, 1): 1, (1, 1): -1, (0, 1): 1}, 1),
    )
    return InverseFamily("Thm4.8", body)


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
    weighted row-sum conditions, one equation per ordered block pair.
    Block j = u_j v_j^T gives the term (u_j padded to its rows of A, v_j);
    the padded u's have disjoint supports and the orthogonal v's are
    independent, so the identity system applies."""
    blocks = tuple(blocks)
    uv = _validate_class3_blocks(blocks)
    ms = [b.rows for b in blocks]
    m = sum(ms)
    offsets = accumulate(ms, initial=0)
    terms = [(_padded(u, off, m), v) for (u, v), off in zip(uv, offsets)]
    return InverseFamily("Thm4.7", _inner_system(terms, (blocks[0].cols, m)))


def inner_rank_one(a: TernaryMatrix) -> InverseFamily:
    """Inner inverses of a rank-one A = u v^T, written on A's own cells:
    the X with v^T X u = 1.  That is the Thm4.7 system with A as its only
    block.

    Proof.  AXA = u (v^T X u) v^T.  If AXA = A then u (v^T X u) v^T =
    u v^T, which is nonzero, so v^T X u = 1; the converse is immediate.
    """
    return replace(class3_inner_system([a]), theorem_id="RankOneInner")


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
    return InverseFamily("Thm5.1", body)


def outer_full_type_I(m: int, n: int) -> InverseFamily:
    """Nonzero outer inverses of the all-ones matrix: both factor sums 1."""
    fam = outer_rank_one_general((1,) * m, (1,) * n)
    return InverseFamily("Cor5.2", fam.body)


def outer_full_type_III(m: int, n1: int, n2: int) -> InverseFamily:
    """Nonzero outer inverses of (ones | zeros): the rows facing the zero
    columns are unconstrained."""
    if n2 < 0 or n1 < 1:
        raise DomainError("need n1 >= 1 and n2 >= 0")
    fam = outer_rank_one_general((1,) * m, (1,) * n1 + (0,) * n2)
    return InverseFamily("Thm5.5", fam.body)


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
    return InverseFamily("Thm5.10", body)


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
    return InverseFamily("OuterRank1RowBlocks", body)


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
    return InverseFamily("OuterRank1FullRowRank", body, note=FIRST_COLUMN_GAP_NOTE)


def outer_rank2_class3(structure: str, widths: Sequence[int]) -> InverseFamily:
    """Rank-two outer inverses (equivalently reflexive inverses) of the
    canonical two-row layouts S1 to S4."""
    widths = tuple(widths)
    if structure == "S1":
        if len(widths) != 1:
            raise DomainError("S1 takes a single half-width")
        fam = inner_S1(1, 1, widths[0])
        return InverseFamily("Rank2OuterS1", fam.body)
    if structure == "S2":
        if len(widths) != 2:
            raise DomainError("S2 takes (n1, n3)")
        fam = inner_S2(1, 1, widths[0], widths[1])
        return InverseFamily("Rank2OuterS2", fam.body)
    if structure == "S3":
        if len(widths) != 4:
            raise DomainError("S3 takes four widths")
        fam = inner_S3(1, 1, widths)
        return InverseFamily("Rank2OuterS3", fam.body)
    if structure == "S4":
        if len(widths) != 2 or any(w < 1 for w in widths):
            raise DomainError("S4 takes two positive widths")
        body = _block_system(
            widths,
            [1, 1],
            ({(0, 0): 1}, 1),
            ({(1, 1): 1}, 1),
            ({(1, 0): 1}, 0),
            ({(0, 1): 1}, 0),
        )
        return InverseFamily("Rank2OuterS4", body)
    raise DomainError(f"unknown structure {structure!r}")


def reflexive_full_row_rank(rows: Sequence[Sequence[int]]) -> InverseFamily:
    """Reflexive inverses of a full-row-rank matrix: the product with the
    candidate is the identity, one exact linear condition per entry.  For
    such matrices this is the whole inner-inverse set as well.  A is the
    sum of e_i A[i]^T over its rows, so entry (i, c) of A X is the
    identity system's A[i]^T X e_c."""
    a = TernaryMatrix.from_rows(rows)
    m, n = a.rows, a.cols
    if exact_rank(a) != m:
        raise DomainError("rows must be linearly independent")
    terms = [(_padded((1,), i, m), row) for i, row in enumerate(a.row_tuples())]
    return InverseFamily(
        "Thm5.16",
        _inner_system(terms, (n, m)),
        note="for full-row-rank matrices the reflexive and inner sets coincide",
    )


def outer_union(
    theorem_id: str, shape: tuple[int, int], components, note: str = ""
) -> InverseFamily:
    """Zero together with the given disjoint outer families."""
    return InverseFamily(theorem_id, ExplicitUnion(shape, tuple(components)), note)


def outer_full_set_S4(n1: int, n2: int) -> InverseFamily:
    """The complete outer-inverse set for the disjoint two-row layout:
    zero, the column-scaled rank-one family, and the rank-two system."""
    if n1 < 1 or n2 < 1:
        raise DomainError("both widths must be positive")
    rows = ((1,) * n1 + (0,) * n2, (0,) * n1 + (1,) * n2)
    rank1 = outer_rank1_full_row_rank(rows)
    rank2 = outer_rank2_class3("S4", (n1, n2))
    return outer_union("Thm5.19", (n1 + n2, 2), (rank1, rank2), FIRST_COLUMN_GAP_NOTE)
