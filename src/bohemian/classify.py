"""Structural classification of ternary matrices.

Detects the four full shapes, factors rank-one matrices into signed
permutations around an all-ones core, finds block-diagonal (well-settled)
structure, and places matrices in the Class I / II / III hierarchy of
sums of disjoint rank-one terms.  All constructions are deterministic:
ties are broken by lowest original index, and sign ambiguity is resolved
by forcing the first nonzero entry of each representative vector to +1.

Every structural test reads one grouping of the nonzero rows of A into
classes of +- equal rows (``_row_classes``), by this lemma: two nonzero
ternary rows v and w are linearly dependent only when w = +-v.

Proof.  If w = c v, take j with v_j != 0.  Then w_j = c v_j is nonzero
too, so c = w_j / v_j is a ratio of two entries in {-1, 1}: c = +-1.

Hence, with the classes' representatives written v_1, ..., v_k:

- rank(A) = 1 exactly when k = 1, since rows of two classes are
  independent.
- A is generalized well-settled (GWS: permutation-equivalent to a block
  diagonal of rank-one blocks) exactly when the supports of v_1, ..., v_k
  are pairwise disjoint.  If they are, each class, on its
  representative's support columns, is a rank-one block, and no two
  blocks share a row or a column.  If two supports share column j, then
  in any block-diagonal form the rows of both classes meet column j in
  the same block, which then holds two independent rows and has rank at
  least 2.
- Disjointly supported nonzero representatives are independent, so a GWS
  A has rank k and is Class II.  Class I (Class II with disjointly
  supported representatives) is therefore the same as GWS.
- A is well-settled (WS: the blocks are full, so each has literally
  equal rows and no zero rows are left over) exactly when it is GWS, has
  no zero row, and every class has a single sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import mul
from typing import Optional, Sequence

from .matrices import (
    DomainError,
    SignedPermutation,
    TernaryMatrix,
    _row_rank,
)

TYPE_I = "TypeI"
TYPE_II = "TypeII"
TYPE_III = "TypeIII"
TYPE_IV = "TypeIV"


@dataclass(frozen=True)
class FullForm:
    """One of the four full shapes: a +-1 block, then an optional opposite
    block, then an optional zero block, in that fixed column order."""

    kind: str
    sign: int
    widths: tuple[int, int, int]

    def __post_init__(self):
        if self.kind not in (TYPE_I, TYPE_II, TYPE_III, TYPE_IV):
            raise DomainError(f"unknown full kind {self.kind!r}")
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be +-1, got {self.sign}")
        n1, n2, n3 = self.widths
        ok = {
            TYPE_I: n1 >= 1 and n2 == 0 and n3 == 0,
            TYPE_II: n1 >= 1 and n2 >= 1 and n3 == 0,
            TYPE_III: n1 >= 1 and n2 == 0 and n3 >= 1,
            TYPE_IV: n1 >= 1 and n2 >= 1 and n3 >= 1,
        }[self.kind]
        if not ok:
            raise DomainError(f"widths {self.widths} do not fit {self.kind}")

    def materialize(self, m: int) -> TernaryMatrix:
        n1, n2, n3 = self.widths
        row = (self.sign,) * n1 + (-self.sign,) * n2 + (0,) * n3
        return TernaryMatrix.from_rows([row] * m)

    def to_json(self) -> dict:
        return {"kind": self.kind, "sign": self.sign, "widths": list(self.widths)}


def _runs(row) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The values and the lengths of the maximal constant runs of a row."""
    runs = [(v, len(list(g))) for v, g in groupby(row)]
    return tuple(v for v, _ in runs), tuple(c for _, c in runs)


def full_form(a: TernaryMatrix) -> Optional[FullForm]:
    """Detect a full shape in literal column order; None if it is not one."""
    rows = a.row_tuples()
    first = rows[0]
    if any(r != first for r in rows[1:]):
        return None
    values, lengths = _runs(first)
    s = values[0]
    kind = {(s,): TYPE_I, (s, -s): TYPE_II, (s, 0): TYPE_III, (s, -s, 0): TYPE_IV}
    if s == 0 or values not in kind:
        return None
    width = dict(zip(values, lengths))
    return FullForm(kind[values], s, (width[s], width.get(-s, 0), width.get(0, 0)))


def _row_classes(rows):
    """Group nonzero ternary rows into +- equality classes.

    Returns (classes, zero_rows) where classes is a list of
    (representative, [(row_index, sign), ...]) in first-appearance order and
    each representative has its first nonzero entry equal to +1.
    """
    classes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    zero_rows: list[int] = []
    for i, r in enumerate(rows):
        lead = next(filter(None, r), 0)
        if lead == 0:
            zero_rows.append(i)
        elif lead > 0:
            classes.setdefault(tuple(r), []).append((i, 1))
        else:
            classes.setdefault(tuple(-e for e in r), []).append((i, -1))
    return list(classes.items()), zero_rows


def _disjoint(reps) -> bool:
    """True when no column is nonzero in two of the representatives."""
    return all(sum(map(bool, col)) <= 1 for col in zip(*reps))


def _single_signed(classes) -> bool:
    """True when the rows of each class are literally equal."""
    return all(len({s for _, s in members}) == 1 for _, members in classes)


@dataclass(frozen=True)
class RankOneFactorization:
    """Signed-permutation factorization of a rank-one ternary matrix.

    The factors satisfy P1 @ D1 @ core @ D2 @ P2 = A, where ``p1[t]`` is the
    row of A receiving core row t (scaled by ``d1[t]``) and ``p2[t]`` is the
    column of A receiving core column t (scaled by ``d2[t]``).  The core is
    an all-ones block, padded right by zero columns and below by zero rows.
    """

    p1: tuple[int, ...]
    d1: tuple[int, ...]
    core: TernaryMatrix
    d2: tuple[int, ...]
    p2: tuple[int, ...]
    core_form: FullForm
    zero_row_count: int

    def u_factor(self) -> SignedPermutation:
        """P1 @ D1 as a single signed permutation."""
        return SignedPermutation(self.p1, self.d1)

    def v_factor(self) -> SignedPermutation:
        """D2 @ P2 as a single signed permutation."""
        return SignedPermutation(self.p2, self.d2).transpose()

    def reassemble(self) -> TernaryMatrix:
        m, n = len(self.p1), len(self.p2)
        ent = [[0] * n for _ in range(m)]
        core_rows = self.core.row_tuples()
        for t, row in enumerate(core_rows):
            target = ent[self.p1[t]]
            rs = self.d1[t]
            for c, val in enumerate(row):
                target[self.p2[c]] = rs * self.d2[c] * val
        return TernaryMatrix.from_rows(ent)

    def to_json(self) -> dict:
        return {
            "p1": list(self.p1),
            "d1": list(self.d1),
            "core": self.core.to_lists(),
            "d2": list(self.d2),
            "p2": list(self.p2),
            "core_form": self.core_form.to_json(),
            "zero_row_count": self.zero_row_count,
        }


def rank_one_factorize(a: TernaryMatrix) -> RankOneFactorization:
    """Factor a rank-one ternary matrix as P1 @ D1 @ core @ D2 @ P2.

    Deterministic tie-breaking: the first nonzero row is the sign reference,
    zero rows sink to the bottom preserving order, support columns come
    first preserving order, and D2 makes the core's nonzero block all +1.
    """
    classes, zero_rows = _row_classes(a.row_tuples())
    if len(classes) != 1:
        raise DomainError("rank-one factorization requires a rank-1 matrix")
    rep, members = classes[0]

    p1 = tuple(i for i, _ in members) + tuple(zero_rows)
    d1 = tuple(s for _, s in members) + (1,) * len(zero_rows)

    support = [j for j, e in enumerate(rep) if e]
    zero_cols = [j for j, e in enumerate(rep) if not e]
    p2 = tuple(support + zero_cols)
    d2 = tuple(rep[j] for j in support) + (1,) * len(zero_cols)

    m, n = a.rows, a.cols
    k = len(zero_rows)
    s = len(support)
    core_row = (1,) * s + (0,) * (n - s)
    core = TernaryMatrix.from_rows([core_row] * (m - k) + [(0,) * n] * k)
    if n == s:
        form = FullForm(TYPE_I, 1, (s, 0, 0))
    else:
        form = FullForm(TYPE_III, 1, (s, 0, n - s))
    return RankOneFactorization(p1, d1, core, d2, p2, form, k)


@dataclass(frozen=True)
class GwsBlock:
    row_span: tuple[int, int]
    col_span: tuple[int, int]
    matrix: TernaryMatrix

    def to_json(self) -> dict:
        return {
            "row_span": list(self.row_span),
            "col_span": list(self.col_span),
            "matrix": self.matrix.to_lists(),
        }


@dataclass(frozen=True)
class GwsDecomposition:
    """Permutations carrying A to block-diagonal form with rank-one blocks.

    ``row_perm[i]`` is the original row appearing at position i after the
    permutation (likewise for columns).  Zero rows and columns occupy a
    dedicated trailing block after the listed rank-one blocks.
    """

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    blocks: tuple[GwsBlock, ...]

    def to_json(self) -> dict:
        return {
            "row_perm": list(self.row_perm),
            "col_perm": list(self.col_perm),
            "blocks": [b.to_json() for b in self.blocks],
        }


def gws_detect(a: TernaryMatrix) -> Optional[GwsDecomposition]:
    """Block-diagonal form with rank-one blocks, or None.

    Succeeds exactly when the row classes' representatives are disjointly
    supported (see the module docstring).  Each class is one block, on its
    representative's support columns, in first-appearance order with rows
    and columns ascending; zero rows and columns are parked in a trailing
    zero block.
    """
    rows = a.row_tuples()
    classes, zero_rows = _row_classes(rows)
    if not _disjoint([rep for rep, _ in classes]):
        return None
    row_perm: list[int] = []
    col_perm: list[int] = []
    blocks: list[GwsBlock] = []
    for rep, members in classes:
        block_rows = [i for i, _ in members]
        block_cols = [j for j, e in enumerate(rep) if e]
        sub = TernaryMatrix.from_rows(
            tuple(rows[r][c] for c in block_cols) for r in block_rows
        )
        blocks.append(
            GwsBlock(
                (len(row_perm), len(row_perm) + len(block_rows)),
                (len(col_perm), len(col_perm) + len(block_cols)),
                sub,
            )
        )
        row_perm.extend(block_rows)
        col_perm.extend(block_cols)
    row_perm.extend(zero_rows)
    col_perm.extend(j for j, col in enumerate(zip(*rows)) if not any(col))
    return GwsDecomposition(tuple(row_perm), tuple(col_perm), tuple(blocks))


@dataclass(frozen=True)
class ClassReport:
    """Rank, structural flags, and the rank-one terms witnessing Class II.

    ``terms`` holds pairs (u_i, v_i) of ternary columns with disjointly
    supported u_i and sum of outer products equal to A; it is empty when the
    row-wise grouping fails.  ``is_class_II_columnwise`` reports the same
    test on the transpose.
    """

    rank: int
    full_form: Optional[FullForm]
    is_rank_one: bool
    is_well_settled: bool
    is_generalized_well_settled: bool
    is_class_I: bool
    is_class_II: bool
    is_class_III: bool
    is_class_II_columnwise: bool
    terms: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    s_structure: Optional[str]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "full_form": self.full_form.to_json() if self.full_form else None,
            "is_rank_one": self.is_rank_one,
            "is_well_settled": self.is_well_settled,
            "is_generalized_well_settled": self.is_generalized_well_settled,
            "is_class_I": self.is_class_I,
            "is_class_II": self.is_class_II,
            "is_class_III": self.is_class_III,
            "is_class_II_columnwise": self.is_class_II_columnwise,
            "terms": [[list(u), list(v)] for u, v in self.terms],
            "s_structure": self.s_structure,
        }


def _terms(classes, m: int):
    """The rank-one terms (u, v) of the row classes of an m-row matrix."""
    terms = []
    for rep, members in classes:
        u = [0] * m
        for idx, sign in members:
            u[idx] = sign
        terms.append((tuple(u), rep))
    return tuple(terms)


def _class_terms(a: TernaryMatrix, rank: int):
    """Row-wise Class II witness terms, or None when the grouping fails."""
    classes, _ = _row_classes(a.row_tuples())
    if len(classes) != rank:
        return None
    return _terms(classes, a.rows)


def _orthogonal(reps) -> bool:
    """True when the representatives are pairwise orthogonal."""
    return all(
        sum(map(mul, reps[i], reps[j])) == 0
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    )


def _structure_from_reps(reps: Sequence[tuple[int, ...]]) -> Optional[str]:
    """Canonical rank-two layout of a pair of orthogonal representatives."""
    v1, v2 = reps
    both_zero = a_only = b_only = agree = disagree = 0
    for x, y in zip(v1, v2):
        if x == 0 and y == 0:
            both_zero += 1
        elif y == 0:
            a_only += 1
        elif x == 0:
            b_only += 1
        elif x == y:
            agree += 1
        else:
            disagree += 1
    if both_zero:
        return None
    if agree or disagree:
        if a_only == 0 and b_only == 0:
            return "S1"
        if a_only and b_only:
            return "S3"
        return "S2"
    return "S4"


def class_membership(a: TernaryMatrix) -> ClassReport:
    """Detect the full shape, settledness, and Class I/II/III membership.

    A is Class II row-wise when its nonzero rows group into exactly rank(A)
    classes of +- equal rows; Class III additionally needs orthogonal class
    representatives, Class I disjointly supported ones.  GWS and WS are
    read off the same classes (see the module docstring).  The column-wise
    reading is reported as a separate flag.
    """
    rows = a.row_tuples()
    classes, zero_rows = _row_classes(rows)
    col_classes, _ = _row_classes(zip(*rows))
    reps = [rep for rep, _ in classes]
    rank = _row_rank(reps) if reps else 0  # each nonzero row is +- a rep
    is_class_ii = len(classes) == rank
    is_class_iii = is_class_ii and _orthogonal(reps)
    disjoint = _disjoint(reps)  # then Class II holds too
    return ClassReport(
        rank=rank,
        full_form=full_form(a),
        is_rank_one=rank == 1,
        is_well_settled=disjoint and not zero_rows and _single_signed(classes),
        is_generalized_well_settled=disjoint,
        is_class_I=disjoint,
        is_class_II=is_class_ii,
        is_class_III=is_class_iii,
        is_class_II_columnwise=len(col_classes) == rank,
        terms=_terms(classes, a.rows) if is_class_ii else (),
        s_structure=_structure_from_reps(reps) if is_class_iii and rank == 2 else None,
    )


@dataclass(frozen=True)
class UwDecomposition:
    """A = U @ W with U a signed permutation and W made of constant-row
    blocks; ``row_block_sizes`` lists the block heights in W, last one the
    zero block when A has zero rows."""

    u: SignedPermutation
    w: TernaryMatrix
    row_block_sizes: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "u": self.u.to_json(),
            "w": self.w.to_lists(),
            "row_block_sizes": list(self.row_block_sizes),
        }


def uw_decompose(a: TernaryMatrix) -> UwDecomposition:
    """Split a row-wise Class II matrix as a signed permutation times a
    stack of constant-row blocks, zero rows parked in a trailing block."""
    classes, zero_rows = _row_classes(a.row_tuples())
    if classes and len(classes) != _row_rank([rep for rep, _ in classes]):
        raise DomainError("UW decomposition requires a row-wise Class II matrix")
    w_rows: list[tuple[int, ...]] = []
    perm: list[int] = []
    signs: list[int] = []
    sizes: list[int] = []
    for rep, members in classes:
        sizes.append(len(members))
        for idx, sign in members:
            perm.append(idx)
            signs.append(sign)
            w_rows.append(rep)
    if zero_rows:
        sizes.append(len(zero_rows))
        for idx in zero_rows:
            perm.append(idx)
            signs.append(1)
            w_rows.append((0,) * a.cols)
    u = SignedPermutation(tuple(perm), tuple(signs))
    return UwDecomposition(u, TernaryMatrix.from_rows(w_rows), tuple(sizes))
