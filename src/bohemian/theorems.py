"""Theorem dispatch: which characterized family describes A's inverses.

``select_theorem`` picks, for a matrix A and a Penrose spec, the theorem
whose family is the requested inverse set and returns that
:class:`~bohemian.families.InverseFamily`, its ``note`` the one printed
with it; ``census.materialize_family`` then gives its members.  The inner
inverses of a rank-one A = u v^T are the X with v^T X u = 1, written on
A's own cells by ``families.inner_rank_one``, so every family is
enumerated on A itself.  The canonical S1-S4 layouts are detected
literally, in the column order their families are written for.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Optional

from . import classify as cl
from . import families as fam
from .matrices import (
    DomainError,
    TernaryMatrix,
    exact_rank,
    normalize_spec,
)


class UnsupportedShape(Exception):
    """No characterization covers the input's class."""


class _Facts(NamedTuple):
    """What the detectors read about A, each computed once per dispatch."""

    a: TernaryMatrix
    rank: int
    #: maximal runs of +- equal rows, or None (see _row_runs)
    runs: Optional[list[TernaryMatrix]]
    #: literal canonical layout (structure, widths, m1, m2), or None
    s_params: Optional[tuple]


def _row_runs(rows) -> Optional[list[list[tuple[int, ...]]]]:
    """Rows grouped into maximal runs of +- equal rows, or None when a zero
    row occurs or a class of rows reappears after another one."""
    classes, zero_rows = cl._row_classes(rows)
    order = [i for _, members in classes for i, _ in members]
    if zero_rows or order != list(range(len(rows))):
        return None
    return [[rows[i] for i, _ in members] for _, members in classes]


def _canonical_s_params(runs) -> Optional[tuple]:
    """(structure, widths, m1, m2) when the rows are two runs of literally
    equal rows laid out as S1, S2, S3 or S4, else None."""
    if runs is None or len(runs) != 2:
        return None
    if any(r != run[0] for run in runs for r in run):
        return None
    (m1, w1), (m2, w2) = ((len(run), run[0]) for run in runs)
    (v1, c1), (v2, c2) = cl._runs(w1), cl._runs(w2)
    if v1 == (1,) and v2 == (1, -1) and c2[0] == c2[1]:
        return ("S1", (c2[0],), m1, m2)
    if v1 == (1,) and v2 == (1, -1, 0) and c2[0] == c2[1]:
        return ("S2", (c2[0], c2[2]), m1, m2)
    if v1 == (1, 0) and v2 == (1, -1, 0, 1) and sum(c2[:3]) == c1[0] and c2[3] == c1[1]:
        return ("S3", c2, m1, m2)
    if v1 == (1, 0) and v2 == (0, 1) and c1[0] == c2[0]:
        return ("S4", c1, m1, m2)
    return None


def _facts(a: TernaryMatrix) -> _Facts:
    rows = a.row_tuples()
    runs = _row_runs(rows)
    return _Facts(
        a,
        exact_rank(a),
        None if runs is None else [TernaryMatrix.from_rows(run) for run in runs],
        _canonical_s_params(runs),
    )


def _two_row_s_params(f: _Facts) -> Optional[tuple]:
    """(structure, widths) of a canonical layout with one row per run."""
    s = f.s_params
    if s is not None and s[2] == s[3] == 1:
        return s[0], s[1]
    return None


def _select_inner(f: _Facts) -> fam.InverseFamily:
    a = f.a
    form = cl.full_form(a)
    if form is not None:
        return fam.inner_full(form, a.rows)
    if f.s_params is not None:
        structure, widths, m1, m2 = f.s_params
        if structure == "S1":
            return fam.inner_S1(m1, m2, widths[0])
        if structure == "S2":
            return fam.inner_S2(m1, m2, widths[0], widths[1])
        if structure == "S3":
            return fam.inner_S3(m1, m2, widths)
    if f.runs is not None:
        try:
            return fam.class3_inner_system(f.runs)
        except DomainError:
            pass
    if f.rank == a.rows:
        return fam.reflexive_full_row_rank(a.row_tuples())
    if f.rank == 1:
        return fam.inner_rank_one(a)
    raise UnsupportedShape("no inner characterization for this shape")


def _select_outer(f: _Facts, rank: Optional[int]) -> fam.InverseFamily:
    a = f.a
    layout = _two_row_s_params(f)
    if rank is None:
        if f.rank == 1:
            family = fam.outer_rank_one_general(*fam._rank_one_uv(a))
            return fam.outer_union(
                family.theorem_id, family.shape, (family,),
                "nonzero members are rank one",
            )
        if layout is not None:
            if layout[0] == "S4":
                return fam.outer_full_set_S4(*layout[1])
            rank1 = fam.outer_rank1_full_row_rank(a.row_tuples())
            rank2 = fam.outer_rank2_class3(*layout)
            return fam.outer_union(
                f"OuterFullSet{layout[0]}", rank1.shape, (rank1, rank2),
                fam.FIRST_COLUMN_GAP_NOTE,
            )
        if f.rank == 2 and a.rows == 2:
            # outer inverses of a two-row full-row-rank matrix have rank at
            # most two, so zero, the rank-one family, and the reflexive set
            # exhaust the outer set
            rank1 = fam.outer_rank1_full_row_rank(a.row_tuples())
            rank2 = fam.reflexive_full_row_rank(a.row_tuples())
            return fam.outer_union(
                "OuterFullSetRank2", rank1.shape, (rank1, rank2),
                fam.FIRST_COLUMN_GAP_NOTE,
            )
        raise UnsupportedShape("full outer sets are characterized only for "
                               "rank-one matrices and full-row-rank two-row "
                               "layouts")
    if rank == 0:
        return fam.outer_union(
            "ZeroOuter", (a.cols, a.rows), (),
            "the zero matrix is always an outer inverse",
        )
    if rank == 1:
        if f.rank == a.rows:
            return fam.outer_rank1_full_row_rank(a.row_tuples())
        blocks = f.runs or [TernaryMatrix.from_rows([r]) for r in a.row_tuples()]
        return fam.outer_rank1_row_partitioned(blocks)
    if rank == 2 and layout is not None:
        return fam.outer_rank2_class3(*layout)
    if rank == f.rank == a.rows:
        return fam.reflexive_full_row_rank(a.row_tuples())
    raise UnsupportedShape(f"no rank-{rank} outer characterization for this shape")


def _select_reflexive(f: _Facts) -> fam.InverseFamily:
    if f.rank == 1:
        return replace(
            fam.outer_rank_one_general(*fam._rank_one_uv(f.a)),
            note="for rank-one matrices the nonzero outer and reflexive sets agree",
        )
    if f.rank == f.a.rows:
        return fam.reflexive_full_row_rank(f.a.row_tuples())
    raise UnsupportedShape("no reflexive characterization for this shape")


def select_theorem(
    a: TernaryMatrix, spec: str, rank: Optional[int] = None
) -> fam.InverseFamily:
    """The characterization of A's {spec} inverses (of the given rank, for
    spec 2); raises UnsupportedShape when none applies."""
    spec = normalize_spec(spec)
    f = _facts(a)
    if spec == "1":
        return _select_inner(f)
    if spec == "2":
        return _select_outer(f, rank)
    return _select_reflexive(f)
