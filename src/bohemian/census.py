"""Exhaustive censuses over finite populations.

The brute-force census is the independent oracle: it decides the defining
equations for every candidate matrix by exact integer comparison, in a
fixed odometer order (row-major, last entry varying fastest, population
values ascending), so identical tasks always produce identical streams.
It uses only the ``matrices`` kernel, never the characterized families it
checks.  The scan shares work across candidates only through row tables
built once per A: every population row x and its product x A, and for
AXA = A the per-row terms A[:, k] (x A), of which there are |P|^min(m, n)
each because a taller-than-wide A is scanned as its transpose.  Nesting
over the rows of X with running partial sums then leaves one tuple
comparison per candidate.  Constraint-guided enumeration and family
materialization live here too; their outputs are canonically sorted so
theorem-versus-oracle comparisons are plain set comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, product
from operator import mul, sub
from typing import Iterable, Iterator, Optional

from .families import (
    ColumnScaledFamily,
    ExplicitUnion,
    InverseFamily,
    RankOneProductFamily,
    SumConstraintSystem,
)
from .matrices import (
    DomainError,
    IntMatrix,
    TernaryMatrix,
    _product_rows,
    exact_rank,
    normalize_spec,
    serialize_matrix,
)

DEFAULT_CELL_BUDGET = 16


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured cell budget."""


@dataclass(frozen=True)
class Population:
    """The finite set of allowed entries, kept strictly increasing."""

    values: tuple[int, ...] = (-1, 0, 1)

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise DomainError("population must be nonempty")
        if len(self.values) > 8:
            raise DomainError("populations with more than 8 values are unsupported")
        if any(not isinstance(v, int) for v in self.values):
            raise DomainError("population values must be integers")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise DomainError("population values must be strictly increasing")

    def __contains__(self, value: int) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)


TERNARY = Population()


@dataclass(frozen=True)
class EnumerationResult:
    """An ordered stream of matrices plus its exact count.

    ``matrices`` is None for count-only runs; otherwise the count equals the
    stream length.
    """

    matrices: Optional[tuple[IntMatrix, ...]]
    count: int

    def __iter__(self) -> Iterator[IntMatrix]:
        if self.matrices is None:
            raise DomainError("count-only result has no stream")
        return iter(self.matrices)

    def __len__(self) -> int:
        return self.count

    def as_set(self) -> frozenset[IntMatrix]:
        if self.matrices is None:
            raise DomainError("count-only result has no stream")
        return frozenset(self.matrices)

    def serialize(self) -> str:
        """Stream in the matrix text format, blank-line separated, with a
        trailing count record."""
        parts = []
        if self.matrices is not None:
            parts.extend(serialize_matrix(m) for m in self.matrices)
        parts.append(f"count: {self.count}\n")
        return "\n".join(parts)

    def to_json(self) -> dict:
        payload: dict = {"count": self.count}
        if self.matrices is not None:
            payload["matrices"] = [m.to_lists() for m in self.matrices]
        return payload


def brute_force_inverses(
    a: TernaryMatrix,
    spec: str,
    population: Population = TERNARY,
    rank_filter: Optional[int] = None,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    count_only: bool = False,
) -> EnumerationResult:
    """Exact evaluation of the defining equations over every candidate.

    Scans all population-valued matrices of the transposed shape and keeps
    those satisfying the requested equations (1: AXA=A, 2: XAX=X, 12:
    both), optionally restricted to an exact rank, in odometer order.
    Refuses scans beyond the cell budget instead of truncating.

    Every candidate meets an exact comparison of integer tuples computed
    from its own entries: for AXA = A that comparison is the whole
    equation (``_inner_hits``); for XAX = X it is one row of it
    (``_outer_hits``), and the candidates passing it are checked row by
    row (``_outer_holds``).  Spec 12 runs the XAX = X check on the AXA = A
    hits.  Only the per-row parts of the products are shared, tabulated
    once per A.  A taller-than-wide A is scanned as A^T, whose inverses
    are the transposes of A's with the same ranks, so every table has at
    most |P|^min(m, n) rows.  Matrices are built, and ranks taken, for hits
    only.
    """
    spec = normalize_spec(spec)
    cells = a.rows * a.cols
    if cells > cell_budget:
        size = len(population)
        raise ResourceLimitError(
            f"enumeration of {cells} cells ({size}^{cells} = {size ** cells} "
            f"candidates) exceeds the budget of {cell_budget}"
        )
    ar = a.row_tuples()
    flip = a.rows > a.cols
    if flip:
        ar = tuple(zip(*ar))
    rows = tuple(product(population.values, repeat=len(ar)))
    ra = _product_rows(rows, ar)
    if "1" in spec:
        hits = _inner_hits(ar, ra)
    else:
        hits = _outer_hits(rows, ra)
    if "2" in spec:
        hits = (idx for idx in hits if _outer_holds(idx, rows, ra))
    if count_only and rank_filter is None:
        return EnumerationResult(None, sum(1 for _ in hits))

    if flip:
        # row j of X is column j of the scanned X^T
        found = (
            tuple(chain.from_iterable(zip(*[rows[i] for i in idx]))) for idx in hits
        )
        if not count_only:
            found = sorted(found)  # odometer order again
    else:
        found = (tuple(chain.from_iterable([rows[i] for i in idx])) for idx in hits)
    matches: list[IntMatrix] = []
    count = 0
    for ent in found:
        x = IntMatrix(a.cols, a.rows, ent)
        if rank_filter is not None and exact_rank(x) != rank_filter:
            continue
        count += 1
        if not count_only:
            matches.append(x)
    return EnumerationResult(None if count_only else tuple(matches), count)


def _nested_scan(n, size, start, step, leaf) -> Iterator[tuple[int, ...]]:
    """Index tuples (r_0, ..., r_{n-1}) into a row table of ``size`` rows,
    in odometer order, one nesting depth per row of X.

    ``step(state, depth, r)`` carries a state past row ``depth``;
    ``leaf(state)`` yields the last-row indices that pass, given the state
    after all earlier rows.
    """
    indices = range(size)
    if n == 1:
        return ((r,) for r in leaf(start))

    def descend(depth, state, prefix):
        for r in indices:
            nxt = step(state, depth, r)
            if depth == n - 2:
                for last in leaf(nxt):
                    yield prefix + (r, last)
            else:
                yield from descend(depth + 1, nxt, prefix + (r,))

    return descend(0, start, ())


def _inner_hits(ar, ra) -> Iterator[tuple[int, ...]]:
    """Row-table indices of the X with AXA = A, for an m x n A with m <= n.

    AXA = sum_k A[:, k] (x_k A), one term per row x_k of X.  The terms are
    tabulated per row index and subtracted from vec(A) depth by depth, so
    at the last row each candidate is one tuple comparison of its term
    with what is left of vec(A).
    """
    n = len(ar[0])
    cols = tuple(zip(*ar))
    terms = [[tuple(c * e for c in cols[k] for e in xa) for xa in ra] for k in range(n)]
    indices = range(len(ra))

    def step(rest, depth, r):
        return tuple(map(sub, rest, terms[depth][r]))

    def leaf(rest):
        return compress(indices, map(rest.__eq__, terms[-1]))

    return _nested_scan(n, len(ra), tuple(e for row in ar for e in row), step, leaf)


def _outer_hits(rows, ra) -> Iterator[tuple[int, ...]]:
    """Row-table indices of the X passing one row of XAX = X, for an
    m x n A with m <= n; ``_outer_holds`` checks every row.

    The row checked is x_p, the first nonzero row of X before the last:
    row p of XAX is sum_k (x_p A)_k x_k.  The sum over all but the last
    row is carried as x_p minus the partial sum, so at the last row each
    candidate is one comparison of (x_p A)_{n-1} x_{n-1} with it.  A zero
    x_p would pass every candidate, so zero rows are skipped; when all rows
    before the last are zero, each candidate is left whole to
    ``_outer_holds``.
    """
    n = len(ra[0])
    indices = range(len(rows))
    scaled: dict[int, list[tuple[int, ...]]] = {}

    def scale(s):
        table = scaled.get(s)
        if table is None:
            table = scaled[s] = [tuple(s * e for e in row) for row in rows]
        return table

    def step(state, depth, r):
        if state is not None:
            xpa, rest = state
            return xpa, tuple(map(sub, rest, scale(xpa[depth])[r]))
        if any(rows[r]):
            return ra[r], tuple(map(sub, rows[r], scale(ra[r][depth])[r]))
        return None

    def leaf(state):
        if state is None:
            return indices
        xpa, rest = state
        return compress(indices, map(rest.__eq__, scale(xpa[n - 1])))

    return _nested_scan(n, len(rows), None, step, leaf)


def _outer_holds(idx, rows, ra) -> bool:
    """XAX = X, row by row: row i of XAX is (x_i A) X, with x_i A read
    from the row table."""
    x_cols = tuple(zip(*[rows[i] for i in idx]))
    return all(
        tuple(sum(map(mul, ra[i], col)) for col in x_cols) == rows[i] for i in idx
    )


# ---------------------------------------------------------------------------
# constraint-guided enumeration

def _sum_counts(cells: int, values: tuple[int, ...]) -> list[dict[int, int]]:
    """counts[k][s] = number of ways to fill k cells with entries from the
    population so they sum to s."""
    table: list[dict[int, int]] = [{0: 1}]
    for _ in range(cells):
        nxt: dict[int, int] = {}
        for s, c in table[-1].items():
            for v in values:
                nxt[s + v] = nxt.get(s + v, 0) + c
        table.append(nxt)
    return table


def _fillings(
    cells: int, target: int, values: tuple[int, ...], table
) -> Iterator[tuple[int, ...]]:
    """All cell fillings with the given sum, in odometer order."""
    if cells == 0:
        if target == 0:
            yield ()
        return
    for v in values:
        if table[cells - 1].get(target - v):
            for rest in _fillings(cells - 1, target - v, values, table):
                yield (v,) + rest


def _block_groups(system: SumConstraintSystem):
    """Partition blocks into connected components linked by constraints."""
    part = system.partition
    blocks = [
        (i, j)
        for i in range(part.n_row_blocks)
        for j in range(part.n_col_blocks)
    ]
    parent = {b: b for b in blocks}

    def find(b):
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        return b

    for con in system.constraints:
        touched = [b for _, b in con.terms]
        for b in touched[1:]:
            ra, rb = find(touched[0]), find(b)
            if ra != rb:
                parent[rb] = ra

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for b in blocks:
        groups.setdefault(find(b), []).append(b)
    constraint_of: dict[tuple[int, int], list] = {root: [] for root in groups}
    unsatisfiable = False
    for con in system.constraints:
        if con.terms:
            constraint_of[find(con.terms[0][1])].append(con)
        elif con.rhs != 0:
            unsatisfiable = True
    return groups, constraint_of, unsatisfiable


def _group_solutions(
    system: SumConstraintSystem,
    group_blocks: list[tuple[int, int]],
    constraints,
    population: Population,
    count_only: bool,
):
    """Solutions for one connected block group.

    Enumerates per-block sum profiles first, prunes by the exact
    constraints, then expands per-block fillings.  Returns either a count
    or a list of {block: entries} assignments.
    """
    part = system.partition
    values = population.values
    sizes = [
        (part.block_span(i, j)[1] - part.block_span(i, j)[0])
        * (part.block_span(i, j)[3] - part.block_span(i, j)[2])
        for (i, j) in group_blocks
    ]
    tables = [_sum_counts(k, values) for k in sizes]
    sum_choices = [sorted(t[k].keys()) for t, k in zip(tables, sizes)]

    total = 0
    assignments = []
    for profile in product(*sum_choices):
        sums = dict(zip(group_blocks, profile))
        if any(con.evaluate(sums) != con.rhs for con in constraints):
            continue
        ways = 1
        for t, k, s in zip(tables, sizes, profile):
            ways *= t[k][s]
        if count_only:
            total += ways
            continue
        per_block = [
            list(_fillings(k, s, values, t))
            for t, k, s in zip(tables, sizes, profile)
        ]
        for combo in product(*per_block):
            assignments.append(dict(zip(group_blocks, combo)))
    if count_only:
        return total
    return assignments


def enumerate_sum_constrained(
    system: SumConstraintSystem,
    population: Population = TERNARY,
    count_only: bool = False,
) -> EnumerationResult:
    """All population-valued matrices satisfying every block-sum constraint.

    Works groupwise over the connected components of the constraint graph:
    blocks never sharing a constraint are filled independently, so counts
    multiply and streams are Cartesian products, assembled and sorted into
    odometer order.
    """
    groups, constraint_of, unsatisfiable = _block_groups(system)
    part = system.partition
    if unsatisfiable:
        return EnumerationResult(None if count_only else (), 0)
    if count_only:
        count = 1
        for root, blocks in groups.items():
            count *= _group_solutions(
                system, blocks, constraint_of[root], population, True
            )
        return EnumerationResult(None, count)

    group_assignments = []
    for root, blocks in groups.items():
        sols = _group_solutions(system, blocks, constraint_of[root], population, False)
        if not sols:
            return EnumerationResult((), 0)
        group_assignments.append(sols)

    n, m = system.shape
    cells_of = {
        (i, j): part.block_cells(i, j)
        for i in range(part.n_row_blocks)
        for j in range(part.n_col_blocks)
    }
    out = []
    for combo in product(*group_assignments):
        ent = [0] * (n * m)
        for assignment in combo:
            for block, filling in assignment.items():
                for (r, c), v in zip(cells_of[block], filling):
                    ent[r * m + c] = v
        out.append(tuple(ent))
    out.sort()
    return EnumerationResult(
        tuple(IntMatrix(n, m, e) for e in out), len(out)
    )


# ---------------------------------------------------------------------------
# family materialization

def _entries_ok(entries: Iterable[int], population: Population) -> bool:
    vals = population.values
    return all(e in vals for e in entries)


def _materialize_product(
    body: RankOneProductFamily, population: Population
) -> set[tuple[int, ...]]:
    # every ternary rank-one matrix is p q^T with ternary factors, whatever
    # the population its entries are then filtered by
    n, m = body.shape
    values = TERNARY.values
    seen: set[tuple[int, ...]] = set()
    for p in product(values, repeat=n):
        for q in product(values, repeat=m):
            if body.condition_value(p, q) != 1:
                continue
            ent = tuple(pi * qj for pi in p for qj in q)
            if _entries_ok(ent, population):
                seen.add(ent)
    return seen


def _materialize_column_scaled(
    body: ColumnScaledFamily, population: Population
) -> set[tuple[int, ...]]:
    # ternary first columns and scalars, as in _materialize_product
    n, m = body.shape
    values = TERNARY.values
    seen: set[tuple[int, ...]] = set()
    for x1 in product(values, repeat=n):
        if not any(x1):
            continue
        for lambdas in product(values, repeat=m - 1):
            if body.condition_value(x1, lambdas) != 1:
                continue
            scalars = (1,) + lambdas
            ent = tuple(s * x1[i] for i in range(n) for s in scalars)
            if _entries_ok(ent, population):
                seen.add(ent)
    return seen


def _materialize_body(
    body, population: Population, shape: tuple[int, int]
) -> set[tuple[int, ...]]:
    if isinstance(body, SumConstraintSystem):
        res = enumerate_sum_constrained(body, population)
        return {m.entries for m in res.matrices or ()}
    if isinstance(body, RankOneProductFamily):
        return _materialize_product(body, population)
    if isinstance(body, ColumnScaledFamily):
        return _materialize_column_scaled(body, population)
    if isinstance(body, ExplicitUnion):
        out: set[tuple[int, ...]] = set()
        for comp in body.components:
            out |= _materialize_body(comp.body, population, comp.shape)
        if body.include_zero and 0 in population:
            out.add((0,) * (shape[0] * shape[1]))
        return out
    raise DomainError(f"cannot materialize body of type {type(body).__name__}")


def materialize_family(
    family: InverseFamily, population: Population = TERNARY
) -> EnumerationResult:
    """The family's population-valued members, deduplicated and sorted into
    odometer order."""
    n, m = family.shape
    entries = sorted(_materialize_body(family.body, population, family.shape))
    return EnumerationResult(
        tuple(IntMatrix(n, m, e) for e in entries), len(entries)
    )


def count_family(family: InverseFamily, population: Population = TERNARY) -> int:
    """The member count of ``materialize_family``; a sum-constraint family
    is counted without building its members."""
    if isinstance(family.body, SumConstraintSystem):
        return enumerate_sum_constrained(family.body, population, count_only=True).count
    return materialize_family(family, population).count


@dataclass(frozen=True)
class SetComparison:
    equal: bool
    only_in_a: tuple[IntMatrix, ...]
    only_in_b: tuple[IntMatrix, ...]

    def to_json(self) -> dict:
        return {
            "equal": self.equal,
            "only_in_a": [m.to_lists() for m in self.only_in_a],
            "only_in_b": [m.to_lists() for m in self.only_in_b],
        }


def set_equal(a, b) -> SetComparison:
    """Set comparison of two streams, with the symmetric difference."""
    sa = set(a.matrices if isinstance(a, EnumerationResult) else a)
    sb = set(b.matrices if isinstance(b, EnumerationResult) else b)
    only_a = tuple(sorted(sa - sb, key=lambda m: m.entries))
    only_b = tuple(sorted(sb - sa, key=lambda m: m.entries))
    return SetComparison(not only_a and not only_b, only_a, only_b)
