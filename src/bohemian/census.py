"""Exhaustive censuses over finite populations.

The brute-force census is the independent oracle: it decides the defining
equations for every candidate matrix by exact integer comparison, in a
fixed odometer order (row-major, last entry varying fastest, population
values ascending), so identical tasks always produce identical streams.
It uses only the ``matrices`` kernel, never the characterized families it
checks.  The scan shares work across candidates only through tables built
once per A: every population row x and its product x A, |P|^min(m, n)
of each because a taller-than-wide A is scanned as its transpose.  Both
equations are decided by one hash join.  AXA = A is the sum of one term
per row x_k of X, A[:, k] (x_k A): the sums of the terms of the last half
of the rows are tabulated with the index tuples giving them, and each
choice of the first half, walked with running partial sums, is one lookup
of what is left of A.  XAX = X is decided per row space W spanned by
population rows: for a basis B of W made of population rows, the X with
rows in W, XAX = X and rowspace(X) = W are those with B A X = B, again a
sum of one term per row of X, so each W is one join over the rows in W
(the lemma and its proof are in ``brute_force_inverses``).  The row
spaces of each population are built once per row length and top
dimension, up to the dimension the scan can reach, and memoized.
Both equations hold exactly when XAX = X and rank(X) = rank(A), so the
reflexive inverses are the row spaces of dimension rank(A) and have no
scan of their own.  Join terms are vectors written as single integers in
a radix that bounds their entries, so a sum or a lookup is one integer
operation, and each streamed hit is confirmed on its equations by sums
of the same codes.

Constraint-guided enumeration and family materialization live here too;
their outputs are canonically sorted so theorem-versus-oracle comparisons
are plain set comparisons.  Every producer carries members as row-major
entry tuples, and an :class:`EnumerationResult` holds them so: a matrix is
built, through the checked ``IntMatrix`` constructor, only where a caller
iterates a result.  Block-sum constraints are scaled once to integers (by
the lcm of their denominators), and the cells are grouped into classes
with equal coefficient vectors, so a system written on single cells costs
what its block-aligned form costs; each profile of class sums is checked
in integer arithmetic; the fillings of a class with a given sum are the
memoized fillings of its two halves, concatenated; a member's entries are
its concatenated class fillings under one fixed permutation (an
``itemgetter``), and one sort gives odometer order.  The rank-one family
evaluates each factor's forms once per factor vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain, compress, cycle, product, repeat
from math import gcd, lcm, prod
from operator import itemgetter, mul
from typing import Iterator, NamedTuple, Optional

from .families import (
    ExplicitUnion,
    InverseFamily,
    RankOneProductFamily,
    SumConstraintSystem,
)
from .matrices import (
    DomainError,
    IntMatrix,
    ResourceLimitError,
    TernaryMatrix,
    _product_rows,
    _row_rank,
    normalize_spec,
)

DEFAULT_CELL_BUDGET = 16


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
        # bool is an int subclass, and would be written True/False
        if any(type(v) is not int for v in self.values):
            raise DomainError("population values must be integers")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise DomainError("population values must be strictly increasing")

    def __contains__(self, value: int) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)


TERNARY = Population()


class _RowText(dict):
    """Row tuple -> its line in the matrix text format plus ``end``, made
    on first use."""

    def __init__(self, end: str):
        super().__init__()
        self.end = end

    def __missing__(self, row: tuple[int, ...]) -> str:
        text = self[row] = " ".join(map(str, row)) + self.end
        return text


@dataclass(frozen=True)
class EnumerationResult:
    """An ordered stream of ``shape`` matrices plus its exact count.

    ``matrices`` holds the row-major entry tuple of each member, or is None
    for count-only runs; otherwise the count equals the stream length.
    Iteration builds the members as checked :class:`IntMatrix` objects;
    ``serialize`` writes the tuples directly.
    """

    shape: tuple[int, int]
    matrices: Optional[tuple[tuple[int, ...], ...]]
    count: int

    def _stream(self) -> tuple[tuple[int, ...], ...]:
        if self.matrices is None:
            raise DomainError("count-only result has no stream")
        return self.matrices

    def __iter__(self) -> Iterator[IntMatrix]:
        rows, cols = self.shape
        return (IntMatrix(rows, cols, e) for e in self._stream())

    def __len__(self) -> int:
        return self.count

    def serialize(self) -> str:
        """Stream in the matrix text format, blank-line separated, with a
        trailing count record.

        Each member reads as ``serialize_matrix`` writes it.  The text of a
        row is made once per distinct row of the stream, and the last row
        of a member carries the blank line after it.
        """
        rows, cols = self.shape
        flat = chain.from_iterable(self.matrices or ())
        texts = cycle([_RowText("\n")] * (rows - 1) + [_RowText("\n\n")])
        parts = list(map(dict.__getitem__, texts, zip(*[flat] * cols)))
        parts.append(f"count: {self.count}\n")
        return "".join(parts)


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

    The ranks a hit can have are bounded first (Ben-Israel and Greville,
    *Generalized Inverses*, ch. 1): AXA = A gives rank(A) = rank(AXA) <=
    rank(X), and XAX = X gives rank(X) = rank(XAX) <= rank(A).  So the
    inner inverses have ranks rank(A) to min(m, n), the outer inverses
    ranks 0 to rank(A), and the reflexive inverses rank(A) alone.  A rank
    filter outside that range gives an empty result before any table is
    built.

    AXA = A is a sum of one term per row of X, A[:, k] (x_k A), and
    ``_join`` decides it by a hash join: the term sums of the last half of
    the rows are tabulated once, and each first half is one dictionary
    lookup of A minus its own sum, which yields every completing last half
    in odometer order; a count-only run without a rank filter adds up the
    sizes of those buckets.

    XAX = X is decided one row space at a time, by this lemma.  Let A be
    the scanned m x n matrix (m <= n), X an n x m matrix whose rows lie in
    a subspace W of dimension r, and B an r x m basis of W.  Then XAX = X
    and rowspace(X) = W if and only if B A X = B.

    Proof.  Write X = C B.  If B A X = B, then B A C B = B, and B has
    full row rank, so B A C = I; hence XAX = C (B A C) B = X, and
    W = rowspace(B A X) lies in rowspace(X), which lies in W.  Conversely,
    if XAX = X and rowspace(X) = W, then C has rank r, and
    C (B A C - I) B = 0 forces B A C = I, so B A X = B.

    The X with XAX = X therefore split into disjoint parts, one per
    subspace W spanned by population rows (``_subspaces``), and each part
    holds the X with rows in W and sum_k (B A)[:, k] x_k = B: one join
    over the population rows in W, with B made of population rows so that
    B A is read from the table of products x A.  A part of dimension r
    holds rank-r matrices only, so a rank filter picks parts instead of
    ranking hits, and no W of dimension above rank(A), or above the
    filter, is built; a W with rank(B A) < r holds none.  The parts'
    streams are merged back into odometer order.

    Spec 12 is the part of dimension rank(A), by this lemma (Ben-Israel
    and Greville, *Generalized Inverses*, ch. 1): AXA = A and XAX = X if
    and only if XAX = X and rank(X) = rank(A).

    Proof.  If XAX = X, then X = X (A X) gives rank(AX) = rank(X), and
    AX is idempotent, since AXAX = A (XAX) = AX.  If also
    rank(X) = rank(A), the range of AX lies in the range of A and has
    its dimension, so the two are equal; an idempotent is the identity
    on its range, so AXA = A.  The converse is the rank bound above.

    So spec 12 runs the XAX = X joins of the subspaces of dimension
    rank(A) only.  Each streamed hit is still confirmed on XAX = X, and a
    spec-12 hit on AXA = A too, each by sums of the same integer codes
    that the joins use.

    Only per-row parts of the products are shared, tabulated once per A.
    A taller-than-wide A is scanned as A^T, whose inverses are the
    transposes of A's with the same ranks, so every table of rows has at
    most |P|^min(m, n) entries.  Ranks are taken, and entry tuples made,
    for hits only.
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
    shape = (a.cols, a.rows)
    rank = _row_rank(ar)  # the rank of A and of A^T
    low, high = {"1": (rank, len(ar)), "2": (0, rank), "12": (rank, rank)}[spec]
    if rank_filter is not None and not low <= rank_filter <= high:
        return EnumerationResult(shape, None if count_only else (), 0)
    if spec == "12":  # the outer inverses of rank rank(A)
        rank_filter = rank
    rows = tuple(product(population.values, repeat=len(ar)))
    ra = _product_rows(rows, ar)
    if spec == "1":
        tally = count_only and rank_filter is None
        hits = _join(*_inner_codes(ar, ra), range(len(rows)), tally)
        if tally:
            return EnumerationResult(shape, None, sum(hits))
        if rank_filter is not None:
            # X and the scanned rows (X or X^T) have the same rank
            hits = (idx for idx in hits
                    if _row_rank([rows[i] for i in idx]) == rank_filter)
        if count_only:
            return EnumerationResult(shape, None, sum(1 for _ in hits))
    else:
        joins = _outer_joins(ar, rows, ra, population.values, rank, rank_filter,
                             count_only)
        if count_only:
            return EnumerationResult(shape, None, sum(chain.from_iterable(joins)))
        hits = sorted(chain.from_iterable(joins))  # one odometer order again
        if spec == "12":  # confirm AXA = A as well
            coeffs, vecs, target = _inner_codes(ar, ra)
            hits = [idx for idx in hits
                    if sum(map(mul, coeffs, map(vecs.__getitem__, idx))) == target]
    if flip:
        # row j of X is column j of the scanned X^T
        found = sorted(  # odometer order again
            tuple(chain.from_iterable(zip(*[rows[i] for i in idx]))) for idx in hits
        )
    else:
        found = [tuple(chain.from_iterable([rows[i] for i in idx])) for idx in hits]
    return EnumerationResult(shape, tuple(found), len(found))


def _powers(bound: int, count: int) -> list[int]:
    """R^0, ..., R^(count - 1) for the radix R = 2 bound + 1.

    The code of an integer vector v is sum_l v_l R^l.  Two vectors whose
    difference has every entry in [-bound, bound] have equal codes only if
    they are equal, because a number has one base-R expansion with digits
    in that range.
    """
    radix = 2 * bound + 1
    return [radix**e for e in range(count)]


def _join(coeffs, vecs, target, index, count_only=False) -> Iterator:
    """The index tuples (i_0, ..., i_{n-1}) over ``index`` whose terms
    coeffs[k] * vecs[i_k] add up to ``target``, in odometer order, where
    n = len(coeffs) and ``vecs`` is aligned with ``index``; with
    ``count_only``, the number of them, as a stream of partial counts.

    The terms are codes (``_powers``) of integer vectors, so a sum of
    terms is the code of the sum of the vectors, and equal codes mean
    equal vectors as long as the caller's radix bounds the entries of the
    target minus any sum of n terms.  The sums of the terms of the last
    n // 2 positions are tabulated once, each with the index tuples that
    give it in odometer order; the first n - n // 2 positions are walked
    with the target minus their running sum, so each choice of them is
    one lookup of what is left.
    """
    n = len(coeffs)
    terms = [[c * v for v in vecs] for c in coeffs]
    head = n - n // 2
    last = terms[head - 1]
    rests = [target]
    for k in range(head - 1):
        rests = [rest - term for rest in rests for term in terms[k]]
    sums = [0]
    for k in range(head, n):
        sums = [s + term for s in sums for term in terms[k]]
    if count_only:
        get = dict(Counter(sums)).get
        zeros = repeat(0)
        return (sum(map(get, map(rest.__sub__, last), zeros)) for rest in rests)
    suffixes: dict[int, list[tuple[int, ...]]] = {}
    for s, t in zip(sums, product(index, repeat=n - head)):
        suffixes.setdefault(s, []).append(t)
    get = suffixes.get
    no_suffix = repeat(())

    def hits():
        for prefix, rest in zip(product(index, repeat=head - 1), rests):
            found = list(map(get, map(rest.__sub__, last), no_suffix))
            for i, bucket in compress(zip(index, found), found):
                lead = prefix + (i,)
                for t in bucket:
                    yield lead + t

    return hits()


def _inner_codes(ar, ra) -> tuple[list[int], list[int], int]:
    """AXA = A as codes, for an m x n A with m <= n: (coeffs, vecs,
    target) with sum_k coeffs[k] * vecs[i_k] = target exactly when the
    rows i_0, ..., i_{n-1} of the table make an X with AXA = A.  The term
    of position k and row x is A[:, k] (x A); the target is A."""
    n = len(ar[0])
    top = max(map(abs, chain.from_iterable(ra)))
    big = max(map(abs, chain.from_iterable(ar)))
    # an entry of A is at most big, and one of a term big * top
    digits = _powers(big + n * big * top, len(ar) * n)
    vecs = [sum(map(mul, xa, digits)) for xa in ra]
    blocks = digits[::n]  # R^(j n): row j of a term
    coeffs = [sum(map(mul, col, blocks)) for col in zip(*ar)]
    target = sum(map(mul, chain.from_iterable(ar), digits))
    return coeffs, vecs, target


def _outer_joins(
    ar, rows, ra, values, rank, rank_filter, count_only
) -> Iterator[Iterator]:
    """For XAX = X, for an m x n A of the given rank with m <= n: one
    ``_join`` per subspace W spanned by population rows, of dimension
    ``rank_filter`` if given and at most the rank otherwise, with basis B
    and rank(B A) = dim W.  Its terms are (B A)[:, k] x_k over the rows
    x_k in W and its target is B.
    A streamed hit is kept only if XAX = X holds: row i of XAX is
    sum_k (x_i A)_k x_k, so its code is one dot product of x_i A with the
    codes of the rows of X, and the radix bounds its difference from the
    code of x_i as it bounds a join's."""
    m, n = len(ar), len(ar[0])
    top = max(map(abs, chain.from_iterable(ra)))
    big = max(map(abs, values))
    # an entry of B is at most big, and one of a term top * big
    digits = _powers(big + n * top * big, m * m)
    codes = [sum(map(mul, row, digits)) for row in rows]
    blocks = digits[::m]  # R^(j m): row j of a term
    injective = rank == m  # then rank(B A) = rank(B) always

    def holds(idx):
        xs = list(map(codes.__getitem__, idx))
        return all(sum(map(mul, ra[i], xs)) == code for i, code in zip(idx, xs))

    top = rank if rank_filter is None else rank_filter
    for space in _subspaces(m, values, top):
        r = len(space.basis)
        if rank_filter not in (None, r):
            continue
        ba = [ra[b] for b in space.basis]
        if r and not injective and _row_rank(ba) < r:
            continue
        columns = zip(*ba) if r else repeat((), n)  # (B A)[:, k]
        coeffs = [sum(map(mul, col, blocks)) for col in columns]
        target = sum(map(mul, [codes[b] for b in space.basis], blocks))
        found = _join(coeffs, [codes[i] for i in space.members], target,
                      space.members, count_only)
        yield found if count_only else filter(holds, found)


class _Subspace(NamedTuple):
    """A subspace W spanned by rows of a population table."""

    #: row indices of a basis of W
    basis: tuple[int, ...]
    #: the indices of every row in W, ascending
    members: tuple[int, ...]


def _normal_basis(rows: list[tuple[int, ...]], m: int) -> list[tuple[int, ...]]:
    """Integer vectors spanning the vectors orthogonal to the independent
    integer ``rows`` of length m, one per non-pivot column of their
    reduced echelon form, which is made by integer row operations."""
    echelon = [list(r) for r in rows]
    pivots = []
    for i in range(len(echelon)):
        prow = echelon[i]
        pc = next(c for c, e in enumerate(prow) if e)
        pivots.append(pc)
        for j, row in enumerate(echelon):
            f = row[pc]
            if j != i and f:
                row = [prow[pc] * e - f * p for e, p in zip(row, prow)]
                g = gcd(*row)
                echelon[j] = [e // g for e in row]
    scale = lcm(*(row[pc] for row, pc in zip(echelon, pivots)))
    normal = []
    for free in range(m):
        if free not in pivots:
            y = [0] * m
            y[free] = scale
            for row, pc in zip(echelon, pivots):
                y[pc] = -row[free] * scale // row[pc]
            g = gcd(*y)
            normal.append(tuple(e // g for e in y))
    return normal


@lru_cache(maxsize=16)
def _subspaces(m: int, values: tuple[int, ...], top: int) -> tuple[_Subspace, ...]:
    """Every subspace of dimension at most ``top`` spanned by rows of the
    population table ``product(values, repeat=m)``, by dimension, in
    integer arithmetic.

    Built level by level from the zero subspace.  Given a subspace S, the
    rows v outside S are grouped by the primitive, sign-normalized image
    N v under an integer normal basis N of S: span(S, v) = span(S, v')
    exactly when N v and N v' are proportional, so each group, with the
    members of S, is the member set of one subspace a dimension up, and
    the same subspace reached from several S is kept once by its member
    set.  The levels stop at dimension min(top, m - 1); when top >= m, the
    whole space, if the rows span it, is added once, from any hyperplane
    and a row outside it.
    """
    rows = tuple(product(values, repeat=m))
    level = {tuple(i for i, row in enumerate(rows) if not any(row)): ()}
    spaces = dict(level)  # member set -> basis
    for _ in range(min(top, m - 1)):
        grown: dict[tuple[int, ...], tuple[int, ...]] = {}
        for members, basis in level.items():
            normal = _normal_basis([rows[b] for b in basis], m)
            lines: dict[tuple[int, ...], list[int]] = {}
            for i, row in enumerate(rows):
                image = [sum(map(mul, y, row)) for y in normal]
                g = gcd(*image)
                if g:
                    if next(filter(None, image)) < 0:
                        g = -g
                    lines.setdefault(tuple(e // g for e in image), []).append(i)
            for line in lines.values():
                key = tuple(sorted(members + tuple(line)))
                if key not in grown:
                    grown[key] = basis + (line[0],)
        spaces.update(grown)
        level = grown
    if top >= m:
        for members, basis in list(level.items())[:1]:  # one hyperplane
            inside = set(members)
            outside = [i for i in range(len(rows)) if i not in inside]
            if outside:
                spaces[tuple(range(len(rows)))] = basis + (outside[0],)
    return tuple(_Subspace(basis, members) for members, basis in spaces.items())


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


def _concat_product(lists: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Every concatenation of one tuple from each list, in product order."""
    out = lists[0]
    for nxt in lists[1:]:
        out = [a + b for a in out for b in nxt]
    return out


def _components(system: SumConstraintSystem) -> Optional[list]:
    """The system's cells grouped into classes by their coefficient
    vectors, as (classes, checks) per connected component of the
    constraints; None when a constraint on no cell has a nonzero rhs.

    Each constraint is scaled once to integers by the lcm of its
    denominators; block sums are integers, so a rhs of 1/2 becomes
    2 s = 1 and stays unsatisfiable.  A cell's vector holds its integer
    coefficient in every constraint, so the cells of one vector (the cells
    in no constraint among them) enter every constraint through their sum
    alone: they form one class, a list of ascending row-major cell
    indices.  A check is (integer coefficient per class, integer rhs).
    The classes of a component are sorted by their first cell and the
    components by their first class, so the cells of a system written on
    row-major blocks concatenate in row-major order.
    """
    part, cols = system.partition, system.shape[1]
    vectors = {
        (i, j): [0] * len(system.constraints)
        for i in range(part.n_row_blocks)
        for j in range(part.n_col_blocks)
    }
    rhs = []
    for k, con in enumerate(system.constraints):
        scale = lcm(con.rhs.denominator, *(c.denominator for c, _ in con.terms))
        for c, b in con.terms:
            vectors[b][k] += c.numerator * (scale // c.denominator)
        rhs.append(con.rhs.numerator * (scale // con.rhs.denominator))
    classes: dict[tuple[int, ...], list[int]] = {}
    for b, vec in vectors.items():
        classes.setdefault(tuple(vec), []).extend(
            r * cols + c for r, c in part.block_cells(*b))
    components: list[tuple[set[int], list]] = []  # (constraints, classes)
    for vec, cells in classes.items():
        keys = {k for k, c in enumerate(vec) if c}
        merged = [(vec, sorted(cells))]
        for comp in [comp for comp in components if comp[0] & keys]:
            components.remove(comp)
            keys |= comp[0]
            merged += comp[1]
        components.append((keys, merged))
    touched = set().union(*(keys for keys, _ in components))
    if any(r for k, r in enumerate(rhs) if k not in touched):
        return None
    out = []
    for keys, merged in components:
        merged.sort(key=lambda cls: cls[1][0])
        checks = [(tuple(vec[k] for vec, _ in merged), rhs[k]) for k in sorted(keys)]
        out.append(([cells for _, cells in merged], checks))
    return sorted(out, key=lambda comp: comp[0][0][0])


def _group_solutions(
    classes: list[list[int]],
    checks: list[tuple[tuple[int, ...], int]],
    population: Population,
    count_only: bool,
):
    """Solutions for one component of cell classes.

    Enumerates per-class sum profiles first, keeps those meeting every
    integer check, then expands per-class fillings.  Returns either a
    count or a list of entry tuples, each the classes' fillings
    concatenated in order.
    """
    sizes = list(map(len, classes))
    values = population.values
    table = _sum_counts(max(sizes), values)
    sum_choices = [sorted(table[k]) for k in sizes]
    fillings: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def fill(k: int, s: int) -> list[tuple[int, ...]]:
        """Fillings of k cells summing to s: those of the first half of the
        cells joined to those of the second half, memoized per call."""
        got = fillings.get((k, s))
        if got is None:
            if k == 1:
                got = [(s,)]
            else:
                h = k // 2
                rest = table[k - h]
                got = [
                    a + b
                    for t in table[h]
                    if s - t in rest
                    for a in fill(h, t)
                    for b in fill(k - h, s - t)
                ]
            fillings[(k, s)] = got
        return got

    total = 0
    solutions: list[tuple[int, ...]] = []
    for profile in product(*sum_choices):
        for coeffs, rhs in checks:
            if sum(map(mul, coeffs, profile)) != rhs:
                break
        else:
            if count_only:
                ways = 1
                for k, s in zip(sizes, profile):
                    ways *= table[k][s]
                total += ways
            else:
                solutions += _concat_product(
                    [fill(k, s) for k, s in zip(sizes, profile)]
                )
    return total if count_only else solutions


def enumerate_sum_constrained(
    system: SumConstraintSystem,
    population: Population = TERNARY,
    count_only: bool = False,
) -> EnumerationResult:
    """All population-valued matrices satisfying every block-sum constraint.

    Works over the classes and components of ``_components``: cells with
    one coefficient vector enter the constraints through their sum alone,
    so a system written on single cells costs what its block-aligned form
    costs, and components never sharing a constraint are filled
    independently, so counts multiply and streams are Cartesian products.
    Within a component, each per-class sum profile is checked against the
    integer constraints, and the fillings of a class with a given sum are
    built from those of its two halves, memoized per (cells, sum).  The
    classes cover every cell once, so a member's entries are one fixed
    permutation of its concatenated class fillings: one precomputed
    ``itemgetter`` puts them in row-major order, and a single sort puts
    the members in odometer order.
    """
    shape = system.shape
    components = _components(system)
    if components is None:
        return EnumerationResult(shape, None if count_only else (), 0)
    group_solutions = []
    order = []  # the row-major cell index of each position of the concatenation
    for classes, checks in components:
        group_solutions.append(_group_solutions(classes, checks, population, count_only))
        if not group_solutions[-1]:
            return EnumerationResult(shape, None if count_only else (), 0)
        order += chain.from_iterable(classes)
    if count_only:
        return EnumerationResult(shape, None, prod(group_solutions))
    perm = sorted(range(len(order)), key=order.__getitem__)
    out = _concat_product(group_solutions)
    if perm != list(range(len(perm))):
        out = list(map(itemgetter(*perm), out))
    out.sort()
    return EnumerationResult(shape, tuple(out), len(out))


# ---------------------------------------------------------------------------
# family materialization

def _by_form_values(forms, vectors) -> dict[tuple, list[tuple[int, ...]]]:
    """The vectors grouped by their dot products with the forms."""
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for vec in vectors:
        key = tuple(sum(map(mul, f, vec)) for f in forms)
        groups.setdefault(key, []).append(vec)
    return groups


def _scaled_rows(vec: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(0 vec, vec, -vec), indexed by a ternary scalar."""
    return (tuple(0 for _ in vec), vec, tuple(-e for e in vec))


def _materialize_product(
    body: RankOneProductFamily, population: Population
) -> set[tuple[int, ...]]:
    # every ternary rank-one matrix is p q^T with ternary factors, whatever
    # the population its entries are then filtered by; a pinned q_1 = 1
    # gives the same matrices as q_1 != 0, by (p, q) -> (-p, -q).  The
    # products q . u and p . v are taken once per factor vector; the
    # condition is then a dot product of the two value vectors, decided
    # once per pair of distinct value vectors.
    n, m = body.shape
    values = TERNARY.values
    lead = (1,) if body.pinned_lead else values
    p_groups = _by_form_values([v for _, v in body.terms], product(values, repeat=n))
    q_groups = _by_form_values(
        [u for u, _ in body.terms], product(lead, *[values] * (m - 1))
    )
    seen: set[tuple[int, ...]] = set()
    for qv, qs in q_groups.items():
        rows = [_scaled_rows(q).__getitem__ for q in qs]
        for pv, ps in p_groups.items():
            if sum(map(mul, pv, qv)) == 1:
                seen.update(
                    tuple(chain.from_iterable(map(row, p))) for p in ps for row in rows
                )
    return set(filter(set(population.values).issuperset, seen))


def _materialize_body(body, population: Population, shape: tuple[int, int]):
    """The body's members as entry tuples: a sorted tuple for a block-sum
    system, a set otherwise."""
    if isinstance(body, SumConstraintSystem):
        return enumerate_sum_constrained(body, population).matrices
    if isinstance(body, RankOneProductFamily):
        return _materialize_product(body, population)
    if isinstance(body, ExplicitUnion):
        out: set[tuple[int, ...]] = set()
        for comp in body.components:
            out.update(_materialize_body(comp.body, population, comp.shape))
        if 0 in population:
            out.add((0,) * (shape[0] * shape[1]))
        return out
    raise DomainError(f"cannot materialize body of type {type(body).__name__}")


def materialize_family(
    family: InverseFamily,
    population: Population = TERNARY,
    rank: Optional[int] = None,
    count_only: bool = False,
) -> EnumerationResult:
    """The family's population-valued members, of the given rank when one
    is given, deduplicated and sorted into odometer order; with
    ``count_only``, their count alone."""
    shape = family.shape
    if count_only and rank is None and isinstance(family.body, SumConstraintSystem):
        # counted without building members
        return enumerate_sum_constrained(family.body, population, count_only=True)
    entries = _materialize_body(family.body, population, shape)
    if isinstance(entries, set):
        entries = tuple(sorted(entries))
    if rank is not None:
        # The rank of the n rows of m entries each depends only on the
        # set of distinct rows, and members share few such sets.
        rank_of = cache(_row_rank)
        m = shape[1]
        entries = tuple(
            e for e in entries if rank_of(frozenset(zip(*[iter(e)] * m))) == rank
        )
    return EnumerationResult(shape, None if count_only else entries, len(entries))


@dataclass(frozen=True)
class SetComparison:
    equal: bool
    only_in_a: tuple[IntMatrix, ...]
    only_in_b: tuple[IntMatrix, ...]


def _keys(stream) -> set[tuple[int, int, tuple[int, ...]]]:
    """(rows, cols, entries) of each member of a result or of an iterable
    of matrices."""
    if isinstance(stream, EnumerationResult):
        rows, cols = stream.shape
        return {(rows, cols, e) for e in stream._stream()}
    return {(m.rows, m.cols, m.entries) for m in stream}


def _matrices_by_entries(keys) -> tuple[IntMatrix, ...]:
    return tuple(IntMatrix(*k) for k in sorted(keys, key=itemgetter(2)))


def set_equal(a, b) -> SetComparison:
    """Set comparison of two streams, with the symmetric difference.  Only
    the members in the difference are built as matrices."""
    ka, kb = _keys(a), _keys(b)
    only_a = _matrices_by_entries(ka - kb)
    only_b = _matrices_by_entries(kb - ka)
    return SetComparison(not only_a and not only_b, only_a, only_b)
