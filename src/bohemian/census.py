"""Exhaustive censuses over finite populations.

The brute-force census is the independent oracle: it decides the defining
equations for every candidate matrix by exact integer comparison, in a
fixed odometer order (row-major, last entry varying fastest, population
values ascending), so identical tasks always produce identical streams.
It uses only the ``matrices`` kernel, never the characterized families it
checks, and shares work across candidates only through tables built once
per A: AXA = A, and XAX = X on each row space spanned by population rows,
are sums of one term per row of X, each decided by a hash join of terms
written as single integers (``brute_force_inverses`` has the lemmas).

Constraint-guided enumeration and family materialization live here too,
in the same odometer order, so theorem-versus-oracle comparisons are
plain stream or set comparisons.  An :class:`EnumerationResult` holds
every producer's members in one layout: ordered blocks, each a row-major
prefix with a node of suffixes that blocks and parents may share.  A
node lists one level's chunks, plain entry tuples at the last level and
(row, child node) pairs above it, and the result writes and ranks each
distinct prefix, row and node once; a matrix is built, through the
checked ``IntMatrix`` constructor, only where a caller iterates it.  The
scan's AXA = A join gives each lead prefix of X one node per rest, its
(last lead row, shared tail bucket) pairs, or one block per lead where
that writes fewer texts.  A linear system is walked
cell by cell in row-major order on one integer code of its residuals,
each connected component of its constraints checked against a
completion table, so every kept filling extends to a member, with no
sort or permutation; its completions are one node per residual and row
of X, shared by every residual and block that reaches it.  A rank filter
ranks row spaces, once per node and head space, not members.  The
rank-one family codes each factor vector's form values as one integer
and makes each member once, from its one factor pair whose q has first
nonzero entry +1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, product, repeat
from math import gcd, lcm
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
    _compile,
    _product_rows,
    _row_rank,
    _transposer,
    normalize_spec,
)

DEFAULT_CELL_BUDGET = 16
#: the most members a materialized family may stream; a count has no cap
MEMBER_CAP = 10**7


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


class EnumerationResult:
    """An ordered stream of ``shape`` matrices plus its exact count.

    The members are ordered blocks (prefix, node), each giving p + s for
    s in its node's suffixes.  The layout's invariant: the prefixes cover
    the same leading row-major cells, and every node has ``_depth``
    levels, each covering the same cells in every block.  A node is a
    list of one level's chunks: plain entry tuples at the last level,
    and above it pairs (row, child node), giving row + s for s in the
    child's suffixes, each row one whole row of X (so the prefix covers
    whole rows too) and no node empty.  Chunks stream in odometer order,
    so the members do.  Blocks and parents may share a node, known by
    its identity while they hold it, so each node's work is done once
    per stream.  The constructor's stream of entry tuples is one block
    with the empty prefix, one level deep.
    ``matrices``, built on first read, holds each member's entry tuple,
    or is None for a count-only run; otherwise the count equals the
    stream length.  Iteration builds checked :class:`IntMatrix` objects;
    ``serialize`` writes the blocks directly.
    """

    __slots__ = ("shape", "count", "_blocks", "_depth", "_matrices")

    def __init__(self, shape: tuple[int, int],
                 matrices: Optional[tuple[tuple[int, ...], ...]], count: int):
        self.shape, self.count, self._matrices, self._depth = shape, count, None, 1
        self._blocks = None if matrices is None else [((), matrices)]

    @classmethod
    def _of_blocks(cls, shape, blocks, depth=1, count=None) -> "EnumerationResult":
        """The result of the blocks, counted along their nodes unless the
        count is given."""
        if count is None and depth == 1:
            count = sum([len(node) for _, node in blocks])
        elif count is None:
            sizes: dict[int, int] = {}  # a last-level node's size is its length
            for level in reversed(_row_levels(blocks, depth)):
                for key, node in level.items():
                    sizes[key] = sum([sizes.get(id(child), len(child)) for _, child in node])
            count = sum([sizes[id(node)] for _, node in blocks])
        result = cls(shape, None, count)
        result._blocks, result._depth = blocks, depth
        return result

    @property
    def matrices(self) -> Optional[tuple[tuple[int, ...], ...]]:
        if self._matrices is None and self._blocks is not None:
            flat = {}  # each node's suffixes, once; a last-level node holds its own
            for level in reversed(_row_levels(self._blocks, self._depth)):
                for key, node in level.items():
                    flat[key] = [row + s for row, child in node
                                 for s in flat.get(id(child), child)]
            self._matrices = tuple([
                p + s for p, node in self._blocks for s in (flat[id(node)] if flat else node)])
        return self._matrices

    def __eq__(self, other):
        return isinstance(other, EnumerationResult) and (
            self.shape, self.count, self.matrices) == (
            other.shape, other.count, other.matrices)

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

        Each member reads as ``serialize_matrix`` writes it, the last row
        carrying the blank line after it.  A block is written as
        ``p + p.join(suffix_texts)``: its prefix's text is made once, and
        a node's suffix texts once for all its blocks and parents, each
        the text of a row, made once per distinct row of its level, plus a
        suffix text of the row's child.
        """
        rows, cols = self.shape
        parts = []
        if self._blocks:
            fmt = ["%s" + (" " if (c + 1) % cols else "\n") for c in range(rows * cols - 1)]
            fmt.append("%s\n\n")
            p, node = self._blocks[0]
            cuts = [len(p)]  # the first cell of each level
            for _ in range(self._depth - 1):
                row, node = node[0]
                cuts.append(cuts[-1] + len(row))
            formats = ["".join(fmt[a:b]).__mod__ for a, b in zip(cuts, cuts[1:])]
            head, tail = "".join(fmt[:cuts[0]]).__mod__, "".join(fmt[cuts[-1]:]).__mod__
            texts: dict[int, list[str]] = {}  # each node's suffix texts, once

            def written(node):
                if id(node) not in texts:  # a last-level node
                    texts[id(node)] = list(map(tail, node))
                return texts[id(node)]

            for level, write in zip(reversed(_row_levels(self._blocks, self._depth)),
                                    reversed(formats)):
                row_texts = {}  # each distinct row's text, once per level
                for key, node in level.items():
                    member_texts = []
                    add = member_texts.append
                    for row, child in node:
                        text = row_texts.get(row)
                        if text is None:
                            text = row_texts[row] = write(row)
                        for suffix in texts.get(id(child)) or written(child):
                            add(text + suffix)
                    texts[key] = member_texts
            for p, node in self._blocks:
                text = head(p)
                parts.append(text + text.join(texts.get(id(node)) or written(node)))
        parts.append(f"count: {self.count}\n")
        return "".join(parts)


def _row_levels(blocks, depth) -> list[dict[int, list]]:
    """The distinct nodes of each level of the blocks above the last, by
    identity, top level first."""
    if depth == 1:
        return []
    levels = [{id(node): node for _, node in blocks}]
    for _ in range(depth - 2):
        levels.append({id(child): child for node in levels[-1].values() for _, child in node})
    return levels


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
    lookup of A minus its own sum, which yields the bucket of every
    completing last half in odometer order, its entry tuples made once.
    Lemma: a prefix of the first h - 1 rows, h = n - n // 2, has a rest,
    A minus its terms, and its completions depend on the rest alone; so
    every prefix with one rest completes by one ordered list of (row h - 1,
    bucket), one node of the result (``_entry_blocks``).  A count-only run
    without a rank filter adds up the sizes of the buckets.

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
    filter, is built; a W with rank(B A) < r holds none.

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
    spec-12 hit on AXA = A too, by sums of the same integer codes that
    the joins use, in one compiled plan per shape (``_row_plan``) that
    also makes the hit's entry tuple; one sort merges the parts.  The row
    table is in odometer order, so index tuples compare as the entry
    tuples their rows concatenate into: each join, and the spec-1 join's
    blocks, stream in odometer order.

    Only per-row parts of the products are shared, tabulated once per A.
    A taller-than-wide A is scanned as A^T, whose inverses are the
    transposes of A's with the same ranks, so every table of rows has at
    most |P|^min(m, n) entries; its hits' entry tuples are transposed
    (and, for spec 1, then sorted).  Ranks are taken, and entry tuples
    made, for hits only.
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
        live = _join(*_inner_codes(ar, ra), range(len(rows)), tally)
        if tally:
            return EnumerationResult(shape, None, sum(live))
    else:
        codes, joins = _outer_joins(ar, rows, ra, population.values, rank,
                                    rank_filter, count_only)
        if count_only:
            return EnumerationResult(shape, None, sum(chain.from_iterable(joins)))
        hit = _row_plan(len(ar[0]), len(ar), flip, spec)(
            rows, ra, codes, *(_inner_codes(ar, ra) if spec == "12" else ()))
        found = sorted(filter(None, map(hit, chain.from_iterable(joins))))
        return EnumerationResult(shape, tuple(found), len(found))
    scanned = (len(ar[0]), len(ar))  # the shape of X, or of X^T if flipped
    result = _entry_blocks(live, rows, scanned)
    if rank_filter is not None:
        result = _of_rank(result, rank_filter)  # rank(X^T) = rank(X)
    if count_only:
        return EnumerationResult(shape, None, result.count)
    if flip:  # row j of X is column j of the scanned X^T
        found = sorted(map(_transposer(*scanned), result.matrices))
        return EnumerationResult(shape, tuple(found), len(found))
    return result


def _entry_blocks(live, rows, shape) -> EnumerationResult:
    """The result of a spec-1 join's live prefixes (``_join``) of index
    tuples into ``rows``: one node per rest, each bucket converted once.
    Blocks (prefix, node) write a text per node member and save a block
    per lead beyond each prefix's, a block costing about 8 texts; else a
    block per lead."""
    n = shape[0]
    live = list(live)
    prefix_rows = _row_plan(n - n // 2 - 1, 0, False, None)(rows)
    tail_rows = _row_plan(n // 2, 0, False, None)(rows)
    tails: dict[int, list[tuple[int, ...]]] = {}  # by the bucket's identity
    nodes, sizes, leads = {}, {}, 0  # by the rest
    for _, rest, found in live:
        leads += len(found)
        if rest not in nodes:
            node = nodes[rest] = []
            for i, bucket in found:
                if id(bucket) not in tails:
                    tails[id(bucket)] = list(map(tail_rows, bucket))
                node.append((rows[i], tails[id(bucket)]))
            sizes[rest] = sum([len(tail) for _, tail in node])
    count = sum([sizes[rest] for _, rest, _ in live])
    if n - n // 2 > 1 and sum(sizes.values()) < 8 * (leads - len(live)):
        return EnumerationResult._of_blocks(
            shape, [(prefix_rows(p), nodes[rest]) for p, rest, _ in live], 2, count)
    return EnumerationResult._of_blocks(shape, [
        (p + row, tail) for prefix, rest, _ in live for p in (prefix_rows(prefix),)
        for row, tail in nodes[rest]], 1, count)


@lru_cache(maxsize=64)
def _row_plan(n: int, m: int, flip: bool, confirm: Optional[str]):
    """``_row_plan(n, m, flip, confirm)(rows, ra, codes, *inner)``, compiled
    per shape, maps an index tuple (i_0, ..., i_{n-1}) into ``rows``, the
    rows x_k of an n x m X, to X's entry tuple, or with ``flip`` to X^T's.
    With ``confirm`` "2" or "12" it gives None unless XAX = X for the
    scanned m x n A: row i of XAX has the code sum_k (x_i A)_k codes[i_k]
    (``ra`` holds x A), which must be x_i's; with "12", also unless
    AXA = A, on the terms ``inner`` of ``_inner_codes``."""
    idx = [f"i{k}" for k in range(n)]
    body = [f"{', '.join(idx)}, = idx"] if n else []
    setup, pad = [], ""
    if confirm:
        xa = [[f"a{k}_{j}" for j in range(n)] for k in range(n)]  # x_k A
        body += [f"c{k} = codes[{i}]" for k, i in enumerate(idx)]
        body += [f"{', '.join(row)}, = ra[{i}]" for row, i in zip(xa, idx)]
        checks = [" + ".join(f"{a}*c{j}" for j, a in enumerate(row)) + f" == c{k}"
                  for k, row in enumerate(xa)]
        if confirm == "12":
            setup = [f"{', '.join(f'k{k}' for k in range(n))}, = coeffs"]
            checks.append(" + ".join(f"k{k}*vecs[{i}]" for k, i in enumerate(idx))
                          + " == target")
        body.append(f"if {' and '.join(checks)}:")
        pad = "    "
    if flip:  # row j of X is column j of the scanned X^T
        x = [[f"x{k}_{j}" for j in range(m)] for k in range(n)]
        body += [f"{pad}{', '.join(row)}, = rows[{i}]" for row, i in zip(x, idx)]
        body.append(f"{pad}return ({', '.join(row[j] for j in range(m) for row in x)},)")
    else:
        body.append(f"{pad}return {' + '.join(f'rows[{i}]' for i in idx) or '()'}")
    name = f"rows_{n}x{m}{'_flip' * flip}_{confirm}"
    return _compile(name, "".join([
        f"def {name}(rows, ra=(), codes=(), coeffs=(), vecs=(), target=0):\n",
        *(f"    {line}\n" for line in setup), "    def plan(idx):\n",
        *(f"        {line}\n" for line in body), "    return plan\n"]))


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
    n // 2 positions are tabulated once, each with the bucket of index
    tuples that give it in odometer order.  The first h - 1 positions,
    h = n - n // 2, are walked with their rest, the target minus their
    sum, each distinct rest looked up once per row i of position h - 1:
    each prefix with a hit streams as (prefix, rest, found), found shared
    by its rest, of (i, bucket) for the hits prefix + (i,) + t, t in bucket.
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
    nodes: dict[int, list] = {}  # each rest's (i, bucket) pairs, once

    def live():
        for prefix, rest in zip(product(index, repeat=head - 1), rests):
            found = nodes.get(rest)
            if found is None:
                buckets = list(map(get, map(rest.__sub__, last), no_suffix))
                found = nodes[rest] = list(compress(zip(index, buckets), buckets))
            if found:
                yield prefix, rest, found

    return live()


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


def _outer_joins(ar, rows, ra, values, rank, rank_filter, count_only):
    """For XAX = X, for an m x n A of the given rank with m <= n: the
    codes of the table's rows, and one ``_join`` per subspace W spanned by
    population rows, of dimension ``rank_filter`` if given and at most the
    rank otherwise, with basis B and rank(B A) = dim W.  Its terms are
    (B A)[:, k] x_k over the rows x_k in W and its target is B; each
    streams its hits as index tuples, in odometer order.
    The codes confirm a hit (``_row_plan``): row i of XAX is
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

    def joins():
        for space in _subspaces(m, values, rank if rank_filter is None else rank_filter):
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
            yield found if count_only else (
                prefix + (i,) + t for prefix, _, pairs in found
                for i, bucket in pairs for t in bucket)

    return codes, joins()


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

def _completions(steps, values, roots, width) -> tuple[dict[int, list], int]:
    """For each residual of ``roots``, the node of the fillings of the
    cells of ``steps`` that keep it live, in odometer order, with one
    level per ``width`` cells (a row of X), and the number of levels.  A
    cell's step is (weight, base, radix, table): the code of its
    coefficients, and the place and radix of its component's digits with
    the keys of the component's completion table for its later cells,
    which a live residual r has as r // base % radix.  Live residuals are
    reached forward, and the levels built backward, last level first.
    Within a level, fillings are built backward too: a value, then each
    filling of the rest of the level from the residual it leaves.  At the
    last level the fillings are the node's chunks; above it, each filling
    of a row is paired with the node of the residual the row leaves.  So
    one node serves every residual and row leading to it.
    """
    reach = [roots]
    for weight, base, radix, table in steps:
        reach.append({
            s for r in reach[-1] for v in values
            for s in (r - v * weight,) if s // base % radix in table
        })
    starts = list(range(0, len(steps), width or 1)) or [0]
    ends = starts[1:] + [len(steps)]
    nodes = None
    for a, b in zip(reversed(starts), reversed(ends)):
        if nodes is None:  # the last level: plain fillings
            lists = dict.fromkeys(reach[b], [()])
            for c in reversed(range(a, b)):
                terms = [((v,), v * steps[c][0]) for v in values]
                lists = {
                    r: [t + s for t, d in terms for s in lists.get(r - d, ())]
                    for r in reach[c]
                }
        else:  # the fillings of a row, each with its child
            lists = {r: [((), nodes[r])] for r in reach[b]}
            for c in reversed(range(a, b)):
                terms = [((v,), v * steps[c][0]) for v in values]
                lists = {
                    r: [(t + s, child) for t, d in terms for s, child in lists.get(r - d, ())]
                    for r in reach[c]
                }
        nodes = lists
    return nodes, len(starts)


def enumerate_sum_constrained(
    system: SumConstraintSystem,
    population: Population = TERNARY,
    count_only: bool = False,
    cap: Optional[int] = None,
    prefix_cap: Optional[int] = None,
) -> EnumerationResult:
    """All population-valued matrices satisfying every linear constraint,
    in odometer order by construction; a stream of more than ``cap``
    members, or a walk of more than ``prefix_cap`` live prefixes, counted
    forward on residual tallies, is refused with ``ResourceLimitError``
    before any of it is built.

    Constraints are scaled once to integers by the lcm of their
    denominators (entries are integers, so a rhs of 1/2 becomes 2 s = 1
    and stays unsatisfiable) and split into components linked through
    shared cells.  The residuals, each rhs minus the terms of the cells
    placed so far, are the digits of one integer r in a balanced mixed
    radix, a component's on adjacent digits: constraint k has the radix
    2 h_k + 1, h_k = |rhs_k| + max|v| sum_c |coeff_k[c]|, which bounds
    every residual and every sum of terms, so a code is one vector, and
    placing v in cell c subtracts v times the code of c's coefficients.
    Component j's residual is ``(r + offset) // W_j % R_j - half_j``, for
    its place W_j, its radix R_j and the code ``offset`` of every h_k.
    Its completion tables, built backward over its cells in row-major
    order, count the fillings of its cells from the t-th on by their sum,
    so a count is the product of the components' counts at their targets,
    times |P| per cell in no constraint.

    Lemma.  A filling of the cells before c extends to a member if and
    only if every component's residual is a key of its table from c on.
    Proof: components share no cells and a constraint reads only its own
    component's, so a completion is one per component (any values in the
    other cells), and a component has one exactly when its remaining
    cells reach its residual.

    A value placed in c changes only its component's residual, so, every
    target checked first, checking that one after each value keeps
    exactly the fillings that extend.  The cells before the row boundary
    nearest the middle (mid-row for a one-row X) give the prefixes,
    walked forward from the start residual in odometer order, each
    carrying its residual; each is paired with the node of the
    completions of its residual (``_completions``), one level per later
    row, or one for the rest of a one-row X's row, and one node per
    residual and row: the members in odometer order, with no sort.
    """
    shape = system.shape
    n, m = shape
    cells = n * m
    values = population.values
    empty = EnumerationResult(shape, None if count_only else (), 0)
    rows, rhs = [], []
    for con in system.constraints:
        scale = lcm(con.rhs.denominator, *(c.denominator for c in con.coeffs))
        rows.append([c.numerator * (scale // c.denominator) for c in con.coeffs])
        rhs.append(con.rhs.numerator * (scale // con.rhs.denominator))
    if any(b and not any(row) for row, b in zip(rows, rhs)):
        return empty
    components: list[set[int]] = []  # the constraints of each
    for col in zip(*rows):
        keys = {k for k, c in enumerate(col) if c}
        for comp in [comp for comp in components if comp & keys]:
            components.remove(comp)
            keys |= comp
        if keys:
            components.append(keys)
    big = max(map(abs, values))
    weights = [0] * cells  # the code of each cell's coefficient vector
    free = (0, 1, 1, {0})  # the step of a cell in no constraint: any value
    steps = [free] * cells
    start, place, count = 0, 1, 1  # start: the code of the rhs plus offset
    for keys in components:
        base, goal, halves = place, 0, 0
        for k in sorted(keys):
            half = abs(rhs[k]) + big * sum(map(abs, rows[k]))
            for c, coeff in enumerate(rows[k]):
                weights[c] += coeff * place
            goal += (rhs[k] + half) * place
            halves += half * place
            place *= 2 * half + 1
        table = {halves // base: 1}
        own = [c for c in range(cells) if any(rows[k][c] for k in keys)]
        for c in reversed(own):
            steps[c] = (weights[c], base, place // base, table)
            terms = [v * weights[c] // base for v in values]
            later, table = table, {}
            for key, ways in later.items():
                for d in terms:
                    table[key + d] = table.get(key + d, 0) + ways
        count *= table.get(goal // base, 0)
        if not count:
            return empty
        start += goal
    count *= len(values) ** steps.count(free)
    if count_only:
        return EnumerationResult(shape, None, count)
    if cap is not None:
        _refuse_past(cap, count)
    split = m * (n // 2) if n > 1 else m // 2
    if prefix_cap is not None:
        tally = {start: 1}  # the number of live prefixes with each residual
        for weight, base, radix, table in steps[:split]:
            grown = Counter()
            for r, ways in tally.items():
                for s in [r - v * weight for v in values]:
                    if s // base % radix in table:
                        grown[s] += ways
            tally = grown
        _refuse_past(prefix_cap, sum(tally.values()), "a rank-filtered walk of {} prefixes")
    level = [((), start)]  # each live prefix with its residual
    for weight, base, radix, table in steps[:split]:
        level = [(p + (v,), s) for p, r in level for v in values
                 for s in (r - v * weight,) if s // base % radix in table]
    nodes, depth = _completions(steps[split:], values, {r for _, r in level},
                                m if min(n, m) > 1 else cells - split)
    return EnumerationResult._of_blocks(shape, [(p, nodes[r]) for p, r in level], depth, count)


# ---------------------------------------------------------------------------
# family materialization

def _by_form_values(forms, choices) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The vectors of ``product(*c)`` for each c in ``choices``, grouped
    by their dot products with the forms.

    A vector's values are written as one code (``_powers``), built
    coordinate by coordinate as ``_join`` builds its sums: coordinate k
    adds its entry times the code of the forms' k-th entries.  Every value
    lies in [-b, b] for b the largest sum of |f_k| of a form, and two
    value vectors differ by at most 2 b per entry, so equal codes mean
    equal values; each group's values are taken once, from its first
    vector.
    """
    digits = _powers(2 * max((sum(map(abs, f)) for f in forms), default=0), len(forms))
    columns = [sum(f[k] * d for f, d in zip(forms, digits)) for k in range(len(choices[0]))]
    groups: dict[int, list[tuple[int, ...]]] = {}
    for choice in choices:
        codes = [0]
        for column, vals in zip(columns, choice):
            codes = [s + v * column for s in codes for v in vals]
        for code, vec in zip(codes, product(*choice)):
            groups.setdefault(code, []).append(vec)
    return {tuple(sum(map(mul, f, vecs[0])) for f in forms): vecs
            for vecs in groups.values()}


def _scaled_rows(vec: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(0 vec, vec, -vec), indexed by a ternary scalar."""
    return (tuple(0 for _ in vec), vec, tuple(-e for e in vec))


def _materialize_product(
    body: RankOneProductFamily, population: Population
) -> list[tuple[int, ...]]:
    """The body's population-valued members, each once, in no order.

    Every ternary rank-one matrix is p q^T with ternary factors, whatever
    the population its entries are then filtered by.  Lemma: a nonzero
    rank-one ternary X has exactly one ternary factor pair (p, q) whose q
    has first nonzero entry +1.  Proof: row i of X is p_i q with p_i in
    {-1, 0, 1}, so the nonzero rows of X are ±q; that fixes q up to sign,
    the sign rule fixes q, and X fixes each p_i.  The condition is
    bilinear, so (p, q) and (-p, -q) meet it together, and the members
    are the products over the q with first nonzero +1 (q_1 = 1 where the
    lead is pinned), each member made once, with no set to remove
    repeats.  The products q . u and p . v are coded once per factor
    vector; the condition is then a dot product of two value vectors,
    decided once per pair of distinct value vectors.
    """
    n, m = body.shape
    values = TERNARY.values
    # q's first nonzero entry is its j-th: zeros, a one, then any values
    leads = [[(1,)]] if body.pinned_lead else [[(0,)] * j + [(1,)] for j in range(m)]
    p_groups = _by_form_values([v for _, v in body.terms], [[values] * n])
    q_groups = _by_form_values(
        [u for u, _ in body.terms], [lead + [values] * (m - len(lead)) for lead in leads]
    )
    members = []
    for qv, qs in q_groups.items():
        rows = [_scaled_rows(q).__getitem__ for q in qs]
        for pv, ps in p_groups.items():
            if sum(map(mul, pv, qv)) == 1:
                members += [tuple(chain.from_iterable(map(row, p))) for p in ps for row in rows]
    return list(filter(set(population.values).issuperset, members))


def _materialize_body(body, population: Population):
    """The body's members: a linear system's result, in odometer order, or
    a collection of distinct entry tuples for any other body."""
    if isinstance(body, SumConstraintSystem):
        return enumerate_sum_constrained(body, population)
    if isinstance(body, RankOneProductFamily):
        return _materialize_product(body, population)
    if isinstance(body, ExplicitUnion):
        out: set[tuple[int, ...]] = set()
        for comp in body.components:
            found = _materialize_body(comp.body, population)
            out.update(found.matrices if isinstance(found, EnumerationResult) else found)
        if 0 in population:
            out.add((0,) * (body.shape[0] * body.shape[1]))
        return out
    raise DomainError(f"cannot materialize body of type {type(body).__name__}")


def _of_rank(result: EnumerationResult, rank: int) -> EnumerationResult:
    """The members of ``result`` of the given rank, in its order.

    The rank of X is the dimension of its row space, and a block splits
    its rows into the whole rows of the prefix, the head, the row of each
    level above the last, and the rest of the prefix (nonempty only where
    X has one row) joined with a last-level chunk, a tail.  So ranks are
    taken on row spaces, never on members.  Each row space has a small
    id, kept by its integer normal basis (``_normal_basis`` reads it off
    the reduced echelon form, so every basis of the space gives the
    same), and the space one row spans with it is memoized per (space
    id, row).  A node is cut once per (node, rest, head space) into one
    kept node, which ``serialize`` then writes once: above the last
    level, by cutting each row's child on the head space grown by the
    row; at the last level, by whether each tail's space, found once per
    (node, rest), joined to the head's has dimension ``rank``.  A node
    that keeps every member is kept as it is, and a head space of
    dimension above ``rank`` keeps nothing.
    """
    m = result.shape[1]
    last = result._depth - 1
    ids: dict[tuple, int] = {}  # the normal basis of a space -> its id
    bases: list[list[tuple[int, ...]]] = []
    normals: list[tuple[tuple[int, ...], ...]] = []
    grown: dict[tuple[int, tuple[int, ...]], int] = {}

    def space(basis):
        normal = tuple(_normal_basis(basis, m))
        if normal not in ids:
            ids[normal] = len(bases)
            bases.append(basis)
            normals.append(normal)
        return ids[normal]

    def span(sid, rows):
        """The id of the span of space ``sid`` and the rows."""
        for row in rows:
            key = (sid, row)
            if key not in grown:
                inside = not any(sum(map(mul, y, row)) for y in normals[sid])
                grown[key] = sid if inside else space(bases[sid] + [row])
            sid = grown[key]
        return sid

    zero = space([])
    tails: dict[tuple, list[int]] = {}  # the tails' space ids, by (node, rest)
    fits: dict[int, dict[int, bool]] = {}  # head space -> tail space -> kept
    cuts: dict[tuple, list] = {}  # the kept node, by (node, rest, head space)

    def cut(node, level, rest, head):
        key = (id(node), rest, head)
        if key in cuts:
            return cuts[key]
        if len(bases[head]) > rank:
            kept = []
        elif level < last:
            kept, whole = [], True
            for row, child in node:
                below = cut(child, level + 1, (), span(head, (row,)))
                if below:
                    kept.append((row, below))
                whole = whole and below is child
            if whole:
                kept = node
        else:
            tail = key[:2]
            if tail not in tails:
                tails[tail] = [span(zero, zip(*[iter(rest + s)] * m)) for s in node]
            fit = fits.setdefault(head, {})
            for t in set(tails[tail]).difference(fit):
                fit[t] = len(bases[span(head, bases[t])]) == rank
            flags = list(map(fit.__getitem__, tails[tail]))
            kept = node if all(flags) else list(compress(node, flags))
        cuts[key] = kept
        return kept

    blocks = []
    for p, node in result._blocks:
        whole = len(p) - len(p) % m
        kept = cut(node, 0, p[whole:], span(zero, zip(*[iter(p[:whole])] * m)))
        if kept:
            blocks.append((p, kept))
    return EnumerationResult._of_blocks(result.shape, blocks, result._depth)


def materialize_family(
    family: InverseFamily,
    population: Population = TERNARY,
    rank: Optional[int] = None,
    count_only: bool = False,
) -> EnumerationResult:
    """The family's population-valued members, of the given rank when one
    is given, deduplicated and in odometer order; with ``count_only``,
    their count alone.

    A stream of more than ``MEMBER_CAP`` members is refused with
    ``ResourceLimitError``: an unfiltered linear system's on the count of
    its completion tables, before any member is built, and any other once
    the rank filter has kept its members.  A rank-filtered linear system
    with more than ``MEMBER_CAP`` live prefixes is refused, counted or
    not, before any prefix is built; an unfiltered count never is.
    """
    shape = family.shape
    if isinstance(family.body, SumConstraintSystem):
        if rank is None:
            return enumerate_sum_constrained(family.body, population, count_only,
                                             None if count_only else MEMBER_CAP)
        found = enumerate_sum_constrained(family.body, population, prefix_cap=MEMBER_CAP)
    else:
        found = _materialize_body(family.body, population)
    if not isinstance(found, EnumerationResult):
        found = EnumerationResult(shape, tuple(sorted(found)), len(found))
    if rank is not None:
        found = _of_rank(found, rank)
    if count_only:
        return EnumerationResult(shape, None, found.count)
    _refuse_past(MEMBER_CAP, found.count)
    return found


def _refuse_past(cap: int, count: int, what: str = "a stream of {} members") -> None:
    if count > cap:
        raise ResourceLimitError(f"{what.format(count)} exceeds the member cap of {cap}")


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
