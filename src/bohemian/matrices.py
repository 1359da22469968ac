"""Exact integer matrix kernel.

Immutable dense matrices with arbitrary-precision integer entries, exact rank
via fraction-free elimination, entry-sum functionals, Penrose-equation checks,
and signed-permutation transforms.  No floating point is used anywhere; every
predicate is decided by exact arithmetic.

The universal input type is :class:`TernaryMatrix`, whose entries are
restricted to the population {-1, 0, +1}.  Intermediate products (such as
A @ X @ A) live in the unrestricted :class:`IntMatrix`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import chain, permutations, product
from typing import Iterable, Iterator, Sequence

TRITS = (-1, 0, 1)

_TOKEN = re.compile(r"\S+")


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class DomainError(ValueError):
    """An input lies outside the operation's stated domain."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a fixed budget: the cells of a census or
    the terms of a closed-form sum."""


class ParseError(ValueError):
    """Malformed matrix text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Dense row-major matrix of arbitrary-precision integers."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(
                f"matrix dimensions must be positive, got {self.rows}x{self.cols}"
            )
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        self._check_entries()

    def _check_entries(self):
        for e in self.entries:
            if not isinstance(e, int):
                raise DomainError(f"entries must be integers, got {e!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        rs = [tuple(r) for r in rows]
        if not rs:
            raise ShapeError("matrix needs at least one row")
        width = len(rs[0])
        if any(len(r) != width for r in rs):
            raise ShapeError("rows have unequal lengths")
        return cls(len(rs), width, tuple(e for r in rs for e in r))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols]

    def row_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*[iter(self.entries)] * self.cols))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.row_tuples()]

    def transpose(self) -> "IntMatrix":
        return type(self).from_rows(zip(*self.row_tuples()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in r) for r in self.row_tuples())
        return f"{type(self).__name__}[{body}]"


class TernaryMatrix(IntMatrix):
    """Matrix whose entries all lie in the population {-1, 0, +1}."""

    def _check_entries(self):
        for e in self.entries:
            if e not in (-1, 0, 1) or not isinstance(e, int):
                raise DomainError(f"ternary entries must be -1, 0 or 1, got {e!r}")


def zeros(rows: int, cols: int) -> TernaryMatrix:
    return TernaryMatrix(rows, cols, (0,) * (rows * cols))


def ones(rows: int, cols: int, sign: int = 1) -> TernaryMatrix:
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    return TernaryMatrix(rows, cols, (sign,) * (rows * cols))


def identity(k: int) -> TernaryMatrix:
    return TernaryMatrix(
        k, k, tuple(1 if i == j else 0 for i in range(k) for j in range(k))
    )


def unit(rows: int, cols: int, i: int, j: int, value: int = 1) -> TernaryMatrix:
    ent = [0] * (rows * cols)
    ent[i * cols + j] = value
    return TernaryMatrix(rows, cols, tuple(ent))


def _product_rows(a_rows, b_rows):
    """Row tuples of the product, given row tuples of both factors."""
    b_cols = tuple(zip(*b_rows))
    mul = operator.mul
    return tuple(
        tuple(sum(map(mul, ar, bc)) for bc in b_cols) for ar in a_rows
    )


def multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    rows = _product_rows(a.row_tuples(), b.row_tuples())
    return IntMatrix(a.rows, b.cols, tuple(chain.from_iterable(rows)))


def entry_sum(a: IntMatrix) -> int:
    """The functional mapping a matrix to the sum of all its entries."""
    return sum(a.entries)


@dataclass(frozen=True)
class BlockPartition:
    """Grid partition of an m x n index range into contiguous blocks.

    ``row_cuts`` and ``col_cuts`` are the strictly increasing boundary lists,
    starting at 0 and ending at the matrix dimension, so consecutive pairs
    delimit the blocks.
    """

    row_cuts: tuple[int, ...]
    col_cuts: tuple[int, ...]

    def __post_init__(self):
        for cuts in (self.row_cuts, self.col_cuts):
            if len(cuts) < 2 or cuts[0] != 0:
                raise ShapeError(f"cuts must start at 0 and be nonempty: {cuts}")
            if any(a >= b for a, b in zip(cuts, cuts[1:])):
                raise ShapeError(f"cuts must be strictly increasing: {cuts}")

    @classmethod
    def from_sizes(
        cls, row_sizes: Sequence[int], col_sizes: Sequence[int]
    ) -> "BlockPartition":
        def bounds(sizes):
            out = [0]
            for s in sizes:
                if s < 1:
                    raise ShapeError(f"block sizes must be positive: {sizes}")
                out.append(out[-1] + s)
            return tuple(out)

        return cls(bounds(row_sizes), bounds(col_sizes))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_cuts[-1], self.col_cuts[-1])

    @property
    def n_row_blocks(self) -> int:
        return len(self.row_cuts) - 1

    @property
    def n_col_blocks(self) -> int:
        return len(self.col_cuts) - 1

    def block_span(self, i: int, j: int) -> tuple[int, int, int, int]:
        return (
            self.row_cuts[i],
            self.row_cuts[i + 1],
            self.col_cuts[j],
            self.col_cuts[j + 1],
        )

    def block_cells(self, i: int, j: int) -> list[tuple[int, int]]:
        r0, r1, c0, c1 = self.block_span(i, j)
        return [(r, c) for r in range(r0, r1) for c in range(c0, c1)]

    def to_json(self) -> dict:
        return {"row_cuts": list(self.row_cuts), "col_cuts": list(self.col_cuts)}


def block_sums(x: IntMatrix, part: BlockPartition) -> IntMatrix:
    """Matrix of per-block entry sums under the given partition."""
    if part.shape != (x.rows, x.cols):
        raise ShapeError(
            f"partition covers {part.shape}, matrix is {x.rows}x{x.cols}"
        )
    rows = x.row_tuples()
    out = []
    for i in range(part.n_row_blocks):
        r0, r1 = part.row_cuts[i], part.row_cuts[i + 1]
        line = []
        for j in range(part.n_col_blocks):
            c0, c1 = part.col_cuts[j], part.col_cuts[j + 1]
            line.append(sum(sum(rows[r][c0:c1]) for r in range(r0, r1)))
        out.append(line)
    return IntMatrix.from_rows(out)


@dataclass(frozen=True)
class PenroseReport:
    """Which of the four defining equations a candidate inverse satisfies.

    Derived deterministically from exact integer arithmetic; the symmetry
    equations are tested as plain transpose-equality, which is equivalent to
    the conjugate-transpose form for real integer matrices.
    """

    satisfies_1: bool
    satisfies_2: bool
    satisfies_3: bool
    satisfies_4: bool

    def satisfies(self, spec: str) -> bool:
        spec = normalize_spec(spec)
        ok = True
        if "1" in spec:
            ok = ok and self.satisfies_1
        if "2" in spec:
            ok = ok and self.satisfies_2
        return ok

    def to_json(self) -> dict:
        return {
            "satisfies_1": self.satisfies_1,
            "satisfies_2": self.satisfies_2,
            "satisfies_3": self.satisfies_3,
            "satisfies_4": self.satisfies_4,
        }


def normalize_spec(spec: str) -> str:
    s = str(spec).strip().replace("{", "").replace("}", "").replace(",", "")
    if s in ("1", "2"):
        return s
    if s in ("12", "21"):
        return "12"
    raise DomainError(f"inverse spec must be one of 1, 2, 12, got {spec!r}")


def _symmetric(rows) -> bool:
    n = len(rows)
    return all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n))


def penrose_check(a: IntMatrix, x: IntMatrix) -> PenroseReport:
    """Test AXA=A, XAX=X and the two symmetry equations exactly."""
    if (x.rows, x.cols) != (a.cols, a.rows):
        raise ShapeError(
            f"candidate inverse must be {a.cols}x{a.rows}, got {x.rows}x{x.cols}"
        )
    ar = a.row_tuples()
    xr = x.row_tuples()
    ax = _product_rows(ar, xr)
    xa = _product_rows(xr, ar)
    eq1 = _product_rows(ax, ar) == ar
    eq2 = _product_rows(xa, xr) == xr
    return PenroseReport(eq1, eq2, _symmetric(ax), _symmetric(xa))


@dataclass(frozen=True)
class SignedPermutation:
    """A signed permutation matrix: one entry of +-1 per row and column.

    ``perm`` and ``signs`` describe the matrix column by column: column t
    holds ``signs[t]`` at row ``perm[t]``.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        k = len(self.perm)
        if len(self.signs) != k:
            raise ShapeError("perm and signs must have the same length")
        if sorted(self.perm) != list(range(k)):
            raise DomainError(f"perm must be a bijection on 0..{k - 1}: {self.perm}")
        if any(s not in (-1, 1) for s in self.signs):
            raise DomainError(f"signs must be +-1: {self.signs}")

    @classmethod
    def identity(cls, k: int) -> "SignedPermutation":
        return cls(tuple(range(k)), (1,) * k)

    @property
    def size(self) -> int:
        return len(self.perm)

    def to_matrix(self) -> TernaryMatrix:
        k = self.size
        ent = [0] * (k * k)
        for t, (r, s) in enumerate(zip(self.perm, self.signs)):
            ent[r * k + t] = s
        return TernaryMatrix(k, k, tuple(ent))

    def transpose(self) -> "SignedPermutation":
        k = self.size
        perm = [0] * k
        signs = [1] * k
        for t, (r, s) in enumerate(zip(self.perm, self.signs)):
            perm[r] = t
            signs[r] = s
        return SignedPermutation(tuple(perm), tuple(signs))

    def apply_left(self, m: IntMatrix) -> IntMatrix:
        """U @ M computed by row relocation: row perm[t] gets signs[t] * M[t]."""
        if self.size != m.rows:
            raise ShapeError("left factor size does not match row count")
        rows = m.row_tuples()
        out: list[tuple[int, ...] | None] = [None] * m.rows
        for t, (r, s) in enumerate(zip(self.perm, self.signs)):
            src = rows[t]
            out[r] = src if s == 1 else tuple(-e for e in src)
        return IntMatrix.from_rows(out)  # type: ignore[arg-type]

    def apply_right(self, m: IntMatrix) -> IntMatrix:
        """M @ U computed by column relocation: column t is signs[t] * M[:, perm[t]]."""
        if self.size != m.cols:
            raise ShapeError("right factor size does not match column count")
        rows = m.row_tuples()
        out = [
            tuple(s * row[r] for r, s in zip(self.perm, self.signs)) for row in rows
        ]
        return IntMatrix.from_rows(out)

    def to_json(self) -> dict:
        return {"perm": list(self.perm), "signs": list(self.signs)}


def iter_signed_permutations(k: int) -> Iterator[SignedPermutation]:
    """All 2^k * k! signed permutations of size k, in a fixed order."""
    for perm in permutations(range(k)):
        for signs in product((1, -1), repeat=k):
            yield SignedPermutation(perm, signs)


def _signed_index_map(
    rows: int, cols: int, u: SignedPermutation, v: SignedPermutation
):
    """The entries of ``transform_inverse(X, u, v)`` as a function of the
    entry tuple of a ``rows`` x ``cols`` X: each entry is one entry of X,
    possibly negated, so one ``itemgetter`` over X's entries followed by
    their negations moves a whole matrix."""
    size = rows * cols
    labels = transform_inverse(IntMatrix(rows, cols, tuple(range(1, size + 1))), u, v)
    src = [e - 1 if e > 0 else size - e - 1 for e in labels.entries]
    pick = operator.itemgetter(*src)
    neg = operator.neg
    if size == 1:  # itemgetter of one index returns the entry itself
        return lambda entries: (pick(entries + tuple(map(neg, entries))),)
    return lambda entries: pick(entries + tuple(map(neg, entries)))


def transform_inverse(
    x: IntMatrix, u: SignedPermutation, v: SignedPermutation
) -> IntMatrix:
    """Carry a generalized inverse of A over to one of U @ A @ V.

    Returns V^T @ X @ U^T; when X satisfies Penrose equation (1) or (2) for
    A, the result satisfies the same equation for U @ A @ V.
    """
    if v.size != x.rows or u.size != x.cols:
        raise ShapeError(
            f"transform of a {x.rows}x{x.cols} inverse needs |V|={x.rows}, "
            f"|U|={x.cols}, got |V|={v.size}, |U|={u.size}"
        )
    return u.transpose().apply_right(v.transpose().apply_left(x))


def exact_rank(a: IntMatrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    return _row_rank(a.row_tuples())


def _row_rank(rows: Iterable[Sequence[int]]) -> int:
    """``exact_rank`` of the matrix with these integer rows, for internal
    paths that hold row tuples rather than an :class:`IntMatrix`."""
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    pr = 0
    prev = 1
    for pc in range(nc):
        piv = None
        for r in range(pr, nr):
            if m[r][pc]:
                piv = r
                break
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        pivot = m[pr][pc]
        for r in range(pr + 1, nr):
            factor = m[r][pc]
            row = m[r]
            prow = m[pr]
            for c in range(pc + 1, nc):
                row[c] = (pivot * row[c] - factor * prow[c]) // prev
            row[pc] = 0
        prev = pivot
        pr += 1
        if pr == nr:
            break
    return pr


def parse_matrix(text: str) -> TernaryMatrix:
    """Parse the matrix text format: one row per line, entries -1, 0 or 1.

    Blank lines and lines starting with '#' are ignored.  Errors carry the
    1-based line and column of the offending token.
    """
    rows: list[tuple[int, ...]] = []
    width = None
    width_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = []
        for tok in _TOKEN.finditer(raw):
            word = tok.group()
            if word not in ("-1", "0", "1"):
                raise ParseError(
                    f"entry must be -1, 0 or 1, got {word!r}", lineno, tok.start() + 1
                )
            row.append(int(word))
        if width is None:
            width = len(row)
            width_line = lineno
        elif len(row) != width:
            raise ParseError(
                f"row has {len(row)} entries but row at line {width_line} has {width}",
                lineno,
                1,
            )
        rows.append(tuple(row))
    if not rows:
        raise ParseError("no matrix rows found", 1, 1)
    return TernaryMatrix.from_rows(rows)


def serialize_matrix(m: IntMatrix) -> str:
    """Bit-exact writer: single spaces, '\\n' row terminator, no trailing blanks."""
    return "".join(
        " ".join(str(e) for e in row) + "\n" for row in m.row_tuples()
    )
