"""Exact integer matrix kernel.

Immutable dense matrices with arbitrary-precision integer entries, exact rank,
entry-sum functionals, Penrose-equation checks, and signed-permutation
transforms.  No floating point is used anywhere; every predicate is
decided by exact arithmetic.

The universal input type is :class:`TernaryMatrix`, whose entries are
restricted to the population {-1, 0, +1}.  Intermediate products (such as
A @ X @ A) live in the unrestricted :class:`IntMatrix`.

The kernel compiles one straight-line plan per shape for each of its three
hot operations, on first use, into a bounded cache; none is compiled at
import, and which form an operation takes depends on the shape alone.

* Products (:func:`_product_plan`): for each shape (m, k, p), a function
  from the row-major entry tuples of an m x k and a k x p factor to those
  of their product, ``(a0*b0 + a1*b2, ...)``: only ``*`` and ``+``, so
  integer factors give an exact integer product.  With at most
  ``PLAN_LIMIT`` multiplications, :func:`multiply` applies the whole-shape
  plan to the entry tuples (:func:`_entry_product`).  Larger products, and
  every caller holding row tuples, use the row form :func:`_product_rows`:
  the 1 x k x p plan mapped over the rows of the left factor while the
  right factor has at most ``PLAN_LIMIT`` entries, and above that each
  row-column sum taken in C by ``sum(map(mul, row, column))``.
* Penrose flags (:func:`_penrose_plan`): for each shape (m, n) of A, a
  function of the entry tuples of A and X that forms AX and XA once and
  returns the four flags of :func:`penrose_check` through short-circuit
  comparisons, so a candidate that fails AXA = A at its first entry costs
  one comparison there.  It is compiled while m*n*max(m, n) is at most
  ``PLAN_LIMIT``; larger shapes compose the :func:`_entry_product` forms.
* Small ranks (:func:`_rank_plan`): for each shape, a function of the
  entry tuple that returns the largest order of a nonzero minor, which is
  the rank.  It is compiled while it has at most ``PLAN_LIMIT``
  multiplications; larger shapes, and every caller holding row tuples,
  use the fraction-free (Bareiss) elimination :func:`_row_rank`.

Inputs are checked at the API boundary only: the public constructors
(``IntMatrix(...)``, ``TernaryMatrix(...)``, ``from_rows``, ``zeros``,
``ones``, ``identity``, ``unit``, ``SignedPermutation(...)``) and
:func:`parse_matrix`.  Dimensions must be of type ``int``, so a plan
cached for a shape is only ever reached with that shape, and entries that
are ``bool`` (or another ``int`` subclass) are stored as plain ``int``.  A
result built from operands that were already checked (a product, a
transpose, a signed-permutation transform) is not checked again: the
private ``IntMatrix._trusted`` builds it, because a sum of products of
integers is an integer, and moving or negating checked entries keeps them
in range.  ``SignedPermutation._trusted`` likewise builds transposes and
the enumeration of :func:`iter_signed_permutations`.  Internal callers use
``IntMatrix._trusted`` too for entry tuples that are drawn from the
population by construction, such as ``verify``'s exhaustive grids.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, product, repeat
from math import comb
from typing import Iterable, Iterator, Sequence

TRITS = (-1, 0, 1)

#: the most multiplications a product may have and still run as one
#: whole-shape plan; larger products run row by row
PLAN_LIMIT = 64

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


def _check_dimensions(rows, cols) -> None:
    # a float or bool dimension would compare equal to an int one and
    # reach the plans cached for that shape
    if type(rows) is not int:
        raise ShapeError(f"matrix rows must be an int, got {rows!r}")
    if type(cols) is not int:
        raise ShapeError(f"matrix cols must be an int, got {cols!r}")
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Dense row-major matrix of arbitrary-precision integers."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        _check_dimensions(self.rows, self.cols)
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if not self._check_entries():
            object.__setattr__(self, "entries", tuple(map(int, self.entries)))

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMatrix":
        """An instance built without ``__post_init__``'s checks, for a result
        whose shape and entries follow from operands already checked."""
        m = object.__new__(cls)
        fields = m.__dict__
        fields["rows"] = rows
        fields["cols"] = cols
        fields["entries"] = entries
        return m

    def _check_entries(self) -> bool:
        """Raise on the first entry that is not an integer; return whether
        every entry is a plain ``int`` rather than a ``bool`` or another
        ``int`` subclass."""
        plain = True
        for e in self.entries:
            if type(e) is not int:
                if not isinstance(e, int):
                    raise DomainError(f"entries must be integers, got {e!r}")
                plain = False
        return plain

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
        # a single row or column has the same row-major entries as its
        # transpose; only small shapes keep a cached index map
        rows, cols = self.rows, self.cols
        entries = self.entries
        if rows == 1 or cols == 1:
            pass
        elif rows * cols <= PLAN_LIMIT:
            entries = _transposer(rows, cols)(entries)
        else:
            entries = tuple(chain.from_iterable(zip(*self.row_tuples())))
        return type(self)._trusted(cols, rows, entries)

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

    def _check_entries(self) -> bool:
        plain = True
        for e in self.entries:
            if type(e) is not int or e not in (-1, 0, 1):
                if e not in (-1, 0, 1) or not isinstance(e, int):
                    raise DomainError(f"ternary entries must be -1, 0 or 1, got {e!r}")
                plain = False
        return plain


def zeros(rows: int, cols: int) -> TernaryMatrix:
    _check_dimensions(rows, cols)
    return TernaryMatrix(rows, cols, (0,) * (rows * cols))


def ones(rows: int, cols: int, sign: int = 1) -> TernaryMatrix:
    _check_dimensions(rows, cols)
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    return TernaryMatrix(rows, cols, (sign,) * (rows * cols))


def identity(k: int) -> TernaryMatrix:
    _check_dimensions(k, k)
    return TernaryMatrix(
        k, k, tuple(1 if i == j else 0 for i in range(k) for j in range(k))
    )


def unit(rows: int, cols: int, i: int, j: int, value: int = 1) -> TernaryMatrix:
    _check_dimensions(rows, cols)
    # a column index past the end would run into the next row, and a
    # negative one would count from the end
    for which, k, size in (("row", i, rows), ("column", j, cols)):
        if type(k) is not int or not 0 <= k < size:
            raise ShapeError(
                f"{which} index must be an int in [0, {size}) for a "
                f"{rows}x{cols} matrix, got {k!r}"
            )
    ent = [0] * (rows * cols)
    ent[i * cols + j] = value
    return TernaryMatrix(rows, cols, tuple(ent))


def _compile(name: str, source: str):
    """The function ``name`` defined by ``source``, compiled in a fresh
    namespace."""
    namespace = {"__name__": __name__}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def _unpack(prefix: str, count: int, source: str) -> tuple[list[str], str]:
    """Names ``prefix0``, ``prefix1``, ... for the ``count`` items of the
    tuple named ``source``, and the statement that binds them."""
    names = [f"{prefix}{i}" for i in range(count)]
    return names, f"    {', '.join(names)}, = {source}\n"


def _product_terms(left, right, m: int, k: int, p: int) -> list[str]:
    """Source of the m*p row-major entries of the product of an m x k and a
    k x p factor whose entries are named by ``left`` and ``right``."""
    return [
        " + ".join(f"{left[i * k + t]}*{right[t * p + j]}" for t in range(k))
        for i in range(m)
        for j in range(p)
    ]


@lru_cache(maxsize=128)
def _product_plan(m: int, k: int, p: int):
    """The compiled product of an m x k and a k x p factor.

    The returned function takes both factors' row-major entry tuples and
    returns the product's, as one straight-line expression:
    ``(a0*b0 + a1*b2, ...)`` for m = k = p = 2.
    """
    a, unpack_a = _unpack("a", m * k, "a")
    b, unpack_b = _unpack("b", k * p, "b")
    name = f"product_{m}x{k}x{p}"
    source = (
        f"def {name}(a, b):\n{unpack_a}{unpack_b}"
        f"    return ({', '.join(_product_terms(a, b, m, k, p))},)\n"
    )
    return _compile(name, source)


def _product_rows(a_rows, b_rows):
    """Row tuples of the product, given row tuples of both factors: the
    1 x k x p plan applied to each row of the left factor while the right
    factor has at most ``PLAN_LIMIT`` entries, one ``sum(map(mul, ...))``
    per row and column above that."""
    k, p = len(b_rows), len(b_rows[0])
    if k * p <= PLAN_LIMIT:
        plan = _product_plan(1, k, p)
        return tuple(map(plan, a_rows, repeat(tuple(chain.from_iterable(b_rows)))))
    columns = tuple(zip(*b_rows))
    mul = operator.mul
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a_rows)


@lru_cache(maxsize=128)
def _entry_product(m: int, k: int, p: int):
    """The product of an m x k and a k x p factor as a function of their
    row-major entry tuples: the whole-shape plan up to ``PLAN_LIMIT``
    multiplications, the row form above it."""
    if m * k * p <= PLAN_LIMIT:
        return _product_plan(m, k, p)

    def by_rows(a, b):
        rows = _product_rows(zip(*[iter(a)] * k), tuple(zip(*[iter(b)] * p)))
        return tuple(chain.from_iterable(rows))

    return by_rows


def multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    plan = _entry_product(a.rows, a.cols, b.cols)
    return IntMatrix._trusted(a.rows, b.cols, plan(a.entries, b.entries))


def entry_sum(a: IntMatrix) -> int:
    """The functional mapping a matrix to the sum of all its entries."""
    return sum(a.entries)


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


def normalize_spec(spec: str) -> str:
    s = str(spec).strip().replace("{", "").replace("}", "").replace(",", "")
    if s in ("1", "2"):
        return s
    if s in ("12", "21"):
        return "12"
    raise DomainError(f"inverse spec must be one of 1, 2, 12, got {spec!r}")


@lru_cache(maxsize=64)
def _transposer(rows: int, cols: int):
    """Maps the row-major entries of a ``rows`` x ``cols`` matrix (at
    least 2 of them) to those of its transpose."""
    return operator.itemgetter(
        *(i * cols + j for j in range(cols) for i in range(rows))
    )


def _penrose_plan(m: int, n: int):
    """The compiled Penrose flags of an m x n matrix A and an n x m
    candidate X.

    The returned function takes the row-major entry tuples of A and X and
    returns the four flags of :func:`penrose_check` as a tuple.  It forms
    the smaller of AX and XA once, as locals P, and reads both AXA and XAX
    off P: AXA = (AX)A = A(XA) and XAX = X(AX) = (XA)X.  Each equation is
    decided by ``==`` on one entry after another joined by ``and``, and the
    other product's symmetry by its entries formed pair by pair, so each
    flag stops at the first entry that differs.
    """
    a, unpack_a = _unpack("a", m * n, "a")
    x, unpack_x = _unpack("x", n * m, "x")
    # P = UV is k x k for the k x w factor U = A and V = X when m <= n,
    # else for U = X and V = A
    u, v, k, w = (a, x, m, n) if m <= n else (x, a, n, m)
    p = [f"p{i}" for i in range(k * k)]

    def equal(terms, names):
        return " and ".join(f"{t} == {e}" for t, e in zip(terms, names))

    def symmetric(terms, size):
        pairs = [(i * size + j, j * size + i) for i in range(size) for j in range(i)]
        return " and ".join(f"{terms[s]} == {terms[t]}" for s, t in pairs) or "True"

    # UVU = U, VUV = V, UV and VU symmetric
    flags = [
        equal(_product_terms(p, u, k, k, w), u),
        equal(_product_terms(v, p, w, k, k), v),
        symmetric(p, k),
        symmetric(_product_terms(v, u, w, k, w), w),
    ]
    if m > n:
        flags = [flags[1], flags[0], flags[3], flags[2]]
    name = f"penrose_{m}x{n}"
    source = (
        f"def {name}(a, x):\n{unpack_a}{unpack_x}"
        + "".join(f"    {e} = {t}\n" for e, t in zip(p, _product_terms(u, v, k, w, k)))
        + "    return (\n"
        + "".join(f"        ({flag}),\n" for flag in flags)
        + "    )\n"
    )
    return _compile(name, source)


def _composed_flags(m: int, n: int):
    """The Penrose flags of :func:`_penrose_plan`, composed from the
    :func:`_entry_product` forms and whole-tuple comparisons."""
    ax_of, xa_of = _entry_product(m, n, m), _entry_product(n, m, n)
    axa_of, xax_of = _entry_product(m, m, n), _entry_product(n, n, m)

    def composed(ae, xe):
        ax, xa = ax_of(ae, xe), xa_of(xe, ae)
        return (
            axa_of(ax, ae) == ae,
            xax_of(xa, xe) == xe,
            m == 1 or ax == _transposer(m, m)(ax),
            n == 1 or xa == _transposer(n, n)(xa),
        )

    return composed


@lru_cache(maxsize=64)
def _penrose_flags(m: int, n: int):
    """The Penrose flags of an m x n matrix A and an n x m candidate as a
    function of their entry tuples: the compiled plan while
    m*n*max(m, n) is at most ``PLAN_LIMIT``, the composed form above."""
    if m * n * max(m, n) <= PLAN_LIMIT:
        return _penrose_plan(m, n)
    return _composed_flags(m, n)


#: every report by its four flags; a report is immutable, so
#: :func:`penrose_check` hands out these shared instances
_REPORTS = {flags: PenroseReport(*flags) for flags in product((False, True), repeat=4)}


def penrose_check(a: IntMatrix, x: IntMatrix) -> PenroseReport:
    """Test AXA=A, XAX=X and the two symmetry equations exactly."""
    m, n = a.rows, a.cols
    if x.rows != n or x.cols != m:
        raise ShapeError(
            f"candidate inverse must be {n}x{m}, got {x.rows}x{x.cols}"
        )
    return _REPORTS[_penrose_flags(m, n)(a.entries, x.entries)]


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
        # bool is an int subclass, and 1.0 == 1, so both pass the tests below
        if any(type(e) is not int for e in self.perm):
            raise DomainError(f"perm entries must be integers: {self.perm}")
        if any(type(s) is not int for s in self.signs):
            raise DomainError(f"signs must be integers: {self.signs}")
        if sorted(self.perm) != list(range(k)):
            raise DomainError(f"perm must be a bijection on 0..{k - 1}: {self.perm}")
        if any(s not in (-1, 1) for s in self.signs):
            raise DomainError(f"signs must be +-1: {self.signs}")

    @classmethod
    def _trusted(
        cls, perm: tuple[int, ...], signs: tuple[int, ...]
    ) -> "SignedPermutation":
        """An instance built without ``__post_init__``'s checks, for a perm
        and signs that are valid by construction."""
        u = object.__new__(cls)
        fields = u.__dict__
        fields["perm"] = perm
        fields["signs"] = signs
        return u

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
        return SignedPermutation._trusted(tuple(perm), tuple(signs))

    def apply_left(self, m: IntMatrix) -> IntMatrix:
        """U @ M computed by row relocation: row perm[t] gets signs[t] * M[t]."""
        if self.size != m.rows:
            raise ShapeError("left factor size does not match row count")
        rows = m.row_tuples()
        out: list[tuple[int, ...]] = [()] * m.rows
        for t, (r, s) in enumerate(zip(self.perm, self.signs)):
            src = rows[t]
            out[r] = src if s == 1 else tuple(-e for e in src)
        return IntMatrix._trusted(m.rows, m.cols, tuple(chain.from_iterable(out)))

    def apply_right(self, m: IntMatrix) -> IntMatrix:
        """M @ U computed by column relocation: column t is signs[t] * M[:, perm[t]]."""
        if self.size != m.cols:
            raise ShapeError("right factor size does not match column count")
        moves = tuple(zip(self.perm, self.signs))
        entries = tuple(
            row[r] if s == 1 else -row[r] for row in m.row_tuples() for r, s in moves
        )
        return IntMatrix._trusted(m.rows, m.cols, entries)


def iter_signed_permutations(k: int) -> Iterator[SignedPermutation]:
    """All 2^k * k! signed permutations of size k, in a fixed order."""
    trusted = SignedPermutation._trusted
    for perm in permutations(range(k)):
        for signs in product((1, -1), repeat=k):
            yield trusted(perm, signs)


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


def _rank_plan(rows: int, cols: int):
    """The compiled rank of a ``rows`` x ``cols`` matrix, as a function of
    its row-major entry tuple.

    The rank is the largest order of a nonzero minor, or 0 for the zero
    matrix: the rows through a nonzero k x k minor are independent, and k
    independent rows form a k x ``cols`` matrix of rank k, whose k
    independent columns give a nonzero k x k minor.  The plan tests the
    orders from min(rows, cols) down, each as its minors joined by ``or``,
    and returns the first order with a nonzero one; order 1 is ``any`` of
    the entries.  A minor of order k >= 2 is expanded along its first row
    into minors of order k - 1 on the rows below.  Those are bound to
    locals before the chain of order k, and the chain of order k - 1 reads
    them by name, so every minor is computed at most once.
    """
    a, unpack = _unpack("a", rows * cols, "a")
    bound: set[tuple] = set()
    lines: list[str] = []

    def label(r, c):
        return f"d{'_'.join(map(str, r))}x{'_'.join(map(str, c))}"

    def expansion(r, c):
        """Source of the minor on rows ``r`` and columns ``c``, binding its
        sub-minors of order 2 and up first."""
        if len(r) == 1:
            return a[r[0] * cols + c[0]]
        terms = []
        for j, cj in enumerate(c):
            sub = (r[1:], c[:j] + c[j + 1 :])
            if len(r) > 2 and sub not in bound:
                lines.append(f"    {label(*sub)} = {expansion(*sub)}\n")
                bound.add(sub)
            minor = label(*sub) if len(r) > 2 else expansion(*sub)
            terms.append(f"{a[r[0] * cols + cj]}*{minor}")
        return terms[0] + "".join(
            f" {'+-'[j % 2]} {t}" for j, t in enumerate(terms) if j
        )

    for k in range(min(rows, cols), 1, -1):
        minors = [
            label(r, c) if (r, c) in bound else f"({expansion(r, c)})"
            for r in combinations(range(rows), k)
            for c in combinations(range(cols), k)
        ]
        lines.append(f"    if {' or '.join(minors)}:\n        return {k}\n")
    name = f"rank_{rows}x{cols}"
    source = (
        f"def {name}(a):\n{unpack if lines else ''}{''.join(lines)}"
        "    return 1 if any(a) else 0\n"
    )
    return _compile(name, source)


@lru_cache(maxsize=64)
def _entry_rank(rows: int, cols: int):
    """:func:`exact_rank` as a function of the entry tuple: the compiled
    plan while it has at most ``PLAN_LIMIT`` multiplications (k for each
    minor of order k >= 2), elimination by :func:`_row_rank` above that."""
    count = 0
    for k in range(2, min(rows, cols) + 1):
        count += k * comb(rows, k) * comb(cols, k)
        if count > PLAN_LIMIT:
            return lambda entries: _row_rank(zip(*[iter(entries)] * cols))
    return _rank_plan(rows, cols)


def exact_rank(a: IntMatrix) -> int:
    """Rank over the rationals: the largest order of a nonzero minor, read
    off a compiled plan for small shapes (:func:`_rank_plan`) and by
    fraction-free (Bareiss) elimination for larger ones."""
    return _entry_rank(a.rows, a.cols)(a.entries)


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
