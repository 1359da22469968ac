"""Closed-form counts of ternary solution sets, in exact big integers.

Every formula here has an independent exhaustive counterpart in the census
module; the verify harness and the test suite cross-check them on desk-scale
grids.  Binomial coefficients are taken to be zero whenever out of range,
and all sums run over full rectangular index ranges relying on that
convention.  Every sum is refused past ``TERM_LIMIT`` terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from operator import mul
from typing import NamedTuple, Sequence

from .matrices import DomainError, ResourceLimitError

#: the most binomial-product terms one sum may take; count_sum_t at it
#: takes about 0.05 s on a 2-vCPU VM
TERM_LIMIT = 10_000


def _check_terms(what: str, terms: int) -> None:
    if terms > TERM_LIMIT:
        raise ResourceLimitError(
            f"{what} sums {terms} terms, which exceeds the limit of {TERM_LIMIT}"
        )


def _require_positive(what: str, **sizes: int) -> None:
    """Refuse a matrix shape with no rows or columns, which no matrix of
    the library has."""
    bad = [f"{k}={v}" for k, v in sizes.items() if v < 1]
    if bad:
        raise DomainError(f"{what} needs positive dimensions, got {', '.join(bad)}")


def binom(a: int, b: int) -> int:
    """C(a, b), zero when b < 0, b > a, or a < 0."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def count_sum_t(n: int, t: int) -> int:
    """Number of ternary vectors of length n with entry sum t.

    Chooses s entries equal to -1 and s + |t| equal to +1, summed over s.
    Term s is C(n, s) C(n - s, s + |t|), and term s + 1 is term s times
    (n - 2s - |t|)(n - 2s - |t| - 1) / ((s + 1)(s + |t| + 1)), an exact
    integer division, so the sum is taken without a binomial per term.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    _check_terms(f"count_sum_t(n={n}, t={t})", n + 1)
    t = abs(t)
    term = binom(n, t)
    total = 0
    s = 0
    while term:
        total += term
        free = n - 2 * s - t  # entries left at 0
        term = term * free * (free - 1) // ((s + 1) * (s + t + 1))
        s += 1
    return total


def inner_count_full_type_I(m: int, n: int) -> int:
    """Count of ternary inner inverses of the all-ones m x n matrix."""
    _require_positive("the all-ones matrix", m=m, n=n)
    return count_sum_t(m * n, 1)


def outer_count_full_type_I(m: int, n: int, include_zero: bool = False) -> int:
    """Count of ternary outer inverses of the all-ones m x n matrix,
    excluding the zero matrix unless asked."""
    _require_positive("the all-ones matrix", m=m, n=n)
    total = count_sum_t(m, 1) * count_sum_t(n, 1)
    return total + 1 if include_zero else total


def outer_count_natural_pop(m: int, n: int, zero_in_pop: bool) -> int:
    """Count of outer inverses of the all-ones matrix over a population of
    naturals containing 1: one-hot products plus zero, or just the 1 x 1
    scalar when zero is unavailable."""
    _require_positive("the all-ones matrix", m=m, n=n)
    if zero_in_pop:
        return m * n + 1
    return 1 if m == 1 and n == 1 else 0


def outer_count_full_type_III(
    m: int, n1: int, n2: int, include_zero: bool = False
) -> int:
    """Count of ternary outer inverses of (ones | zeros): the rows facing
    the zero columns are free, contributing a power of three; n2 = 0 is
    the all-ones matrix."""
    _require_positive("the Type III matrix", m=m, n1=n1)
    total = 3**n2 * count_sum_t(m, 1) * count_sum_t(n1, 1)
    return total + 1 if include_zero else total


def outer_count_S4(n1: int, n2: int) -> int:
    """Count of the full outer-inverse set for the disjoint two-row layout,
    evaluated exactly as displayed: zero, the three column-scaled branches,
    and the rank-two product term.

    Kept verbatim; the verify harness owns the comparison against the
    census, which differs by the zero-first-column members the
    column-scaled branch cannot express.
    """
    _require_positive("the S4 layout", n1=n1, n2=n2)
    s = count_sum_t
    return (
        1
        + 3**n2 * s(n1, 1)
        + 2 * s(n1 + n2, 1)
        + s(n1, 1) * s(n2, 1) * s(n1, 0) * s(n2, 0)
    )


def inner_count_pure_ws(dims: Sequence[tuple[int, int]]) -> int:
    """Count of ternary inner inverses of a block diagonal of all-ones
    blocks: diagonal blocks of the candidate sum to 1, off-diagonal blocks
    sum to 0, independently."""
    if not dims or any(m < 1 or n < 1 for m, n in dims):
        raise DomainError("block dimensions must be positive")
    total = 1
    for mi, ni in dims:
        total *= count_sum_t(mi * ni, 1)
    for i, (_, ni) in enumerate(dims):
        for j, (mj, _) in enumerate(dims):
            if i != j:
                total *= count_sum_t(ni * mj, 0)
    return total


class IdentityCheck(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


def _tail(w1: int, d: int) -> list[int]:
    """C(w1 - s1, d + s1 + 1) for s1 = 0, ..., w1: zero up to the first s1
    with d + s1 + 1 >= 0, then one binomial C(a, b) and the recurrence
    C(a - 1, b + 1) = C(a, b) (a - b)(a - b - 1) / (a (b + 1))."""
    first = max(0, -d - 1)
    if first > w1:
        return [0] * (w1 + 1)
    a, b = w1 - first, d + first + 1
    out = [0] * first + [binom(a, b)]
    for _ in range(w1 - first):
        out.append(out[-1] * (a - b) * (a - b - 1) // (a * (b + 1)))
        a, b = a - 1, b + 1
    return out


def binomial_identity_check(m: int, n1: int, n2: int) -> IdentityCheck:
    """Evaluate both sides of the two-block counting identity exactly.

    The left side counts ternary vectors of length nm with sum 1 directly;
    the right side is the quadruple sum over the split into blocks of
    widths n1 and n2.
    """
    n = n1 + n2
    nm = n * m
    _check_terms(
        f"the identity check at m={m}, n1={n1}, n2={n2}",
        (nm - 1) // 2 + 1 + (n2 * m + 1) ** 2 * (n1 * m + 1),
    )
    lhs = count_sum_t(nm, 1)
    # the last binomial depends on s1 and d = r2 - s2 only: one row per d
    w1, w2 = n1 * m, n2 * m
    row1 = [1]
    for k in range(w1):  # C(w1, k + 1) = C(w1, k) (w1 - k) / (k + 1)
        row1.append(row1[-1] * (w1 - k) // (k + 1))
    tails = {d: _tail(w1, d) for d in range(-w2, w2 + 1)}
    rhs = 0
    for r2 in range(w2 + 1):
        for s2 in range(w2 + 1):
            outer = binom(w2, s2) * binom(w2 - s2, r2)
            rhs += outer * sum(map(mul, row1, tails[r2 - s2]))
    return IdentityCheck(lhs, rhs, lhs == rhs)


@dataclass(frozen=True)
class CardinalityReport:
    """A big-integer count with its provenance for audit trails."""

    value: int
    formula_id: str
    parameters: dict
    #: every report is evaluated from its closed form
    method: str = field(default="closed_form", init=False)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("counts are nonnegative")

    def csv_row(self) -> str:
        """The report as one RFC 4180 row: a field holding a comma or a
        double quote is quoted, its inner quotes doubled."""
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        if "," in params or '"' in params:
            params = '"' + params.replace('"', '""') + '"'
        return f"{self.formula_id},{params},{self.value},{self.method}"


#: formula id -> (parameter names, evaluator); the CLI dispatches on this.
FORMULAS = {
    "count_sum_t": (("n", "t"), count_sum_t),
    "inner_type_I": (("m", "n"), inner_count_full_type_I),
    "outer_type_I": (("m", "n", "include_zero"), outer_count_full_type_I),
    "outer_type_III": (("m", "n1", "n2", "include_zero"), outer_count_full_type_III),
    "natural_pop": (("m", "n", "zero_in_pop"), outer_count_natural_pop),
    "outer_S4": (("n1", "n2"), outer_count_S4),
    "inner_pure_ws": (("dims",), inner_count_pure_ws),
}


def evaluate_formula(formula_id: str, **params) -> CardinalityReport:
    if formula_id not in FORMULAS:
        raise KeyError(f"unknown formula {formula_id!r}")
    _, fn = FORMULAS[formula_id]
    value = fn(**params)
    return CardinalityReport(value, formula_id, params)
