"""Exact tools for matrices over the population {0, +1, -1}: structural
classification, characterized inner/outer inverse families, brute-force
censuses, and closed-form counts, all cross-validated."""

from .matrices import (
    DomainError,
    IntMatrix,
    ParseError,
    PenroseReport,
    ShapeError,
    SignedPermutation,
    TernaryMatrix,
    entry_sum,
    exact_rank,
    identity,
    multiply,
    ones,
    parse_matrix,
    penrose_check,
    serialize_matrix,
    transform_inverse,
    zeros,
)

__all__ = [
    "DomainError",
    "IntMatrix",
    "ParseError",
    "PenroseReport",
    "ShapeError",
    "SignedPermutation",
    "TernaryMatrix",
    "entry_sum",
    "exact_rank",
    "identity",
    "multiply",
    "ones",
    "parse_matrix",
    "penrose_check",
    "serialize_matrix",
    "transform_inverse",
    "zeros",
]

__version__ = "0.1.0"
