"""Command-line front end.

Subcommands: classify, decompose, inverses, count, identity, verify.
Matrices are read in the text format (one row per line, entries -1, 0 or
1); reports are JSON; streams use the text format with a trailing count
record.  Exit codes: 0 success, 1 a ``verify`` discrepancy that is not
allowed, 2 usage or parse errors, 3 unsupported shape in theorem mode or
no decomposition, 4 census budget, member cap or term limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Optional

from . import census as cs
from . import classify as cl
from . import counting as ct
from . import theorems as th
from . import verify as vf
from .matrices import (
    DomainError,
    IntMatrix,
    ParseError,
    TernaryMatrix,
    parse_matrix,
)

BUDGET_ENV = "BOHEMIAN_CELL_BUDGET"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_RESOURCE = 4


class UsageError(ValueError):
    """Bad input that has no line and column to report; exit 2."""


def _nonnegative_int(raw: str) -> int:
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {raw!r}")


def _cell_budget(raw: str) -> int:
    try:
        return _nonnegative_int(raw)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"the cell budget (--budget or {BUDGET_ENV}) must be a nonnegative "
            f"integer, got {raw!r}"
        ) from None


def _budget_default(fallback: int) -> str:
    """The budget when --budget is absent; argparse converts this string,
    so a malformed environment value is a usage error like a flag's."""
    return os.environ.get(BUDGET_ENV, str(fallback))


def _load_matrix(path: str) -> TernaryMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text") from exc
    return parse_matrix(text)


def _report_json(obj):
    """The ``default`` hook of ``json.dumps`` for reports: a matrix is its
    row lists, any other dataclass its fields in order.  The matrix test
    comes first, as a matrix is a dataclass too."""
    if isinstance(obj, IntMatrix):
        return obj.to_lists()
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=_report_json))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args) -> int:
    a = _load_matrix(args.matrix)
    _emit_json(cl.class_membership(a))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    a = _load_matrix(args.matrix)
    form = args.form
    if form == "auto":
        report = cl.class_membership(a)
        if report.is_rank_one:
            form = "rank1"
        elif report.is_generalized_well_settled:
            form = "gws"
        elif report.is_class_II:
            form = "uw"
        else:
            print("no decomposition applies: not rank one, block-diagonal, "
                  "or row-wise Class II", file=sys.stderr)
            return EXIT_UNSUPPORTED
    try:
        if form == "rank1":
            dec = cl.rank_one_factorize(a)
        elif form == "gws":
            dec = cl.gws_detect(a)
            if dec is None:
                raise DomainError("matrix is not generalized well-settled")
        else:
            dec = cl.uw_decompose(a)
    except DomainError as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    _emit_json({"form": form, **_report_json(dec)})
    return EXIT_OK


def _parse_population(raw: Optional[str]) -> cs.Population:
    if raw is None:
        return cs.TERNARY
    try:
        values = tuple(sorted(int(v) for v in raw.split(",")))
    except ValueError as exc:
        raise UsageError(
            f"bad --population {raw!r}: expected comma-separated integers"
        ) from exc
    try:
        return cs.Population(values)
    except DomainError as exc:
        raise UsageError(f"bad --population {raw!r}: {exc}") from exc


def _cmd_inverses(args) -> int:
    a = _load_matrix(args.matrix)
    population = _parse_population(args.population)
    spec = args.spec
    if args.mode == "oracle":
        try:
            result = cs.brute_force_inverses(
                a,
                spec,
                population=population,
                rank_filter=args.rank,
                cell_budget=args.budget,
                count_only=args.count_only,
            )
        except cs.ResourceLimitError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_RESOURCE
    else:
        if any(v not in cs.TERNARY for v in population.values):
            print(f"theorem mode needs a population within {{-1, 0, 1}}, got "
                  f"{args.population!r}", file=sys.stderr)
            return EXIT_USAGE
        try:
            family = th.select_theorem(a, spec, args.rank)
        except th.UnsupportedShape as exc:
            report = cl.class_membership(a)
            print(f"{exc}; detected class: {json.dumps(report, default=_report_json)}",
                  file=sys.stderr)
            return EXIT_UNSUPPORTED
        # built, or refused past the member cap, before anything is printed
        result = cs.materialize_family(family, population, args.rank, args.count_only)
        print(f"theorem_id: {family.theorem_id}")
        if family.note:
            print(f"note: {family.note}")
    sys.stdout.write(result.serialize())
    return EXIT_OK


def _cmd_count(args) -> int:
    params = {}
    names, _ = ct.FORMULAS[args.formula]
    for name in names:
        if name == "dims":
            if not args.dims:
                print("--dims required for this formula", file=sys.stderr)
                return EXIT_USAGE
            try:
                dims = tuple(
                    tuple(int(x) for x in block.split("x"))
                    for block in args.dims.split(",")
                )
            except ValueError:
                dims = ()
            if not dims or any(len(d) != 2 or min(d) < 1 for d in dims):
                print(f"bad --dims {args.dims!r}", file=sys.stderr)
                return EXIT_USAGE
            params["dims"] = dims
        else:
            # store_true flags are never None
            params[name] = getattr(args, name)
            if params[name] is None:
                print(f"--{name} required for formula {args.formula}", file=sys.stderr)
                return EXIT_USAGE
    try:
        report = ct.evaluate_formula(args.formula, **params)
    except DomainError as exc:
        print(f"{args.formula}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        _emit_json(report)
    else:
        print("formula_id,params,value,method")
        print(report.csv_row())
    return EXIT_OK


def _cmd_identity(args) -> int:
    try:
        chk = ct.binomial_identity_check(args.m, args.n1, args.n2)
    except DomainError as exc:
        print(f"identity: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{chk.lhs} {chk.rhs} {'equal' if chk.equal else 'unequal'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    outcomes, ok = vf.run_verify(args.suite, args.budget, args.allow_known_gaps)
    payload = {
        "budget": args.budget,
        "allow_known_gaps": args.allow_known_gaps,
        "ok": ok,
        "outcomes": outcomes,
    }
    _emit_json(payload)
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohemian",
        description="Exact classification, inverse families, and censuses "
        "for matrices over {0, +1, -1}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural class report as JSON")
    p.add_argument("matrix", help="matrix file in the text format")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("decompose", help="factorizations as JSON")
    p.add_argument("matrix")
    p.add_argument("--form", choices=["auto", "rank1", "uw", "gws"], default="auto")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("inverses", help="enumerate or count generalized inverses")
    p.add_argument("matrix")
    p.add_argument("--spec", required=True, choices=["1", "2", "12"])
    p.add_argument("--mode", choices=["oracle", "theorem"], default="oracle")
    p.add_argument("--rank", type=_nonnegative_int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--population", default=None, help="comma-separated values")
    p.add_argument("--budget", type=_cell_budget,
                   default=_budget_default(cs.DEFAULT_CELL_BUDGET))
    p.set_defaults(fn=_cmd_inverses)

    p = sub.add_parser("count", help="closed-form cardinalities")
    p.add_argument("--formula", required=True, choices=sorted(ct.FORMULAS))
    p.add_argument("--n", type=_nonnegative_int)
    p.add_argument("--t", type=int)
    p.add_argument("--m", type=_nonnegative_int)
    p.add_argument("--n1", type=_nonnegative_int)
    p.add_argument("--n2", type=_nonnegative_int)
    p.add_argument("--dims", help="block dims as m1xn1,m2xn2,...")
    p.add_argument("--include-zero", action="store_true")
    p.add_argument("--zero-in-pop", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("identity", help="two-block counting identity check")
    p.add_argument("--m", type=_nonnegative_int, required=True)
    p.add_argument("--n1", type=_nonnegative_int, required=True)
    p.add_argument("--n2", type=_nonnegative_int, required=True)
    p.set_defaults(fn=_cmd_identity)

    p = sub.add_parser("verify", help="cross-check families and counts "
                       "against the census")
    p.add_argument("--suite", choices=[*vf.SUITES, "all"], default="all")
    p.add_argument("--budget", type=_cell_budget, default=_budget_default(9))
    p.add_argument("--allow-known-gaps", action="store_true")
    p.set_defaults(fn=_cmd_verify)
    return parser


@lru_cache(maxsize=8)
def _parser(budget_env: Optional[str]) -> argparse.ArgumentParser:
    """``build_parser()`` for one value of the budget variable (None when
    unset): the budget defaults are read from it when the parser is built,
    so a changed environment gets a parser of its own."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(os.environ.get(BUDGET_ENV)).parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except cs.ResourceLimitError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
