"""Per-layer tracing from the benchmark's own code.

``Tracer.install`` replaces each traced function of the ``bohemian``
package with a timing wrapper, both where it is defined and in every
package module (or module-level table) that bound it by name, such as
``census._product_rows``; ``uninstall`` puts the originals back.  Runs
without ``--trace 1`` never install it.

Each wrapped call is a span (name, start, end, parent).  A layer's self
time is the duration of its spans minus the time spent in wrappers of
their child spans, the child wrappers' own bookkeeping included, so that
tracer overhead is charged to no layer.  Spans are kept in memory, up to
``SPAN_CAP`` of them, and written out at the end; calls, times and
counters are aggregated for every call.

A layer whose targets no longer exist is reported as absent rather than
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Optional

Hook = Callable[[tuple, dict, object, Callable], dict]
#: spans kept for the span file; later spans are counted, not kept
SPAN_CAP = 200_000


def _scan_hook(args, kwargs, result, fn) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments["a"]
    pop = len(bound.arguments["population"])
    return {"candidates": pop ** (a.rows * a.cols), "hits": result.count}


def _members_hook(args, kwargs, result, fn) -> dict:
    """Members emitted; a count-only result emits none."""
    return {"members": 0 if result.matrices is None else len(result.matrices)}


def _cases_hook(args, kwargs, result, fn) -> dict:
    return {"cases": result.cases_run}


@dataclass(frozen=True)
class Layer:
    """A named group of traced functions.

    ``targets`` are ``module:qualname`` strings; ``module:*`` stands for
    every public function defined in the module, minus ``exclude``.
    """

    name: str
    targets: tuple[str, ...]
    hook: Optional[Hook] = None
    exclude: tuple[str, ...] = ()


_M = "bohemian.matrices:"
_FAMILY_EVAL = (
    "LinearConstraint.evaluate",
    "RankOneProductFamily.condition_value",
    "ColumnScaledFamily.condition_value",
    "class3_inner_membership",
    "class3_inner_necessary",
)

LAYERS = (
    Layer("matrices.product_rows", (_M + "_product_rows",)),
    Layer("matrices.exact_rank", (_M + "exact_rank",)),
    Layer("matrices.penrose_check", (_M + "penrose_check",)),
    Layer("matrices.transform", (_M + "transform_inverse",
                                 _M + "SignedPermutation.apply_left",
                                 _M + "SignedPermutation.apply_right")),
    Layer("matrices.matrix_new", (_M + "IntMatrix.__post_init__",)),
    Layer("matrices.serialize", (_M + "serialize_matrix",)),
    Layer("matrices.parse", (_M + "parse_matrix",)),
    Layer("census.scan", ("bohemian.census:brute_force_inverses",), _scan_hook),
    Layer("census.enumerate", ("bohemian.census:enumerate_sum_constrained",),
          _members_hook),
    Layer("census.materialize", ("bohemian.census:materialize_family",), _members_hook),
    Layer("census.compare", ("bohemian.census:set_equal",)),
    Layer("families.build", ("bohemian.families:*",), exclude=_FAMILY_EVAL),
    Layer("families.eval", tuple("bohemian.families:" + q for q in _FAMILY_EVAL)),
    Layer("classify", ("bohemian.classify:*",)),
    Layer("counting", ("bohemian.counting:*",)),
    Layer("verify.core", ("bohemian.verify:suite_core",), _cases_hook),
    Layer("verify.inner", ("bohemian.verify:suite_inner",), _cases_hook),
    Layer("verify.outer", ("bohemian.verify:suite_outer",), _cases_hook),
    Layer("verify.counts", ("bohemian.verify:suite_counts",), _cases_hook),
    Layer("cli", ("bohemian.cli:main",)),
)


class LayerStats:
    __slots__ = ("calls", "self_s", "total_s", "counters", "hook_failed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counters: dict[str, int] = {}
        self.hook_failed = False


def _resolve(spec: str, exclude: tuple[str, ...]):
    """(owner, attribute, function) triples for one target spec."""
    modname, _, qual = spec.partition(":")
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return []
    if qual == "*":
        return [
            (module, name, obj)
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == modname
            and not name.startswith("_") and name not in exclude
        ]
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    fn = vars(owner).get(attr)
    return [(owner, attr, fn)] if callable(fn) else []


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.stats = [LayerStats() for _ in layers]
        self.absent: list[str] = []
        self._restore: list[Callable[[], None]] = []
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._names: list[str] = []
        self._span_name = array("I")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_id = array("q")
        self._span_parent = array("q")
        self.spans_dropped = 0
        self._t0 = perf_counter()

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if n == "bohemian" or n.startswith("bohemian.")]
        for idx, layer in enumerate(self.layers):
            found = [t for spec in layer.targets for t in _resolve(spec, layer.exclude)]
            if not found:
                self.absent.append(layer.name)
                continue
            for owner, attr, fn in found:
                name_idx = len(self._names)
                self._names.append(f"{layer.name}:{getattr(fn, '__qualname__', attr)}")
                wrapper = self._wrap(fn, idx, name_idx, layer.hook)
                self._rebind(owner, attr, fn, wrapper, package)

    def _rebind(self, owner, attr, fn, wrapper, package) -> None:
        def put(target, key, value):
            old = vars(target)[key] if isinstance(target, type) else getattr(target, key)
            setattr(target, key, value)
            self._restore.append(lambda: setattr(target, key, old))

        put(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in package:
            for key, value in list(vars(module).items()):
                if value is fn:
                    put(module, key, wrapper)
                elif isinstance(value, dict):
                    self._rebind_table(value, fn, wrapper)

    def _rebind_table(self, table: dict, fn, wrapper) -> None:
        """Module-level dispatch tables such as ``verify.SUITES`` hold
        functions directly or inside tuples."""
        for key, value in list(table.items()):
            new = value
            if value is fn:
                new = wrapper
            elif isinstance(value, tuple) and any(v is fn for v in value):
                new = tuple(wrapper if v is fn else v for v in value)
            if new is not value:
                table[key] = new
                self._restore.append(lambda k=key, v=value: table.__setitem__(k, v))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, fn, layer_idx: int, name_idx: int, hook: Optional[Hook]):
        stats = self.stats[layer_idx]
        stack = self._stack
        t_base = self._t0
        names, starts, ends = self._span_name, self._span_start, self._span_end
        ids, parents = self._span_id, self._span_parent
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent_frame = stack[-1] if stack else None
            try:
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
                frame = [span_id, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    d = t1 - t0
                    stats.calls += 1
                    stats.total_s += d
                    stats.self_s += d - frame[1]
                    if len(ids) < SPAN_CAP:
                        names.append(name_idx)
                        starts.append(t0 - t_base)
                        ends.append(t1 - t_base)
                        ids.append(span_id)
                        parents.append(parent_frame[0] if parent_frame else -1)
                    else:
                        tracer.spans_dropped += 1
                if hook is not None and not stats.hook_failed:
                    try:
                        for key, n in hook(args, kwargs, result, fn).items():
                            stats.counters[key] = stats.counters.get(key, 0) + n
                    except (TypeError, KeyError, AttributeError):
                        stats.hook_failed = True
                return result
            finally:
                # the whole wrapper, bookkeeping included, is child time
                if parent_frame is not None:
                    parent_frame[1] += perf_counter() - entered

        return wrapper

    # -- reading -------------------------------------------------------

    def reset(self) -> None:
        """Zero the totals, at the start of a pass."""
        for s in self.stats:
            s.calls, s.self_s, s.total_s = 0, 0.0, 0.0
            s.counters.clear()
            s.hook_failed = False

    def snapshot(self) -> dict[str, LayerStats]:
        """Copies of the totals since the last reset, keyed by layer name;
        absent layers are left out."""
        out = {}
        for layer, s in zip(self.layers, self.stats):
            if layer.name in self.absent:
                continue
            c = LayerStats()
            c.calls, c.self_s, c.total_s = s.calls, s.self_s, s.total_s
            c.counters = dict(s.counters)
            c.hook_failed = s.hook_failed
            out[layer.name] = c
        return out

    def write_spans(self, path: str) -> int:
        """Write the kept spans as tab-separated text; returns how many."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self._span_id)):
                fh.write(f"{self._span_id[i]}\t{self._names[self._span_name[i]]}\t"
                         f"{self._span_start[i]:.9f}\t{self._span_end[i]:.9f}\t"
                         f"{self._span_parent[i]}\n")
        return len(self._span_id)


_SUITES = ("verify.core", "verify.inner", "verify.outer", "verify.counts")


def _metric_table():
    """(metric, layers, quantity, unit) for every per-layer metric."""
    table = []
    for layer in LAYERS:
        name = layer.name
        if name in _SUITES:
            table.append((name + "_s", (name,), "total_s", "s"))
        elif name == "cli":
            table.append(("cli.self_s", (name,), "self_s", "s"))
        else:
            table.append((name + ".calls", (name,), "calls", "count"))
            table.append((name + ".self_s", (name,), "self_s", "s"))
    for name in ("census.enumerate", "census.materialize"):
        table.append((name + ".members", (name,), "members", "count"))
    table += [
        ("census.scan.candidates", ("census.scan",), "candidates", "count"),
        ("census.scan.hits", ("census.scan",), "hits", "count"),
        ("census.scan.hit_ratio", ("census.scan",), "hit_ratio", "ratio"),
        ("verify.cases", _SUITES, "cases", "count"),
    ]
    return table


METRICS = _metric_table()


def _quantity(stats: LayerStats, quantity: str) -> float:
    if quantity in ("calls", "self_s", "total_s"):
        return getattr(stats, quantity)
    if quantity == "hit_ratio":
        return stats.counters.get("hits", 0) / max(stats.counters.get("candidates", 0), 1)
    return stats.counters.get(quantity, 0)


def layer_metrics(per_pass: list[dict[str, LayerStats]]):
    """Per-layer metrics as ({name: (value, unit)}, [absent names]): the
    median over traced passes of each pass's value.  A metric is absent
    when one of its layers had no target to wrap, or its counter hook could
    not read the call."""
    values: dict[str, tuple[float, str]] = {}
    absent = []
    for metric, layers, quantity, unit in METRICS:
        counted = quantity not in ("calls", "self_s", "total_s")
        if not per_pass or any(
            name not in p or (counted and p[name].hook_failed)
            for p in per_pass for name in layers
        ):
            absent.append(metric)
            continue
        values[metric] = (
            median(sum(_quantity(p[name], quantity) for name in layers) for p in per_pass),
            unit,
        )
    return values, absent
