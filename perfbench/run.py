"""Benchmark entry point.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and measures the package in
``src/``.  One client, one thread, closed loop: each task is one in-process
``bohemian.cli.main(argv)`` call with stdout and stderr captured in memory,
issued after the previous one returned.  A pass runs the workload's task
list once.  A fixed probe (``speed.py``) runs before and after every task
and every set-up probe, and slices of it run during untraced tasks; times
are reported in reference seconds, so a drift of the shared machine's
speed cancels.  The first pass warms caches, and the checker reads each of its
outputs as the task returns; every later pass must reproduce them byte for
byte.  ``--seconds`` sets the number of timed passes, one per
``workloads.PASS_SECONDS`` of the workload.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` half of the passes run untraced and
half under the tracer, and the JSON holds the per-layer metrics.  Lines
before it print every metric with its unit.
Exits 2 without a result when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import speed, workloads  # noqa: E402
from perfbench.check import Outcome, PassChecker  # noqa: E402
from perfbench.trace import Tracer, layer_metrics  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
BUDGET_ENV = "BOHEMIAN_CELL_BUDGET"
SETUP_PROBES = 11
#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10

#: Set-up as a user pays it: a fresh interpreter imports the package, and
#: the benchmark writes the workload's matrix files.
_PROBE = """
import sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root]
import bohemian.cli
from perfbench import workloads
workloads.write_inputs(workloads.build(sys.argv[2], int(sys.argv[3])), sys.argv[4])
print("ready", flush=True)
"""


def _setup_seconds(workload: str, seed: int) -> float:
    """Process start to first task ready, for one fresh interpreter, in
    raw seconds."""
    env = {k: v for k, v in os.environ.items() if k != BUDGET_ENV}
    input_dir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _PROBE, str(ROOT), workload, str(seed), input_dir],
            stdout=subprocess.PIPE, env=env, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} without getting ready")
        return elapsed
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)


def _calibrated_setup(workload: str, seed: int) -> tuple[float, float]:
    """(reference seconds, raw seconds) of one set-up."""
    before = speed.probe()
    raw = _setup_seconds(workload, seed)
    return raw * speed.scale([before, speed.probe()]), raw


@dataclass
class PassResult:
    seconds: list[float]  # per task, in reference seconds
    raw: list[float]  # per task, raw seconds less the in-task probe slices
    digests: list[str]
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def _digest(out) -> str:
    h = hashlib.sha256()
    for part in (str(out.exit_code), out.stdout, out.stderr, out.error):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def run_task(cli, argv: list[str]):
    """One closed-loop request: (seconds, Outcome)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    except Exception:  # a crash is a failed task, not a failed benchmark
        code = None
        error = traceback.format_exc()
    elapsed = perf_counter() - t0
    return elapsed, Outcome(code, out.getvalue(), err.getvalue(), error)


def run_pass(cli, argvs, check=None, sample=True) -> PassResult:
    """One pass.  Each task is timed between two speed probes and, with
    ``sample``, read for speed while it runs; traced passes do without, so
    that no probe time falls inside a span.  ``check``, when given, is
    called with each task's Outcome as soon as the task returns, outside
    its time."""
    gc.collect()
    seconds, raw, digests = [], [], []
    before = speed.probe()
    for argv in argvs:
        sampler = speed.Sampler()
        with sampler if sample else contextlib.nullcontext():
            dt, out = run_task(cli, argv)
        after = speed.probe()
        dt -= sampler.spent
        seconds.append(dt * speed.scale([before, after, *sampler.readings]))
        raw.append(dt)
        before = after
        digests.append(_digest(out))
        if check is not None:
            check(out)
    return PassResult(seconds, raw, digests)


def timed_passes(cli, argvs, count: int, tracer=None) -> list[PassResult]:
    passes = []
    for _ in range(count):
        if tracer is not None:
            tracer.reset()
        result = run_pass(cli, argvs, sample=tracer is None)
        if tracer is not None:
            result.layers = tracer.snapshot()
        passes.append(result)
    return passes


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _rate(pass_result: PassResult, work: list[int], used: list[bool]) -> float:
    busy = sum(t for t, u in zip(pass_result.seconds, used) if u)
    return sum(w for w, u in zip(work, used) if u) / busy if busy else 0.0


def _baseline_digest(workload: str, seed: int):
    path = ROOT / "perfbench" / "baseline.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["digests"][workload].get(str(seed))
    except (OSError, ValueError, KeyError):
        return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bohemian" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'bohemian'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop(BUDGET_ENV, None)
    OUT_DIR.mkdir(exist_ok=True)

    setup, raw_setup = zip(*(_calibrated_setup(args.workload, args.seed)
                             for _ in range(SETUP_PROBES)))
    from bohemian import cli

    tasks = workloads.build(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as input_dir:
        workloads.write_inputs(tasks, input_dir)
        argvs = [t.argv(input_dir) for t in tasks]
        # correctness: the warm-up pass is checked in full as it runs, before
        # the timed passes and the peak RSS reading; later passes by digest
        checker = PassChecker(tasks)
        warm = run_pass(cli, argvs, checker.add)
        count = max(2, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
        untraced = timed_passes(cli, argvs, (count + 1) // 2 if args.trace else count)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced, tracer = [], None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_passes(cli, argvs, count // 2, tracer)
            finally:
                tracer.uninstall()

    problems = checker.problems
    all_passes = [warm] + untraced + traced
    attempted = len(all_passes) * len(tasks)
    failed = sum(
        1
        for p in all_passes
        for t, d, d0 in zip(tasks, p.digests, warm.digests)
        if t.name in problems or d != d0
    )

    # work per task, read from the checked outputs, and the tasks doing it
    work = {
        "candidates_per_s": ([t.candidates for t in tasks], [t.kind == "oracle" for t in tasks]),
        "members_per_s": ([c or 0 for c in checker.counts],
                          [c is not None for c in checker.counts]),
        "cases_per_s": (checker.cases, [t.kind == "verify" for t in tasks]),
    }
    rates = {
        name: median(_rate(p, amounts, used) for p in untraced)
        for name, (amounts, used) in work.items()
        if any(a for a, u in zip(amounts, used) if u)
    }
    primary = {"census": "candidates_per_s", "theorem": "members_per_s",
               "verify": "cases_per_s"}[args.workload]

    latencies = [s for p in untraced for s in p.seconds]
    tail_s, tail_pct, n = tail(latencies)
    wall = median(p.wall for p in untraced)
    e2e = {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "task_p50_ms": (median(latencies) * 1000, "ms"),
        "task_tail_ms": (tail_s * 1000, "ms"),
        "work_per_s": (rates.get(primary, 0.0), "1/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }

    print(f"perfbench {args.workload} seed={args.seed}: {len(tasks)} tasks per pass, "
          f"1 warm-up pass, {len(untraced)} untraced and {len(traced)} traced passes")
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "task_tail_ms":
            note = f"  (p{tail_pct:.2f}: {min(TAIL_BEYOND, n - 1)} of {n} samples beyond it)"
        if name == "work_per_s":
            note = f"  (= {primary})"
        print(f"metric {name} = {value:.6g} {unit}{note}")
    for name, value in rates.items():
        print(f"metric {name} = {value:.6g} 1/s")
    raw_wall = median(sum(p.raw) for p in untraced)
    print(f"info raw setup_s = {median(raw_setup):.6g} s, raw wall_s = {raw_wall:.6g} s; "
          f"machine speed {wall / raw_wall:.4g} x reference (as measured, not compared)")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for name, msgs in problems.items():
        print(f"FAILED {name}: {'; '.join(msgs)}")
    digest = hashlib.sha256("".join(warm.digests).encode()).hexdigest()
    base = _baseline_digest(args.workload, args.seed)
    verdict = "not recorded" if base is None else ("same" if base == digest else "differs")
    print(f"outputs sha256 {digest}; seed-commit outputs for this seed: {verdict} "
          "(information only)")

    metrics = e2e
    if args.trace:
        values, absent = layer_metrics([p.layers for p in traced])
        traced_wall = median(p.wall for p in traced)
        values["trace.overhead_frac"] = ((traced_wall - wall) / wall, "ratio")
        for name, (value, unit) in values.items():
            print(f"metric {name} = {value:.6g} {unit}")
        if absent:
            print("absent: " + " ".join(absent))
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        kept = tracer.write_spans(str(spans))
        print(f"spans: {kept} kept, {tracer.spans_dropped} past the cap, in {spans}")
        metrics = values

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
