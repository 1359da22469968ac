"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload census --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median, next to the bound ``BENCHMARK.json`` gives
it.  ``--save`` writes the medians, quartiles and output digests to a JSON
file, which is how ``perfbench/baseline.json`` is made.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str, float]:
    """(result, output digest, seconds the whole run took)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    match = re.search(r"outputs sha256 (\w+)", proc.stdout)
    return json.loads(lines[-1]), match.group(1) if match else "", time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--save", help="merge the results into this JSON file")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    digests = {}
    for seed in _seeds(args.seeds):
        result, digest, took = run_once(args.workload, seed, seconds)
        digests[str(seed)] = digest
        print(f"seed {seed} ({took:.1f} s): correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    for name, vals in values.items():
        q1, q2, q3 = quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        summary[name] = {"unit": units[name], "median": median(vals), "q1": q1,
                         "q3": q3, "spread": spread}
        limit = f"bound {bound}, a third {bound / 3:.4f}" if bound else "no bound"
        print(f"{name:28s} median {q2:12.6g} {units[name]:6s} spread {spread:7.4f}  ({limit})")

    if args.save:
        path = Path(args.save)
        saved = json.loads(path.read_text()) if path.exists() else {}
        saved.setdefault("workloads", {})[args.workload] = summary
        saved.setdefault("digests", {})[args.workload] = digests
        path.write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
