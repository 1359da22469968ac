"""Benchmark of the ``bohemian`` command: seeded workloads run in-process
through ``bohemian.cli.main``, an independent output checker, and a tracer
that times each package module.  Run ``python3 perfbench/run.py --help``."""
