"""Seeded task lists for the three workloads.

A task is one ``bohemian`` command line plus what the checker needs to
judge its output.  ``build(workload, seed)`` draws every random choice from
``random.Random(seed)``, so one seed always gives the same matrices and the
same argv.  ``write_inputs`` writes the matrix files in the package's text
format; the program receives only those files and the argv.

Random choices are limited to ones that leave a task's cost unchanged:
signs, signed row and column permutations, entries of full-rank matrices
for the scan, and block widths where the member count does not depend on
them (or the stream is small).  Shapes and member counts of the heavy tasks
are fixed, so runs on different seeds do the same amount of work.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

from perfbench.algebra import Rows, count_sum_t, rank

WORKLOADS = ("census", "theorem", "verify")
#: Seconds one pass over each task list takes, the median over ten runs on a
#: 2-vCPU x86-64 virtual machine with Python 3.11.  ``--seconds`` buys one
#: timed pass per this many seconds, so a run measures for about
#: ``--seconds``; the pass count is fixed per workload and ``--seconds``, so
#: every run's percentiles sit at the same sample rank.
PASS_SECONDS = {"census": 7.2, "theorem": 4.3, "verify": 4.3}
TERNARY = (-1, 0, 1)
#: The package default; passed explicitly so an environment override cannot
#: change what is measured.
ORACLE_BUDGET = 16
#: verify budget 8 takes about ten times as long as 7, almost all of it in
#: the 2x2 signed-permutation sweep of the core suite.
VERIFY_BUDGET = 7
VERIFY_SUITES = ("core", "inner", "outer", "counts")


@dataclass(frozen=True)
class Task:
    name: str
    kind: str  # "oracle", "theorem" or "verify"
    matrix: Optional[Rows] = None
    spec: str = ""
    rank: Optional[int] = None
    population: tuple[int, ...] = TERNARY
    count_only: bool = False
    #: count the benchmark derived itself, or None when it has no closed form
    expect_count: Optional[int] = None
    #: the streaming task whose count this count-only task must equal
    twin: Optional[str] = None
    #: exit codes the checker accepts
    exits: tuple[int, ...] = (0,)
    suite: str = ""

    @property
    def streams(self) -> bool:
        return self.kind != "verify" and not self.count_only

    @property
    def candidates(self) -> int:
        """Candidates an oracle scan visits: |population| ** cells."""
        if self.kind != "oracle":
            return 0
        return len(self.population) ** (len(self.matrix) * len(self.matrix[0]))

    def argv(self, input_dir: str) -> list[str]:
        if self.kind == "verify":
            return ["verify", "--suite", self.suite, "--budget", str(VERIFY_BUDGET),
                    "--allow-known-gaps"]
        argv = ["inverses", os.path.join(input_dir, self.name + ".txt"),
                "--spec", self.spec, "--budget", str(ORACLE_BUDGET)]
        if self.kind == "theorem":
            argv += ["--mode", "theorem"]
        if self.rank is not None:
            argv += ["--rank", str(self.rank)]
        if self.count_only:
            argv.append("--count-only")
        if self.population != TERNARY:
            argv += ["--population", ",".join(map(str, self.population))]
        return argv


def matrix_text(rows: Rows) -> str:
    return "".join(" ".join(map(str, r)) + "\n" for r in rows)


def write_inputs(tasks: list[Task], input_dir: str) -> None:
    for t in tasks:
        if t.matrix is not None:
            with open(os.path.join(input_dir, t.name + ".txt"), "w", encoding="utf-8") as fh:
                fh.write(matrix_text(t.matrix))


def build(workload: str, seed: int) -> list[Task]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "verify":
        return [Task(f"verify-{s}", "verify", suite=s) for s in VERIFY_SUITES]
    gen = _Gen(random.Random(seed))
    return gen.census() if workload == "census" else gen.theorem()


# ---------------------------------------------------------------------------
# matrix builders


def ones(m: int, n: int, sign: int = 1) -> Rows:
    return tuple((sign,) * n for _ in range(m))


def _runs(*parts: tuple[int, int]) -> tuple[int, ...]:
    """A row made of (value, width) runs."""
    return tuple(v for v, w in parts for _ in range(w))


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tasks: list[Task] = []

    def add(self, label: str, kind: str, matrix: Rows, spec: str, **kw) -> str:
        name = f"{len(self.tasks) + 1:02d}-{label}"
        self.tasks.append(Task(name, kind, matrix, spec, **kw))
        return name

    def sign(self) -> int:
        return self.rng.choice((1, -1))

    def full_rank(self, m: int, n: int) -> Rows:
        while True:
            rows = tuple(
                tuple(self.rng.choice(TERNARY) for _ in range(n)) for _ in range(m)
            )
            if rank(rows) == min(m, n):
                return rows

    def signed_perms(self, rows: Rows) -> Rows:
        """U @ rows @ V for random signed permutations U and V."""
        m, n = len(rows), len(rows[0])
        rperm = self.rng.sample(range(m), m)
        cperm = self.rng.sample(range(n), n)
        rs = [self.sign() for _ in range(m)]
        cs = [self.sign() for _ in range(n)]
        return tuple(
            tuple(rs[i] * cs[j] * rows[rperm[i]][cperm[j]] for j in range(n))
            for i in range(m)
        )

    # -- census: literal oracle scans ------------------------------------

    def census(self) -> list[Task]:
        add = self.add
        a = self.full_rank(3, 3)
        first = add("random-3x3-spec1", "oracle", a, "1")
        add("random-3x3-spec1-count", "oracle", a, "1", count_only=True, twin=first)
        add("random-3x3-spec2", "oracle", self.full_rank(3, 3), "2")
        add("random-2x4-spec1", "oracle", self.full_rank(2, 4), "1")
        add("random-4x2-spec2-rank1", "oracle", self.full_rank(4, 2), "2", rank=1)
        a = self.full_rank(2, 5)
        first = add("random-2x5-spec1", "oracle", a, "1")
        add("random-2x5-spec1-count", "oracle", a, "1", count_only=True, twin=first)
        add("random-5x2-spec2", "oracle", self.full_rank(5, 2), "2")
        add("random-2x5-spec12-rank2", "oracle", self.full_rank(2, 5), "12", rank=2)
        add("random-3x3-spec2-pop01", "oracle", self.full_rank(3, 3), "2",
            population=(0, 1))
        add("random-2x5-spec1-pop01", "oracle", self.full_rank(2, 5), "1",
            population=(0, 1))

        # structured inputs with closed-form counts
        add("ones-3x3-spec1", "oracle", ones(3, 3, self.sign()), "1",
            expect_count=count_sum_t(9, 1))
        add("ones-2x4-spec2-pop01", "oracle", ones(2, 4), "2", population=(0, 1),
            expect_count=2 * 4 + 1)
        add("ones-3x3-spec2-rank1", "oracle", ones(3, 3, self.sign()), "2", rank=1,
            expect_count=count_sum_t(3, 1) ** 2)
        # diag(1, 1, 0): the leading 2x2 block of X is I2 and the rest is free
        ident = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
        add("identity-like-3x3-spec1", "oracle", self.signed_perms(ident), "1",
            expect_count=3 ** 5)
        # block-diagonal ones rows: block sums of X form the identity.  Ten
        # cells, so five tasks sit above the 3x3 scans and five below, and
        # the median latency falls in the middle of the 3x3 group.
        n1 = self.rng.randint(1, 4)
        n2 = 5 - n1
        rows = (_runs((1, n1), (0, n2)), _runs((0, n1), (1, n2)))
        add("full-row-rank-2x5-spec1", "oracle", rows, "1",
            expect_count=count_sum_t(n1, 1) * count_sum_t(n2, 1)
            * count_sum_t(n1, 0) * count_sum_t(n2, 0))
        return self.tasks

    # -- theorem: dispatch, constraint-guided enumeration, materialization

    def theorem(self) -> list[Task]:
        add = self.add
        rng = self.rng
        th = "theorem"

        # full shapes; inner streams of 10^4 to 10^5 members
        add("typeI-3x4-spec1", th, ones(3, 4, self.sign()), "1",
            expect_count=count_sum_t(12, 1))
        add("typeI-4x5-spec1-count", th, ones(4, 5, self.sign()), "1",
            count_only=True, expect_count=count_sum_t(20, 1))
        # negating the second block's rows maps every split to the same count
        n1, s = rng.randint(1, 4), self.sign()
        type2 = tuple(_runs((s, n1), (-s, 5 - n1)) for _ in range(2))
        first = add("typeII-2x5-spec1", th, type2, "1", expect_count=count_sum_t(10, 1))
        add("typeII-2x5-spec1-count", th, type2, "1", count_only=True, twin=first,
            expect_count=count_sum_t(10, 1))
        add("typeII-2x5-spec1-rank1", th, type2, "1", rank=1)
        # one row of seven: 2 or 3 leading nonzero columns both give 486
        n1 = rng.randint(2, 3)
        add("typeIII-1x7-spec1", th, (_runs((self.sign(), n1), (0, 7 - n1)),), "1",
            expect_count=count_sum_t(n1, 1) * 3 ** (7 - n1))
        n1 = rng.randint(1, 11)
        s = self.sign()
        add("typeIII-2x12-spec1-count", th, tuple(_runs((s, n1), (0, 12 - n1)) for _ in range(2)),
            "1", count_only=True, expect_count=count_sum_t(2 * n1, 1) * 3 ** (2 * (12 - n1)))
        n1 = rng.randint(1, 2)
        n2 = rng.randint(1, 3 - n1)
        s = self.sign()
        add("typeIV-1x7-spec1", th, (_runs((s, n1), (-s, n2), (0, 7 - n1 - n2)),), "1",
            expect_count=count_sum_t(n1 + n2, 1) * 3 ** (7 - n1 - n2))

        # canonical rank-two layouts S1 to S4 (literal, so no permutations)
        s1 = (_runs((1, 4)), _runs((1, 2), (-1, 2)))
        add("S1-spec1", th, s1[:1] * rng.randint(1, 2) + s1[1:] * rng.randint(1, 2), "1")
        # widths of five columns: (1, 3) and (2, 1) both give 156 inner
        # inverses, and widening the first or second S3 block both give 100
        a, c = rng.choice(((1, 3), (2, 1)))
        s2 = (_runs((1, 2 * a + c)), _runs((1, a), (-1, a), (0, c)))
        add("S2-spec1", th, s2, "1")
        w = [1, 1, 1, 1]
        w[rng.randrange(2)] = 2
        s3 = (_runs((1, w[0] + w[1] + w[2]), (0, w[3])),
              _runs((1, w[0]), (-1, w[1]), (0, w[2]), (1, w[3])))
        add("S3-spec1", th, s3, "1")
        a = rng.randint(2, 3)  # 397 outer inverses either way
        s4 = (_runs((1, a), (0, 5 - a)), _runs((0, a), (1, 5 - a)))

        # mutually orthogonal rank-one row blocks, behind a signed column
        # permutation (which keeps them orthogonal).  Two of them, so the
        # second-heaviest tasks cost the same and the tail sample (the 11th
        # largest latency of a run) falls inside their group.
        base = ((1, 1, 1, 0, 0), (-1, -1, -1, 0, 0), (1, -1, 0, 1, 0), (0, 0, 0, 0, 1))
        add("orthogonal-stack-4x5-spec1", th, self._columns_only(base), "1")
        add("orthogonal-stack-4x5-spec1-b", th, self._columns_only(base), "1")

        # full row rank with no two rows orthogonal, so theorem mode reaches
        # its full-row-rank branch: the canonical layouts and the orthogonal
        # stacks it tries first all have orthogonal rows
        frr = self.signed_perms(((1, 1, 0, 1, -1), (0, 1, 1, 1, 1)))
        add("full-row-rank-2x5-spec1", th, frr, "1")

        # rank one behind random signed permutations
        core = ((1, 1, 1, 0, 0), (1, 1, 1, 0, 0))
        add("rank1-2x5-spec1", th, self.signed_perms(core), "1",
            expect_count=count_sum_t(6, 1) * 3 ** 4)
        core = ((1, 1, 0), (1, 1, 0), (0, 0, 0))
        add("rank1-3x3-spec1", th, self.signed_perms(core), "1",
            expect_count=count_sum_t(4, 1) * 3 ** 5)
        rank2 = self.signed_perms(((1, 0, 1), (0, 1, -1), (1, 1, 0)))
        add("rank2-3x3-spec1-unsupported", th, rank2, "1", exits=(0, 3))

        # outer inverses, every branch of the dispatch
        r1 = self.signed_perms(((1, 1, 1, 0),) * 3 + ((0,) * 4,))
        add("rank1-4x4-spec2", th, r1, "2",
            expect_count=count_sum_t(3, 1) * 3 * count_sum_t(3, 1) * 3 + 1)
        add("S4-spec2", th, s4, "2")
        add("S1-spec2", th, s1, "2")
        add("S2-spec2", th, s2, "2")
        add("S3-spec2", th, s3, "2")
        add("full-row-rank-2x5-spec2", th, frr, "2")
        add("full-row-rank-2x5-spec2-rank0", th, frr, "2", rank=0)
        add("full-row-rank-2x5-spec2-rank1", th, frr, "2", rank=1)
        add("rank2-3x3-spec2-rank1", th, rank2, "2", rank=1)
        add("S3-spec2-rank2", th, s3, "2", rank=2)
        add("full-row-rank-2x5-spec2-rank2", th, frr, "2", rank=2)
        add("rank2-3x3-spec2-unsupported", th, rank2, "2", exits=(0, 3))
        add("full-row-rank-3x4-spec2-rank2-unsupported", th,
            self.signed_perms(((1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1))), "2", rank=2,
            exits=(0, 3))

        # reflexive inverses
        r1 = self.signed_perms(core)
        add("rank1-3x3-spec12", th, r1, "12",
            expect_count=count_sum_t(2, 1) * 3 * count_sum_t(2, 1) * 3)
        add("rank1-3x3-spec12-rank1", th, r1, "12", rank=1,
            expect_count=count_sum_t(2, 1) * 3 * count_sum_t(2, 1) * 3)
        add("full-row-rank-2x5-spec12", th, frr, "12")
        add("rank2-3x3-spec12-unsupported", th, rank2, "12", exits=(0, 3))
        return self.tasks

    def _columns_only(self, rows: Rows) -> Rows:
        n = len(rows[0])
        cperm = self.rng.sample(range(n), n)
        cs = [self.sign() for _ in range(n)]
        return tuple(tuple(cs[j] * r[cperm[j]] for j in range(n)) for r in rows)
