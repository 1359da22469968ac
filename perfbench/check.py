"""Output checker.  It runs outside the timed region.

Every property is checked with the benchmark's own arithmetic
(``perfbench.algebra``), never with the package's kernel:

* every streamed member satisfies the requested equations (AXA = A for
  spec 1, XAX = X for spec 2, both for 12), has the requested rank and only
  population entries;
* each stream is in strict odometer order and its ``count:`` record equals
  its length;
* a count-only task agrees with its streaming twin, and a structured input
  matches the closed form the generator computed with ``math.comb``;
* a task exits with a code it allows; theorem tasks that exit 0 print a
  ``theorem_id:`` line, and no task prints a traceback;
* ``verify`` prints JSON with ``ok: true`` whose only discrepancies are the
  documented known gaps.

``check_task`` returns a list of problems; an empty list means the output
passed.  ``PassChecker`` checks a pass task by task as the outputs arrive,
and reads each stream one member at a time, so the checker holds no
output longer than its task and no stream as a whole.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

from perfbench.algebra import Rows, mul, rank
from perfbench.workloads import Task

#: The two documented gaps of the column-scaled rank-one outer families.
KNOWN_GAP_IDS = frozenset({"Thm5.19", "OuterRank1FullRowRank"})


@dataclass
class Outcome:
    """What one ``cli.main`` call returned or raised."""

    exit_code: Optional[int]
    stdout: str
    stderr: str
    error: str = ""  # formatted traceback when the call raised


_LINE = re.compile(r"[^\n]*\n")
_HEADER = ("theorem_id: ", "note: ")


class Stream:
    """One ``inverses`` output, read lazily so that checking a long stream
    holds one member at a time.  ``header`` is read at once; ``count``,
    ``length`` and ``problems`` are complete once ``members()`` has been
    run to the end."""

    def __init__(self, stdout: str):
        self.problems: list[str] = []
        if not stdout.endswith("\n"):
            self.problems.append("output does not end with a newline")
        self._lines = (m.group()[:-1] for m in _LINE.finditer(stdout))
        self.header: list[str] = []
        self._first: list[str] = []  # the first line after the header
        for line in self._lines:
            if not line.startswith(_HEADER):
                self._first.append(line)
                break
            self.header.append(line)
        self.count: Optional[int] = None
        self.length = 0

    def members(self) -> Iterator[Rows]:
        seen_count = False
        rows: list[tuple[int, ...]] = []
        for line in chain(self._first, self._lines):
            if seen_count:
                self.problems.append("text after the count record")
                return
            if line.startswith("count: "):
                seen_count = True
                try:
                    self.count = int(line[len("count: "):])
                except ValueError:
                    self.problems.append("count record is not an integer")
            elif line == "":
                if not rows:
                    self.problems.append("empty member")
                self.length += 1
                yield tuple(rows)
                rows = []
            else:
                try:
                    rows.append(tuple(int(tok) for tok in line.split(" ")))
                except ValueError:
                    self.problems.append(f"malformed row {line!r}")
                    return
        if rows:
            self.problems.append("last member is not followed by a blank line")
        if not seen_count:
            self.problems.append("no count record")


def _check_members(task: Task, members: Iterable[Rows]) -> list[str]:
    a = task.matrix
    shape = (len(a[0]), len(a))
    pop = set(task.population)
    previous = None
    for idx, x in enumerate(members):
        where = f"member {idx}"
        if len(x) != shape[0] or any(len(r) != shape[1] for r in x):
            return [f"{where} is not {shape[0]}x{shape[1]}"]
        flat = tuple(e for r in x for e in r)
        if previous is not None and flat <= previous:
            return [f"{where} breaks strict odometer order"]
        previous = flat
        if not pop.issuperset(flat):
            return [f"{where} has an entry outside the population"]
        if "1" in task.spec and mul(mul(a, x), a) != a:
            return [f"{where} fails AXA = A"]
        if "2" in task.spec and mul(mul(x, a), x) != x:
            return [f"{where} fails XAX = X"]
        if task.rank is not None and rank(x) != task.rank:
            return [f"{where} does not have rank {task.rank}"]
    return []


def _check_verify(task: Task, out: Outcome) -> list[str]:
    try:
        payload = json.loads(out.stdout)
    except ValueError:
        return ["verify output is not JSON"]
    problems = []
    if payload.get("ok") is not True:
        problems.append("verify reports ok != true")
    outcomes = payload.get("outcomes") or []
    if [o.get("suite") for o in outcomes] != [task.suite]:
        problems.append(f"verify ran suites {[o.get('suite') for o in outcomes]}")
    for o in outcomes:
        if not o.get("cases_run"):
            problems.append("verify ran no cases")
        for d in o.get("discrepancies", []):
            if d.get("theorem_id") not in KNOWN_GAP_IDS or not d.get("known_gap"):
                problems.append(f"unexpected discrepancy {d.get('theorem_id')}")
    return problems


def verify_cases(out: Outcome) -> int:
    """Total ``cases_run`` of a verify output, 0 when it does not parse."""
    try:
        payload = json.loads(out.stdout)
    except ValueError:
        return 0
    return sum(o.get("cases_run", 0) for o in payload.get("outcomes", []))


def _check(task: Task, out: Outcome, twin_count: Optional[int]):
    """(problems, the output read as a Stream or None)."""
    if out.error:
        return ["raised: " + out.error.strip().splitlines()[-1]], None
    problems = []
    if "Traceback" in out.stderr or "Traceback" in out.stdout:
        problems.append("printed a traceback")
    if out.exit_code not in task.exits:
        problems.append(f"exit code {out.exit_code}, expected one of {task.exits}")
        return problems, None
    if task.kind == "verify":
        return problems + _check_verify(task, out), None
    if out.exit_code != 0:
        # theorem mode's unsupported-shape exit: a reason, no stream
        if out.stdout or "detected class" not in out.stderr:
            problems.append("unsupported-shape exit without the class report")
        return problems, None
    stream = Stream(out.stdout)
    header = stream.header
    if task.kind == "theorem" and not (header and header[0].startswith("theorem_id: ")
                                       and len(header[0]) > len("theorem_id: ")):
        problems.append("no theorem_id line")
    if task.kind == "oracle" and header:
        problems.append("oracle output has header lines")
    members = stream.members()
    if not task.count_only:
        problems += _check_members(task, members)
    for _ in members:  # read to the end, for the count and the length
        pass
    problems += stream.problems
    count = stream.count
    if task.count_only:
        if stream.length:
            problems.append("count-only task streamed members")
    elif count != stream.length:
        problems.append(f"count record {count} != {stream.length} members")
    if task.expect_count is not None and count != task.expect_count:
        problems.append(f"count {count} != closed form {task.expect_count}")
    if task.twin is not None and count != twin_count:
        problems.append(f"count {count} != streaming twin's {twin_count}")
    return problems, stream


def check_task(task: Task, out: Outcome, twin_count: Optional[int] = None) -> list[str]:
    """Problems with one task's output; ``twin_count`` is the stream length
    of the task's streaming twin, when it has one."""
    return _check(task, out, twin_count)[0]


class PassChecker:
    """Checks one pass as its outputs arrive, so that no output outlives
    its task.  It keeps the problems per task name, and per task the
    ``count:`` record of a stream that exited 0 (``counts``, None for other
    tasks) and the ``cases_run`` of a verify run (``cases``, else 0).  A count-only task is
    compared with the length of its streaming twin, which comes earlier in
    the task list."""

    def __init__(self, tasks: list[Task]):
        self.tasks = tasks
        self.problems: dict[str, list[str]] = {}
        self.counts: list[Optional[int]] = []
        self.cases: list[int] = []
        self._twins = {t.twin for t in tasks if t.twin}
        self._lengths: dict[str, int] = {}

    def add(self, out: Outcome) -> None:
        task = self.tasks[len(self.counts)]
        problems, stream = _check(task, out, self._lengths.get(task.twin))
        if problems:
            self.problems[task.name] = problems
        if stream is not None and task.name in self._twins:
            self._lengths[task.name] = stream.length
        self.counts.append(stream.count if stream is not None and task.streams else None)
        self.cases.append(verify_cases(out) if task.kind == "verify" else 0)


def check_all(tasks: list[Task], outcomes: Iterable[Outcome]) -> dict[str, list[str]]:
    """Problems per task name, for tasks that have any."""
    checker = PassChecker(tasks)
    for out in outcomes:
        checker.add(out)
    return checker.problems
