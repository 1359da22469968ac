#!/usr/bin/env python3
"""Digest the `bohemian inverses` output of every small input.

Runs `bohemian.cli.main` in-process on every nonzero ternary A of at most
--max-cells cells (default 6), once per argv variant below, in oracle and
in theorem mode.  Each case contributes its argv, exit code, stdout and
stderr to one sha256 per mode.  It prints the case count and the two
digests, so running it on two checkouts shows whether a change kept every
output byte for byte:

    python3 scripts/stream_digest.py [--max-cells N]

The package is imported from the `src/` directory next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bohemian.cli import BUDGET_ENV, main as cli_main  # noqa: E402

#: Populations starting with a negative value are written `--population=-1,0`:
#: argparse reads a separate `-1,0` as an option, not as the flag's value.
VARIANTS = (
    ("--spec", "1"),
    ("--spec", "2"),
    ("--spec", "12"),
    ("--spec", "2", "--rank", "1"),
    ("--spec", "2", "--rank", "2"),
    ("--spec", "12", "--rank", "1"),
    ("--spec", "1", "--population=0,1"),
    ("--spec", "1", "--population=-1,0", "--rank", "1"),
    ("--spec", "2", "--population=-1,0"),
    ("--spec", "1", "--count-only"),
    ("--spec", "2", "--count-only", "--rank", "1"),
)
MODES = ("oracle", "theorem")


def inputs(max_cells: int):
    """The text of every nonzero ternary matrix of at most ``max_cells``
    cells, by shape and then in odometer order."""
    for cells in range(1, max_cells + 1):
        for rows in range(1, cells + 1):
            if cells % rows:
                continue
            cols = cells // rows
            for ent in product((-1, 0, 1), repeat=cells):
                if any(ent):
                    text = "".join(
                        " ".join(map(str, ent[i:i + cols])) + "\n"
                        for i in range(0, cells, cols)
                    )
                    yield text


def run(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"{argv[2:]}\0{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-cells", type=int, default=6)
    args = ap.parse_args()
    os.environ.pop(BUDGET_ENV, None)

    digests = {mode: hashlib.sha256() for mode in MODES}
    cases = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.txt")
        for text in inputs(args.max_cells):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for variant in VARIANTS:
                for mode in MODES:
                    argv = ["inverses", path, *variant, "--mode", mode]
                    digests[mode].update(text.encode() + run(argv))
                    cases += 1
    print(f"cases: {cases}")
    for mode in MODES:
        print(f"{mode}: {digests[mode].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
