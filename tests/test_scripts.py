from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


class TestGapReport:
    def test_max_n_4_rows(self):
        out = run_script("gap_report.py", "--max-n", "4")
        assert out == (
            "n1,n2,formula,union_members,census,missing,all_zero_first_column\n"
            "1,1,9,9,12,3,True\n"
            "1,2,28,28,34,6,True\n"
            "2,1,25,25,34,9,True\n"
            "1,3,102,102,120,18,True\n"
            "2,2,87,87,105,18,True\n"
            "3,1,93,93,120,27,True\n"
        )
        header, *rows = out.splitlines()
        assert len(rows) == 6
        for row in rows:
            n1, n2, formula, union, census, missing, structural = row.split(",")
            assert union == formula
            assert int(missing) == int(census) - int(union)
            assert structural == "True"


class TestStreamDigest:
    def test_max_cells_4_digests(self):
        # every `bohemian inverses` output on inputs of at most 4 cells, in
        # oracle and theorem mode, pinned byte for byte through its sha256
        out = run_script("stream_digest.py", "--max-cells", "4")
        assert out == (
            "cases: 6820\n"
            "oracle: 735a01642e487c63a66ec5c3020c1d9df8f2c382350c0fa5f54d62b9f342774c\n"
            "theorem: 7a3820d5a8b90240c2e8a0eb627a68c3d2d5d6d6b2e3daf58850f6dbaf1a518b\n"
        )


class TestCountTables:
    def test_census_column_matches_formulas(self):
        # every census cell the 9-cell budget fills equals the formula value
        out = run_script("count_tables.py", "--max-cells", "9")
        header, *rows = out.splitlines()
        assert header == "formula_id,params,value,method,census"
        filled = []
        for row in rows:
            formula, params, value, method, census = row.split(",")
            assert method == "closed_form"
            if census:
                filled.append((formula, params))
                assert census == value, row
        assert len(filled) == 49
        assert {f for f, _ in filled} == {"inner_type_I", "outer_type_I", "outer_type_III"}
