from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohemian import census as cs
from bohemian import counting as ct
from bohemian.cli import main
from bohemian.matrices import TernaryMatrix, parse_matrix, serialize_matrix, zeros


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: formula, arguments, sha256 of the `count --json` stdout, and the CSV row
#: of `count`; the rows are RFC 4180, so only a field with a comma is quoted
COUNT_PINS = [
    ("count_sum_t", "--n 60 --t -7",
     "1e38cb2e88ffc483d4f9d2198546a53d391e95ce01712b278966082189db5a15",
     "count_sum_t,n=60 t=-7,1453566449623793033553715080,closed_form"),
    ("inner_type_I", "--m 2 --n 3",
     "145097fa33c548305794dd3f402e5f22b92b47611f675a68e91d7c1193b4fddc",
     "inner_type_I,m=2 n=3,126,closed_form"),
    ("outer_type_I", "--m 2 --n 2 --include-zero",
     "b2677cabc6c4443b579baf466b4fbe6a93d74edffe3a37ac7a5520b9d32872b5",
     "outer_type_I,include_zero=True m=2 n=2,5,closed_form"),
    ("outer_type_III", "--m 2 --n1 2 --n2 1 --include-zero",
     "3476a2ad0d4d3d83d18e8b439628e1bdf2b6163cf9d09de908e7b4fdee67fa00",
     "outer_type_III,include_zero=True m=2 n1=2 n2=1,13,closed_form"),
    ("natural_pop", "--m 2 --n 3 --zero-in-pop",
     "1c1d6cdfccf902ea57f344e81821eb3dbd460b4ce1b6b7fd984bd3aff1788a64",
     "natural_pop,m=2 n=3 zero_in_pop=True,7,closed_form"),
    ("outer_S4", "--n1 2 --n2 3",
     "9bf35a5eef04be68d3bc45e65486723f0497341c3e7555f19f998109327e1d2d",
     "outer_S4,n1=2 n2=3,397,closed_form"),
    ("inner_pure_ws", "--dims 1x2,2x1",
     "1016a58edb252604cf8e1f76f9b1f3c757c5a50db7eeeee851324430c914b7f2",
     'inner_pure_ws,"dims=((1, 2), (2, 1))",76,closed_form'),
]

GWS_EXAMPLE = "1 -1 0 0\n-1 1 0 0\n0 0 1 -1\n"
STAR = "1 -1 0 0 0\n1 0 -1 0 0\n1 0 0 0 -1\n1 0 0 -1 0\n"


class TestClassify:
    def test_gws_example(self, capsys, write):
        code, out, _ = run(capsys, "classify", write("a.txt", GWS_EXAMPLE))
        assert code == 0
        data = json.loads(out)
        assert data["is_generalized_well_settled"] is True
        assert data["is_well_settled"] is False

    def test_all_ones(self, capsys, write):
        code, out, _ = run(capsys, "classify", write("a.txt", "1 1 1\n1 1 1\n"))
        data = json.loads(out)
        assert data["full_form"]["kind"] == "TypeI"
        assert data["rank"] == 1

    def test_dense_class_two(self, capsys, write):
        code, out, _ = run(
            capsys, "classify", write("a.txt", "1 1 1\n1 -1 -1\n1 -1 -1\n")
        )
        data = json.loads(out)
        assert data["is_class_II"] is True
        assert data["is_class_III"] is False

    def test_parse_error_exit_two(self, capsys, write):
        code, _, err = run(capsys, "classify", write("a.txt", "1 2\n"))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exit_two(self, capsys):
        code, out, err = run(capsys, "classify", "/nonexistent/path.txt")
        assert code == 2 and out == ""
        assert err == "cannot read /nonexistent/path.txt: No such file or directory\n"

    def test_unreadable_file_has_no_fake_location(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path))
        assert code == 2
        assert err.startswith(f"cannot read {tmp_path}: ")
        binary = tmp_path / "a.bin"
        binary.write_bytes(b"\xff\xfe\x00")
        code, _, err = run(capsys, "classify", str(binary))
        assert code == 2
        assert err == f"cannot read {binary}: not UTF-8 text\n"


class TestInverses:
    def test_oracle_stream_and_count(self, capsys, write):
        code, out, _ = run(
            capsys, "inverses", write("a.txt", "1 -1\n"), "--spec", "1"
        )
        assert code == 0
        assert out == "0\n-1\n\n1\n0\n\ncount: 2\n"

    def test_count_only(self, capsys, write):
        code, out, _ = run(
            capsys,
            "inverses",
            write("a.txt", "1 1\n1 1\n"),
            "--spec",
            "2",
            "--count-only",
        )
        assert out.strip() == "count: 5"

    def test_theorem_mode_star_graph(self, capsys, write):
        code, out, _ = run(
            capsys,
            "inverses",
            write("a.txt", STAR),
            "--spec",
            "12",
            "--mode",
            "theorem",
        )
        assert code == 0
        assert out.startswith("theorem_id: Thm5.16")
        assert out.strip().endswith("count: 16")
        body = "\n".join(
            line
            for line in out.splitlines()
            if not line.startswith(("theorem_id:", "note:", "count:"))
        )
        matrices = [parse_matrix(chunk) for chunk in body.split("\n\n") if chunk.strip()]
        assert len(matrices) == 16

    def test_theorem_mode_matches_oracle(self, capsys, write):
        path = write("a.txt", "1 1 1\n1 -1 0\n")
        _, thm_out, _ = run(
            capsys, "inverses", path, "--spec", "1", "--mode", "theorem"
        )
        _, orc_out, _ = run(capsys, "inverses", path, "--spec", "1")
        thm_body = thm_out.split("\n", 1)[1]
        assert sorted(thm_body.split("\n\n")) == sorted(orc_out.split("\n\n"))

    def test_theorem_mode_unsupported_exit_three(self, capsys, write):
        # rank-deficient, not rank one, not a canonical layout
        path = write("a.txt", "1 1\n1 0\n0 1\n")
        code, _, err = run(capsys, "inverses", path, "--spec", "2", "--mode", "theorem")
        assert code == 3
        assert "detected class" in err
        # the class report is one line with its keys in field order
        path = write("b.txt", "1 1 1\n1 -1 -1\n1 -1 -1\n")
        code, out, err = run(capsys, "inverses", path, "--spec", "2", "--mode", "theorem")
        assert (code, out) == (3, "")
        assert err == (
            "full outer sets are characterized only for rank-one matrices and "
            'full-row-rank two-row layouts; detected class: {"rank": 2, '
            '"full_form": null, "is_rank_one": false, "is_well_settled": false, '
            '"is_generalized_well_settled": false, "is_class_I": false, '
            '"is_class_II": true, "is_class_III": false, '
            '"is_class_II_columnwise": true, "terms": [[[1, 0, 0], [1, 1, 1]], '
            '[[0, 1, 1], [1, -1, -1]]], "s_structure": null}\n'
        )

    def test_budget_exit_four(self, capsys, write):
        path = write("a.txt", "1 1 1 1 1\n")
        code, _, err = run(
            capsys, "inverses", path, "--spec", "1", "--budget", "4"
        )
        assert code == 4
        assert err == (
            "enumeration of 5 cells (3^5 = 243 candidates) exceeds the budget of 4\n"
        )
        path = write("b.txt", "1 1 1 1 1\n" * 4)
        code, out, err = run(capsys, "inverses", path, "--spec", "1")
        assert code == 4 and out == ""
        assert err == (
            "enumeration of 20 cells (3^20 = 3486784401 candidates) "
            "exceeds the budget of 16\n"
        )
        code, _, err = run(
            capsys, "inverses", path, "--spec", "2", "--population", "0,1",
            "--budget", "19",
        )
        assert code == 4
        assert err == (
            "enumeration of 20 cells (2^20 = 1048576 candidates) "
            "exceeds the budget of 19\n"
        )

    def test_theorem_stream_past_member_cap_exit_four(self, capsys, write):
        # ones(5, 5) has 79,818,194,925 inner inverses; the count of its
        # completion tables refuses the stream before any member is built
        path = write("ones.txt", "1 1 1 1 1\n" * 5)
        start = time.perf_counter()
        code, out, err = run(capsys, "inverses", path, "--spec", "1", "--mode", "theorem")
        assert time.perf_counter() - start < 10
        assert code == 4 and out == ""
        assert err == (
            f"a stream of 79818194925 members exceeds the member cap of {cs.MEMBER_CAP}\n")
        code, out, err = run(
            capsys, "inverses", path, "--spec", "1", "--mode", "theorem", "--count-only")
        assert (code, out, err) == (0, "theorem_id: InnerTypeI\ncount: 79818194925\n", "")

    def test_rank_filtered_walk_past_member_cap_exit_four(self, capsys, write):
        # X's sum is 1 for ones(6, 6), so every filling of X's first three
        # rows but the all -1 one is a live prefix: 3^18 - 1 of them, counted
        # on residual tallies and refused before any prefix is built
        path = write("ones.txt", "1 1 1 1 1 1\n" * 6)
        argv = ("inverses", path, "--spec", "1", "--mode", "theorem", "--rank", "1")
        for extra in ((), ("--count-only",)):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv, *extra)
            assert time.perf_counter() - start < 10
            assert (code, out) == (4, ""), extra
            assert err == (f"a rank-filtered walk of 387420488 prefixes exceeds the "
                           f"member cap of {cs.MEMBER_CAP}\n")

    def test_member_cap_reads_the_rank_filtered_count(self, capsys, write, monkeypatch):
        # the type-II 2x5 A has 8,350 inner inverses, 90 of them of rank 1
        monkeypatch.setattr(cs, "MEMBER_CAP", 100)
        path = write("a.txt", "1 1 -1 -1 -1\n1 1 -1 -1 -1\n")
        argv = ("inverses", path, "--spec", "1", "--mode", "theorem")
        code, out, err = run(capsys, *argv, "--rank", "1")
        assert code == 0 and out.endswith("\ncount: 90\n") and err == ""
        for extra, count in [((), 8350), (("--rank", "2"), 8260)]:
            code, out, err = run(capsys, *argv, *extra)
            assert code == 4 and out == ""
            assert err == f"a stream of {count} members exceeds the member cap of 100\n"
            code, out, _ = run(capsys, *argv, *extra, "--count-only")
            assert code == 0 and out.endswith(f"\ncount: {count}\n")

    @pytest.mark.parametrize(
        "raw, reason",
        [
            ("", "expected comma-separated integers"),
            ("0,0", "population values must be strictly increasing"),
            ("a", "expected comma-separated integers"),
            ("1,,2", "expected comma-separated integers"),
            ("0,1,2,3,4,5,6,7,8", "populations with more than 8 values are unsupported"),
        ],
    )
    def test_bad_population_has_no_fake_location(self, capsys, write, raw, reason):
        path = write("a.txt", "1 1\n")
        for mode in ("oracle", "theorem"):
            code, out, err = run(
                capsys, "inverses", path, "--spec", "1", "--mode", mode,
                "--population", raw,
            )
            assert code == 2 and out == ""
            assert err == f"bad --population {raw!r}: {reason}\n"

    def test_population_flag(self, capsys, write):
        path = write("a.txt", "1 1\n1 1\n")
        code, out, _ = run(
            capsys,
            "inverses",
            path,
            "--spec",
            "2",
            "--population",
            "0,1",
            "--count-only",
        )
        assert out.strip() == "count: 5"

    def test_theorem_mode_transport_respects_population(self, capsys, write):
        # v^T X u = 1 has a negative coefficient here, so the system on A's
        # cells, not the canonical core's, is enumerated over {0, 1}
        path = write("a.txt", "-1\n0\n")
        pop = ["--spec", "1", "--population", "0,1"]
        code, thm, _ = run(capsys, "inverses", path, *pop, "--mode", "theorem")
        assert code == 0
        assert thm.splitlines()[0] == "theorem_id: RankOneInner"
        _, orc, _ = run(capsys, "inverses", path, *pop)
        assert orc == "count: 0\n"
        assert thm.endswith(orc)
        _, thm_count, _ = run(
            capsys, "inverses", path, *pop, "--mode", "theorem", "--count-only"
        )
        assert thm_count.endswith("count: 0\n")

    def test_theorem_mode_product_factors_are_ternary(self, capsys, write):
        path = write("a.txt", "-1 -1\n")
        pop = ["--spec", "2", "--population=-1,0"]
        _, thm, _ = run(capsys, "inverses", path, *pop, "--mode", "theorem")
        _, orc, _ = run(capsys, "inverses", path, *pop)
        assert orc.endswith("count: 3\n")
        assert thm.split("\n", 2)[2] == orc

    @pytest.mark.parametrize("population", ["-1,0", "0,1", "-1,0,1"])
    @pytest.mark.parametrize("rank", [None, 1, 2])
    def test_transported_stream_is_the_oracle_stream(
        self, capsys, write, population, rank
    ):
        # a rank-one A behind signed permutations: v^T X u = 1 is written
        # on A's cells, its members are filtered by rank, and written as
        # serialize_matrix writes each oracle member
        path = write("a.txt", "0 -1 1\n0 0 0\n0 1 -1\n")
        argv = ["inverses", path, "--spec", "1", f"--population={population}"]
        if rank is not None:
            argv += ["--rank", str(rank)]
        code, out, _ = run(capsys, *argv, "--mode", "theorem")
        assert code == 0
        assert out.startswith("theorem_id: RankOneInner\n")
        oracle = cs.brute_force_inverses(
            parse_matrix("0 -1 1\n0 0 0\n0 1 -1\n"), "1",
            cs.Population(tuple(int(v) for v in population.split(","))), rank,
        )
        want = "".join(serialize_matrix(m) + "\n" for m in oracle)
        want += f"count: {oracle.count}\n"
        # compared member by member: a failing diff of the whole text is slow
        assert out.split("\n", 1)[1].split("\n\n") == want.split("\n\n")
        assert oracle.count > (0 if rank == 2 else 3)
        _, oracle_out, _ = run(capsys, *argv)
        assert oracle_out.split("\n\n") == want.split("\n\n")

    def test_theorem_mode_population_outside_ternary_exit_two(self, capsys, write):
        path = write("a.txt", "1 1\n")
        code, out, err = run(
            capsys, "inverses", path, "--spec", "1", "--mode", "theorem",
            "--population", "0,1,2",
        )
        assert code == 2 and out == ""
        assert "population" in err


class TestDecompose:
    def test_rank_one(self, capsys, write):
        code, out, _ = run(capsys, "decompose", write("a.txt", "1 -1\n-1 1\n"))
        data = json.loads(out)
        assert data["form"] == "rank1"
        assert data["zero_row_count"] == 0

    def test_gws(self, capsys, write):
        code, out, _ = run(capsys, "decompose", write("a.txt", GWS_EXAMPLE))
        data = json.loads(out)
        assert data["form"] == "gws"
        assert len(data["blocks"]) == 2

    def test_uw(self, capsys, write):
        code, out, _ = run(
            capsys,
            "decompose",
            write("a.txt", "1 1 1\n1 -1 -1\n1 -1 -1\n"),
            "--form",
            "uw",
        )
        data = json.loads(out)
        assert data["row_block_sizes"] == [1, 2]

    def test_unsupported(self, capsys, write):
        code, _, _ = run(
            capsys, "decompose", write("a.txt", "1 1\n1 0\n0 1\n")
        )
        assert code == 3

    def test_small_inputs_digest(self, capsys, tmp_path):
        # every `classify` and `decompose` output on the nonzero inputs of at
        # most 4 cells, pinned byte for byte through its sha256
        commands = (
            ("classify",),
            ("decompose", "--form", "auto"),
            ("decompose", "--form", "rank1"),
            ("decompose", "--form", "gws"),
            ("decompose", "--form", "uw"),
        )
        path = tmp_path / "a.txt"
        digest = hashlib.sha256()
        cases = 0
        for rows, cols in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]:
            for ent in product((-1, 0, 1), repeat=rows * cols):
                if not any(ent):
                    continue
                path.write_text(serialize_matrix(TernaryMatrix(rows, cols, ent)))
                for command in commands:
                    code, out, err = run(capsys, command[0], str(path), *command[1:])
                    digest.update(f"{command}\0{code}\0{out}\0{err}\0".encode())
                    cases += 1
        assert cases == 1550
        assert digest.hexdigest() == (
            "0c8c7c2737eecc24ffb1b9ba9d439685fafc0b0483395bfb427b7a1f66043e0b"
        )

    def test_zero_inputs_digest(self, capsys, tmp_path):
        # the zero inputs of at most 4 cells, which the digest above skips:
        # rank 0, block-diagonal with no blocks, so `auto` picks gws
        commands = (
            ("classify",),
            ("decompose", "--form", "rank1"),
            ("decompose", "--form", "gws"),
            ("decompose", "--form", "uw"),
        )
        path = tmp_path / "a.txt"
        digest = hashlib.sha256()
        for rows, cols in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]:
            path.write_text(serialize_matrix(zeros(rows, cols)))
            code, out, _ = run(capsys, "decompose", str(path))
            data = json.loads(out)
            assert (code, data["form"], data["blocks"]) == (0, "gws", [])
            for command in commands:
                code, out, err = run(capsys, command[0], str(path), *command[1:])
                digest.update(f"{command}\0{code}\0{out}\0{err}\0".encode())
        assert digest.hexdigest() == (
            "520388fd5b74266effccb5828a724533e6117d46325356a5cb4425fda09ada35"
        )


class TestCountAndIdentity:
    def test_count_csv(self, capsys):
        code, out, _ = run(
            capsys, "count", "--formula", "outer_type_I", "--m", "2", "--n", "2"
        )
        lines = out.strip().split("\n")
        assert lines[0] == "formula_id,params,value,method"
        assert ",4,closed_form" in lines[1]

    def test_count_json(self, capsys):
        code, out, _ = run(
            capsys,
            "count",
            "--formula",
            "natural_pop",
            "--m",
            "2",
            "--n",
            "3",
            "--zero-in-pop",
            "--json",
        )
        assert json.loads(out)["value"] == 7

    @pytest.mark.parametrize(
        "formula,argv,json_sha256,csv_row", COUNT_PINS, ids=[p[0] for p in COUNT_PINS]
    )
    def test_count_output_pinned(self, capsys, formula, argv, json_sha256, csv_row):
        argv = ["count", "--formula", formula, *argv.split()]
        code, out, _ = run(capsys, *argv, "--json")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, json_sha256)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, f"formula_id,params,value,method\n{csv_row}\n")

    def test_count_pins_cover_every_formula(self):
        assert sorted(p[0] for p in COUNT_PINS) == sorted(ct.FORMULAS)

    def test_count_dims(self, capsys):
        code, out, _ = run(
            capsys, "count", "--formula", "inner_pure_ws", "--dims", "1x2,1x1"
        )
        header, row = csv.reader(io.StringIO(out))
        assert header == ["formula_id", "params", "value", "method"]
        assert row == ["inner_pure_ws", "dims=((1, 2), (1, 1))", "6", "closed_form"]

    def test_count_missing_param(self, capsys):
        code, _, err = run(capsys, "count", "--formula", "outer_type_I", "--m", "2")
        assert code == 2

    def test_unknown_formula_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--formula", "bogus"])
        assert exc.value.code == 2

    def test_identity(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--m", "1", "--n1", "1", "--n2", "1"
        )
        assert out.strip() == "2 2 equal"

    def test_count_past_term_limit_exit_four(self, capsys):
        code, out, err = run(
            capsys, "count", "--formula", "count_sum_t", "--n", "999999999999",
            "--t", "0",
        )
        assert code == 4 and out == ""
        assert err == (
            "count_sum_t(n=999999999999, t=0) sums 1000000000000 terms, which "
            f"exceeds the limit of {ct.TERM_LIMIT}\n"
        )

    def test_identity_past_term_limit_exit_four(self, capsys):
        code, out, err = run(
            capsys, "identity", "--m", "999999999999", "--n1", "1", "--n2", "1"
        )
        assert code == 4 and out == ""
        terms = (2 * 999999999999 - 1) // 2 + 1 + (999999999999 + 1) ** 3
        assert err == (
            f"the identity check at m=999999999999, n1=1, n2=1 sums {terms} "
            f"terms, which exceeds the limit of {ct.TERM_LIMIT}\n"
        )


class TestVerifyCommand:
    def test_small_budget_all(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--budget", "6",
            "--allow-known-gaps",
        )
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert {o["suite"] for o in data["outcomes"]} == {
            "core",
            "inner",
            "outer",
            "counts",
        }
        for o in data["outcomes"]:
            assert o["cases_passed"] <= o["cases_run"]
            assert bool(o["discrepancies"]) == (o["cases_passed"] < o["cases_run"])

    def test_outer_gap_fails_without_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "outer", "--budget", "6")
        data = json.loads(out)
        assert code == 1 and data["ok"] is False
        ids = {
            d["theorem_id"]
            for o in data["outcomes"]
            for d in o["discrepancies"]
        }
        assert "Thm5.19" in ids

    def test_deterministic_rerun(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "counts", "--budget", "6")
        _, out2, _ = run(capsys, "verify", "--suite", "counts", "--budget", "6")
        assert out1 == out2

    def test_suite_choices(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "\n  --suite {core,inner,outer,counts,all}\n" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "bohemian verify: error: argument --suite: invalid choice: 'bogus' "
            "(choose from 'core', 'inner', 'outer', 'counts', 'all')\n"
        )


class TestTheoremDispatch:
    def test_inner_selection_agrees_with_census_exhaustively(self):
        from itertools import product

        from bohemian import census as cs
        from bohemian.theorems import UnsupportedShape, select_theorem
        from bohemian.matrices import TernaryMatrix

        supported = 0
        for ent in product((-1, 0, 1), repeat=6):
            a = TernaryMatrix(2, 3, ent)
            if not any(ent):
                continue
            try:
                sel = select_theorem(a, "1", None)
            except UnsupportedShape:
                continue
            supported += 1
            got = cs.materialize_family(sel, cs.TERNARY)
            want = cs.brute_force_inverses(a, "1")
            assert cs.set_equal(got, want).equal, (ent, sel.theorem_id)
        assert supported > 400

    def test_rank_one_transport_paths(self):
        from bohemian import census as cs
        from bohemian.theorems import select_theorem
        from bohemian.matrices import TernaryMatrix, exact_rank

        cases = [
            [[0, 1], [0, -1]],
            [[1, -1], [0, 0]],
            [[0, 1, 1], [0, 0, 0], [0, -1, -1]],
        ]
        # every rank-one A with a zero row: the RankOneInner branch
        for rows, cols in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for ent in product((-1, 0, 1), repeat=rows * cols):
                a = TernaryMatrix(rows, cols, ent)
                if exact_rank(a) == 1 and not all(map(any, a.row_tuples())):
                    cases.append(a.to_lists())
        assert len(cases) == 3 + 16 + 52 + 72 + 234
        populations = [cs.TERNARY, cs.Population((0, 1)), cs.Population((-1, 0))]
        for rows in cases:
            a = TernaryMatrix.from_rows(rows)
            sel = select_theorem(a, "1", None)
            for population in populations:
                got = cs.materialize_family(sel, population)
                want = cs.brute_force_inverses(a, "1", population)
                assert cs.set_equal(got, want).equal, (rows, population)
                assert got.matrices == want.matrices, (rows, population)

    def test_rank_one_count_over_zero_one_builds_no_members(self, monkeypatch):
        # the system is written on A's own cells, so a population the
        # signed-permutation factorization does not preserve is counted as is
        from bohemian import census as cs
        from bohemian.theorems import select_theorem

        a = TernaryMatrix.from_rows([[0, -1, 1], [0, 0, 0], [0, 1, -1]])
        population = cs.Population((0, 1))
        want = cs.brute_force_inverses(a, "1", population, count_only=True).count
        sel = select_theorem(a, "1")

        def refuse(*args, **kwargs):
            raise AssertionError("a count-only run built members")

        monkeypatch.setattr(cs, "_materialize_body", refuse)
        got = cs.materialize_family(sel, population, count_only=True)
        assert sel.theorem_id == "RankOneInner"
        assert got.matrices is None and got.count == want > 0

    def test_rank_one_outer_selection(self):
        from itertools import product

        from bohemian import census as cs
        from bohemian.theorems import UnsupportedShape, select_theorem
        from bohemian.matrices import TernaryMatrix, exact_rank

        for ent in product((-1, 0, 1), repeat=4):
            a = TernaryMatrix(2, 2, ent)
            if not any(ent) or exact_rank(a) != 1:
                continue
            sel = select_theorem(a, "2", None)
            got = cs.materialize_family(sel, cs.TERNARY)
            want = cs.brute_force_inverses(a, "2")
            assert cs.set_equal(got, want).equal, ent

    def test_rank_filtered_outer_selection(self):
        from itertools import product

        from bohemian import census as cs
        from bohemian.theorems import UnsupportedShape, select_theorem
        from bohemian.matrices import TernaryMatrix, exact_rank

        for ent in product((-1, 0, 1), repeat=4):
            a = TernaryMatrix(2, 2, ent)
            if not any(ent):
                continue
            try:
                sel = select_theorem(a, "2", 1)
            except UnsupportedShape:
                continue
            got = cs.materialize_family(sel, cs.TERNARY)
            want = cs.brute_force_inverses(a, "2", rank_filter=1)
            diff = cs.set_equal(got, want)
            if exact_rank(a) == a.rows:
                # the column-scaled description: complete up to the
                # documented zero-first-column members
                assert not diff.only_in_a
                for extra in diff.only_in_b:
                    assert all(row[0] == 0 for row in extra.to_lists())
            else:
                assert diff.equal, ent


    def test_rank_filter_on_rectangular_shapes(self):
        # entry tuples are ranked as n x m matrices; vectors and square
        # shapes cannot tell rows from columns
        from itertools import product

        from bohemian import census as cs
        from bohemian.matrices import TernaryMatrix, exact_rank
        from bohemian.theorems import UnsupportedShape, select_theorem

        checked = set()
        for m, n in [(2, 3), (3, 2)]:
            for ent in product((-1, 0, 1), repeat=m * n):
                a = TernaryMatrix(m, n, ent)
                for spec in ("1", "2"):
                    try:
                        sel = select_theorem(a, spec, None)
                    except UnsupportedShape:
                        continue
                    for pop in (cs.TERNARY, cs.Population((0, 1))):
                        got = cs.materialize_family(sel, pop)
                        for r in range(3):
                            kept = [x for x in got if exact_rank(x) == r]
                            got_r = cs.materialize_family(sel, pop, rank=r)
                            assert list(got_r) == kept, (ent, spec, r)
                    checked.add(sel.theorem_id)
        assert {"RankOneInner", "Thm5.19", "OuterFullSetRank2"} <= checked

    def test_ranked_selection_is_the_filtered_selection(self):
        # every nonzero A of at most 6 cells and every supported (spec,
        # rank); specs 1 and 12 select the same family for any rank.  The
        # 1x6 and 6x1 A are left out: their members are vectors, ranked by
        # a zero test alone, and would take 40 s of 48 on a 2-vCPU VM.
        from itertools import product

        from bohemian.matrices import TernaryMatrix, exact_rank
        from bohemian.theorems import UnsupportedShape, select_theorem

        checked = 0
        shapes = [(m, n) for m in range(1, 6) for n in range(1, 6) if m * n <= 6]
        for m, n in shapes:
            ranks = range(min(m, n) + 1)
            pairs = [("1", None), ("12", None)] + [("2", r) for r in (None, *ranks)]
            for ent in product((-1, 0, 1), repeat=m * n):
                if not any(ent):
                    continue
                a = TernaryMatrix(m, n, ent)
                for spec, rank in pairs:
                    try:
                        sel = select_theorem(a, spec, rank)
                    except UnsupportedShape:
                        continue
                    ranked = [(x.entries, exact_rank(x)) for x in cs.materialize_family(sel)]
                    for r in ranks if rank is None else (rank,):
                        kept = tuple(e for e, k in ranked if k == r)
                        got = cs.materialize_family(sel, rank=r)
                        assert got.matrices == kept and got.count == len(kept), (
                            ent, spec, rank, r,
                        )
                        checked += 1
        assert checked > 10_000

    def test_spec_is_normalized(self):
        from bohemian.matrices import DomainError, identity
        from bohemian.theorems import select_theorem

        a = identity(2)
        # "{1}" is spec 1, as in the census, not the reflexive family
        assert select_theorem(a, "{1}") == select_theorem(a, "1")
        assert select_theorem(a, "1").theorem_id != "Thm5.16"
        assert select_theorem(a, "{2,1}") == select_theorem(a, "12")
        for bad in ("3", "x", ""):
            with pytest.raises(DomainError, match="inverse spec must be"):
                select_theorem(a, bad)

    def test_dispatch_matches_census_on_small_shapes(self):
        from itertools import product

        from bohemian import census as cs
        from bohemian.families import FIRST_COLUMN_GAP_NOTE
        from bohemian.matrices import TernaryMatrix, exact_rank
        from bohemian.theorems import UnsupportedShape, select_theorem

        pairs = [("1", None), ("2", None), ("2", 0), ("2", 1), ("2", 2), ("12", None)]
        populations = [
            cs.TERNARY,
            cs.Population((0, 1)),
            cs.Population((1,)),
            cs.Population((-1, 0)),
        ]
        reached = set()
        for m, n in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            for ent in product((-1, 0, 1), repeat=m * n):
                if not any(ent):
                    continue
                a = TernaryMatrix(m, n, ent)
                for spec, rank in pairs:
                    try:
                        sel = select_theorem(a, spec, rank)
                    except UnsupportedShape:
                        continue
                    reached.add(sel.theorem_id)
                    for pop in populations:
                        case = (ent, spec, rank, pop.values, sel.theorem_id)
                        got = cs.materialize_family(sel, pop)
                        quick = cs.materialize_family(sel, pop, count_only=True)
                        assert quick.count == got.count, case
                        for r in range(min(m, n) + 1):
                            kept = [x for x in got if exact_rank(x) == r]
                            assert list(cs.materialize_family(sel, pop, rank=r)) == kept, (case, r)
                        if rank is not None:
                            got = [x for x in got if exact_rank(x) == rank]
                        want = cs.brute_force_inverses(
                            a, spec, population=pop, rank_filter=rank
                        )
                        diff = cs.set_equal(got, want)
                        if sel.note == FIRST_COLUMN_GAP_NOTE:
                            # may miss only members with a zero first column
                            assert not diff.only_in_a, case
                            for x in diff.only_in_b:
                                assert not any(x.column(0)), case
                        else:
                            assert diff.equal, case
        assert reached == {
            "InnerTypeI", "InnerTypeIII", "InnerTypeIV", "Thm3.5", "Thm4.5",
            "Thm4.7", "Thm5.16", "RankOneInner", "Thm5.1", "Thm5.19",
            "OuterFullSetS1", "OuterFullSetRank2", "OuterRank1FullRowRank",
            "OuterRank1RowBlocks", "Rank2OuterS1", "Rank2OuterS4", "ZeroOuter",
        }


class TestUsage:
    def test_unknown_flag_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--bogus", "x"])
        assert exc.value.code == 2

    def test_budget_env_override(self, capsys, write, monkeypatch):
        path = write("a.txt", "1 1 1 1 1\n")
        monkeypatch.setenv("BOHEMIAN_CELL_BUDGET", "4")
        code, _, _ = run(capsys, "inverses", path, "--spec", "1")
        assert code == 4
        monkeypatch.setenv("BOHEMIAN_CELL_BUDGET", "6")
        code, out, _ = run(capsys, "inverses", path, "--spec", "1", "--count-only")
        assert code == 0

    def test_each_env_budget_gets_its_own_parser(self, capsys, write, monkeypatch):
        # the parser is built once per value of the variable, so calls in
        # one process under different budgets each honour their own
        path = write("a.txt", "1 1 1 1 1\n")
        argv = ["inverses", path, "--spec", "1", "--count-only"]
        for budget, want in (("4", 4), ("6", 0), ("4", 4), (None, 0), ("6", 0)):
            if budget is None:
                monkeypatch.delenv("BOHEMIAN_CELL_BUDGET", raising=False)
            else:
                monkeypatch.setenv("BOHEMIAN_CELL_BUDGET", budget)
            code, out, err = run(capsys, *argv)
            assert code == want, budget
            if want == 4:
                assert err.endswith("exceeds the budget of 4\n")
            else:
                assert out == "count: 45\n"
        monkeypatch.setenv("BOHEMIAN_CELL_BUDGET", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be a nonnegative integer, got 'abc'" in capsys.readouterr().err

    def test_theorem_count_only_fast_path(self, capsys, write):
        # count of a rank-one inner family without materialization
        path = write("a.txt", "0 1\n0 -1\n")
        code, out, _ = run(
            capsys, "inverses", path, "--spec", "1", "--mode", "theorem",
            "--count-only",
        )
        assert code == 0
        assert out.strip().endswith("count: 18")

    def test_invalid_budget_env_exit_two(self, capsys, write, monkeypatch):
        path = write("a.txt", "1 1\n")
        monkeypatch.setenv("BOHEMIAN_CELL_BUDGET", "abc")
        for argv in (["inverses", path, "--spec", "1"], ["verify", "--suite", "core"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "BOHEMIAN_CELL_BUDGET" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["oracle", "theorem"])
    def test_negative_rank_exit_two(self, capsys, write, mode):
        path = write("a.txt", "1 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["inverses", path, "--spec", "2", "--mode", mode, "--rank", "-3"])
        assert exc.value.code == 2
        assert "--rank" in capsys.readouterr().err

    def test_negative_count_length_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--formula", "count_sum_t", "--n", "-1", "--t", "0"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        # a negative target sum stays valid
        code, out, _ = run(
            capsys, "count", "--formula", "count_sum_t", "--n", "3", "--t", "-1"
        )
        assert code == 0 and ",6,closed_form" in out

    def test_negative_identity_width_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identity", "--m", "0", "--n1", "-1", "--n2", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("natural_pop", "--m", "0", "--n", "0", "--zero-in-pop"),
        ("natural_pop", "--m", "2", "--n", "0"),
        ("outer_S4", "--n1", "0", "--n2", "0"),
        ("outer_S4", "--n1", "2", "--n2", "0"),
        ("inner_type_I", "--m", "0", "--n", "3"),
        ("outer_type_I", "--m", "1", "--n", "0"),
        ("outer_type_III", "--m", "1", "--n1", "0", "--n2", "2"),
        ("outer_type_III", "--m", "0", "--n1", "1", "--n2", "0"),
    ])
    def test_empty_matrix_shape_exit_two(self, capsys, argv):
        code, out, err = run(capsys, "count", "--formula", *argv)
        assert code == 2 and out == ""
        assert "needs positive dimensions" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,given", [
        (("--m", "0", "--n1", "1", "--n2", "1"), "m=0"),
        (("--m", "1", "--n1", "0", "--n2", "0"), "n1+n2=0"),
    ])
    def test_identity_of_an_empty_matrix_exit_two(self, capsys, argv, given):
        code, out, err = run(capsys, "identity", *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"identity: the two-block matrix needs positive dimensions, got {given}\n"
        )

    @pytest.mark.parametrize("dims", ["0x1", "1x2x3"])
    def test_bad_block_dims_exit_two(self, capsys, dims):
        code, _, err = run(capsys, "count", "--formula", "inner_pure_ws", "--dims", dims)
        assert code == 2 and "bad --dims" in err

    def test_round_trip_canonical_file(self, tmp_path, capsys):
        text = "1 -1 0\n0 1 1\n"
        assert serialize_matrix(parse_matrix(text)) == text


# ---------------------------------------------------------------------------
# fuzzed argv: any input gets an exit code, never a traceback

TRIT = st.sampled_from(("-1", "0", "1"))
BAD_TOKEN = st.sampled_from(("2", "-2", "x", "-", "1.5", "+1", "--1", "1/2"))


@st.composite
def _matrix_text(draw):
    """Matrix file text: mostly valid, else malformed, ragged or empty."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    grid = [[draw(TRIT) for _ in range(cols)] for _ in range(rows)]
    kind = draw(st.sampled_from(("valid",) * 9 + ("malformed", "ragged", "empty")))
    if kind == "malformed":
        grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(BAD_TOKEN)
    elif kind == "ragged":
        grid.append(grid[0] + ["0"])
    elif kind == "empty":
        return draw(st.sampled_from(("", "\n\n", "# comment only\n", "   \n")))
    return "".join(" ".join(row) + "\n" for row in grid)


#: (good values, bad values) of the flags; integers are kept small so that
#: every valid run is quick (binomial_identity_check grows like (mn)^3)
SIZE = (st.integers(0, 4).map(str), st.sampled_from(("-1", "x", "", "1.5")))
SUM = (st.integers(-5, 5).map(str), st.sampled_from(("x", "", "1.5")))
BUDGET = (st.integers(0, 9).map(str), st.sampled_from(("-1", "x", "")))
POPULATION = (
    st.sampled_from(("0,1", "-1,0", "-1,0,1", "1", "0", "-1,1")),
    st.sampled_from(("1,1", "a,b", "", "2,3", "1,,0", "-2,0")),
)
DIMS = (
    st.sampled_from(("1x2", "1x2,2x1", "2x2,1x1", "1x1")),
    st.sampled_from(("0x1", "1x2x3", "axb", "", "1x")),
)


def _choice(good, bad):
    return (st.sampled_from(good), st.sampled_from(bad))


def _flags(draw, options):
    """argv for the (flag, values, required) options: a required flag is
    almost always given, another one half the time; its value is bad one
    time in ten, and attached with '=' or given as the next word.  values
    is None for a switch."""
    argv = []
    for flag, values, required in options:
        if draw(st.integers(0, 9)) < (9 if required else 5):
            if values is None:
                argv.append(flag)
                continue
            good, bad = values
            value = draw(bad if draw(st.integers(0, 9)) == 0 else good)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@st.composite
def _argv(draw, path_of):
    command = draw(st.sampled_from(("classify", "decompose", "inverses", "count", "identity")))
    argv = [command]
    if command in ("classify", "decompose", "inverses"):
        which = draw(st.integers(0, 19))
        if which == 0:
            argv.append(path_of(None))  # a file that does not exist
        elif which > 1:  # which == 1 leaves the matrix argument out
            argv.append(path_of(draw(_matrix_text())))
    if command == "decompose":
        argv += _flags(draw, [
            ("--form", _choice(("auto", "rank1", "uw", "gws"), ("lu", "")), False),
        ])
    elif command == "inverses":
        argv += _flags(draw, [
            ("--spec", _choice(("1", "2", "12"), ("21", "3", "")), True),
            ("--mode", _choice(("oracle", "theorem"), ("census", "")), False),
            ("--rank", SIZE, False),
            ("--count-only", None, False),
            ("--population", POPULATION, False),
            ("--budget", BUDGET, False),
        ])
    elif command == "count":
        argv += _flags(draw, [
            ("--formula", _choice(sorted(ct.FORMULAS), ("nope", "")), True),
            ("--n", SIZE, True),
            ("--t", SUM, True),
            ("--m", SIZE, True),
            ("--n1", SIZE, True),
            ("--n2", SIZE, True),
            ("--dims", DIMS, True),
            ("--include-zero", None, False),
            ("--zero-in-pop", None, False),
            ("--json", None, False),
        ])
    elif command == "identity":
        argv += _flags(draw, [(f, SIZE, True) for f in ("--m", "--n1", "--n2")])
    if draw(st.integers(0, 19)) == 0:
        argv.append("--bogus")
    return argv


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    """path_of(text): a file holding text, one file per distinct text;
    path_of(None) is a path that does not exist."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}

    def path_of(text):
        if text is None:
            return str(root / "missing" / "a.txt")
        if text not in paths:
            paths[text] = root / f"m{len(paths)}.txt"
            paths[text].write_text(text)
        return str(paths[text])

    return path_of


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_fuzzed_argv_exits_cleanly(matrix_files, data):
    argv = data.draw(_argv(matrix_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue(), argv
