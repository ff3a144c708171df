import json

import pytest

from stpsolve.cli import main
from conftest import make_k4, make_path
from stpsolve import write_instance

K4_LONG_STP = """33D32945 STP File, STP Format Version 1.0
SECTION Graph
Nodes 4
Edges 6
E 1 2 1
E 1 3 12
E 1 4 16
E 2 3 11
E 2 4 15
E 3 4 16
END
SECTION Terminals
Terminals 4
T 1
T 2
T 3
T 4
END
EOF
"""


@pytest.fixture
def path_gr(tmp_path):
    target = tmp_path / "fixpath.gr"
    target.write_text(write_instance(make_path()), encoding="utf-8")
    return target


@pytest.fixture
def k4_stp(tmp_path):
    target = tmp_path / "k4.stp"
    target.write_text(K4_LONG_STP, encoding="utf-8")
    return target


class TestSingleRun:
    def test_solve_path(self, path_gr, capsys):
        assert main([str(path_gr)]) == 0
        out = capsys.readouterr()
        assert out.out == "VALUE 5\n"

    def test_print_tree_zero_heuristic(self, k4_stp, capsys):
        code = main(
            ["--heuristic", "zero", "--no-preprocess", str(k4_stp), "--print-tree"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "VALUE 27"
        assert len(lines) == 4

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.gr")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_text("SECTION Graph\nNodes 2\nEdges 1\nE 1 2 0\nEND\n")
        assert main([str(bad)]) == 2

    @pytest.mark.parametrize(
        "line, cut", [("Nodes 4", "Nodes"), ("Edges 6", "Edges"), ("T 2", "T")]
    )
    def test_truncated_line(self, tmp_path, capsys, line, cut):
        bad = tmp_path / "bad.stp"
        bad.write_text(K4_LONG_STP.replace(line, cut), encoding="utf-8")
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.stp"
        bad.write_bytes(K4_LONG_STP.encode("utf-8").replace(b"T 4", b"T \xff"))
        assert main([str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_byte_identical_reruns(self, k4_stp, capsys):
        main([str(k4_stp), "--print-tree"])
        first = capsys.readouterr().out
        main([str(k4_stp), "--print-tree"])
        second = capsys.readouterr().out
        assert first == second

    def test_validate_flag(self, k4_stp, capsys):
        assert main([str(k4_stp), "--validate"]) == 0
        assert capsys.readouterr().out == "VALUE 27\n"

    def test_stats_on_stderr(self, path_gr, capsys):
        assert main([str(path_gr), "--stats"]) == 0
        out = capsys.readouterr()
        payload = json.loads(out.err.strip().splitlines()[-1])
        assert "preprocessing" in payload
        assert payload["lower_bound"] == payload["upper_bound"] == 5
        assert out.out == "VALUE 5\n"

    def test_stats_bounds_on_timeout(self, k4_stp, capsys):
        assert main([str(k4_stp), "--stats", "--time-limit", "0"]) == 4
        out = capsys.readouterr()
        payload = json.loads(out.err.strip().splitlines()[0])
        assert payload["lower_bound"] <= 27 <= payload["upper_bound"]
        assert out.out.splitlines()[0] == f"VALUE {payload['upper_bound']}"

    def test_root_override(self, k4_stp, capsys):
        assert main([str(k4_stp), "--root", "3"]) == 0
        assert capsys.readouterr().out == "VALUE 27\n"

    def test_root_must_be_terminal(self, path_gr, capsys):
        assert main([str(path_gr), "--root", "2"]) == 2

    def test_terminal_cap_exit_code(self, tmp_path):
        lines = ["SECTION Graph", "Nodes 130", "Edges 129"]
        lines += [f"E {i} {i + 1} 1" for i in range(1, 130)]
        lines += ["END", "SECTION Terminals", "Terminals 130"]
        lines += [f"T {i}" for i in range(1, 131)]
        lines += ["END", "EOF", ""]
        big = tmp_path / "big.gr"
        big.write_text("\n".join(lines), encoding="utf-8")
        assert main(["--no-preprocess", str(big)]) == 3

    def test_zero_time_limit(self, k4_stp, capsys):
        assert main([str(k4_stp), "--time-limit", "0"]) == 4
        assert "TIMEOUT" in capsys.readouterr().err

    def test_dump_reduced(self, k4_stp, tmp_path, capsys):
        dump = tmp_path / "reduced.gr"
        assert main([str(k4_stp), "--dump-reduced", str(dump)]) == 0
        assert dump.exists()
        assert capsys.readouterr().err == (
            "reduction log: 3 changes, offset 27, 1 vertices and 0 edges remain\n"
        )

    def test_dump_reduced_after_an_early_timeout_says_nothing_was_written(
        self, k4_stp, tmp_path, capsys
    ):
        dump = tmp_path / "reduced.gr"
        code = main([str(k4_stp), "--time-limit", "0", "--dump-reduced", str(dump)])
        assert code == 4
        assert not dump.exists()
        out = capsys.readouterr()
        assert "--dump-reduced: nothing written" in out.err
        assert out.out.startswith("VALUE ")

    def test_dump_reduced_into_a_missing_directory(self, k4_stp, tmp_path, capsys):
        target = tmp_path / "missing" / "reduced.gr"
        assert main([str(k4_stp), "--dump-reduced", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("bench", [False, True], ids=["--time-limit", "--bench"])
    @pytest.mark.parametrize("value", ["nan", "-1", "-0.5", "inf", "-inf", "soon"])
    def test_seconds_must_be_finite_and_not_negative(
        self, k4_stp, capsys, bench, value
    ):
        # A single file and --bench read the same --time-limit flag.
        target = ["--bench", str(k4_stp.parent)] if bench else [str(k4_stp)]
        with pytest.raises(SystemExit) as exc:
            main([*target, f"--time-limit={value}"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "argument --time-limit" in out.err and "Traceback" not in out.err
        assert out.out == ""

    def test_format_override(self, tmp_path, capsys):
        # gr content under a misleading name still parses when forced
        target = tmp_path / "instance.dat"
        target.write_text(write_instance(make_k4()), encoding="utf-8")
        assert main(["--format", "gr", str(target)]) == 0
        assert capsys.readouterr().out == "VALUE 27\n"

    def test_no_arguments(self, capsys):
        assert main([]) == 2


class TestBench:
    @pytest.fixture
    def bench_dir(self, tmp_path):
        from conftest import make_diamond, make_ntdk, make_star

        for name, inst in [
            ("a_path.gr", make_path()),
            ("b_star.gr", make_star()),
            ("c_diamond.gr", make_diamond()),
            ("d_k4.gr", make_k4()),
            ("e_ntdk.gr", make_ntdk()),
        ]:
            (tmp_path / name).write_text(write_instance(inst), encoding="utf-8")
        (tmp_path / "f_k4.stp").write_text(K4_LONG_STP, encoding="utf-8")
        return tmp_path

    def test_all_fixtures_solve(self, bench_dir, capsys):
        assert main(["--bench", str(bench_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "file,status,cost,wall_time,expansions,heuristic"
        assert len(lines) == 7
        costs = {}
        for line in lines[1:]:
            name, status, cost = line.split(",")[:3]
            assert status == "optimal"
            costs[name] = int(cost)
        assert costs == {
            "a_path.gr": 5,
            "b_star.gr": 9,
            "c_diamond.gr": 2,
            "d_k4.gr": 27,
            "e_ntdk.gr": 8,
            "f_k4.stp": 27,
        }

    def test_zero_budget_times_out_everywhere(self, bench_dir, capsys):
        assert main(["--bench", str(bench_dir), "--time-limit", "0"]) == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            assert line.split(",")[1] == "timeout"

    def test_reruns_identical_modulo_wall_time(self, bench_dir, capsys):
        main(["--bench", str(bench_dir)])
        first = capsys.readouterr().out.strip().splitlines()
        main(["--bench", str(bench_dir)])
        second = capsys.readouterr().out.strip().splitlines()

        def strip_time(rows):
            out = []
            for row in rows:
                cols = row.split(",")
                out.append(",".join(cols[:3] + cols[4:]))
            return out

        assert strip_time(first) == strip_time(second)

    def test_bad_files_get_error_rows(self, bench_dir, capsys):
        (bench_dir / "g_short.stp").write_text(
            K4_LONG_STP.replace("Nodes 4", "Nodes"), encoding="utf-8"
        )
        (bench_dir / "h_bytes.stp").write_bytes(b"\xff\xfe\x00")
        assert main(["--bench", str(bench_dir)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        status = {row.split(",")[0]: row.split(",")[1] for row in rows}
        assert status["g_short.stp"] == status["h_bytes.stp"] == "error"
        assert status["f_k4.stp"] == "optimal"

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--root", "2"], "--root"),
            (["--dump-reduced", "out.gr"], "--dump-reduced"),
            (["--print-tree"], "--print-tree"),
            (["--validate"], "--validate"),
            (["--stats"], "--stats"),
            (["a.stp"], "an instance path"),
        ],
    )
    def test_single_file_flags_are_rejected(self, bench_dir, capsys, extra, flag):
        # --bench solves every file alike, so a single file's option would
        # be silently ignored.
        assert main(["--bench", str(bench_dir), *extra]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --bench does not take {flag}\n"

    def test_unreadable_directory(self, tmp_path, capsys):
        assert main(["--bench", str(tmp_path / "nope")]) == 2
