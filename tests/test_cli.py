import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import deep_search_graph, lower_recursion_limit

from domset import cli, graph, solvers
from domset.cli import main
from domset.generators import gen_grid, gen_random_tree
from domset.graph import parse_graph, serialize_graph
from domset.reduction import parse_set_cover
from domset.solvers import BicliqueWitness


@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.gr"
    path.write_text(serialize_graph(gen_grid(1, 4)))
    return str(path)


@pytest.fixture()
def star6_file(tmp_path):
    path = tmp_path / "star6.gr"
    path.write_text("p ds 6 5\n" + "".join(f"e 0 {i}\n" for i in range(1, 6)))
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.gr"
    path.write_text(serialize_graph(gen_grid(2, 2)))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolve:
    def test_classical_star(self, capsys, star6_file):
        code, doc = run_json(capsys, ["solve", "--algo", "classical", star6_file])
        assert code == 0
        assert doc["size"] == 1

    def test_fixed_path(self, capsys, p4_file):
        code, doc = run_json(capsys, ["solve", "--algo", "fixed", "--i", "2", p4_file])
        assert code == 0
        assert doc["dominating_set"] == [1, 2]
        assert doc["rounds"][0]["chosen"] == [1]

    def test_auto_cycle(self, capsys, c4_file):
        code, doc = run_json(capsys, ["solve", "--algo", "auto", c4_file])
        assert code == 0
        assert doc["size"] == 2
        assert doc["t_detected"] == 3
        assert sorted(doc["witness"]) == ["left", "right"]

    def test_fixed_without_i_is_validation_error(self, capsys, p4_file):
        assert main(["solve", "--algo", "fixed", p4_file]) == 2

    @pytest.mark.parametrize("algo", ["classical", "auto"])
    def test_i_it_would_ignore_is_validation_error(self, capsys, p4_file, algo):
        assert main(["solve", "--algo", algo, "--i", "3", p4_file]) == 2
        assert capsys.readouterr().err == f"error: {algo} takes no i parameter\n"

    @pytest.mark.parametrize("argv, err", [
        (["--algo", "classical", "--i", "3"], "classical takes no i parameter"),
        (["--algo", "fixed"], "fixed requires an i, e.g. --i 2 or fixed:2"),
        (["--algo", "fixed", "--i", "1"], "parameter i must be >= 2, got 1"),
        (["--algo", "hybrid", "--i", "1"], "parameter i must be >= 2, got 1"),
    ], ids=["ignored-i", "missing-i", "fixed-i-below-2", "hybrid-i-below-2"])
    def test_bad_algorithm_is_refused_before_reading(self, tmp_path, capsys, p4_file, argv, err):
        out = tmp_path / "r.json"
        missing = str(tmp_path / "missing.txt")
        for inputs in ([missing], ["--targets", missing, p4_file]):
            assert main(["solve", *argv, "--out", str(out), *inputs]) == 2
            assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not out.exists()

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_text("p ds x y\n")
        assert main(["solve", "--algo", "classical", str(bad)]) == 1

    @pytest.mark.parametrize("text, err", [
        ("p ds 1_0 1\ne 0 3\n", "line 1: non-integer counts in 'p ds 1_0 1'"),
        ("p ds \u0664 0\n", "line 1: non-integer counts in 'p ds \u0664 0'"),
        ("p ds +4 0\n", "line 1: non-integer counts in 'p ds +4 0'"),
        ("p ds 4 1\ne 0 \u0663\n", "line 2: non-integer endpoint in 'e 0 \u0663'"),
        ("p ds 4 1\ne 0_0 1\n", "line 2: non-integer endpoint in 'e 0_0 1'"),
        ("p ds 4 1\ne +0 1\n", "line 2: non-integer endpoint in 'e +0 1'"),
        ("p ds 4 1\ne --1 1\n", "line 2: non-integer endpoint in 'e --1 1'"),
        ("p ds 4 1\ne 0 1" + "0" * 5000 + "\n", None),
    ], ids=["underscore-count", "arabic-indic-count", "plus-count", "arabic-indic-id",
            "underscore-id", "plus-id", "double-minus-id", "past-int-digit-limit"])
    def test_non_decimal_ids_are_parse_errors(self, tmp_path, capsys, text, err):
        path = tmp_path / "g.gr"
        path.write_text(text, encoding="utf-8")
        assert main(["solve", "--algo", "classical", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if err is not None:
            assert captured.err == f"error: {err}\n"

    def test_negative_ids_are_range_errors(self, tmp_path, capsys):
        path = tmp_path / "g.gr"
        path.write_text("p ds 4 1\ne -1 2\n")
        assert main(["solve", "--algo", "classical", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 2: endpoint out of range in 'e -1 2'\n"
        path.write_text("p ds -4 0\n")
        assert main(["solve", "--algo", "classical", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 1: negative counts in header\n"

    @pytest.mark.parametrize("algo, i", [
        ("classical", None), ("fixed", 3), ("auto", None), ("hybrid", None), ("hybrid", 3),
    ])
    def test_output_is_the_indented_document(self, tmp_path, capsys, algo, i):
        g = gen_random_tree(30, 4)
        path = tmp_path / "g.gr"
        path.write_text(serialize_graph(g))
        result = cli._run_algorithm(g, algo, i)
        expected = json.dumps(result.as_document(), indent=2) + "\n"
        argv = ["solve", "--algo", algo, str(path)] + ([] if i is None else ["--i", str(i)])
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()

    def test_vertex_limit_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graph, "MAX_VERTICES", 10)
        path = tmp_path / "g.gr"
        path.write_text("p ds 11 0\n")
        assert main(["solve", "--algo", "classical", str(path)]) == 3
        assert capsys.readouterr().err == "error: vertex count 11 exceeds the limit 10\n"
        # the guard runs right after the header, before a bad edge line is read
        for text in ("p ds 11 2\ne 0 1\ne x y\n", "c first\r\np ds 11 2\r\ne 0 1\r\ne x y\r\n"):
            path.write_text(text)
            assert main(["solve", "--algo", "classical", str(path)]) == 3
            assert capsys.readouterr().err == "error: vertex count 11 exceeds the limit 10\n"
        path.write_text("p ds 10 0\n")
        code, doc = run_json(capsys, ["solve", "--algo", "classical", str(path)])
        assert code == 0
        assert doc["size"] == 10

    def test_targets_file(self, tmp_path, capsys, p4_file):
        targets = tmp_path / "targets.txt"
        targets.write_text("c only one end\n3\n")
        code, doc = run_json(
            capsys, ["solve", "--algo", "classical", "--targets", str(targets), p4_file]
        )
        assert code == 0
        assert doc["size"] == 1


class TestExact:
    def test_path(self, capsys, p4_file):
        code, doc = run_json(capsys, ["exact", p4_file])
        assert code == 0
        assert doc["opt_size"] == 2

    def test_star(self, capsys, star6_file):
        code, doc = run_json(capsys, ["exact", star6_file])
        assert code == 0
        assert doc["opt_size"] == 1

    def test_guard_refuses_big_graphs(self, tmp_path, capsys):
        big = tmp_path / "big.gr"
        big.write_text(serialize_graph(gen_random_tree(40, 1)))
        assert main(["exact", str(big)]) == 3
        code, doc = run_json(capsys, ["exact", "--force", str(big)])
        assert code == 0
        assert doc["opt_size"] is not None

    def test_guard_message(self, tmp_path, capsys):
        big = tmp_path / "big.gr"
        big.write_text(serialize_graph(gen_random_tree(40, 1)))
        assert main(["exact", "--max-n", "39", str(big)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n=40 exceeds the guard --max-n 39; pass --force to override\n"
        )

    def test_deep_search_ignores_recursion_limit(self, tmp_path, capsys):
        g = tmp_path / "deep.gr"
        g.write_text(serialize_graph(deep_search_graph()))
        # a normal run first; it also loads what argparse imports lazily
        assert main(["exact", "--force", str(g)]) == 0
        expected = capsys.readouterr()
        assert json.loads(expected.out)["opt_size"] == 104
        old = lower_recursion_limit(50)
        try:
            code = main(["exact", "--force", str(g)])
        finally:
            sys.setrecursionlimit(old)
        assert code == 0
        assert capsys.readouterr() == expected

    def test_node_limit_exits_3(self, tmp_path, capsys):
        # without a limit this search ran past 100 s
        g = tmp_path / "tree.gr"
        g.write_text(serialize_graph(gen_random_tree(100, 1)))
        assert main(["exact", "--force", "--max-nodes", "100000", str(g)]) == 3
        assert capsys.readouterr() == ("", "error: exact search exceeded the node limit 100000\n")

    def test_node_limit_it_stays_within(self, capsys, p4_file):
        code, doc = run_json(capsys, ["exact", p4_file])
        assert code == 0
        limited = run_json(capsys, ["exact", "--max-nodes", str(doc["node_count"]), p4_file])
        assert limited == (0, doc)
        assert main(["exact", "--max-nodes", str(doc["node_count"] - 1), p4_file]) == 3

    def test_negative_node_limit_exits_2(self, tmp_path, capsys, p4_file):
        out = tmp_path / "r.json"
        assert main(["exact", "--max-nodes", "-1", "--out", str(out), p4_file]) == 2
        assert capsys.readouterr() == ("", "error: --max-nodes must be >= 0, got -1\n")
        assert not out.exists()
        # zero is a limit like any other: the root alone is one node too many
        assert main(["exact", "--max-nodes", "0", p4_file]) == 3
        assert capsys.readouterr() == ("", "error: exact search exceeded the node limit 0\n")

    def test_negative_guard_exits_2_before_reading(self, tmp_path, capsys, p4_file):
        out = tmp_path / "r.json"
        missing = str(tmp_path / "missing.gr")
        for graph in (p4_file, missing):
            for force in ([], ["--force"]):
                argv = ["exact", *force, "--max-n", "-1", "--out", str(out), graph]
                assert main(argv) == 2
                assert capsys.readouterr() == ("", "error: --max-n must be >= 0, got -1\n")
        assert main(["exact", "--max-nodes", "-1", "--out", str(out), missing]) == 2
        assert capsys.readouterr() == ("", "error: --max-nodes must be >= 0, got -1\n")
        assert not out.exists()
        # zero is a guard like any other
        assert main(["exact", "--max-n", "0", p4_file]) == 3

    def test_budget_exceeded_exit(self, capsys, p4_file):
        code, doc = run_json(capsys, ["exact", "--budget", "1", p4_file])
        assert code == 3
        assert doc["exceeded"] is True


class TestVerify:
    def test_ok(self, tmp_path, capsys, p4_file):
        ds = tmp_path / "ds.txt"
        ds.write_text("1 2\n")
        assert main(["verify", "--ds", str(ds), p4_file]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_fail_lists_undominated(self, tmp_path, capsys, p4_file):
        ds = tmp_path / "ds.txt"
        ds.write_text("0\n")
        assert main(["verify", "--ds", str(ds), p4_file]) == 2
        assert "2 3" in capsys.readouterr().out

    def test_witness_mode(self, tmp_path, capsys, c4_file):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"left": [0, 3], "right": [1, 2]}))
        assert main(["verify", "--witness", str(w), c4_file]) == 0
        w.write_text(json.dumps({"left": [0], "right": [3]}))
        assert main(["verify", "--witness", str(w), c4_file]) == 2

    def test_witness_with_deep_nesting(self, tmp_path, capsys, c4_file):
        w = tmp_path / "w.json"
        w.write_text("[" * 200_000)
        assert main(["verify", "--witness", str(w), c4_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad witness file: maximum recursion depth exceeded")

    def test_needs_ds_or_witness(self, tmp_path, capsys, p4_file):
        for graph in (p4_file, str(tmp_path / "missing.gr")):
            assert main(["verify", graph]) == 2
            assert capsys.readouterr() == ("", "error: verify needs --ds or --witness\n")

    @pytest.mark.parametrize("flags, err", [
        (["--ds", "ds.txt", "--witness", "w.json"], "verify takes --ds or --witness, not both"),
        (["--witness", "w.json", "--targets", "t.txt"],
         "--targets applies to --ds, not to --witness"),
    ], ids=["ds-and-witness", "targets-with-witness"])
    def test_dropped_flag_is_refused_before_reading(self, tmp_path, capsys, flags, err):
        # every named file is missing: the flags are checked before any is read
        argv = [str(tmp_path / f) if f[0] != "-" else f for f in flags]
        assert main(["verify", *argv, str(tmp_path / "missing.gr")]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_witness_with_overlong_integer(self, tmp_path, capsys, c4_file):
        # json.loads raises a bare ValueError past int's digit limit
        w = tmp_path / "w.json"
        w.write_text('{"left": [%s], "right": [1]}' % ("1" * 5000))
        assert main(["verify", "--witness", str(w), c4_file]) == 1
        assert capsys.readouterr().err.startswith("error: bad witness file: ")


def read_csv(path):
    import csv

    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestBench:
    ALGOS = "classical,fixed:2,hybrid:2"

    def test_grid_sweep_with_exact(self, tmp_path):
        out = tmp_path / "bench.csv"
        specs = []
        for w in range(2, 7):
            for h in range(2, 7):
                specs += ["--gen", f"grid:w={w},h={h}"]
        assert main(["bench", *specs, "--algos", self.ALGOS, "--with-exact",
                     "--max-n", "36", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 75
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row["graph_name"], {})[row["algorithm"]] = row
        for algos in by_instance.values():
            assert float(algos["hybrid"]["ratio"]) <= float(algos["classical"]["ratio"])
            for row in algos.values():
                assert int(row["ds_size"]) >= int(row["opt_size"])
                assert row["error"] == ""

    def test_empty_instance_list(self, tmp_path, capsys):
        assert main(["bench", "--algos", "classical"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "graph_name,n,m,algorithm,i_param,ds_size,opt_size,ratio,t_detected,rounds,elapsed_micros,error"
        ]

    def test_auto_on_trees_reports_t2(self, tmp_path):
        out = tmp_path / "trees.csv"
        specs = []
        for seed in range(5):
            specs += ["--gen", f"random_tree:n=20,seed={seed}"]
        assert main(["bench", *specs, "--algos", "auto", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows and all(row["t_detected"] == "2" for row in rows)

    def test_graphs_dir_and_error_rows(self, tmp_path):
        gdir = tmp_path / "graphs"
        gdir.mkdir()
        (gdir / "ok.gr").write_text(serialize_graph(gen_grid(2, 3)))
        (gdir / "broken.gr").write_text("p ds 2 5\n")
        out = tmp_path / "dir.csv"
        assert main(["bench", "--graphs", str(gdir), "--algos", "classical,auto",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4  # 2 instances x 2 algorithms, sorted by file name
        assert rows[0]["graph_name"] == "broken"
        assert "declares 5 edges" in rows[0]["error"]
        assert rows[2]["graph_name"] == "ok" and rows[2]["error"] == ""

    def test_deep_exact_search_ignores_recursion_limit(self, tmp_path):
        gdir = tmp_path / "graphs"
        gdir.mkdir()
        (gdir / "deep.gr").write_text(serialize_graph(deep_search_graph()))
        argv = ["bench", "--graphs", str(gdir), "--algos", "classical", "--with-exact",
                "--max-n", "400", "--out"]
        assert main(argv + [str(tmp_path / "normal.csv")]) == 0
        old = lower_recursion_limit(50)
        try:
            code = main(argv + [str(tmp_path / "lowered.csv")])
        finally:
            sys.setrecursionlimit(old)
        assert code == 0
        rows = read_csv(tmp_path / "lowered.csv")
        assert [(row["opt_size"], row["error"]) for row in rows] == [("104", "")]
        assert (tmp_path / "lowered.csv").read_bytes() == (tmp_path / "normal.csv").read_bytes()

    def test_oracle_node_limit_gives_error_rows(self, tmp_path, capsys):
        # the oracle needs far more than 1000 nodes on this tree; its
        # refusal fills that instance's rows and the next one still runs
        out = tmp_path / "bench.csv"
        args = ["bench", "--gen", "random_tree:n=100,seed=1", "--gen", "grid:w=3,h=3",
                "--algos", "classical,hybrid:3", "--with-exact", "--max-n", "100"]
        assert main(args + ["--max-nodes", "1000", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(out)
        refusal = "exact search exceeded the node limit 1000"
        assert [(r["graph_name"], r["n"], r["opt_size"], r["error"]) for r in rows] == [
            ("random_tree:n=100,seed=1", "100", "", refusal),
            ("random_tree:n=100,seed=1", "100", "", refusal),
            ("grid:h=3,w=3", "9", "3", ""),
            ("grid:h=3,w=3", "9", "3", ""),
        ]
        assert all(r["ds_size"] == "" for r in rows[:2])

    def test_oracle_node_limit_above_the_search_changes_nothing(self, tmp_path):
        args = ["bench", "--gen", "grid:w=3,h=4", "--algos", "classical,auto", "--with-exact"]
        plain, limited = tmp_path / "plain.csv", tmp_path / "limited.csv"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--max-nodes", "100000", "--out", str(limited)]) == 0
        assert limited.read_bytes() == plain.read_bytes()

    def test_node_limit_needs_with_exact(self, capsys):
        assert main(["bench", "--gen", "grid:w=2,h=2", "--algos", "classical",
                     "--max-nodes", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-nodes limits the oracle, so it needs --with-exact\n"

    def test_negative_node_limit_is_refused_up_front(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = ["bench", "--gen", "grid:w=2,h=2", "--algos", "classical", "--with-exact",
                "--out", str(out)]
        assert main(args + ["--max-nodes", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: --max-nodes must be >= 0, got -1\n")
        assert not out.exists()
        # zero stays a valid limit: the instance gets an error row
        assert main(args + ["--max-nodes", "0"]) == 0
        assert [r["error"] for r in read_csv(out)] == ["exact search exceeded the node limit 0"]

    def test_negative_guard_is_refused_up_front(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = ["bench", "--gen", "grid:w=2,h=2", "--algos", "classical", "--out", str(out)]
        for exact in ([], ["--with-exact"]):
            assert main(args + exact + ["--max-n", "-1"]) == 2
            assert capsys.readouterr() == ("", "error: --max-n must be >= 0, got -1\n")
        assert not out.exists()
        # zero stays a valid guard: the 4-vertex instance is above it
        assert main(args + ["--with-exact", "--max-n", "0"]) == 0
        assert [(r["n"], r["opt_size"], r["error"]) for r in read_csv(out)] == [("4", "", "")]

    def test_graphs_dir_must_exist(self, tmp_path, capsys):
        (tmp_path / "file.gr").write_text("p ds 1 0\n")
        for path in (tmp_path / "missing", tmp_path / "file.gr"):
            assert main(["bench", "--graphs", str(path), "--algos", "classical"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --graphs {path}: not a directory\n"

    def test_directory_entry_is_error_row(self, tmp_path):
        gdir = tmp_path / "graphs"
        gdir.mkdir()
        (gdir / "a_dir.gr").mkdir()
        (gdir / "ok.gr").write_text(serialize_graph(gen_grid(2, 3)))
        out = tmp_path / "dir.csv"
        assert main(["bench", "--graphs", str(gdir), "--algos", "classical",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row["graph_name"] for row in rows] == ["a_dir", "ok"]
        assert "Is a directory" in rows[0]["error"] and rows[0]["n"] == ""
        assert rows[1]["error"] == ""

    @pytest.mark.parametrize("algo, i", [
        ("classical", None), ("fixed", 3), ("auto", None), ("hybrid", None), ("hybrid", 3),
    ])
    def test_row_matches_solve_document(self, tmp_path, capsys, algo, i):
        gdir = tmp_path / "graphs"
        gdir.mkdir()
        g = gdir / "g.gr"
        g.write_text(serialize_graph(gen_random_tree(30, 4)))
        i_args = [] if i is None else ["--i", str(i)]
        code, doc = run_json(capsys, ["solve", "--algo", algo, *i_args, str(g)])
        assert code == 0
        spec = algo if i is None else f"{algo}:{i}"
        out = tmp_path / "bench.csv"
        assert main(["bench", "--graphs", str(gdir), "--algos", spec,
                     "--out", str(out)]) == 0
        [row] = read_csv(out)
        assert row["algorithm"] == algo and row["i_param"] == ("" if i is None else str(i))
        assert int(row["ds_size"]) == doc["size"]
        assert row["t_detected"] == ("" if doc["t_detected"] is None else str(doc["t_detected"]))
        assert int(row["rounds"]) == len(doc["rounds"])

    @pytest.mark.parametrize("left, right", [((0, 1), (2, 3)), ((0,), (1,)), ((0, 0), (1, 2))],
                             ids=["not-biclique", "wrong-side-size", "repeated-id"])
    def test_bad_witness_is_error_row(self, tmp_path, monkeypatch, left, right):
        real = solvers.solve_auto

        def bad_witness(g, targets=None):
            result = real(g, targets)
            assert result.t_detected == 3  # on the 4-cycle; sides of 2
            return dataclasses.replace(result, witness=BicliqueWitness(left, right))

        monkeypatch.setattr(solvers, "solve_auto", bad_witness)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--gen", "grid:w=2,h=2", "--algos", "classical,auto",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row["algorithm"] for row in rows] == ["classical", "auto"]
        assert rows[0]["error"] == ""
        assert rows[1]["error"] == "result failed witness check"
        assert rows[1]["ds_size"] == ""

    def test_non_dominating_result_is_error_row(self, tmp_path, monkeypatch):
        real = solvers.solve_classical

        def drop_one(g, targets=None):
            result = real(g, targets)
            return dataclasses.replace(result, dominating_set=result.dominating_set[1:])

        monkeypatch.setattr(solvers, "solve_classical", drop_one)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--gen", "grid:w=2,h=2", "--algos", "classical,auto",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [(row["algorithm"], row["error"]) for row in rows] == [
            ("classical", "result failed domination check"), ("auto", "")]
        assert rows[0]["ds_size"] == ""

    def test_byte_identical_reruns(self, tmp_path):
        args = ["bench", "--gen", "gnp:n=22,p=0.2,seed=3",
                "--gen", "d_degenerate:n=18,d=2,seed=5",
                "--algos", "classical,fixed:3,auto,hybrid", "--with-exact"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "spec, err",
        [
            ("grid:w=3,h=2,seed=5", "grid takes no seed"),
            ("gnp:n=5,p=0.5,n=7", "repeated key 'n' in genspec 'gnp:n=5,p=0.5,n=7'"),
            ("gnp:n=5,p=0.5,seed=1,seed=2",
             "repeated key 'seed' in genspec 'gnp:n=5,p=0.5,seed=1,seed=2'"),
            ("intersection_one_sc:universe_size=4,set_count=2,max_set_size=2",
             "genspec 'intersection_one_sc:universe_size=4,set_count=2,max_set_size=2'"
             " does not produce a graph"),
        ],
        ids=["unseeded-model-seed", "repeated-param", "repeated-seed", "set-cover-model"],
    )
    def test_genspec_it_would_drop_is_validation_error(self, capsys, spec, err):
        assert main(["bench", "--gen", spec, "--algos", "classical"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_bad_algos_rejected(self, capsys):
        assert main(["bench", "--algos", "quantum"]) == 2
        assert main(["bench", "--algos", "fixed"]) == 2

    @pytest.mark.parametrize("algos", ["fixed:1", "hybrid:1", "classical,hybrid:0"])
    def test_i_below_2_is_refused_before_reading(self, tmp_path, capsys, algos):
        # the --graphs directory is missing: --algos is checked before it is read
        out = tmp_path / "b.csv"
        argv = ["bench", "--graphs", str(tmp_path / "missing"), "--algos", algos]
        assert main([*argv, "--out", str(out)]) == 2
        i = algos[-1]
        assert capsys.readouterr() == ("", f"error: parameter i must be >= 2, got {i}\n")
        assert not out.exists()


class TestReduce:
    def test_reduce_files(self, tmp_path, capsys):
        sc = tmp_path / "sc.json"
        sc.write_text('{"universe": [1,2,3,4], "sets": [[1,2],[3,4],[1,3]]}')
        out = tmp_path / "red.gr"
        mapfile = tmp_path / "red.map.json"
        assert main(["reduce", str(sc), "--out", str(out), "--map", str(mapfile),
                     "--check-free"]) == 0
        g = parse_graph(out.read_text())
        assert (g.n, g.m) == (9, 10)
        mapping = json.loads(mapfile.read_text())
        assert mapping["x_vertex"] == 7 and mapping["y_vertex"] == 8
        assert "biclique-free" in capsys.readouterr().out

    @pytest.mark.parametrize("text,err", [
        ('{"universe": [true, 2], "sets": [[true, 2]]}',
         "error: 'universe' must be a list of integers\n"),
        ('{"universe": [1, 2], "sets": [[true, 2]]}',
         "error: 'sets' must be a list of integer lists\n"),
    ], ids=["universe", "sets"])
    def test_reduce_rejects_booleans(self, tmp_path, capsys, text, err):
        sc = tmp_path / "sc.json"
        sc.write_text(text)
        assert main(["reduce", str(sc), "--check-free"]) == 1
        assert capsys.readouterr() == ("", err)

    def test_reduce_rejects_overlong_integer(self, tmp_path, capsys):
        sc = tmp_path / "sc.json"
        sc.write_text('{"universe": [%s], "sets": [[1]]}' % ("1" * 5000))
        assert main(["reduce", str(sc), "--check-free"]) == 1
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    def test_check_free_failure(self, tmp_path, capsys, monkeypatch):
        # the reduction never yields a K_3,3, so a stand-in search reports one
        def found(g, a, b):
            return BicliqueWitness((0, 1, 2), (3, 4, 5))

        monkeypatch.setattr(cli.oracles, "has_biclique", found)
        sc = tmp_path / "sc.json"
        sc.write_text('{"universe": [1,2,3,4], "sets": [[1,2],[3,4],[1,3]]}')
        out = tmp_path / "red.gr"
        assert main(["reduce", str(sc), "--out", str(out), "--check-free"]) == 2
        assert capsys.readouterr() == (
            "FAIL: found K_3,3 with sides (0, 1, 2) / (3, 4, 5)\n", "")
        assert parse_graph(out.read_text()).n == 9

    def test_reduce_rejects_deep_nesting(self, tmp_path, capsys):
        sc = tmp_path / "sc.json"
        sc.write_text("[" * 200_000)
        assert main(["reduce", str(sc), "--check-free"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON: maximum recursion depth exceeded")

    def test_reduce_rejects_bad_intersection(self, tmp_path, capsys):
        sc = tmp_path / "sc.json"
        sc.write_text('{"universe": [1,2,3], "sets": [[1,2,3],[1,2]]}')
        assert main(["reduce", str(sc)]) == 2
        assert "sets 0 and 1" in capsys.readouterr().err


class TestGen:
    def test_gen_graph_to_file(self, tmp_path):
        out = tmp_path / "g.gr"
        assert main(["gen", "--model", "gnp", "--n", "10", "--p", "0.3",
                     "--seed", "4", "--out", str(out)]) == 0
        assert parse_graph(out.read_text()).n == 10

    def test_gen_set_cover(self, capsys):
        assert main(["gen", "--model", "intersection_one_sc", "--universe-size", "8",
                     "--set-count", "4", "--max-set-size", "3", "--seed", "11"]) == 0
        sc = parse_set_cover(capsys.readouterr().out)
        assert sc.universe == tuple(range(8))

    def test_gen_set_cover_vertex_limit_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graph, "MAX_VERTICES", 10)
        out = tmp_path / "sc.json"
        argv = ["gen", "--model", "intersection_one_sc", "--universe-size", "10",
                "--max-set-size", "1", "--seed", "1", "--out", str(out)]
        assert main(argv + ["--set-count", "1"]) == 3
        assert capsys.readouterr().err == "error: vertex count 11 exceeds the limit 10\n"
        assert not out.exists()
        assert main(argv + ["--set-count", "0"]) == 2

    def test_gen_rejects_seed_for_unseeded_model(self, tmp_path, capsys):
        out = tmp_path / "g.gr"
        argv = ["gen", "--model", "grid", "--w", "3", "--h", "2", "--out", str(out)]
        assert main(argv + ["--seed", "9"]) == 2
        assert capsys.readouterr().err == "error: grid takes no seed\n"
        assert not out.exists()
        assert main(argv) == 0
        assert parse_graph(out.read_text()) == gen_grid(3, 2)

    def test_gen_missing_params(self, capsys):
        assert main(["gen", "--model", "gnp", "--n", "5"]) == 2

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])  # missing required --algo
        assert exc.value.code == 1


class TestParser:
    """One parser per process, built on the first main() call."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_not_built_at_import(self):
        code = "import domset.cli as c; print(c._build_parser.cache_info().currsize)"
        src = str(Path(cli.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "0\n"

    def test_no_option_carries_over(self, capsys):
        assert main(["bench", "--gen", "gnp:n=10,p=0.3,seed=1", "--algos", "classical"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert main(["bench", "--algos", "classical"]) == 0
        assert capsys.readouterr().out == ",".join(cli.BENCH_COLUMNS) + "\n"

    def test_usage_error_after_a_successful_call(self, capsys, p4_file):
        assert main(["solve", "--algo", "classical", p4_file]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["solve", p4_file])  # missing required --algo
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: domset solve")

    def test_command_looked_up_at_each_call(self, capsys, monkeypatch, p4_file):
        main(["solve", "--algo", "classical", p4_file])
        monkeypatch.setattr(cli, "cmd_solve", lambda args: 7)
        assert main(["solve", "--algo", "classical", p4_file]) == 7


def _range_error(v):
    return 2, "", f"error: vertex {v} out of range for n=4\n"


def _not_an_id(tok, line=1):
    return 1, "", f"error: line {line}: expected a vertex id, got {tok!r}\n"


_P4_CLASSICAL_0_2 = {
    "algorithm": "classical",
    "dominating_set": [0, 2],
    "size": 2,
    "t_detected": None,
    "witness": None,
    "rounds": [
        {"chosen": [0], "b_sizes": [1], "newly_dominated": 2},
        {"chosen": [2], "b_sizes": [1], "newly_dominated": 1},
    ],
}
_EMPTY_CLASSICAL = dict(_P4_CLASSICAL_0_2, dominating_set=[], size=0, rounds=[])
_NOT_BICLIQUE = (2, "FAIL: not a complete bipartite subgraph\n", "")


class TestVertexListErrorPaths:
    """Exit code, stdout and stderr of every command that reads vertex
    ids, on the path 0-1-2-3 (witnesses: the 4-cycle 0-1-3-2). Ids may
    repeat and come in any order; the first out-of-range id in input
    order is reported, and `--ds` is checked before `--targets`, `left`
    before `right`. A JSON document stands for its indented dump."""

    SOLVE_EXACT = [
        ("3 1 3 0", (0, _P4_CLASSICAL_0_2, ""),
         (0, {"opt_size": 2, "witness_set": [0, 2], "node_count": 1, "exceeded": False}, "")),
        ("c no targets\n", (0, _EMPTY_CLASSICAL, ""),
         (0, {"opt_size": 0, "witness_set": [], "node_count": 0, "exceeded": False}, "")),
        ("1 -1 2", _range_error(-1), _range_error(-1)),
        ("0 1 2 9", _range_error(9), _range_error(9)),
        ("0 7 -3", _range_error(7), _range_error(7)),
        ("\u0660 1_0", _not_an_id("\u0660"), _not_an_id("\u0660")),
        ("0\nc x\n1_0", _not_an_id("1_0", 3), _not_an_id("1_0", 3)),
        ("+1", _not_an_id("+1"), _not_an_id("+1")),
    ]
    VERIFY_DS = [
        ("2 1 1 2", None, (0, "OK\n", "")),
        ("0 0 0", None, (2, "FAIL undominated: 2 3\n", "")),
        ("0 0", "3 2 3 0", (2, "FAIL undominated: 2 3\n", "")),
        ("1", "", (0, "OK\n", "")),
        ("0 4", None, _range_error(4)),
        ("-1", None, _range_error(-1)),
        ("1 2", "0 1 5", _range_error(5)),
        ("0 6", "-4", _range_error(6)),
        ("0", "2 2 -1", _range_error(-1)),
        ("\u0660 1_0", None, _not_an_id("\u0660")),
        ("0 2", "3 \u0663", _not_an_id("\u0663")),
    ]
    WITNESS = [
        ([3, 0, 0], [2, 1], _NOT_BICLIQUE),
        ([0, 3], [1, 2, 1], _NOT_BICLIQUE),
        ([0], [0, 1], _NOT_BICLIQUE),
        ([0, 0], [3], _NOT_BICLIQUE),
        ([0, 9], [1], _range_error(9)),
        ([0], [-1], _range_error(-1)),
        ([5], [-1], _range_error(5)),
        ([0, 0], [9], _range_error(9)),
    ]

    @staticmethod
    def check(capsys, argv, expected):
        code, out, err = expected
        if isinstance(out, dict):
            out = json.dumps(out, indent=2) + "\n"
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("cmd", ["solve", "exact"])
    @pytest.mark.parametrize("ids,solve_expected,exact_expected", SOLVE_EXACT)
    def test_targets(self, tmp_path, capsys, p4_file, cmd, ids, solve_expected, exact_expected):
        targets = tmp_path / "targets.txt"
        targets.write_text(ids)
        algo = ["--algo", "classical"] if cmd == "solve" else []
        expected = solve_expected if cmd == "solve" else exact_expected
        self.check(capsys, [cmd, *algo, "--targets", str(targets), p4_file], expected)

    @pytest.mark.parametrize("ds_ids,target_ids,expected", VERIFY_DS)
    def test_verify_ds(self, tmp_path, capsys, p4_file, ds_ids, target_ids, expected):
        ds = tmp_path / "ds.txt"
        ds.write_text(ds_ids)
        argv = ["verify", "--ds", str(ds), p4_file]
        if target_ids is not None:
            targets = tmp_path / "targets.txt"
            targets.write_text(target_ids)
            argv[1:1] = ["--targets", str(targets)]
        self.check(capsys, argv, expected)

    @pytest.mark.parametrize("left,right,expected", WITNESS)
    def test_verify_witness(self, tmp_path, capsys, c4_file, left, right, expected):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"left": left, "right": right}))
        self.check(capsys, ["verify", "--witness", str(w), c4_file], expected)
