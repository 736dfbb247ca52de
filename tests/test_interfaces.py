"""Cross-cutting interface checks: text formats, result documents,
CLI flag combinations, and the public import surface."""

import json

import pytest

import domset
from domset.cli import main
from domset.graph import parse_graph, serialize_graph
from domset.solvers import solve_auto, solve_classical

from test_cli import read_csv


class TestTextFormats:
    def test_messy_input_normalizes_and_round_trips(self):
        text = (
            "c header comment\n"
            "p ds 5 4\n"
            "e 3 1\n"
            "c between edges\n"
            "e 1 3\n"
            "e 0 1\n"
            "\n"
            "e 4 0\n"
        )
        g = parse_graph(text)
        assert g.m == 3  # duplicate orientation collapsed
        normalized = serialize_graph(g)
        assert normalized == "p ds 5 3\ne 0 1\ne 0 4\ne 1 3\n"
        assert parse_graph(normalized) == g

    def test_result_document_shape(self):
        g = parse_graph("p ds 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3")
        doc = solve_auto(g).as_document()
        assert list(doc) == [
            "algorithm", "dominating_set", "size", "t_detected", "witness", "rounds",
        ]
        assert doc["witness"] == {"left": [0, 2], "right": [1, 3]}
        plain = solve_classical(g).as_document()
        assert plain["t_detected"] is None and plain["witness"] is None
        json.dumps(doc)  # serializable as-is


class TestCliFlagCombinations:
    @pytest.fixture()
    def star_file(self, tmp_path):
        path = tmp_path / "star.gr"
        path.write_text("p ds 6 5\ne 0 1\ne 0 2\ne 0 3\ne 0 4\ne 0 5\n")
        return str(path)

    def test_hybrid_with_explicit_i(self, capsys, star_file):
        assert main(["solve", "--algo", "hybrid", "--i", "3", star_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dominating_set"] == [0]

    def test_exact_with_targets(self, tmp_path, capsys, star_file):
        targets = tmp_path / "t.txt"
        targets.write_text("1\n2\n")
        assert main(["exact", "--targets", str(targets), star_file]) == 0
        assert json.loads(capsys.readouterr().out)["opt_size"] == 1

    def test_bench_timings_flag(self, tmp_path):
        out = tmp_path / "t.csv"
        args = ["bench", "--gen", "grid:w=3,h=3", "--algos", "classical",
                "--out", str(out)]
        assert main(args) == 0
        assert read_csv(out)[0]["elapsed_micros"] == ""
        assert main(args[:-2] + ["--timings", "--out", str(out)]) == 0
        assert read_csv(out)[0]["elapsed_micros"] != ""

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["solve", "--algo", "classical", "/nonexistent.gr"]) == 1

    def test_solve_out_file(self, tmp_path, star_file):
        out = tmp_path / "r.json"
        assert main(["solve", "--algo", "classical", "--out", str(out), star_file]) == 0
        assert json.loads(out.read_text())["size"] == 1


    @pytest.mark.parametrize(
        "error, code",
        [
            (domset.ParseError, 1),
            (domset.RangeError, 2),
            (domset.ValidationError, 2),
            (domset.ResourceLimitError, 3),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_error_exit_code(self, monkeypatch, capsys, star_file, error, code):
        def fail(g, targets=None):
            raise error("boom")

        monkeypatch.setattr(domset.solvers, "solve_classical", fail)
        assert error.exit_code == code
        assert main(["solve", "--algo", "classical", star_file]) == code
        assert capsys.readouterr().err == "error: boom\n"

class TestImportSurface:
    def test_all_names_resolve(self):
        for name in domset.__all__:
            assert getattr(domset, name) is not None


class TestMalformedInputs:
    def test_bad_genspec_value(self, capsys):
        assert main(["bench", "--gen", "gnp:n=ten,p=0.1", "--algos", "classical"]) == 2

    def test_bad_witness_file(self, tmp_path, capsys):
        g = tmp_path / "g.gr"
        g.write_text("p ds 2 1\ne 0 1\n")
        w = tmp_path / "w.json"
        w.write_text("{not json")
        assert main(["verify", "--witness", str(w), str(g)]) == 1
        w.write_text('{"left": [0]}')
        assert main(["verify", "--witness", str(w), str(g)]) == 1

    @pytest.fixture()
    def inputs(self, tmp_path):
        (tmp_path / "g.gr").write_text("p ds 2 1\ne 0 1\n")
        (tmp_path / "latin1.gr").write_bytes(b"c caf\xe9\np ds 2 1\ne 0 1\n")
        (tmp_path / "latin1.txt").write_bytes(b"0 \xff\n")
        (tmp_path / "w.json").write_text('{"left": ["a"], "right": [1]}')
        (tmp_path / "dir").mkdir()
        return tmp_path

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--algo", "classical", "{d}/latin1.gr"],
            ["verify", "--ds", "{d}/latin1.txt", "{d}/g.gr"],
            ["solve", "--algo", "classical", "{d}/dir"],
            ["reduce", "{d}/dir"],
            ["bench", "--gen", "grid:w=2,h=2", "--algos", "fixed:abc"],
            ["verify", "--witness", "{d}/w.json", "{d}/g.gr"],
        ],
        ids=[
            "non-utf8-graph",
            "non-utf8-ds",
            "directory-graph",
            "directory-setcover",
            "non-integer-i",
            "non-integer-witness-id",
        ],
    )
    def test_unreadable_input_is_usage_error(self, inputs, capsys, argv):
        assert main([a.format(d=inputs) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")
