import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_neighborhood

from domset import graph
from domset.errors import ParseError, RangeError, ResourceLimitError, ValidationError
from domset.generators import gen_gnp, gen_random_tree
from domset.graph import Graph, is_dominating, parse_graph, serialize_graph


def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


class TestParse:
    def test_single_edge(self):
        g = parse_graph("p ds 2 1\ne 0 1")
        assert (g.n, g.m) == (2, 1)
        assert g.adj == ((1,), (0,))

    def test_isolated_vertices(self):
        g = parse_graph("p ds 3 0")
        assert (g.n, g.m) == (3, 0)
        assert g.adj == ((), (), ())

    def test_path(self):
        g = parse_graph("p ds 4 3\ne 0 1\ne 1 2\ne 2 3")
        assert g.adj[1] == (0, 2)

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("c hello\n\np ds 2 1\nc mid\ne 0 1\nc tail\n")
        assert g.m == 1

    def test_duplicate_and_reversed_edges_collapse(self):
        g = parse_graph("p ds 3 3\ne 0 1\ne 1 0\ne 0 1")
        assert g.m == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("p ds 2 1\nedge 0 1")
        assert exc.value.line == 2

    def test_out_of_range_vertex(self):
        with pytest.raises(RangeError):
            parse_graph("p ds 2 1\ne 0 2")

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            parse_graph("p ds 2 1\ne 1 1")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph("e 0 1")

    @pytest.mark.parametrize("text", ["", "c only a comment\n\n"], ids=["empty", "comments"])
    def test_no_header_line_at_all(self, text):
        with pytest.raises(ParseError, match="^missing 'p ds <n> <m>' header$"):
            parse_graph(text)

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_graph("p ds 3 2\ne 0 1")
        with pytest.raises(ParseError):
            parse_graph("p ds 3 1\ne 0 1\ne 1 2")

    def test_bytes_accepted(self):
        assert parse_graph(b"p ds 2 1\ne 0 1").m == 1

    def test_undecodable_bytes_are_parse_error(self):
        with pytest.raises(ParseError, match="not UTF-8 text .* at byte 9"):
            parse_graph(b"p ds 2 0\n\xff")


class TestConstructor:
    # parse_graph checks first, so only a directly built Graph reaches these
    @pytest.mark.parametrize("n, edges, error, message", [
        (-1, [], RangeError, "vertex count must be >= 0, got -1"),
        (3, [(0, 3)], RangeError, "edge (0,3) out of range for n=3"),
        (3, [(-1, 0)], RangeError, "edge (-1,0) out of range for n=3"),
        (3, [(0, 1), (2, 2)], ValidationError, "self-loop at vertex 2"),
    ], ids=["negative-n", "endpoint-above", "endpoint-below", "self-loop"])
    def test_checks_its_own_input(self, n, edges, error, message):
        with pytest.raises(error) as exc:
            Graph(n, edges)
        assert str(exc.value) == message


class TestQueries:
    def test_closed_neighborhood_path(self):
        assert closed_neighborhood(p4(), 1) == (0, 1, 2)

    def test_closed_neighborhood_isolated(self):
        g = Graph(3)
        assert closed_neighborhood(g, 2) == (2,)

    def test_closed_neighborhood_star(self):
        g = Graph(6, [(0, i) for i in range(1, 6)])
        assert closed_neighborhood(g, 0) == (0, 1, 2, 3, 4, 5)

    def test_closed_neighborhood_range(self):
        with pytest.raises(RangeError):
            closed_neighborhood(p4(), 4)

    def test_is_dominating_path(self):
        assert is_dominating(p4(), [1, 2])
        assert not is_dominating(p4(), [0])

    def test_is_dominating_vacuous(self):
        assert is_dominating(p4(), [], targets=[])

    def test_is_dominating_subset_targets(self):
        assert is_dominating(p4(), [0], targets=[0, 1])

    def test_whole_vertex_set_always_dominates(self):
        for g in (p4(), Graph(5), Graph(1)):
            assert is_dominating(g, range(g.n))


graphs = st.builds(
    gen_gnp,
    st.integers(min_value=0, max_value=24),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**64 - 1),
)


class TestRoundTripAndValidate:
    @given(graphs)
    @settings(max_examples=80)
    def test_serialize_parse_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @given(graphs, st.integers(min_value=0, max_value=23))
    @settings(max_examples=40)
    def test_vertex_in_own_closed_neighborhood(self, g, v):
        if v < g.n:
            assert v in closed_neighborhood(g, v)


class TestSize:
    def test_memory_is_linear(self):
        # adjacency lists take about 6 MiB here; one n-bit mask per
        # vertex would take about 40 MiB
        edges = gen_random_tree(20000, 1).edges()
        tracemalloc.start()
        try:
            Graph(20000, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_vertex_limit_checked_before_allocation(self, monkeypatch):
        # 10^5 vertices would take about 20 MiB of neighbor sets
        monkeypatch.setattr(graph, "MAX_VERTICES", 10)
        assert parse_graph("p ds 10 0").n == 10
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="vertex count 100000 exceeds the limit 10"):
                parse_graph("p ds 100000 0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
