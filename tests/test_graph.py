import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_neighborhood, reference_graph

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


graphs = st.builds(
    gen_gnp,
    st.integers(min_value=0, max_value=24),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**64 - 1),
)


def _edge_lines(text, edit):
    """`text` with `edit` applied to the fields [u, v] of each edge line;
    `edit` returns a list of such pairs, whose count goes into the header."""
    header, *lines = text.splitlines()
    pairs = [p for ln in lines for p in edit(ln.split()[1:])]
    n = header.split()[2]
    return "".join(f"{ln}\n" for ln in [f"p ds {n} {len(pairs)}", *(f"e {u} {v}" for u, v in pairs)])


# Texts that differ from the canonical one only in layout, each with
# whether its body (the text after the header line) is read whole.
LAYOUT_VARIANTS = {
    "canonical": (lambda t: t, True),
    # json.loads refuses leading zeros, so these go to the line reader
    "leading-zeros": (lambda t: _edge_lines(t, lambda e: [["0" + e[0], "00" + e[1]]]), False),
    "reversed-edges": (lambda t: _edge_lines(t, lambda e: [e[::-1]]), True),
    "duplicate-edges": (lambda t: _edge_lines(t, lambda e: [e, e[::-1]]), True),
    "comment": (lambda t: "c made by hand\n" + t, True),
    "crlf-header": (lambda t: t.replace("\n", "\r\n", 1), True),
    "comment-after-header": (lambda t: t.replace("\n", "\nc made by hand\n", 1), False),
    "blank-lines": (lambda t: t.replace("\n", "\n\n"), False),
    "tabs": (lambda t: t.replace(" ", "\t"), False),
    "crlf": (lambda t: t.replace("\n", "\r\n"), False),
    "no-final-newline": (lambda t: t[:-1], False),
    "trailing-space": (lambda t: t.replace("\n", " \n"), False),
}

# Malformed texts; those with a canonical body fall back to the line
# loop for their error.
MALFORMED = {
    "too-few-edges": "p ds 3 2\ne 0 1\n",
    "too-many-edges": "p ds 3 1\ne 0 1\ne 1 2\n",
    "out-of-range": "p ds 3 2\ne 0 1\ne 0 3\n",
    "self-loop": "p ds 3 1\ne 1 1\n",
    "self-loop-before-range": "p ds 3 2\ne 1 1\ne 0 3\n",
    "range-before-self-loop": "p ds 3 2\ne 0 3\ne 1 1\n",
    "plus-id": "p ds 3 1\ne +1 2\n",
    "underscore-id": "p ds 11 1\ne 1_0 2\n",
    "non-ascii-id": "p ds 4 1\ne 0 \u0663\n",
    "long-id": "p ds 4 1\ne 0 " + "1" * 5000 + "\n",
    "long-zero-padded-id": "p ds 4 1\ne 0 " + "0" * 5000 + "1\n",
    "long-count": "p ds 4 " + "1" * 5000 + "\ne 0 1\n",
    "crlf-out-of-range": "p ds 3 1\r\ne 0 3\r\n",
    "comment-out-of-range": "c made by hand\np ds 3 1\ne 0 3\n",
    "no-header": "e 0 1\n",
    "edges-past-zero-count": "p ds 3 0\ne 0 1\n",
}


def _failure(parse, text):
    with pytest.raises(Exception) as exc:
        parse(text)
    return type(exc.value), str(exc.value), getattr(exc.value, "line", None)


def _parse_recorded(text, reads):
    """parse_graph(text), appending to `reads`, for each call of
    `_read_body`, whether it read the body whole."""
    read_body = graph._read_body

    def recorded(*args):
        g = read_body(*args)
        reads.append(g is not None)
        return g

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_read_body", recorded)
        return parse_graph(text)


def _parse_line_by_line(text):
    """parse_graph(text) with the whole-body read turned off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_read_body", lambda *args: None)
        return parse_graph(text)


def _outcome(parse, text):
    """parse(text), or its failure as (type, message, line)."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


class TestParsePaths:
    """parse_graph reads a canonical body with whole-text operations and
    everything else line by line; the result and every error do not
    depend on which way the body is read."""

    @staticmethod
    def check_layout(g, name):
        variant, whole = LAYOUT_VARIANTS[name]
        text = variant(serialize_graph(g))
        reads = []
        assert _parse_recorded(text, reads) == g
        assert _parse_line_by_line(text) == g
        if g.m:  # with no edges most layouts leave an empty, canonical body
            assert reads == [whole]

    @pytest.mark.parametrize("name", LAYOUT_VARIANTS)
    def test_layout_variants_give_an_equal_graph(self, name):
        self.check_layout(gen_gnp(9, 0.4, 3), name)

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_variants_fail_alike(self, name):
        text = MALFORMED[name]
        reads = []
        failure = _failure(lambda t: _parse_recorded(t, reads), text)
        assert True not in reads
        assert failure == _failure(_parse_line_by_line, text)

    def test_first_bad_line_is_reported(self):
        assert _failure(parse_graph, MALFORMED["self-loop-before-range"]) == (
            ValidationError, "line 2: self-loop 'e 1 1'", None)
        assert _failure(parse_graph, MALFORMED["range-before-self-loop"]) == (
            RangeError, "line 2: endpoint out of range in 'e 0 3'", None)
        assert _failure(parse_graph, MALFORMED["comment-out-of-range"]) == (
            RangeError, "line 3: endpoint out of range in 'e 0 3'", None)

    # int() takes at most 4300 digits; json.loads refuses a padded id
    @pytest.mark.parametrize("digits", [4300, 4301])
    @pytest.mark.parametrize("pad", ["1", "0"], ids=["big", "zero-padded"])
    def test_ids_at_the_digit_limit_read_alike(self, digits, pad):
        text = "p ds 4 2\ne 0 1\ne 2 " + pad * (digits - 1) + "3\n"
        reads = []
        outcome = _outcome(lambda t: _parse_recorded(t, reads), text)
        assert reads == [False]
        assert outcome == _outcome(_parse_line_by_line, text)
        if (pad, digits) == ("0", 4300):
            assert outcome == Graph(4, [(0, 1), (2, 3)])

    @pytest.mark.parametrize("text", ["p ds 3 1\ne 0 1", "p ds 3 2\ne 0 1\ne 1 2"],
                             ids=["one-line", "two-lines"])
    def test_last_line_without_line_break(self, text):
        reads = []
        g = _parse_recorded(text, reads)
        assert reads == [False]
        assert g == _parse_line_by_line(text) == parse_graph(text + "\n")

    def test_body_check_keeps_no_state_per_line(self):
        # a fullmatch of the repeated edge line peaks at about 15x the text
        text = "p ds 300001 300000\n" + "".join(f"e {v} {v + 1}\n" for v in range(300000))
        pos = text.index("\n") + 1
        tracemalloc.start()
        try:
            assert graph._is_canonical_body(text, pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) // 20
        assert not graph._is_canonical_body(text + "c\n", pos)

    @given(graphs, st.sampled_from(sorted(LAYOUT_VARIANTS)))
    @settings(max_examples=60)
    def test_drawn_graphs_in_every_layout(self, g, name):
        self.check_layout(g, name)

    @given(st.text(alphabet="ab \t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_lines_cut_like_splitlines(self, text):
        lines = list(graph._lines(text))
        assert [line for line, _ in lines] == text.splitlines()
        ends = list(accumulate(map(len, text.splitlines(keepends=True))))
        assert [end for _, end in lines] == ends


class TestConstructor:
    # parse_graph checks first, so only a directly built Graph reaches these
    @pytest.mark.parametrize("n, edges, error, message", [
        (-1, [], RangeError, "vertex count must be >= 0, got -1"),
        (3, [(0, 3)], RangeError, "edge (0,3) out of range for n=3"),
        (3, [(-1, 0)], RangeError, "edge (-1,0) out of range for n=3"),
        (3, [(0, 1), (2, 2)], ValidationError, "self-loop at vertex 2"),
        (3, [(0, 1), (2, 2), (0, 3)], ValidationError, "self-loop at vertex 2"),
        (3, [(0, 3), (2, 2)], RangeError, "edge (0,3) out of range for n=3"),
    ], ids=["negative-n", "endpoint-above", "endpoint-below", "self-loop",
            "self-loop-before-range", "range-before-self-loop"])
    def test_checks_its_own_input(self, n, edges, error, message):
        with pytest.raises(error) as exc:
            Graph(n, edges)
        assert str(exc.value) == message


class TestIdentity:
    @given(graphs, st.data())
    @settings(max_examples=60)
    def test_edge_order_and_repeats_do_not_matter(self, g, data):
        # each edge once or twice, in either orientation, in any order
        edges = [e if flip else e[::-1] for e in g.edges()
                 for flip in data.draw(st.lists(st.booleans(), min_size=1, max_size=2))]
        edges = data.draw(st.permutations(edges))
        other = Graph(g.n, edges)
        assert other == g
        assert hash(other) == hash(g)
        assert (other.m, other.adj) == reference_graph(g.n, edges)

    def test_repr(self):
        assert repr(p4()) == "Graph(n=4, m=3)"
        assert repr(Graph(0)) == "Graph(n=0, m=0)"
        assert repr(Graph(3, [(0, 1), (1, 0), (0, 1)])) == "Graph(n=3, m=1)"


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
        # 10^5 vertices would take about 6 MiB of adjacency rows, and
        # splitting 200 000 edge lines about 24 MiB
        monkeypatch.setattr(graph, "MAX_VERTICES", 10)
        assert parse_graph("p ds 10 0").n == 10
        many_edges = "p ds 11 200000\n" + "e 0 1\n" * 200000
        cases = [
            ("p ds 100000 0", 100000),
            (many_edges, 11),                 # canonical layout
            ("c first\n" + many_edges, 11),   # a comment before the header
            ("p ds 11 2\ne 0 1\ne x y", 11),   # a bad line after the header
        ]
        for text, n in cases:
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match=f"vertex count {n} exceeds the limit 10"):
                    parse_graph(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
