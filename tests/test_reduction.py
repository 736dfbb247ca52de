import pytest

from helpers import brute_min_set_cover

from domset.errors import ParseError, ValidationError
from domset.generators import gen_intersection_one
from domset.graph import is_dominating
from domset.oracles import exact_min_dominating_set, has_biclique
from domset.reduction import (
    build_instance,
    forward_solution,
    map_solution_back,
    parse_set_cover,
    reduce_set_cover,
    serialize_set_cover,
    validate_intersection_one,
)


def triangle_family():
    return build_instance([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def three_family():
    return build_instance([1, 2, 3, 4], [(1, 2), (3, 4), (1, 3)])


class TestValidation:
    def test_pairwise_singletons_ok(self):
        assert validate_intersection_one(triangle_family())

    def test_shared_pair_rejected_at_build(self):
        with pytest.raises(ValidationError, match="0 and 1"):
            build_instance([1, 2, 3, 4], [(1, 2, 3), (1, 2, 4)])

    def test_single_set_vacuous(self):
        assert validate_intersection_one(build_instance([1, 2, 3], [(1, 2, 3)]))

    def test_duplicate_sets_rejected(self):
        with pytest.raises(ValidationError, match="duplicate sets"):
            build_instance([1, 2], [(1, 2), (2, 1)])

    def test_uncovered_element_rejected(self):
        with pytest.raises(ValidationError, match="covered by no set"):
            build_instance([1, 2, 3], [(1, 2)])

    def test_empty_universe_rejected(self):
        with pytest.raises(ValidationError):
            build_instance([], [])

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            build_instance([1], [(), (1,)])

    def test_element_outside_universe_rejected(self):
        with pytest.raises(ValidationError):
            build_instance([1, 2], [(1, 2), (3,)])


class TestReduce:
    def test_three_set_counts(self):
        ri = reduce_set_cover(three_family())
        assert (ri.graph.n, ri.graph.m) == (9, 10)
        assert ri.x_vertex == 7 and ri.y_vertex == 8
        assert has_biclique(ri.graph, 3, 3) is None

    def test_smallest_instance(self):
        ri = reduce_set_cover(build_instance([1], [(1,)]))
        assert (ri.graph.n, ri.graph.m) == (4, 3)

    def test_two_set_counts(self):
        ri = reduce_set_cover(build_instance([1, 2, 3], [(1, 2), (2, 3)]))
        assert (ri.graph.n, ri.graph.m) == (7, 7)

    def test_wiring(self):
        ri = reduce_set_cover(three_family())
        g = ri.graph
        # y only sees x; x sees y and every set vertex
        assert g.adj[ri.y_vertex] == (ri.x_vertex,)
        assert set(g.adj[ri.x_vertex]) == set(ri.set_of) | {ri.y_vertex}
        # element vertex adjacency mirrors membership
        for v, elem in ri.element_of.items():
            covering = {ri.set_of[w] for w in g.adj[v]}
            assert covering == {
                idx for idx, s in enumerate(three_family().sets) if elem in s
            }


class TestSolutionMaps:
    def test_forward_cover(self):
        ri = reduce_set_cover(three_family())
        d = forward_solution(ri, [0, 1])
        assert d == (4, 5, 7)
        assert is_dominating(ri.graph, d)

    def test_forward_smallest(self):
        ri = reduce_set_cover(build_instance([1], [(1,)]))
        assert len(forward_solution(ri, [0])) == 2

    def test_forward_rejects_non_cover(self):
        ri = reduce_set_cover(three_family())
        with pytest.raises(ValidationError, match="misses"):
            forward_solution(ri, [0])
        with pytest.raises(ValidationError):
            forward_solution(ri, [0, 0, 1])
        with pytest.raises(ValidationError):
            forward_solution(ri, [0, 1, 9])

    def test_map_back_smallest(self):
        ri = reduce_set_cover(build_instance([1], [(1,)]))
        assert map_solution_back(ri, [ri.x_vertex, 1]) == [0]

    def test_map_back_element_goes_to_lowest_set(self):
        sc = build_instance([1, 2, 3], [(1, 2), (2, 3)])
        ri = reduce_set_cover(sc)
        # element vertex for 2 (= vertex 1) is in both sets; expect set 0
        d = [1, 3, 4, ri.x_vertex]  # element 2, set vertices, x
        assert 0 in map_solution_back(ri, d)

    def test_map_back_y_becomes_x(self):
        sc = three_family()
        ri = reduce_set_cover(sc)
        d = [ri.y_vertex] + sorted(ri.set_of)
        assert map_solution_back(ri, d) == [0, 1, 2]

    def test_map_back_rejects_non_dominating(self):
        ri = reduce_set_cover(three_family())
        with pytest.raises(ValidationError):
            map_solution_back(ri, [ri.x_vertex])

    def test_round_trip_never_grows(self):
        sc = three_family()
        ri = reduce_set_cover(sc)
        for cover in ([0, 1], [0, 1, 2]):
            back = map_solution_back(ri, forward_solution(ri, cover))
            assert len(back) <= len(cover)
            covered = set()
            for idx in back:
                covered.update(sc.sets[idx])
            assert covered == set(sc.universe)

    def test_shrinks_any_dominating_set_with_x_or_y(self):
        sc = three_family()
        ri = reduce_set_cover(sc)
        d = [0, 1, 2, 3, ri.y_vertex]  # all element vertices plus y
        back = map_solution_back(ri, d)
        assert len(back) <= len(d) - 1


class TestOptimumCorrespondence:
    def test_seeded_instances(self):
        checked = 0
        seed = 0
        while checked < 12:
            sc = gen_intersection_one(4 + seed % 7, 2 + seed % 3, 3, seed)
            seed += 1
            if len(sc.sets) > 8:
                continue
            checked += 1
            ri = reduce_set_cover(sc)
            gamma = exact_min_dominating_set(ri.graph).opt_size
            assert gamma == brute_min_set_cover(sc) + 1
            assert has_biclique(ri.graph, 3, 3) is None


class TestFileFormat:
    def test_round_trip(self):
        sc = three_family()
        assert parse_set_cover(serialize_set_cover(sc)) == sc

    def test_parse_rejects_bad_json(self):
        with pytest.raises(ParseError):
            parse_set_cover("not json")

    def test_parse_rejects_undecodable_bytes(self):
        with pytest.raises(ParseError, match="not UTF-8 text .* at byte 0"):
            parse_set_cover(b"\xff")

    def test_parse_rejects_wrong_shape(self):
        with pytest.raises(ParseError):
            parse_set_cover('{"universe": [1]}')
        with pytest.raises(ParseError):
            parse_set_cover('{"universe": [1], "sets": [["x"]]}')

    @pytest.mark.parametrize("text,message", [
        ('{"universe": [true, 2], "sets": [[1, 2]]}', "'universe' must be a list of integers"),
        ('{"universe": [1, 2], "sets": [[true, 2]]}', "'sets' must be a list of integer lists"),
        ('{"universe": [true, 2], "sets": [[true, 2]]}', "'universe' must be a list of integers"),
        ('{"universe": [0, 1], "sets": [[false], [1]]}', "'sets' must be a list of integer lists"),
    ], ids=["universe", "sets", "both", "false-in-sets"])
    def test_parse_rejects_booleans(self, text, message):
        # JSON booleans load as bool, a subclass of int
        with pytest.raises(ParseError, match=message):
            parse_set_cover(text)

    def test_parse_rejects_overlong_integer(self):
        # json.loads raises a bare ValueError past int's digit limit
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_set_cover('{"universe": [%s], "sets": [[1]]}' % ("1" * 5000))

    def test_parse_reports_first_violating_pair(self):
        with pytest.raises(ValidationError, match="sets 0 and 2"):
            parse_set_cover('{"universe": [1,2,3,4], "sets": [[1,2,3],[4],[1,2]]}')
