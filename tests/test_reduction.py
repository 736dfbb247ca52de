import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_min_set_cover, reference_set_cover

from domset.errors import ParseError, ValidationError
from domset.generators import gen_intersection_one
from domset.graph import is_dominating
from domset.oracles import exact_min_dominating_set, has_biclique
from domset.reduction import (
    SetCoverInstance,
    build_instance,
    forward_solution,
    map_solution_back,
    parse_set_cover,
    reduce_set_cover,
    serialize_set_cover,
)


def triangle_family():
    return build_instance([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def three_family():
    return build_instance([1, 2, 3, 4], [(1, 2), (3, 4), (1, 3)])


class TestValidation:
    def test_pairwise_singletons_ok(self):
        sc = triangle_family()
        assert SetCoverInstance(sc.universe, sc.sets) == sc

    def test_shared_pair_rejected_at_build(self):
        with pytest.raises(ValidationError, match="0 and 1"):
            build_instance([1, 2, 3, 4], [(1, 2, 3), (1, 2, 4)])

    def test_single_set_vacuous(self):
        assert SetCoverInstance((1, 2, 3), ((1, 2, 3),)).sets == ((1, 2, 3),)

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

    # built directly, without build_instance: reduce_set_cover and
    # map_solution_back rely on these checks and make none of their own
    @pytest.mark.parametrize("universe, sets, message", [
        ((1, 2), ((1,), (3,)), "set 1 contains [3] outside the universe"),
        ((1, 1), ((1,),), "duplicate elements in universe"),
        ((1, 2), ((1,),), "elements [2] are covered by no set"),
        ((1, 2), ((2, 1),), "set 0 is not strictly increasing"),
        ((1, 2), ((1, 1, 2),), "set 0 is not strictly increasing"),
        ((1, 2, 3), ((1, 2), (1, 2, 3)), "sets 0 and 1 share [1, 2] (intersection > 1)"),
        ((1, 2), ((1, 2), (1, 2)), "duplicate sets in family"),
        ((), (), "empty universe"),
        ((1,), ((), (1,)), "set 0 is empty"),
    ], ids=["outside", "repeated-element", "uncovered", "unsorted", "repeat-in-set",
            "shared-pair", "duplicate-set", "empty-universe", "empty-set"])
    def test_direct_construction_checked(self, universe, sets, message):
        with pytest.raises(ValidationError) as exc:
            SetCoverInstance(universe, sets)
        assert str(exc.value) == message


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

    def test_parse_rejects_deep_nesting(self):
        # json.loads raises RecursionError past the interpreter's recursion limit
        with pytest.raises(ParseError, match="^invalid JSON: maximum recursion depth exceeded"):
            parse_set_cover("[" * 200_000)

    def test_parse_reports_first_violating_pair(self):
        with pytest.raises(ValidationError, match="sets 0 and 2"):
            parse_set_cover('{"universe": [1,2,3,4], "sets": [[1,2,3],[4],[1,2]]}')

    def test_first_pair_is_lexicographic(self):
        # sets 1 and 2 clash before set 3 is read, but (0, 3) comes first
        with pytest.raises(ValidationError, match=r"^sets 0 and 3 share \[1, 2\] "):
            build_instance(range(1, 7), [(1, 2), (3, 4), (3, 4, 5), (1, 2, 6)])


elements = st.integers(min_value=0, max_value=6)


@st.composite
def raw_families(draw):
    """(universe, sets) as lists. Small distinct sets over 7 elements
    share pairs often; the universe is their union, and about half the
    families get one more fault: a shuffled universe, an empty or
    repeated set, a universe element added or dropped, or a free universe."""
    sets = draw(st.lists(st.lists(elements, min_size=1, max_size=4),
                         max_size=8, unique_by=frozenset))
    universe = sorted({e for s in sets for e in s})
    fault = draw(st.sampled_from(
        ("none",) * 6 + ("shuffle", "empty set", "repeat set", "add", "drop", "free")))
    if fault == "shuffle":
        universe = draw(st.permutations(universe))
    elif fault == "empty set":
        sets.insert(draw(st.integers(0, len(sets))), [])
    elif fault == "repeat set" and sets:
        sets.append(draw(st.sampled_from(sets))[::-1])
    elif fault == "add":
        universe.append(draw(elements))
    elif fault == "drop" and universe:
        universe.remove(draw(st.sampled_from(universe)))
    elif fault == "free":
        universe = draw(st.lists(elements, max_size=8))
    return universe, sets


def outcome(make, *args):
    """The (universe, sets) built, or the exception's type and message."""
    try:
        got = make(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return got if isinstance(got, tuple) else (got.universe, got.sets)


class TestMatchesReferenceValidation:
    """build_instance and parse_set_cover agree with the definitions and
    the all-pairs scan in tests/helpers.py: same instance, or same
    exception type and message."""

    @given(raw_families())
    @settings(max_examples=500, deadline=None)
    def test_build_instance(self, family):
        assert outcome(build_instance, *family) == outcome(reference_set_cover, *family)

    @given(raw_families())
    @settings(max_examples=300, deadline=None)
    def test_parse_set_cover(self, family):
        text = json.dumps({"universe": family[0], "sets": family[1]})
        assert outcome(parse_set_cover, text) == outcome(reference_set_cover, *family)
