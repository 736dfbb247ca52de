import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_all_min_dominating,
    brute_has_biclique,
    brute_min_dominating,
    deep_search_graph,
    lower_recursion_limit,
)

from domset.errors import ResourceLimitError, ValidationError
from domset.generators import gen_gnp, gen_grid, gen_random_tree
from domset.graph import Graph, is_dominating
from domset.oracles import (
    _best_cover,
    _bound_and_target,
    enumerate_min_dominating_sets,
    exact_min_dominating_set,
    harmonic,
    has_biclique,
)
from domset.solvers import solve_classical, solve_fixed_i, verify_witness


def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def star6():
    return Graph(6, [(0, i) for i in range(1, 6)])


class TestBitmaskQueries:
    """The two bit-set queries behind the exact oracle: max-coverage pick
    (the ratio bound), and packing bound with branching target in one
    pass. Every tie goes to the lowest vertex id."""

    def test_best_cover_ties_go_low(self):
        assert _best_cover([0b011, 0b110, 0b101], 0b111) == (0, 2)

    def test_best_cover_excluded(self):
        assert _best_cover([0b011, 0b110, 0b101], 0b111, excluded=0b001) == (1, 2)

    def test_best_cover_all_excluded(self):
        assert _best_cover([0b1], 0b1, excluded=0b1) == (-1, 0)

    def test_best_cover_empty_active(self):
        assert _best_cover([0b11, 0b10], 0) == (0, 0)

    def test_pack_bound_disjoint(self):
        # two vertices with disjoint closed neighborhoods
        assert _bound_and_target([0b0011, 0b0011, 0b1100, 0b1100], 0b1111)[0] == 2

    def test_pack_bound_infeasible(self):
        assert _bound_and_target([0b01, 0b10], 0b11, banned=0b10)[0] == -1

    def test_pick_target_prefers_fewest_dominators(self):
        assert _bound_and_target([0b001, 0b111, 0b110], 0b111)[1] == 0

    def test_pick_target_empty(self):
        assert _bound_and_target([0b1], 0)[1] == -1


class TestExact:
    def test_star(self):
        r = exact_min_dominating_set(star6())
        assert r.opt_size == 1
        assert r.witness_set == (0,)

    def test_path_matches_brute_force(self):
        r = exact_min_dominating_set(p4())
        assert r.opt_size == brute_min_dominating(p4())[0] == 2
        assert is_dominating(p4(), r.witness_set)

    def test_edgeless(self):
        for k in (1, 3, 6):
            assert exact_min_dominating_set(Graph(k)).opt_size == k

    def test_empty_targets(self):
        r = exact_min_dominating_set(p4(), targets=[])
        assert (r.opt_size, r.witness_set) == (0, ())

    def test_subset_targets(self):
        r = exact_min_dominating_set(p4(), targets=[0, 1])
        assert r.opt_size == 1

    def test_budget_exceeded(self):
        r = exact_min_dominating_set(p4(), budget=1)
        assert r.exceeded
        assert r.opt_size is None and r.witness_set is None

    def test_budget_met(self):
        r = exact_min_dominating_set(p4(), budget=2)
        assert not r.exceeded
        assert r.opt_size == 2

    @given(
        st.integers(min_value=0, max_value=12),
        st.sampled_from([0.0, 0.1, 0.3, 0.7]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, p, seed):
        g = gen_gnp(n, p, seed)
        expect, _ = brute_min_dominating(g)
        r = exact_min_dominating_set(g)
        assert r.opt_size == expect
        assert is_dominating(g, r.witness_set)
        assert len(r.witness_set) == expect

    def test_sandwich_against_greedy(self):
        for seed in range(15):
            g = gen_gnp(18, 0.2, seed)
            opt = exact_min_dominating_set(g).opt_size
            greedy = len(solve_classical(g).dominating_set)
            assert opt <= greedy <= harmonic(g.n) * opt + 1e-9
            for i in (2, 3):
                assert opt <= len(solve_fixed_i(g, i).dominating_set)

    def test_targets_iterator_read_once(self):
        # the greedy seed must see the same targets as the search
        assert exact_min_dominating_set(p4(), iter(range(4))) == exact_min_dominating_set(p4())
        assert enumerate_min_dominating_sets(p4(), iter(range(4))) == [(0, 2), (0, 3), (1, 2), (1, 3)]


class TestEnumerate:
    def test_path(self):
        assert enumerate_min_dominating_sets(p4()) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_star(self):
        assert enumerate_min_dominating_sets(star6()) == [(0,)]

    def test_k2(self):
        assert enumerate_min_dominating_sets(Graph(2, [(0, 1)])) == [(0,), (1,)]

    def test_empty_targets(self):
        assert enumerate_min_dominating_sets(p4(), targets=[]) == [()]

    def test_matches_brute_force(self):
        for seed in range(10):
            g = gen_random_tree(9, seed)
            assert enumerate_min_dominating_sets(g) == brute_all_min_dominating(g)


class TestHasBiclique:
    def test_c4_is_k22(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = has_biclique(g, 2, 2)
        assert w is not None
        assert (w.left, w.right) == ((0, 2), (1, 3))
        assert verify_witness(g, w)

    def test_tree_has_no_k22(self):
        assert has_biclique(p4(), 2, 2) is None

    def test_complete_graph_k33(self):
        g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        w = has_biclique(g, 3, 3)
        assert w is not None
        assert verify_witness(g, w)

    def test_cap_guard(self):
        with pytest.raises(ResourceLimitError):
            has_biclique(Graph(12), 5, 5)
        assert has_biclique(Graph(12, [(0, 1)]), 5, 5, max_left=5) is None

    def test_bad_sides(self):
        with pytest.raises(ValidationError):
            has_biclique(p4(), 2, 1)
        with pytest.raises(ValidationError):
            has_biclique(p4(), 0, 2)

    @given(
        st.integers(min_value=0, max_value=10),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_full_enumeration(self, n, p, seed, sides):
        a, b = sides
        g = gen_gnp(n, p, seed)
        w = has_biclique(g, a, b)
        assert (w is not None) == brute_has_biclique(g, a, b)
        if w is not None:
            assert verify_witness(g, w)
            assert len(w.left) == a and len(w.right) == b

    def test_monotone_in_both_sides(self):
        for seed in range(8):
            g = gen_gnp(12, 0.5, seed)
            for a, b in ((2, 2), (2, 3), (3, 3)):
                if has_biclique(g, a, b) is not None:
                    for a2 in range(1, a + 1):
                        for b2 in range(a2, b + 1):
                            assert has_biclique(g, a2, b2) is not None

    def test_grid_k23_free(self):
        g = gen_grid(4, 4)
        assert has_biclique(g, 2, 3) is None
        assert has_biclique(g, 2, 2) is not None  # any unit square


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(4) == pytest.approx(2.083333333333, abs=1e-9)

    def test_monotone_log_bound(self):
        for n in (1, 5, 50, 500):
            assert harmonic(n) <= math.log(n) + 1 + 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            harmonic(-1)


class TestHardPaths:
    def test_budget_search_below_greedy_seed(self):
        # gnp(14, 0.25, 10): classical greedy finds 6, the optimum is 4,
        # so a budget of 4 forces the search to beat the seed on its own
        g = gen_gnp(14, 0.25, 10)
        assert len(solve_classical(g).dominating_set) == 6
        r = exact_min_dominating_set(g, budget=4)
        assert not r.exceeded
        assert r.opt_size == 4
        assert is_dominating(g, r.witness_set)
        assert exact_min_dominating_set(g, budget=3).exceeded

    def test_budget_zero(self):
        g = gen_gnp(6, 0.5, 1)
        assert exact_min_dominating_set(g, targets=[], budget=0).opt_size == 0
        assert exact_min_dominating_set(g, budget=0).exceeded

    def test_zero_vertex_graph(self):
        g = Graph(0)
        assert exact_min_dominating_set(g).opt_size == 0
        assert enumerate_min_dominating_sets(g) == [()]

    def test_recursion_limit_is_resource_error(self):
        # the search recurses once per chosen vertex: about 105 levels here
        g = deep_search_graph()
        expected = exact_min_dominating_set(g)
        assert expected.opt_size == 104
        old = lower_recursion_limit(50)
        try:
            with pytest.raises(ResourceLimitError, match="recursion limit"):
                exact_min_dominating_set(g)
        finally:
            sys.setrecursionlimit(old)
        assert exact_min_dominating_set(g) == expected
