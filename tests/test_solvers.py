import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_all_min_dominating, brute_min_dominating, check_trace

from domset.errors import ValidationError
from domset.generators import gen_gnp, gen_grid, gen_random_tree
from domset.graph import Graph, closed_neighborhood, is_dominating
from domset.solvers import (
    BicliqueWitness,
    solve_auto,
    solve_classical,
    solve_fixed_i,
    solve_hybrid,
    verify_witness,
)


def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def star6():
    return Graph(6, [(0, i) for i in range(1, 6)])


class TestClassical:
    def test_star_center(self):
        assert solve_classical(star6()).dominating_set == (0,)

    def test_path_hand_trace(self):
        # round 1 takes 1 (covers 3, lowest of the tied maxima {1, 2}),
        # round 2 takes 2 (ties with 3); brute force confirms optimum 2
        r = solve_classical(p4())
        assert r.dominating_set == (1, 2)
        assert [rnd.chosen for rnd in r.trace.rounds] == [(1,), (2,)]
        assert brute_min_dominating(p4())[0] == 2

    def test_edgeless(self):
        assert solve_classical(Graph(3)).dominating_set == (0, 1, 2)

    def test_empty_targets(self):
        r = solve_classical(p4(), targets=[])
        assert r.dominating_set == ()
        assert r.trace.rounds == ()

    def test_subset_targets(self):
        r = solve_classical(p4(), targets=[3])
        assert is_dominating(p4(), r.dominating_set, [3])
        assert len(r.dominating_set) == 1


class TestFixedI:
    def test_path_i2_matches_classical(self):
        assert solve_fixed_i(p4(), 2).dominating_set == (1, 2)

    def test_star_i3_takes_extra_vertex(self):
        # after the center, leaf 1 still meets the pool, so the round
        # continues and the output carries one extra vertex
        r = solve_fixed_i(star6(), 3)
        assert r.dominating_set == (0, 1)
        assert r.trace.rounds[0].chosen == (0, 1)
        assert r.trace.rounds[0].b_sizes == (5, 0)

    def test_single_vertex(self):
        assert solve_fixed_i(Graph(1), 2).dominating_set == (0,)

    def test_i_below_two_rejected(self):
        with pytest.raises(ValidationError):
            solve_fixed_i(p4(), 1)
        with pytest.raises(ValidationError):
            solve_hybrid(p4(), 1)
        with pytest.raises(ValidationError):
            solve_fixed_i(p4(), None)

    def test_round_cap_respected(self):
        for i in (2, 3, 4):
            r = solve_fixed_i(gen_gnp(20, 0.3, 5), i)
            assert all(len(rnd.chosen) <= i - 1 for rnd in r.trace.rounds)


class TestAuto:
    def test_path(self):
        r = solve_auto(p4())
        assert r.dominating_set == (1, 2)
        assert r.t_detected == 2
        assert r.witness == BicliqueWitness((1,), (0,))

    def test_single_vertex_no_witness(self):
        r = solve_auto(Graph(1))
        assert r.dominating_set == (0,)
        assert r.t_detected == 1
        assert r.witness is None

    def test_cycle_finds_k22(self):
        r = solve_auto(c4())
        assert r.dominating_set == (0, 2)
        assert r.t_detected == 3
        assert r.witness == BicliqueWitness((0, 2), (1, 3))
        assert verify_witness(c4(), r.witness)

    def test_edgeless_graph(self):
        r = solve_auto(Graph(3))
        assert r.t_detected == 1
        assert r.witness is None

    def test_witness_sides_match_t(self):
        for seed in range(10):
            g = gen_gnp(18, 0.4, seed)
            r = solve_auto(g)
            if r.witness is not None:
                assert len(r.witness.left) == len(r.witness.right) == r.t_detected - 1
                assert verify_witness(g, r.witness)


class TestHybrid:
    def test_star_i3_recovers_classical(self):
        assert solve_hybrid(star6(), 3).dominating_set == (0,)

    def test_path_i2(self):
        assert solve_hybrid(p4(), 2).dominating_set == (1, 2)

    def test_empty_targets(self):
        assert solve_hybrid(p4(), 2, targets=[]).dominating_set == ()

    def test_never_beaten_by_classical(self):
        for seed in range(20):
            g = gen_gnp(24, 0.15, seed)
            classical = len(solve_classical(g).dominating_set)
            assert len(solve_hybrid(g).dominating_set) <= classical
            assert len(solve_hybrid(g, 3).dominating_set) <= classical

    def test_trace_composes_to_valid_run(self):
        g = gen_gnp(20, 0.2, 9)
        r = solve_hybrid(g, 3)
        assert is_dominating(g, r.dominating_set)
        assert r.trace.final_set == r.dominating_set
        total = sum(rnd.newly_dominated for rnd in r.trace.rounds)
        assert total == g.n


class TestVerifyWitness:
    def test_c4_is_k22(self):
        assert verify_witness(c4(), BicliqueWitness((0, 2), (1, 3)))

    def test_path_k12(self):
        assert verify_witness(p4(), BicliqueWitness((1,), (0, 2)))

    def test_missing_edge(self):
        assert not verify_witness(p4(), BicliqueWitness((0,), (2,)))

    def test_overlapping_sides(self):
        assert not verify_witness(c4(), BicliqueWitness((0, 1), (1, 2)))


random_graphs = st.builds(
    gen_gnp,
    st.integers(min_value=0, max_value=28),
    st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]),
    st.integers(min_value=0, max_value=2**32),
)


class TestInvariants:
    @given(random_graphs)
    @settings(max_examples=60, deadline=None)
    def test_classical_trace_obeys_rules(self, g):
        r = solve_classical(g)
        assert is_dominating(g, r.dominating_set)
        check_trace(g, r, cap=1)

    @given(random_graphs, st.sampled_from([2, 3, 4]))
    @settings(max_examples=60, deadline=None)
    def test_fixed_trace_obeys_rules(self, g, i):
        r = solve_fixed_i(g, i)
        assert is_dominating(g, r.dominating_set)
        check_trace(g, r, cap=i - 1)

    @given(random_graphs)
    @settings(max_examples=60, deadline=None)
    def test_auto_trace_obeys_rules(self, g):
        r = solve_auto(g)
        assert is_dominating(g, r.dominating_set)
        check_trace(g, r, auto_gate=True)
        if r.witness is not None:
            assert verify_witness(g, r.witness)
            assert len(r.witness.left) == len(r.witness.right) == r.t_detected - 1

    @given(random_graphs)
    @settings(max_examples=40, deadline=None)
    def test_round_count_bounded_by_targets(self, g):
        for r in (solve_classical(g), solve_fixed_i(g, 3), solve_auto(g)):
            assert len(r.trace.rounds) <= g.n

    @given(random_graphs)
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, g):
        assert solve_auto(g) == solve_auto(g)
        assert solve_hybrid(g, 2) == solve_hybrid(g, 2)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_subset_domination_on_trees(self, n, seed):
        g = gen_random_tree(n, seed)
        targets = [v for v in range(g.n) if v % 2 == 0]
        for r in (
            solve_classical(g, targets),
            solve_fixed_i(g, 2, targets),
            solve_auto(g, targets),
            solve_hybrid(g, None, targets),
        ):
            assert is_dominating(g, r.dominating_set, targets)


class TestFirstRoundHitsEveryOptimum:
    """On small biclique-free inputs with enough targets, the first
    round of the chained greedy must intersect every minimum
    dominating set (checked by exhaustive enumeration)."""

    def qualifying(self, g, i, j):
        k, _ = brute_min_dominating(g)
        return k >= 1 and g.n >= (k ** i) * (j + i)

    def test_trees_i2(self):
        hits = 0
        for seed in range(40):
            g = gen_random_tree(4 + seed % 13, seed)
            if not self.qualifying(g, 2, 2):
                continue
            hits += 1
            first = set(solve_fixed_i(g, 2).trace.rounds[0].chosen)
            for m in brute_all_min_dominating(g):
                assert first & set(m), f"seed {seed}: round 1 missed {m}"
        assert hits > 0

    def test_grids_i2(self):
        for w, h in ((1, 4), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4)):
            g = gen_grid(w, h)
            if not self.qualifying(g, 2, 3):
                continue
            first = set(solve_fixed_i(g, 2).trace.rounds[0].chosen)
            for m in brute_all_min_dominating(g):
                assert first & set(m)


class TestRoundDepthSelection:
    def test_witness_comes_from_deepest_later_round(self):
        # star (large coverage, shallow chain) processed before a 4-cycle
        # (smaller coverage, depth-2 chain); the witness must come from
        # the second round
        edges = [(0, i) for i in range(1, 6)] + [(6, 7), (7, 8), (8, 9), (6, 9)]
        g = Graph(10, edges)
        r = solve_auto(g)
        assert [rnd.chosen for rnd in r.trace.rounds] == [(0,), (6, 8)]
        assert r.t_detected == 3
        assert r.witness == BicliqueWitness((6, 8), (7, 9))
        assert verify_witness(g, r.witness)

    def test_fixed_large_cap_follows_literal_rule(self):
        # with a huge cap the chain keeps picking while anything meets
        # the pool, even when the resulting pool is empty
        g = c4()
        r = solve_fixed_i(g, 50)
        assert r.trace.rounds[0].chosen == (0, 2, 1)
        assert r.trace.rounds[0].b_sizes == (2, 2, 0)
        assert r.dominating_set == (0, 1, 2)

    def test_zero_vertex_graph(self):
        for r in (solve_classical(Graph(0)), solve_auto(Graph(0)), solve_hybrid(Graph(0))):
            assert r.dominating_set == ()


def hybrid_reference(g, i, targets):
    """Rounds of the earliest smallest candidate among the base run's
    prefixes, each followed by classical greedy on the targets it
    leaves; built from the public solvers only."""
    base = (solve_auto(g, targets) if i is None else solve_fixed_i(g, i, targets)).trace
    residual = set(base.initial_targets)
    best, best_size = None, None
    for p in range(len(base.rounds) + 1):
        if p:
            for v in base.rounds[p - 1].chosen:
                residual -= set(closed_neighborhood(g, v))
        rounds = base.rounds[:p] + solve_classical(g, sorted(residual)).trace.rounds
        size = sum(len(r.chosen) for r in rounds)
        if best is None or size < best_size:
            best, best_size = rounds, size
    return best


class TestEngineIdentities:
    """Identities the single round engine relies on."""

    def test_fixed_2_is_classical(self, validity_suite):
        for name, g in validity_suite:
            assert solve_fixed_i(g, 2).trace.rounds == solve_classical(g).trace.rounds, name

    @pytest.mark.parametrize("i", [None, 2, 3])
    @pytest.mark.parametrize("with_targets", [False, True], ids=["all", "targets"])
    def test_hybrid_is_earliest_smallest_prefix(self, validity_suite, i, with_targets):
        for name, g in validity_suite[::4]:
            targets = list(range(0, g.n, 2)) if with_targets else None
            got = solve_hybrid(g, i, targets).trace.rounds
            assert got == hybrid_reference(g, i, targets), name
