import functools
import gc
import hashlib
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_all_min_dominating,
    brute_min_dominating,
    check_trace,
    closed_neighborhood,
    local_max_then_classical,
    reference_chain_pick,
    reference_greedy_rounds,
    reference_packing,
    reference_residual,
    star_forest,
)

from domset import solvers
from domset.errors import RangeError, ValidationError
from domset.generators import (
    SplitMix64,
    gen_d_degenerate,
    gen_gnp,
    gen_grid,
    gen_intersection_one,
    gen_random_tree,
)
from domset.graph import Graph, _vertex_ids, is_dominating
from domset.oracles import harmonic
from domset.reduction import reduce_set_cover
from domset.solvers import (
    BicliqueWitness,
    Round,
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
        # bad targets are reported before a bad i
        for solve in (solve_fixed_i, solve_hybrid):
            with pytest.raises(RangeError):
                solve(p4(), 1, [9])

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

    def test_no_chain_pick_once_the_pool_is_too_small(self, monkeypatch, validity_suite):
        # auto keeps v_{s+1} only if |B_{s+1}| >= s+1, and B_{s+1} lies in
        # B_s, so a pick from a pool of at most s members is always dropped
        real = solvers._chain_pick
        calls = []

        def checked(adj, pool, chosen):
            calls.append(len(pool) > len(chosen))
            return real(adj, pool, chosen)

        monkeypatch.setattr(solvers, "_chain_pick", checked)
        for name, g in validity_suite:
            start = len(calls)
            solve_auto(g)
            assert all(calls[start:]), name
        assert calls  # chains were tried


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

    @staticmethod
    def engine_log(monkeypatch):
        """A list that logs `(i, live targets)` for every later
        `_greedy_rounds` call."""
        real = solvers._greedy_rounds
        calls = []

        def logging(adj, live, gain, i):
            calls.append((i, live.count(1)))
            return real(adj, live, gain, i)

        monkeypatch.setattr(solvers, "_greedy_rounds", logging)
        return calls

    @classmethod
    def engine_calls(cls, monkeypatch, g, i):
        """The i of every `_greedy_rounds` call made by solve_hybrid(g, i)."""
        calls = cls.engine_log(monkeypatch)
        solve_hybrid(g, i)
        return [call[0] for call in calls]

    @classmethod
    def call_log(cls, monkeypatch):
        """`engine_log`, which also logs `("replay", lost targets, size
        change)` for every later `_replay` call."""
        calls = cls.engine_log(monkeypatch)
        real = solvers._replay

        def logging(adj, pk, dk, lost, queued, miss):
            delta = real(adj, pk, dk, lost, queued, miss)
            calls.append(("replay", len(lost), delta))
            return delta

        monkeypatch.setattr(solvers, "_replay", logging)
        return calls

    def test_base_run_is_the_first_incumbent(self, monkeypatch):
        # auto takes (0, 3) then (14, 10): size 4. The empty prefix's
        # extension, the classical run of 5 picks, is larger, so the base
        # run is the first incumbent and the best size starts at 4 + 1.
        # Prefix 1 is replayed from the classical run, to 2 picks, and
        # wins; its rounds are read from its keys, so the engine does not
        # run again. The full prefix (an empty residual) is never run.
        g = gen_d_degenerate(20, 3, 38)
        assert [r.chosen for r in solve_auto(g).trace.rounds] == [(0, 3), (14, 10)]
        assert len(solve_classical(g).dominating_set) == 5
        calls = self.call_log(monkeypatch)
        result = solve_hybrid(g)
        assert [r.chosen for r in result.trace.rounds] == [(0, 3), (14,), (1,)]
        assert calls == [(None, 20), (2, 20), ("replay", 15, -3)]

    def test_no_extension_on_an_empty_residual(self, monkeypatch, validity_suite):
        # the engine runs the base run, and then the classical run on every
        # target exactly when some base round is chained; every other
        # extension is a replay
        engine = solvers._greedy_rounds
        calls = self.engine_log(monkeypatch)
        for name, g in validity_suite:
            for i in (None, 2, 3, 4):
                for targets in (None, range(0, g.n, 2)):
                    start = len(calls)
                    solve_hybrid(g, i, targets)
                    tids = _vertex_ids(g, targets)
                    base, _ = engine(g.adj, *solvers._residual(g.adj, tids), i)
                    expected = [(i, len(tids))]
                    if any(len(chosen) > 1 for chosen, _, _ in base):
                        expected.append((2, len(tids)))
                    assert calls[start:] == expected, (name, i, targets)

    def test_single_pick_prefixes_are_not_extended(self, monkeypatch):
        # a tree holds no 4-cycle, so every auto round has one pick: the
        # base run is the classical run and is returned with no extension
        g = gen_random_tree(300, 1)
        assert all(len(r.chosen) == 1 for r in solve_auto(g).trace.rounds)
        assert self.engine_calls(monkeypatch, g, None) == [None]
        assert solve_hybrid(g).trace.rounds == solve_classical(g).trace.rounds

    def test_packing_skips_chained_prefixes(self, monkeypatch):
        # fixed:3 chains two picks per round on a tree, so every prefix
        # is a candidate; the packing bound skips all but 9 of them (94
        # are evaluated without it). The first is the empty prefix, whose
        # extension is the classical run, and the other 8 are replayed;
        # none beats the classical run.
        g = gen_random_tree(300, 1)
        classical = solve_classical(g).trace.rounds
        calls = self.call_log(monkeypatch)
        expected = solve_hybrid(g, 3)
        assert expected.trace.rounds == classical
        assert calls[:2] == [(3, 300), (2, 300)]
        assert [c[0] for c in calls[2:]] == ["replay"] * 8

    def test_packing_built_only_when_read(self, monkeypatch):
        # auto takes one pick per round on a tree, so the base run is
        # returned as it is and no prefix reads a packing
        g = gen_random_tree(40, 1)
        expected = solve_hybrid(g)

        def refuse(*args):
            raise AssertionError("built a packing nothing reads")

        monkeypatch.setattr(solvers, "_packing", refuse)
        assert solve_hybrid(g) == expected

    def test_tie_keeps_earliest_prefix(self):
        # two 4-cycles: fixed:3 takes (0, 2) and (4, 6), and each of the
        # three prefixes extends to 4 vertices; the empty prefix (the
        # classical run) is the earliest, so it is the result
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        assert [r.chosen for r in solve_fixed_i(g, 3).trace.rounds] == [(0, 2), (4, 6)]
        classical = solve_classical(g).trace.rounds
        assert [r.chosen for r in classical] == [(0,), (4,), (1,), (5,)]
        assert solve_hybrid(g, 3).trace.rounds == classical
        assert hybrid_reference(g, 3, None) == classical

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

larger_graphs = st.builds(
    gen_gnp,
    st.integers(min_value=29, max_value=80),
    st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.4]),
    st.integers(min_value=0, max_value=2**32),
)

# algorithm -> (solver, check_trace rules)
TRACE_RULES = {
    "classical": (solve_classical, {"cap": 1}),
    "fixed:3": (lambda g, targets: solve_fixed_i(g, 3, targets), {"cap": 2}),
    "fixed:4": (lambda g, targets: solve_fixed_i(g, 4, targets), {"cap": 3}),
    "auto": (solve_auto, {"auto_gate": True}),
}


def check_engine_run(g, algo, targets):
    solve, rules = TRACE_RULES[algo]
    r = solve(g, targets)
    assert is_dominating(g, r.dominating_set, targets)
    check_trace(g, r, targets, **rules)
    if r.witness is not None:
        assert verify_witness(g, r.witness)
        assert len(r.witness.left) == len(r.witness.right) == r.t_detected - 1


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

    # Larger graphs and subset targets: gains often fall between the
    # picks of one level from n ~ 30 on, and non-target vertices enter
    # the engine with a gain of 0 or only their target neighbors.
    @pytest.mark.parametrize("algo", TRACE_RULES)
    @given(g=st.one_of(random_graphs, larger_graphs), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_trace_with_subset_targets(self, algo, g, data):
        targets = [v for v in range(g.n) if data.draw(st.booleans())]
        check_engine_run(g, algo, targets)

    @pytest.mark.parametrize("algo", TRACE_RULES)
    @given(larger_graphs)
    @settings(max_examples=60, deadline=None)
    def test_trace_on_larger_graphs(self, algo, g):
        check_engine_run(g, algo, None)


class TestAgainstBruteForce:
    """Every solver on small G(n, p) with drawn targets, against the
    exhaustive minimum of `brute_min_dominating`."""

    SOLVERS = {
        "classical": solve_classical,
        "fixed:2": lambda g, t: solve_fixed_i(g, 2, t),
        "fixed:3": lambda g, t: solve_fixed_i(g, 3, t),
        "fixed:4": lambda g, t: solve_fixed_i(g, 4, t),
        "auto": solve_auto,
        "hybrid": lambda g, t: solve_hybrid(g, None, t),
        "hybrid:3": lambda g, t: solve_hybrid(g, 3, t),
    }

    @given(
        g=st.builds(
            gen_gnp,
            st.integers(min_value=0, max_value=12),
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]),
            st.integers(min_value=0, max_value=2**32),
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sizes_against_the_optimum(self, g, data):
        targets = [v for v in range(g.n) if data.draw(st.booleans())]
        opt, _ = brute_min_dominating(g, targets)
        sizes = {}
        for name, solve in self.SOLVERS.items():
            ds = solve(g, targets).dominating_set
            assert is_dominating(g, ds, targets), name
            assert len(ds) >= opt, name
            sizes[name] = len(ds)
        # Chvatal: greedy set cover is within H(d) of the optimum, d the
        # largest number of targets one closed neighborhood holds
        tset = set(targets)
        d = max((len(tset.intersection(closed_neighborhood(g, v))) for v in range(g.n)),
                default=0)
        assert sizes["classical"] <= harmonic(d) * opt + 1e-9
        assert sizes["hybrid"] <= sizes["classical"]
        assert sizes["hybrid:3"] <= sizes["classical"]


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


class TestPacking:
    """`_packing` returns the owner table of a 2-packing of the targets."""

    @given(
        g=st.builds(
            gen_gnp,
            st.integers(min_value=0, max_value=40),
            st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4, 1.0]),
            st.integers(min_value=0, max_value=2**32),
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_owner_table_of_a_2_packing(self, g, data):
        tids = tuple(v for v in range(g.n) if data.draw(st.booleans()))
        owner, size = solvers._packing(g.adj, tids)
        # the join order decides which hybrid prefixes the packing skips
        assert (owner, size) == reference_packing(g.adj, tids)
        members = [u for u in range(g.n) if owner[u] == u]
        assert size == len(members)
        assert set(members) <= set(tids)
        hoods = [set(closed_neighborhood(g, u)) for u in members]
        for a in range(len(hoods)):
            for b in range(a):
                assert not hoods[a] & hoods[b], (members[a], members[b])
        for v in range(g.n):
            inside = [u for u in members if v in closed_neighborhood(g, u)]
            assert owner[v] == (inside[0] if inside else -1), v
            assert len(inside) <= 1
        # greedy, so maximal: every other target meets a member's N[u]
        for u in set(tids) - set(members):
            assert any(owner[w] >= 0 for w in closed_neighborhood(g, u)), u

    def test_leaves_go_first(self):
        # the path 1-2-0-3-4: by (degree, id) the leaves 1 and 4 join, a
        # packing as large as the domination number 2; in id order the
        # middle vertex 0 would join first and block both
        packing = solvers._packing(Graph(5, [(1, 2), (2, 0), (0, 3), (3, 4)]).adj, range(5))
        assert packing == ([-1, 1, 1, 4, 4], 2)
        # a star's packing is one leaf: every closed neighborhood holds 0
        packing = solvers._packing(star6().adj, tuple(range(6)))
        assert packing == ([1, 1, -1, -1, -1, -1], 1)


class TestEngineIdentities:
    """Identities the single round engine relies on."""

    def test_fixed_2_is_classical(self, validity_suite):
        for name, g in validity_suite:
            assert solve_fixed_i(g, 2).trace.rounds == solve_classical(g).trace.rounds, name

    @pytest.mark.parametrize("i", [None, 2, 3, 4])
    @pytest.mark.parametrize("with_targets", [False, True], ids=["all", "targets"])
    def test_hybrid_is_earliest_smallest_prefix(self, validity_suite, i, with_targets):
        for name, g in validity_suite:
            targets = list(range(0, g.n, 2)) if with_targets else None
            got = solve_hybrid(g, i, targets).trace.rounds
            assert got == hybrid_reference(g, i, targets), name


class TestLocalMaxConfluence:
    """Classical greedy is confluent: picking local maxima of the residual
    in any order, then finishing classically, ends in classical greedy's
    set. A local max v stays one until classical greedy picks it, as
    every vertex within distance 2 keeps a lower key and gains only fall,
    and every earlier pick lies farther out, so N[v] meets none of their
    closed neighborhoods and the picks commute."""

    @given(
        g=st.one_of(
            random_graphs,
            larger_graphs,
            st.builds(gen_d_degenerate, st.integers(0, 60), st.sampled_from([2, 3]),
                      st.integers(min_value=0, max_value=2**32)),
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_local_maxima_then_classical_is_classical(self, g, data):
        targets = [v for v in range(g.n) if data.draw(st.booleans())]
        steps = data.draw(st.integers(min_value=0, max_value=g.n))

        def choose(maxima):
            nonlocal steps
            if not steps:
                return None
            steps -= 1
            return data.draw(st.sampled_from(maxima))

        picks = local_max_then_classical(g, targets, choose)
        classical = solve_classical(g, targets).dominating_set
        assert len(picks) == len(classical)
        assert tuple(sorted(picks)) == classical


class TestReplay:
    """`_replay` edits a classical run into the classical run of a smaller
    residual, and `solve_hybrid` evaluates every prefix after the empty
    one by a replay."""

    sizes = st.integers(min_value=0, max_value=40)
    seeds = st.integers(min_value=0, max_value=2**32)
    sides = st.integers(min_value=1, max_value=7)
    graphs = st.one_of(
        st.builds(gen_gnp, sizes, st.sampled_from([0.05, 0.1, 0.2, 0.4]), seeds),
        st.builds(gen_random_tree, st.integers(min_value=1, max_value=40), seeds),
        st.builds(gen_d_degenerate, sizes, st.sampled_from([2, 3]), seeds),
        st.builds(gen_grid, sides, sides),
    )

    @staticmethod
    def classical_run(adj, live):
        """The engine's classical run of the live targets."""
        tids = tuple(u for u in range(len(adj)) if live[u])
        return solvers._greedy_rounds(adj, *solvers._residual(adj, tids), 2)[0]

    @given(g=graphs, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_replay_is_the_classical_run(self, g, data):
        adj = g.adj
        tids = tuple(v for v in range(g.n) if data.draw(st.booleans()))
        live, _ = solvers._residual(adj, tids)
        rounds = self.classical_run(adj, live)
        pk, dk = solvers._run_keys(adj, live, rounds)
        queued, miss = [0] * g.n, [0] * g.n
        size = len(rounds)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            lost = [u for u in range(g.n) if live[u] and data.draw(st.booleans())]
            for u in lost:
                live[u] = 0
            size += solvers._replay(adj, pk, dk, lost, queued, miss)
            assert not any(queued) and not any(miss)  # the scratch is zero again
            run = self.classical_run(adj, live)
            expected = [(v - covered * g.n, v) for (v,), _, covered in run]
            assert sorted((k, v) for v, k in enumerate(pk) if k) == expected
            assert size == len(expected)
            # the rounds read back from the keys are the engine's
            assert solvers._rounds_of(pk, dk) == run
            # each live target's key is that of its first pick in N[u]
            for u in range(g.n):
                if live[u]:
                    assert dk[u] == min(pk[w] for w in (u, *adj[u]) if pk[w]), u

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("i", [None, 3])
    def test_engine_runs_only_the_base_the_seed_and_the_winner(self, monkeypatch, seed, i):
        # on 3-degenerate graphs consecutive classical extensions differ in
        # about half their picks, and still the engine runs only the base
        # run and the classical run (the seed); every evaluated prefix
        # after that is a replay, and a replayed winner is not run again
        g = gen_d_degenerate(350, 3, seed)
        calls = TestHybrid.call_log(monkeypatch)
        got = solve_hybrid(g, i)
        assert calls[:2] == [(i, g.n), (2, g.n)]  # the base run, the classical run
        kinds = [call[0] for call in calls[2:]]
        assert kinds == ["replay"] * len(kinds) and len(kinds) >= 10, kinds
        assert got.trace.rounds == hybrid_reference(g, i, None)

    @given(
        g=st.one_of(
            st.builds(gen_d_degenerate, st.integers(65, 200), st.just(3), seeds),
            st.builds(lambda n, seed: gen_gnp(n, 4 / n, seed), st.integers(65, 200), seeds),
        ),
        i=st.sampled_from([None, 3]),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_long_replay_chains(self, g, i, data):
        # past the validity suite's n <= 64, hybrid makes up to about 15
        # replays in a row, each edited from the one before
        targets = None
        if data.draw(st.booleans()):
            targets = [v for v in range(g.n) if data.draw(st.booleans())]
        assert solve_hybrid(g, i, targets).trace.rounds == hybrid_reference(g, i, targets)


@functools.cache
def wide_cover(universe: int, sets: int, width: int, seed: int) -> Graph:
    """The reduced graph of an intersection-one cover with sets of up to
    `width` elements: set vertices of many gains, which fall as sets
    sharing an element are picked."""
    return reduce_set_cover(gen_intersection_one(universe, sets, width, seed)).graph


@functools.cache
def level_graphs() -> list:
    """Graphs with many gain levels, by name: star forests, in id order
    and shuffled, and reduced covers with wide sets."""
    graphs = [(f"stars:k={k}", star_forest(k)) for k in (1, 2, 5, 30)]
    graphs += [(f"stars:k={k},seed={s}", star_forest(k, s)) for k in (12, 40) for s in range(3)]
    for u, c, w in ((60, 12, 30), (200, 30, 80), (600, 40, 300)):
        graphs += [(f"cover:{u},{c},{w},seed={s}", wide_cover(u, c, w, s)) for s in range(4)]
    return graphs


class CountingGains(list):
    """A gain list that counts the entries read from it: one for each
    `__getitem__`, those that `index` passes over and, for `__iter__`,
    the whole list. Past `limit` entries it fails the test, so a pick
    loop that never ends fails too."""

    def __init__(self, gain, limit):
        super().__init__(gain)
        self.visits = 0
        self.limit = limit

    def read(self, entries: int) -> None:
        self.visits += entries
        assert self.visits <= self.limit, "the engine reads too many entries"

    def __getitem__(self, v):
        self.read(1)
        return super().__getitem__(v)

    def index(self, value, start=0, stop=sys.maxsize):
        try:
            at = super().index(value, start, stop)
        except ValueError:
            self.read(max(min(stop, len(self)) - start, 0))
            raise
        self.read(at - start + 1)
        return at

    def __iter__(self):
        self.read(len(self))
        return super().__iter__()


class TestEngineState:
    """The chain pick's sorted scan, the all-vertex residual and the v_1
    pick agree with the plain references in helpers."""

    @pytest.mark.parametrize("i", [2, 3, 4, None])
    def test_rounds_match_heap_reference(self, validity_suite, i):
        # every round and the deepest certified round, on every target set
        rng = SplitMix64(i or 0)
        for name, g in [*validity_suite, *level_graphs()]:
            every = tuple(range(g.n))
            half = tuple(v for v in every if rng.next_below(2))
            sparse = tuple(v for v in every if not rng.next_below(5))
            for tids in (every, half, sparse):
                live, gain = solvers._residual(g.adj, tids)
                # the picks and the updates read under 4.4 (n + sum(gain))
                # entries here; a pick loop that never ends fails the limit
                gain = CountingGains(gain, 8 * (g.n + sum(gain)))
                got = solvers._greedy_rounds(g.adj, live, gain, i)
                expected = reference_greedy_rounds(g.adj, *solvers._residual(g.adj, tids), i)
                assert got == expected, (name, tids)

    @pytest.mark.parametrize("i", [2, None])
    @pytest.mark.parametrize(
        "make",
        [lambda: star_forest(200), lambda: wide_cover(20000, 300, 300, 1)],
        ids=["stars:k=200", "cover:20000,300,300"],
    )
    def test_scan_reads_linear_entries(self, make, i):
        # these runs read about 4.0x and 5.5x the sum of the gains; a
        # full max and index pass per level would read about 136x and 53x
        g = make()
        live, gain = solvers._residual(g.adj, tuple(range(g.n)))
        # the domination updates alone read about sum(gain) entries
        gain = CountingGains(gain, 8 * sum(gain))
        solvers._greedy_rounds(g.adj, live, gain, i)

    @given(g=st.one_of(random_graphs, larger_graphs), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_chain_pick_matches_counter_reference(self, g, data):
        if not g.n:
            return
        for _ in range(3):
            pool = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
            rest = [v for v in range(g.n) if v not in pool]  # no member is chosen
            chosen = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
            w, k = solvers._chain_pick(g.adj, pool, tuple(chosen))
            assert w == reference_chain_pick(g.adj, pool, chosen)
            assert k == len([b for b in pool if b in g.adj[w]])  # |B_{s+1}|

    @given(g=st.one_of(random_graphs, larger_graphs), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_residual_matches_per_target_loop(self, g, data):
        every = list(range(g.n))
        target_lists = [None, data.draw(st.permutations(every))]
        if g.n:
            missing = data.draw(st.sampled_from(every))
            target_lists += [
                every + data.draw(st.lists(st.sampled_from(every), max_size=5)),
                [v if v != missing else (v + 1) % g.n for v in every],  # n ids, a vertex short
                data.draw(st.lists(st.sampled_from(every), max_size=g.n - 1)),
            ]
        for targets in target_lists:
            tids = _vertex_ids(g, targets)
            assert solvers._residual(g.adj, tids) == reference_residual(g.adj, tids)

    @pytest.mark.parametrize("tids", [(0, 1, 2, 3), (1, 2)], ids=["every-vertex", "subset"])
    def test_residual_objects_are_fresh(self, tids):
        # hybrid copies and consumes them, so no two calls share one
        adj = p4().adj
        live, gain = solvers._residual(adj, tids)
        other_live, other_gain = solvers._residual(adj, tids)
        assert live is not other_live and gain is not other_gain
        live[1] = 0
        gain[1] = 0
        assert (other_live, other_gain) == reference_residual(adj, tids)


class TestEngineRecords:
    """The engine picks in the order of the int key v - gain[v] * n and
    returns its rounds as `Round` objects, beside the deepest certified
    round (no pool outlives its round); results carry those `Round`s."""

    SOLVERS = {
        "classical": solve_classical,
        "fixed:3": lambda g: solve_fixed_i(g, 3),
        "auto": solve_auto,
        "hybrid": solve_hybrid,
        "hybrid:3": lambda g: solve_hybrid(g, 3),
    }

    @pytest.mark.parametrize("algo", SOLVERS)
    def test_trace_rounds_are_round_objects(self, validity_suite, algo):
        # hybrid's winner on the last graph is a replayed prefix, whose
        # rounds `_rounds_of` reads back
        for name, g in [*validity_suite, ("d_degenerate:20,3,38", gen_d_degenerate(20, 3, 38))]:
            rounds = self.SOLVERS[algo](g).trace.rounds
            assert type(rounds) is tuple, name
            assert all(type(r) is Round for r in rounds), name

    @staticmethod
    def peak(solve, g) -> int:
        """The `tracemalloc` peak of solve(g), in bytes."""
        gc.collect()
        tracemalloc.start()
        try:
            solve(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_auto_keeps_no_pool_past_its_round(self):
        # auto holds at most one round's pool above classical's peak:
        # 1.007x here. Keeping every round's pool to the end of the run,
        # to find the deepest, peaked at 1.26x.
        g = gen_random_tree(5000, 1)
        assert self.peak(solve_auto, g) <= 1.05 * self.peak(solve_classical, g)

    def test_top_tie_of_first_and_last_id_goes_to_first(self):
        # stars on 0 and on 6 = n - 1 both have gain 3: keys -21 and -15
        g = Graph(7, [(0, 1), (0, 2), (6, 4), (6, 5)])
        assert [r.chosen for r in solve_classical(g).trace.rounds] == [(0,), (6,), (3,)]
        # one more leaf on 6: its key -22 is now the lowest
        g = Graph(7, [(0, 1), (0, 2), (6, 3), (6, 4), (6, 5)])
        assert [r.chosen for r in solve_classical(g).trace.rounds] == [(6,), (0,)]

    def test_single_vertex(self):
        # the only key is 0 - 1 * 1 = -1, and -1 % 1 decodes to vertex 0
        g = Graph(1)
        for solve in self.SOLVERS.values():
            r = solve(g)
            assert r.dominating_set == (0,)
            assert r.trace.rounds == (Round((0,), (0,), 1),)
        assert solve_auto(g).t_detected == 1

    @pytest.mark.parametrize("n", [3, 9])
    @pytest.mark.parametrize("centre", ["first", "last"])
    def test_star_centre_of_gain_n(self, n, centre):
        # the centre c has gain n, key c - n * n; fixed:3 then chains a leaf
        c = 0 if centre == "first" else n - 1
        g = Graph(n, [(c, v) for v in range(n) if v != c])
        for solve in self.SOLVERS.values():
            (r,) = solve(g).trace.rounds
            assert r.chosen[0] == c
            assert r.newly_dominated == n
        assert solve_classical(g).dominating_set == (c,)


@functools.lru_cache(maxsize=None)
def sparse_family(n):
    """A random tree, a square grid, a 3-degenerate graph and G(n, 4/n)
    at about n vertices, as in the benchmark's solve workloads."""
    side = round(n ** 0.5)
    return {
        "tree": gen_random_tree(n, 11),
        "grid": gen_grid(side, side),
        "deg3": gen_d_degenerate(n, 3, 12),
        "gnp": gen_gnp(n, 4.0 / n, 13),
    }


FROZEN_CASES = [
    (family, n, algo, i)
    for n, algos in ((1200, (("classical", None), ("fixed", 3), ("auto", None))),
                     (350, (("hybrid", None), ("hybrid", 3))))
    for family in ("tree", "grid", "deg3", "gnp")
    for algo, i in algos
]


def frozen_case_id(case):
    family, n, algo, i = case
    return f"{family}_n{n}-{algo}" + ("" if i is None else f":{i}")


def document_digest(result):
    text = json.dumps(result.as_document(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def frozen_document_digest(family, n, algo, i):
    g = sparse_family(n)[family]
    return document_digest({
        "classical": lambda: solve_classical(g),
        "fixed": lambda: solve_fixed_i(g, i),
        "auto": lambda: solve_auto(g),
        "hybrid": lambda: solve_hybrid(g, i),
    }[algo]())


# SHA-256 of each compact as_document() JSON, frozen from the bitmask-scan
# engine; any change to a pick, a pool size, a witness or t_detected
# changes the digest.
FROZEN_DIGESTS = {
    "tree_n1200-classical": "67dcd838ccb9d279bf590dcabae287ede04226180b245e9aadb266b101704cbb",
    "tree_n1200-fixed:3": "d5001d5d3b3bb2073bc4160d3f23062f4cc7558a7c6035b4ec801095086a0e83",
    "tree_n1200-auto": "39fb5184de19ac768593deb43dbd6291b638fc95ed183255dcd145a0e1acb380",
    "grid_n1200-classical": "42da80673b1eb9884668c0590a91aeee445b852f891ed9b113054f67545b2c77",
    "grid_n1200-fixed:3": "c1fa0f4e5dda8c1d3f510e622169b3f3b2ba37b81a30c053cea757e5d0d08f8b",
    "grid_n1200-auto": "4b05440f043977abcb1024006b97bb887676c6350a68fad1c902da3132b3d2ad",
    "deg3_n1200-classical": "8fca3617aca2fce9fa1bbcd68f1a6b7e1ddb60ded1261faf1c2b90d27f84f619",
    "deg3_n1200-fixed:3": "44b98539bc80fd18aeff016e2ee4b08e79f589fd98b4527a4a04a45af1a86e57",
    "deg3_n1200-auto": "d948bb3a86fa7a4bcdfee943932b75ab3776f37505b732b9378b57d4a451e7b1",
    "gnp_n1200-classical": "442f3523936858e7c3fdf09619775937616a014e238948769f5eb009784abcc6",
    "gnp_n1200-fixed:3": "582ba335f77f3542a5767e51236722d861c07abf4bc3df5de5cc3172b2244f98",
    "gnp_n1200-auto": "bdd6c2a274b7f0b516cbbec6544b109d38f83a14f2fdae9b4e58d28d21b5e7d8",
    "tree_n350-hybrid": "c07107fcb7dc2ab1d61c5984928de43cbd3d948b03e67831167357a801de8262",
    "tree_n350-hybrid:3": "8431a0b1ac699ba822e9c74674aefa3d7a4c9e718f19972bfca8af02d7a67ebf",
    "grid_n350-hybrid": "5cebb3dc2dbb0ec79d7810211ee00a90a6d898648835fb53f022f3401de8ea05",
    "grid_n350-hybrid:3": "5cebb3dc2dbb0ec79d7810211ee00a90a6d898648835fb53f022f3401de8ea05",
    "deg3_n350-hybrid": "897217d83fda255bdb8b7102001e89eaafb6961944f81074124cc7667f0fab47",
    "deg3_n350-hybrid:3": "f669c657ae4c066425b3af52fb2e6e564eec3b611c13345d72721167cbc43771",
    "gnp_n350-hybrid": "717d6b07f55cd99dbeaffb17ea8db9c342e67e8b755a93f6753d6832d75f083b",
    "gnp_n350-hybrid:3": "717d6b07f55cd99dbeaffb17ea8db9c342e67e8b755a93f6753d6832d75f083b",
}


@functools.lru_cache(maxsize=None)
def large_hybrid_graph(family):
    return {
        "tree_n4000": lambda: gen_random_tree(4000, 1),
        "deg3_n4000": lambda: gen_d_degenerate(4000, 3, 1),
        "grid_60x60": lambda: gen_grid(60, 60),
    }[family]()


# SHA-256 of compact as_document() JSON for hybrid at n = 3600-4000, frozen
# from the engine before the hybrid packing bound; on the tree, hybrid:3
# extends thousands of chained prefixes.
LARGE_HYBRID_DIGESTS = {
    "tree_n4000-hybrid": "93078d4bbdb3b8400e9ed345570af8e3e3a909d44d0c4e145aee17db0abc4d11",
    "tree_n4000-hybrid:3": "93078d4bbdb3b8400e9ed345570af8e3e3a909d44d0c4e145aee17db0abc4d11",
    "deg3_n4000-hybrid": "2af339042bad5e70b565a3724b351f1b8c24406a1e6d31b5ad547ac32fa0fdbd",
    "deg3_n4000-hybrid:3": "ccd846683379a8a04089e5191b8204347995aa5612aea86998ad3df8c5852579",
    "grid_60x60-hybrid": "8a259e3c612386ab61291191eaf1cb7ae8dedd796ff0d259ec659c3156c705f4",
    "grid_60x60-hybrid:3": "8a259e3c612386ab61291191eaf1cb7ae8dedd796ff0d259ec659c3156c705f4",
}


class TestFrozenDigests:
    """Byte identity of solver documents at sizes where many gain levels
    and long chains are common."""

    @pytest.mark.parametrize("case", FROZEN_CASES, ids=frozen_case_id)
    def test_document_digest(self, case):
        assert frozen_document_digest(*case) == FROZEN_DIGESTS[frozen_case_id(case)]

    @pytest.mark.parametrize("case", LARGE_HYBRID_DIGESTS)
    def test_large_hybrid_digest(self, case):
        family, algo = case.split("-")
        i = None if algo == "hybrid" else int(algo.partition(":")[2])
        result = solve_hybrid(large_hybrid_graph(family), i)
        assert document_digest(result) == LARGE_HYBRID_DIGESTS[case]


WRITER_SOLVERS = {
    "classical": solve_classical,
    "fixed:3": lambda g, targets: solve_fixed_i(g, 3, targets),
    "auto": solve_auto,
    "hybrid": lambda g, targets: solve_hybrid(g, None, targets),
    "hybrid:3": lambda g, targets: solve_hybrid(g, 3, targets),
}
TARGET_MIXES = {
    "all": lambda n: None,
    "even-id": lambda n: range(0, n, 2),
    "every-third": lambda n: range(0, n, 3),
}


class TestResultWriter:
    """`SolveResult.to_json` is the text of json.dumps(as_document(),
    indent=2), byte for byte."""

    @pytest.mark.parametrize("targets", TARGET_MIXES)
    @pytest.mark.parametrize("algo", WRITER_SOLVERS)
    def test_matches_indented_dump(self, validity_suite, algo, targets):
        for name, g in validity_suite:
            r = WRITER_SOLVERS[algo](g, TARGET_MIXES[targets](g.n))
            assert r.to_json() == json.dumps(r.as_document(), indent=2), name

    @pytest.mark.parametrize("case", [
        "zero-vertices", "no-targets", "edgeless-auto", "classical", "auto-witness", "empty-lists",
        "one-pick-two-sizes",
    ])
    def test_edge_cases(self, case):
        r = {
            "zero-vertices": lambda: solve_auto(Graph(0)),  # rounds []
            "no-targets": lambda: solve_hybrid(p4(), 3, []),
            "edgeless-auto": lambda: solve_auto(Graph(3)),  # witness None
            "classical": lambda: solve_classical(p4()),  # t_detected None
            "auto-witness": lambda: solve_auto(c4()),
            # not an engine result: empty chosen, b_sizes and witness sides
            "empty-lists": lambda: solvers.SolveResult(
                'a "quoted" name', (), solvers.GreedyTrace((), (Round((), (), 0),), ()),
                1, BicliqueWitness((), ()),
            ),
            # not an engine result either: one pick with two pool sizes
            "one-pick-two-sizes": lambda: solvers.SolveResult(
                "fixed", (3,), solvers.GreedyTrace((3,), (Round((3,), (2, 1), 1),), (3,)),
            ),
        }[case]()
        assert r.to_json() == json.dumps(r.as_document(), indent=2)

    # (picks, pool sizes); each shape of several picks has its own template
    @pytest.mark.parametrize("picks, sizes", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (6, 6), (0, 0)])
    def test_round_shapes(self, picks, sizes):
        rounds = (
            Round(tuple(range(10, 10 + picks)), tuple(range(sizes, 0, -1)), picks + sizes),
            Round(tuple(range(20, 20 + picks)), tuple(range(100, 100 + sizes)), 12345),
        )
        dom = tuple(sorted(v for r in rounds for v in r.chosen))
        r = solvers.SolveResult("fixed", dom, solvers.GreedyTrace(dom, rounds, dom))
        assert r.to_json() == json.dumps(r.as_document(), indent=2)


class TestRoundType:
    """`Round` is a NamedTuple: its fields, repr, equality, hash and
    immutability are part of the API."""

    def test_api(self):
        r = Round((3,), (2, 1), 1)
        assert Round._fields == ("chosen", "b_sizes", "newly_dominated")
        assert (r.chosen, r.b_sizes, r.newly_dominated) == ((3,), (2, 1), 1)
        assert repr(r) == "Round(chosen=(3,), b_sizes=(2, 1), newly_dominated=1)"
        assert r == Round(chosen=(3,), b_sizes=(2, 1), newly_dominated=1)
        assert hash(r) == hash(Round((3,), (2, 1), 1))
        assert r != Round((3,), (2, 1), 2)
        assert r == ((3,), (2, 1), 1)  # equal to the plain tuple of its fields
        with pytest.raises(AttributeError):
            r.chosen = (4,)
