import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_all_min_dominating, brute_min_dominating, check_trace

from domset import solvers
from domset.errors import ValidationError
from domset.generators import gen_d_degenerate, gen_gnp, gen_grid, gen_random_tree
from domset.graph import Graph, closed_neighborhood, is_dominating
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

    def test_single_pick_prefixes_are_not_extended(self, monkeypatch):
        # a tree holds no 4-cycle, so every auto round has one pick and
        # only the full prefix is extended after the base run
        g = gen_random_tree(300, 1)
        assert all(len(r.chosen) == 1 for r in solve_auto(g).trace.rounds)
        real = solvers._greedy_rounds
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "_greedy_rounds", counting)
        solve_hybrid(g)
        assert calls == [None, 2]

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

    # Larger graphs and subset targets: stale heap entries are common
    # from n ~ 30 on, and non-target vertices enter the engine with a
    # gain of 0 or only their target neighbors.
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

    @pytest.mark.parametrize("i", [None, 2, 3, 4])
    @pytest.mark.parametrize("with_targets", [False, True], ids=["all", "targets"])
    def test_hybrid_is_earliest_smallest_prefix(self, validity_suite, i, with_targets):
        for name, g in validity_suite:
            targets = list(range(0, g.n, 2)) if with_targets else None
            got = solve_hybrid(g, i, targets).trace.rounds
            assert got == hybrid_reference(g, i, targets), name

    def test_cutoff_prunes_exactly_the_runs_that_reach_it(self, validity_suite):
        # the bound is admissible: a run of L rounds is cut off for every
        # limit <= L, and runs to the same rounds for a limit above L
        for name, g in validity_suite:
            tids = tuple(range(g.n))
            rounds, _ = solvers._greedy_rounds(g.adj, *solvers._residual(g.adj, tids), 2)
            for cutoff in range(len(rounds) + 2):
                got = solvers._greedy_rounds(g.adj, *solvers._residual(g.adj, tids), 2, cutoff)
                if cutoff <= len(rounds):
                    assert got is None, (name, cutoff)
                else:
                    assert got[0] == rounds, (name, cutoff)


class TestEngineRecords:
    """The engine keys its heap by the int v - gain[v] * n and records
    rounds as plain tuples; results still carry `Round` objects."""

    SOLVERS = {
        "classical": solve_classical,
        "fixed:3": lambda g: solve_fixed_i(g, 3),
        "auto": solve_auto,
        "hybrid": solve_hybrid,
        "hybrid:3": lambda g: solve_hybrid(g, 3),
    }

    @pytest.mark.parametrize("algo", SOLVERS)
    def test_trace_rounds_are_round_objects(self, validity_suite, algo):
        for name, g in validity_suite:
            rounds = self.SOLVERS[algo](g).trace.rounds
            assert type(rounds) is tuple, name
            assert all(type(r) is Round for r in rounds), name

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


def frozen_document_digest(family, n, algo, i):
    g = sparse_family(n)[family]
    result = {
        "classical": lambda: solve_classical(g),
        "fixed": lambda: solve_fixed_i(g, i),
        "auto": lambda: solve_auto(g),
        "hybrid": lambda: solve_hybrid(g, i),
    }[algo]()
    text = json.dumps(result.as_document(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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


class TestFrozenDigests:
    """Byte identity of solver documents at sizes where stale heap
    entries and long chains are common."""

    @pytest.mark.parametrize("case", FROZEN_CASES, ids=frozen_case_id)
    def test_document_digest(self, case):
        assert frozen_document_digest(*case) == FROZEN_DIGESTS[frozen_case_id(case)]
