import hashlib
import json
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_all_min_dominating,
    brute_has_biclique,
    brute_min_dominating,
    deep_search_graph,
    enumerate_min_dominating_sets,
    lower_recursion_limit,
    reference_bound_and_target,
    reference_exact,
    reference_has_biclique,
    reference_ratio_scan,
)

from domset import oracles
from domset.errors import ResourceLimitError, ValidationError
from domset.generators import (
    gen_d_degenerate,
    gen_gnp,
    gen_grid,
    gen_intersection_one,
    gen_random_tree,
)
from domset.graph import Graph, is_dominating
from domset.oracles import (
    _bound_and_target,
    _closed_masks,
    _ratio_scan,
    exact_min_dominating_set,
    harmonic,
    has_biclique,
)
from domset.reduction import reduce_set_cover
from domset.solvers import solve_classical, solve_fixed_i, verify_witness


def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def star6():
    return Graph(6, [(0, i) for i in range(1, 6)])


def ratio_prunes(masks, active, reach, slots):
    """The ratio bound ceil(|active| / c) > slots, decided by a scan of
    `reach` from a fresh state."""
    size = active.bit_count()
    _, cbest = _ratio_scan(masks, active, size, reach, 0, slots)
    return cbest * slots < size


class TestBitmaskQueries:
    """The two bit-set queries behind the exact oracle: packing bound,
    branching target and reach in one pass, then the resumable ratio
    scan over reach. Every tie goes to the lowest vertex id."""

    def test_pack_bound_disjoint(self):
        # two vertices with disjoint closed neighborhoods
        masks = [0b0011, 0b0011, 0b1100, 0b1100]
        assert _bound_and_target(masks, 0b1111) == (2, 0, 0b1111, 0b1111)
        assert _bound_and_target(masks, 0b0011) == (1, 0, 0b0011, 0b0011)

    def test_pack_bound_infeasible(self):
        # bit 1 has no allowed dominator; the hood still spans both bits,
        # since the search keys the pass by it
        assert _bound_and_target([0b01, 0b10], 0b11, banned=0b10) == (-1, -1, 0, 0b11)
        assert _bound_and_target([0b011, 0b011, 0b100], 0b111, banned=0b011) == (-1, -1, 0, 0b111)

    def test_pick_target_prefers_fewest_dominators(self):
        # bit 2's dominators {1, 2} miss bit 0's {0}, so both are packed
        assert _bound_and_target([0b001, 0b111, 0b110], 0b111) == (2, 0, 0b111, 0b111)
        assert _bound_and_target([0b001, 0b111, 0b110], 0b110) == (1, 2, 0b111, 0b111)

    def test_pick_target_empty(self):
        assert _bound_and_target([0b1], 0) == (0, -1, 0, 0)

    def test_reach_is_allowed_dominators_of_active(self):
        # P4 with only vertex 0 active: its dominators are 0 and 1, and
        # its hood keeps a banned dominator
        masks = [0b0011, 0b0111, 0b1110, 0b1100]
        assert _bound_and_target(masks, 0b0001) == (1, 0, 0b0011, 0b0011)
        assert _bound_and_target(masks, 0b0001, banned=0b0010) == (1, 0, 0b0001, 0b0011)
        assert _bound_and_target(masks, 0b0001, banned=0b1100) == (1, 0, 0b0011, 0b0011)

    # masks[v] & 0b1111 covers 2, 2, 2 and 1 bits; of 0b0111: 2, 2, 1, 0
    MASKS = [0b0011, 0b0110, 0b1100, 0b1000]

    def test_ratio_no_prune_when_cover_times_slots_equals_active(self):
        assert not ratio_prunes(self.MASKS, 0b1111, 0b1111, 2)  # 2 * 2 == 4

    def test_ratio_prunes_when_cover_times_slots_is_one_short(self):
        assert ratio_prunes(self.MASKS, 0b0111, 0b1111, 1)  # 2 * 1 == 3 - 1
        assert ratio_prunes(self.MASKS, 0b1111, 0b1000, 3)  # 1 * 3 == 4 - 1

    def test_ratio_looks_only_at_reach(self):
        assert not ratio_prunes(self.MASKS, 0b1111, 0b0100, 2)
        assert ratio_prunes(self.MASKS, 0b1111, 0b1000, 2)

    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0.1, 0.3, 0.6]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**12 - 1),
        st.integers(min_value=0, max_value=2**12 - 1),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_max_coverage_ratio_bound(self, n, p, seed, active, banned, slots):
        # reach holds exactly the non-banned vertices of nonzero coverage,
        # so the scan decides ceil(|active| / c) > slots for the largest
        # coverage c over all non-banned vertices
        masks = _closed_masks(gen_gnp(n, p, seed))
        active &= (1 << n) - 1
        lb, _, reach, _ = _bound_and_target(masks, active, banned)
        covers = {v: (masks[v] & active).bit_count() for v in range(n) if not banned >> v & 1}
        if lb < 0:
            assert reach == 0
            return
        assert reach == sum(1 << v for v, c in covers.items() if c)
        if active:
            c = max(covers.values())
            assert ratio_prunes(masks, active, reach, slots) == (-(-active.bit_count() // c) > slots)

    @given(
        st.integers(min_value=1, max_value=16),
        st.sampled_from([0.1, 0.3, 0.6]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_resumed_scan_matches_a_fresh_bound(self, n, p, seed, active, banned, slot_seq):
        # the search keeps one scan state per memo key and queries it at
        # whatever depth a node with that key sits; each answer must be
        # the ratio bound computed afresh
        masks = _closed_masks(gen_gnp(n, p, seed))
        active &= (1 << n) - 1
        lb, _, reach, _ = _bound_and_target(masks, active, banned)
        if lb <= 0:
            return
        size = active.bit_count()
        covers = {v: (masks[v] & active).bit_count() for v in range(n) if reach >> v & 1}
        c_max = max(covers.values())
        rest, cbest = reach, 0
        for slots in slot_seq:
            before = rest
            rest, cbest = _ratio_scan(masks, active, size, rest, cbest, slots)
            assert (cbest * slots < size) == (-(-size // c_max) > slots)
            # the scan only narrows rest, in id order, and cbest is the
            # best coverage over what it has scanned
            assert rest & ~before == 0
            scanned = reach & ~rest
            assert rest == 0 or scanned < rest & -rest
            assert cbest == max((c for v, c in covers.items() if scanned >> v & 1), default=0)
            if rest == 0:
                assert cbest == c_max

    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0.1, 0.3, 0.6]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**12 - 1),
        st.integers(min_value=0, max_value=2**12 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_hood_is_closed_neighborhood_of_active(self, n, p, seed, active, banned):
        masks = _closed_masks(gen_gnp(n, p, seed))
        active &= (1 << n) - 1
        lb, _, reach, hood = _bound_and_target(masks, active, banned)
        expect = 0
        for u in range(n):
            if active >> u & 1:
                expect |= masks[u]
        # an infeasible pass still reports the whole hood
        assert hood == expect
        assert reach == (0 if lb < 0 else hood & ~banned)

    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0.1, 0.3, 0.6]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**12 - 1),
        st.integers(min_value=0, max_value=2**12 - 1),
        st.integers(min_value=0, max_value=2**12 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_bans_outside_the_hood_do_not_matter(self, n, p, seed, active, banned, other):
        # the search's memo keys a pass by active and banned & N[active]
        masks = _closed_masks(gen_gnp(n, p, seed))
        active &= (1 << n) - 1
        hood = _bound_and_target(masks, active)[3]  # no ban: never infeasible
        twin = banned & hood | other & ~hood
        assert _bound_and_target(masks, active, banned) == _bound_and_target(masks, active, twin)


class TestByteWalk:
    """The pass and the ratio scan walk their bit sets a byte at a time;
    `reference_bound_and_target` and `reference_ratio_scan` walk them a
    bit at a time. The sizes put the last bit at, just past and just
    short of a byte's and a machine word's edge."""

    def test_byte_table(self):
        assert oracles._BYTE_BITS == tuple(
            tuple(k for k in range(8) if b >> k & 1) for b in range(256)
        )

    @pytest.mark.parametrize("family", ["gnp", "d_degenerate"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 40, 63, 64, 65, 70])
    def test_matches_the_bit_walk(self, family, n):
        rng = random.Random(n * 2 + (family == "gnp"))
        g = gen_gnp(n, min(1.0, 3 / n), n) if family == "gnp" else gen_d_degenerate(n, 2, n)
        masks = _closed_masks(g)
        infeasible = scans = 0
        for _ in range(200):
            # dense and sparse active sets; heavy bans make infeasible nodes
            p_active = rng.choice([0.1, 0.5, 1.0])
            p_banned = rng.choice([0.0, 0.3, 0.8])
            active = sum(1 << v for v in range(n) if rng.random() < p_active)
            banned = sum(1 << v for v in range(n) if rng.random() < p_banned)
            got = _bound_and_target(masks, active, banned)
            assert got == reference_bound_and_target(masks, active, banned)
            lb, _, reach, _ = got
            if lb < 0:
                infeasible += 1
                continue
            if lb == 0:
                continue
            # a resumed scan over a falling sequence of slots, compared at every step
            size = active.bit_count()
            rest, cbest = reach, 0
            for slots in sorted(rng.sample(range(1, size + 3), min(size + 2, 6)), reverse=True):
                step = _ratio_scan(masks, active, size, rest, cbest, slots)
                assert step == reference_ratio_scan(masks, active, size, rest, cbest, slots)
                rest, cbest = step
                scans += 1
        assert infeasible and scans


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

    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0.0, 0.1, 0.3, 0.7]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**12 - 1),
        st.integers(min_value=-1, max_value=13),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_with_targets_and_budget(self, n, p, seed, target_bits, budget):
        g = gen_gnp(n, p, seed)
        targets = [v for v in range(n) if target_bits >> v & 1]
        opt, _ = brute_min_dominating(g, targets)
        r = exact_min_dominating_set(g, targets)
        assert r.opt_size == opt
        assert len(r.witness_set) == opt
        assert is_dominating(g, r.witness_set, targets)
        assert exact_min_dominating_set(g, targets, budget=opt - 1).exceeded
        drawn = exact_min_dominating_set(g, targets, budget=budget)
        if budget < opt:
            assert drawn.exceeded and drawn.opt_size is None
        else:
            assert (drawn.opt_size, drawn.exceeded) == (opt, False)
            assert is_dominating(g, drawn.witness_set, targets)

    @pytest.mark.parametrize("budget", [None, 2])
    def test_node_limit(self, budget):
        # a limit the search stays within changes nothing; one node less
        # ends the search with ResourceLimitError
        for seed in range(6):
            g = gen_random_tree(16, seed)
            r = exact_min_dominating_set(g, budget=budget)
            assert exact_min_dominating_set(g, budget=budget, max_nodes=r.node_count) == r
            with pytest.raises(ResourceLimitError, match="exceeded the node limit"):
                exact_min_dominating_set(g, budget=budget, max_nodes=r.node_count - 1)

    def test_negative_node_limit_is_refused_before_any_work(self, monkeypatch):
        # the greedy seed is the first work the search does
        def no_seed(*args):
            raise AssertionError("searched despite a negative node limit")

        monkeypatch.setattr(oracles, "solve_classical", no_seed)
        for targets in (None, []):
            with pytest.raises(ValidationError, match=r"^node limit must be >= 0, got -1$"):
                exact_min_dominating_set(p4(), targets, max_nodes=-1)

    def test_node_limit_zero(self):
        # nothing to search needs no node; anything else needs the root
        assert exact_min_dominating_set(p4(), [], max_nodes=0) == exact_min_dominating_set(p4(), [])
        with pytest.raises(ResourceLimitError, match="node limit 0$"):
            exact_min_dominating_set(p4(), max_nodes=0)

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


class TestMatchesReferenceSearch:
    """The oracle against `reference_exact`, a memo-free copy of its
    search: same result document, node_count included, and the same
    node limit behaviour."""

    @given(
        st.integers(min_value=1, max_value=16),
        st.sampled_from([0.1, 0.2, 0.35, 0.6]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.sampled_from(["none", "below_opt", "opt"]),
    )
    @pytest.mark.parametrize("memo_cap", [oracles._MEMO_CAP, 4])
    @settings(max_examples=150, deadline=None)
    def test_whole_result(self, memo_cap, n, p, seed, target_bits, budget_kind):
        g = gen_gnp(n, p, seed)
        targets = [v for v in range(n) if target_bits >> v & 1]
        opt = reference_exact(g, targets).opt_size
        budget = {"none": None, "below_opt": opt - 1, "opt": opt}[budget_kind]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_MEMO_CAP", memo_cap)
            r = exact_min_dominating_set(g, targets, budget)
            assert r == reference_exact(g, targets, budget)
            assert exact_min_dominating_set(g, targets, budget, max_nodes=r.node_count) == r
            if r.node_count:
                with pytest.raises(ResourceLimitError, match="exceeded the node limit"):
                    exact_min_dominating_set(g, targets, budget, max_nodes=r.node_count - 1)

    def test_memo_skips_repeated_passes(self, monkeypatch):
        # a tree search meets each independent part again under every
        # choice made elsewhere; the memo runs each distinct pass once
        calls = []
        pass_ = oracles._bound_and_target

        def counted(*args):
            calls.append(args)
            return pass_(*args)

        monkeypatch.setattr(oracles, "_bound_and_target", counted)
        g = gen_random_tree(60, 1)
        r = exact_min_dominating_set(g)
        assert r.node_count == 5265
        passes = len(calls)
        assert passes < r.node_count // 2
        # a memo cleared every 4 entries forgets most of what repeats
        monkeypatch.setattr(oracles, "_MEMO_CAP", 4)
        del calls[:]
        assert exact_min_dominating_set(g) == r
        assert len(calls) > passes

    def test_per_key_work_is_done_once(self, monkeypatch):
        # each memo key makes one pass, starts its ratio scan once and
        # scans each vertex of its reach at most once over all its nodes,
        # and sorts its candidates at most once, the first time one of its
        # nodes survives both bounds
        work = {"passes": 0, "fresh_scans": 0, "scanned": 0, "sorts": 0}
        pass_, scan, order = oracles._bound_and_target, oracles._ratio_scan, oracles._branch_order

        def counted_pass(*args):
            work["passes"] += 1
            return pass_(*args)

        def counted_scan(masks, active, size, rest, cbest, slots):
            # a scan that has covered any vertex has cbest >= 1
            work["fresh_scans"] += cbest == 0
            out = scan(masks, active, size, rest, cbest, slots)
            work["scanned"] += rest.bit_count() - out[0].bit_count()
            return out

        def counted_order(*args):
            work["sorts"] += 1
            return order(*args)

        monkeypatch.setattr(oracles, "_bound_and_target", counted_pass)
        monkeypatch.setattr(oracles, "_ratio_scan", counted_scan)
        monkeypatch.setattr(oracles, "_branch_order", counted_order)
        g = gen_random_tree(60, 1)
        r = exact_min_dominating_set(g)
        assert r.node_count == 5265
        keys = {}
        assert reference_exact(g, keys=keys) == r
        masks = _closed_masks(g)
        low = (1 << g.n) - 1
        reach_total = sum(_bound_and_target(masks, key & low, key >> g.n)[2].bit_count()
                          for key in keys)
        assert work["passes"] == len(keys)
        assert 0 < work["fresh_scans"] <= len(keys)
        assert 0 < work["scanned"] <= reach_total
        assert 0 < work["sorts"] <= sum(keys.values())
        # a memo cleared every 4 entries redoes work but visits the same nodes
        monkeypatch.setattr(oracles, "_MEMO_CAP", 4)
        assert exact_min_dominating_set(g) == r

    @pytest.mark.parametrize("gen, args, count", [
        (gen_random_tree, (60, 1), 662),
        (gen_d_degenerate, (40, 2, 3), 360),
    ])
    def test_passes_run_on_the_memo_keys(self, monkeypatch, gen, args, count):
        # the state a pass reads, (banned & N[A]) << n | A with the node's
        # own N[A], is its memo key: one pass per key, and no two passes
        # for keys that differ only in bans outside N[A]
        g = gen(*args)
        seen = []
        pass_ = oracles._bound_and_target

        def recorded(masks, active, banned=0):
            out = pass_(masks, active, banned)
            seen.append((banned & out[3]) << g.n | active)
            return out

        monkeypatch.setattr(oracles, "_bound_and_target", recorded)
        keys = {}
        assert exact_min_dominating_set(g) == reference_exact(g, keys=keys)
        assert len(keys) == count
        assert len(seen) == count
        assert set(seen) == set(keys)

    @pytest.mark.parametrize("n, opt, nodes", [(60, 23, 5265), (80, 31, 340327), (100, 38, 7865916)])
    def test_pinned_trees(self, n, opt, nodes):
        r = exact_min_dominating_set(gen_random_tree(n, 1))
        assert (r.opt_size, r.node_count) == (opt, nodes)


REPEATING_FAMILIES = {
    "tree": gen_random_tree,
    "deg2": lambda n, seed: gen_d_degenerate(n, 2, seed),
}


class TestSubtreeReuse:
    """A finished subtree is replayed from the search's table: its node
    count added in one step and its best leaf adopted. Trees and
    2-degenerate graphs repeat whole subtrees; small G(n, p) rarely do."""

    @given(
        st.sampled_from(sorted(REPEATING_FAMILIES)),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**30 - 1)),
        st.sampled_from(["none", "below_opt", "opt"]),
        st.floats(min_value=0, max_value=1),
    )
    @pytest.mark.parametrize("memo_cap", [oracles._MEMO_CAP, 4])
    @settings(max_examples=120, deadline=None)
    def test_whole_result_and_node_limit(self, memo_cap, family, n, seed, target_bits, budget_kind, where):
        g = REPEATING_FAMILIES[family](n, seed)
        targets = None if target_bits is None else [v for v in range(n) if target_bits >> v & 1]
        opt = reference_exact(g, targets).opt_size
        budget = {"none": None, "below_opt": opt - 1, "opt": opt}[budget_kind]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_MEMO_CAP", memo_cap)
            r = exact_min_dominating_set(g, targets, budget)
            assert r == reference_exact(g, targets, budget)
            # a replayed subtree adds its count in one step, so the limit
            # is checked at node_count, one below it and somewhere below
            assert exact_min_dominating_set(g, targets, budget, max_nodes=r.node_count) == r
            below = {r.node_count - 1, int(where * (r.node_count - 1))} if r.node_count else set()
            for limit in below:
                with pytest.raises(ResourceLimitError, match=f"exceeded the node limit {limit}$"):
                    exact_min_dominating_set(g, targets, budget, max_nodes=limit)

    @pytest.mark.parametrize("n, seed", [(36, 11), (40, 13), (40, 25)])
    def test_taken_subtree_that_beats_the_best(self, n, seed):
        # rare: of the trees, 2-degenerate graphs and G(n, 0.1) searched
        # (n up to 48), only these have a node that takes a subtree whose
        # leaf beat the best size, so the search must adopt that leaf's
        # size and picks
        g = gen_d_degenerate(n, 2, seed)
        assert exact_min_dominating_set(g) == reference_exact(g)

    def test_node_limit_on_the_pinned_tree(self):
        g = gen_random_tree(80, 1)
        r = exact_min_dominating_set(g)
        assert r.node_count == 340327
        assert exact_min_dominating_set(g, max_nodes=r.node_count) == r
        with pytest.raises(ResourceLimitError, match="exceeded the node limit 340326$"):
            exact_min_dominating_set(g, max_nodes=r.node_count - 1)

    def test_finished_subtrees_are_read(self, monkeypatch):
        # every node but the root is pushed with one read of masks[v], so
        # fewer reads than nodes means the table supplied some counts
        reads = 0

        class CountedReads(list):
            def __getitem__(self, i):
                nonlocal reads
                reads += 1
                return list.__getitem__(self, i)

        closed = oracles._closed_masks
        monkeypatch.setattr(oracles, "_closed_masks", lambda g: CountedReads(closed(g)))
        r = exact_min_dominating_set(gen_random_tree(80, 1))
        assert r.node_count == 340327
        assert reads < r.node_count // 2


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
        assert oracles._MAX_LEFT == 4
        with pytest.raises(ResourceLimitError, match="^left side 5 exceeds the cap 4$"):
            has_biclique(Graph(12), 5, 5)
        assert has_biclique(Graph(12, [(0, 1)]), 4, 4) is None

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

    def test_matches_bit_set_reference(self, validity_suite):
        # witness by witness, None included, against the search on n-bit masks
        rng = random.Random(15)
        graphs = [g for _, g in validity_suite]
        for _ in range(40):
            graphs.append(gen_gnp(rng.randrange(1, 25), rng.choice((0.3, 0.5, 0.7, 0.9)),
                                  rng.randrange(2**32)))
            graphs.append(gen_random_tree(rng.randrange(1, 40), rng.randrange(2**32)))
            graphs.append(gen_d_degenerate(rng.randrange(1, 40), 2, rng.randrange(2**32)))
            sc = gen_intersection_one(rng.randrange(1, 15), rng.randrange(1, 10),
                                      rng.randrange(1, 5), rng.randrange(2**32))
            graphs.append(reduce_set_cover(sc).graph)
        outcomes = [0, 0]
        for g in graphs:
            for a in range(1, 5):
                for b in range(a, a + 3):
                    w = has_biclique(g, a, b)
                    assert w == reference_has_biclique(g, a, b), (g, a, b)
                    outcomes[w is None] += 1
        assert min(outcomes) > 1000  # the families reach both outcomes


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

    def test_packing_bound_prunes_before_the_ratio_scan(self, monkeypatch):
        # P4 with budget 1: two disjoint dominator sets {0, 1} and {2, 3}
        # give depth + lb = 2 = best_size at the root
        def no_scan(*args):
            raise AssertionError("ratio scan ran after the packing bound pruned")

        monkeypatch.setattr(oracles, "_ratio_scan", no_scan)
        r = exact_min_dominating_set(p4(), budget=1)
        assert r.exceeded and r.node_count == 1

    def test_mask_budget_checked_before_allocation(self, monkeypatch):
        # n = 40 fits 40 masks of 2 digits of 4 bytes, n = 41 does not
        monkeypatch.setattr(oracles, "_MAX_MASK_BYTES", 4 * 40 * 2)
        assert exact_min_dominating_set(Graph(40)).opt_size == 40
        with pytest.raises(ResourceLimitError, match="exact search at n=41 needs up to 328 bytes"):
            exact_min_dominating_set(Graph(41))
        # the star's 5000 masks of 5000 bits would take about 3.3 MiB
        g = Graph(5000, [(v, 4999) for v in range(4999)])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="over the limit 320$"):
                exact_min_dominating_set(g, max_nodes=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19
        # with no target there is nothing to build, so nothing to refuse
        assert exact_min_dominating_set(g, targets=[]).opt_size == 0

    def test_budget_zero(self):
        g = gen_gnp(6, 0.5, 1)
        assert exact_min_dominating_set(g, targets=[], budget=0).opt_size == 0
        assert exact_min_dominating_set(g, budget=0).exceeded

    def test_zero_vertex_graph(self):
        g = Graph(0)
        assert exact_min_dominating_set(g).opt_size == 0
        assert enumerate_min_dominating_sets(g) == [()]

    def test_deep_search_ignores_recursion_limit(self):
        # the search goes about 105 levels deep here, more than the 50
        # frames the lowered limit leaves
        g = deep_search_graph()
        expected = exact_min_dominating_set(g)
        assert (expected.opt_size, expected.node_count) == (104, 608)
        old = lower_recursion_limit(50)
        try:
            r = exact_min_dominating_set(g)
        finally:
            sys.setrecursionlimit(old)
        assert r == expected


ORACLE_FAMILIES = {
    "tree": lambda seed: gen_random_tree(40, seed),
    "deg2": lambda seed: gen_d_degenerate(40, 2, seed),
}


def oracle_digests(family):
    """SHA-256 over the compact as_document() JSON of seeds 0..19, per
    mode: plain, even-id targets, budget 3 (pruned at the root at n = 40)
    and a budget one below the optimum (a full search that ends in
    exceeded)."""
    hashes = {mode: hashlib.sha256() for mode in ("plain", "even", "budget3", "below_opt")}
    for seed in range(20):
        g = ORACLE_FAMILIES[family](seed)
        plain = exact_min_dominating_set(g)
        for mode, r in (
            ("plain", plain),
            ("even", exact_min_dominating_set(g, range(0, g.n, 2))),
            ("budget3", exact_min_dominating_set(g, budget=3)),
            ("below_opt", exact_min_dominating_set(g, budget=plain.opt_size - 1)),
        ):
            text = json.dumps(r.as_document(), separators=(",", ":"))
            hashes[mode].update(text.encode() + b"\n")
    return {mode: h.hexdigest() for mode, h in hashes.items()}


# Frozen from the oracle that ran a separate max-coverage scan per node;
# node_count is in each document, so any change to a prune decision
# changes a digest.
FROZEN_ORACLE_DIGESTS = {
    "deg2": {
        "plain": "0e5c5ab059843cddc23766a4eb1ae13f72cd1c24ffd7998cf8cfdc5a19425906",
        "even": "bd3682c64308d38f605a7440fc50e5a5b9fd7018e218ffee87f22485f8000564",
        "budget3": "f15af2b8f42a0d79aac162c012a5c4b67e0df43ce9d6dd5991c063f84b39d0f3",
        "below_opt": "bdf84e0d0072d9adf452e20e341990b633a643d4c09947ed8f9d328df50d5fdb",
    },
    "tree": {
        "plain": "8dff390d24b7bd91f3b908c7a837f1aa6c07bfc75c3199e20125e453a6e89f85",
        "even": "da34a27efb4366c4e54ff98000b11e1da54b9ea804b6503d2289dc065cb272f2",
        "budget3": "f15af2b8f42a0d79aac162c012a5c4b67e0df43ce9d6dd5991c063f84b39d0f3",
        "below_opt": "899aca85b623febbb797f1a95d6cddcfad2c557ba7e096a22ca709b0b52e3b9e",
    },
}


class TestFrozenOracleDigests:
    """Byte identity of oracle documents, node_count included, at n = 40
    (about 70k search nodes in all)."""

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_document_digests(self, family):
        assert oracle_digests(family) == FROZEN_ORACLE_DIGESTS[family]

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_document_digests_with_a_memo_cleared_every_4_passes(self, family, monkeypatch):
        monkeypatch.setattr(oracles, "_MEMO_CAP", 4)
        assert oracle_digests(family) == FROZEN_ORACLE_DIGESTS[family]
