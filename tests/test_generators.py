import hashlib
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import degeneracy, first_intersection_violation, reference_gnp

from domset import generators, graph
from domset.errors import ResourceLimitError, ValidationError
from domset.generators import (
    GenSpec,
    SplitMix64,
    build,
    gen_d_degenerate,
    gen_gnp,
    gen_grid,
    gen_intersection_one,
    gen_random_tree,
    parse_genspec,
)
from domset.graph import Graph, serialize_graph
from domset.oracles import has_biclique
from domset.reduction import SetCoverInstance, serialize_set_cover

# frozen outputs of the documented draw procedures (generated once,
# asserted forever; any PRNG or draw-order change must show up here)
GNP_5_05_42 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4)]
TREE_6_7 = [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5)]
DEGEN_8_2_3 = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5), (2, 6),
    (2, 7), (3, 4), (4, 5), (4, 6), (5, 7),
]
SC_8_4_3_11 = ((2,), (1, 4), (0, 6), (1, 7), (3,), (5,))
# (universe_size, set_count, max_set_size) for the sweep digest; the
# seed is the position in this list
SC_SWEEP = [
    (u, c, m)
    for u in (1, 2, 3, 5, 8, 13, 40, 200)
    for c in (1, 3, 7, 15, 30)
    for m in (1, 2, 3, 5, 9)
]


@st.composite
def gnp_args(draw):
    """(n, p, seed) with the edge cases of the threshold and the seed."""
    n = draw(st.integers(0, 100))
    special = [0.0, -0.0, 5e-324, 1 - 2**-53, 1.0, min(1.0, 4 / max(n, 1))]
    p = draw(st.sampled_from(special) | st.floats(0.0, 1.0))
    seed = draw(st.integers(-(2**70), 2**70) | st.sampled_from([-1, 2**64 - 1, 2**64]))
    return n, p, seed


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_f53_range(self):
        rng = SplitMix64(99)
        for _ in range(1000):
            x = rng.next_f53()
            assert 0.0 <= x < 1.0

    def test_below_range(self):
        rng = SplitMix64(7)
        draws = [rng.next_below(5) for _ in range(200)]
        assert set(draws) == {0, 1, 2, 3, 4}


class TestGnp:
    def test_empty(self):
        assert gen_gnp(0, 0.5, 1) == Graph(0)

    def test_degenerate_probabilities(self):
        assert gen_gnp(6, 0.0, 3).m == 0
        assert gen_gnp(6, 1.0, 3).m == 15

    def test_golden_fixture(self):
        assert gen_gnp(5, 0.5, 42).edges() == GNP_5_05_42

    def test_seed_changes_output(self):
        assert gen_gnp(12, 0.5, 1) != gen_gnp(12, 0.5, 2)

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            gen_gnp(-1, 0.5, 0)
        with pytest.raises(ValidationError):
            gen_gnp(5, 1.5, 0)

    def test_examples_bracket_a_block_boundary(self):
        # of the @example n below, 91 has fewer pairs than a block and 92 more
        assert 91 * 90 // 2 < generators._BLOCK < 92 * 91 // 2

    @settings(max_examples=150, deadline=None)
    @given(args=gnp_args())
    @example(args=(91, 4 / 91, 1))
    @example(args=(91, 1 - 2**-53, -3))
    @example(args=(92, 4 / 92, 2**64 + 1))
    @example(args=(92, 0.5, -(2**70)))
    def test_blocks_draw_what_the_scalar_loop_draws(self, args):
        assert gen_gnp(*args).edges() == reference_gnp(*args)


class TestGrid:
    def test_2x2_is_c4(self):
        assert gen_grid(2, 2) == Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_1x4_is_p4(self):
        assert gen_grid(1, 4) == Graph(4, [(0, 1), (1, 2), (2, 3)])

    def test_3x3_counts(self):
        g = gen_grid(3, 3)
        assert (g.n, g.m) == (9, 12)

    def test_k23_free(self):
        for w, h in ((2, 2), (3, 4), (4, 4), (2, 6)):
            assert has_biclique(gen_grid(w, h), 2, 3) is None


class TestRandomTree:
    def test_tiny(self):
        assert gen_random_tree(1, 0) == Graph(1)
        assert gen_random_tree(2, 0) == Graph(2, [(0, 1)])

    def test_golden_fixture(self):
        assert gen_random_tree(6, 7).edges() == TREE_6_7

    def test_tree_shape(self):
        for seed in range(10):
            g = gen_random_tree(20, seed)
            assert g.m == g.n - 1
            # connected: everything reachable from 0
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for u in g.adj[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            assert len(seen) == g.n

    def test_k22_free(self):
        for seed in range(12):
            assert has_biclique(gen_random_tree(20, seed), 2, 2) is None


class TestDDegenerate:
    def test_d0_edgeless(self):
        assert gen_d_degenerate(7, 0, 5).m == 0

    def test_d1_forest(self):
        for seed in range(6):
            g = gen_d_degenerate(15, 1, seed)
            assert g.m == g.n - 1
            assert degeneracy(g) <= 1

    def test_golden_fixture_and_peeling(self):
        g = gen_d_degenerate(8, 2, 3)
        assert g.edges() == DEGEN_8_2_3
        assert degeneracy(g) <= 2

    def test_insertion_order_certifies(self):
        g = gen_d_degenerate(30, 3, 11)
        for v in range(g.n):
            assert sum(1 for u in g.adj[v] if u < v) <= 3
        assert degeneracy(g) <= 3


class TestIntersectionOne:
    def test_golden_fixture(self):
        sc = gen_intersection_one(8, 4, 3, 11)
        assert sc.universe == tuple(range(8))
        assert sc.sets == SC_8_4_3_11

    def test_always_valid_and_covering(self):
        for seed in range(25):
            sc = gen_intersection_one(10, 4, 4, seed)
            assert SetCoverInstance(sc.universe, sc.sets) == sc
            assert first_intersection_violation(sc.sets) == (-1, -1)
            assert set().union(*map(set, sc.sets)) == set(sc.universe)

    def test_sweep_digest(self):
        # SHA-256 over the 200 serialized instances, frozen from the
        # all-pairs acceptance rule the element index replaced
        digest = hashlib.sha256()
        for seed, (u, c, m) in enumerate(SC_SWEEP):
            digest.update(serialize_set_cover(gen_intersection_one(u, c, m, seed)).encode())
        assert digest.hexdigest() == (
            "7948ae3e8d98621ee63442c63fb2249bf85cc44fdbfc24ae22c89e818c1aeac0"
        )

    def test_singleton_only(self):
        sc = gen_intersection_one(5, 3, 1, 2)
        assert all(len(s) == 1 for s in sc.sets)

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            gen_intersection_one(0, 1, 1, 0)


@pytest.mark.parametrize("make, args, message", [
    (gen_grid, (0, 3), "grid sides must be >= 1, got 0x3"),
    (gen_grid, (3, 0), "grid sides must be >= 1, got 3x0"),
    (gen_random_tree, (0, 1), "n must be >= 1, got 0"),
    (gen_d_degenerate, (-1, 2, 0), "need n, d >= 0, got n=-1, d=2"),
    (gen_d_degenerate, (5, -1, 0), "need n, d >= 0, got n=5, d=-1"),
], ids=["grid-w", "grid-h", "tree-n", "degenerate-n", "degenerate-d"])
def test_bad_arguments(make, args, message):
    with pytest.raises(ValidationError) as exc:
        make(*args)
    assert str(exc.value) == message


def test_distinct_matches_list_scan_redraw():
    # the documented rule, written as a scan of the values drawn so far
    def reference(rng, k, below):
        picked = []
        while len(picked) < k:
            x = rng.next_below(below)
            if x not in picked:
                picked.append(x)
        return picked

    pick = SplitMix64(2024)
    pairs = [(0, 1), (0, 5), (1, 1), (7, 7), (64, 64), (3, 1000)]
    for _ in range(40):
        below = 1 + pick.next_below(80)
        pairs.append((pick.next_below(below + 1), below))
    for seed, (k, below) in enumerate(pairs):
        ours, ref = SplitMix64(seed), SplitMix64(seed)
        assert generators._distinct(ours, k, below) == reference(ref, k, below), (k, below)
        assert ours.next_u64() == ref.next_u64()  # the same number of draws


class TestDeterminismAndSpecs:
    def test_repeat_runs_identical(self):
        a = gen_gnp(30, 0.2, 9)
        b = gen_gnp(30, 0.2, 9)
        assert serialize_graph(a) == serialize_graph(b)
        assert gen_intersection_one(9, 3, 3, 4) == gen_intersection_one(9, 3, 3, 4)

    def test_parse_genspec(self):
        spec = parse_genspec("gnp:n=20,p=0.2,seed=7")
        assert spec == GenSpec("gnp", {"n": 20, "p": 0.2}, 7)
        assert spec.name() == "gnp:n=20,p=0.2,seed=7"
        assert build(spec) == gen_gnp(20, 0.2, 7)

    def test_parse_genspec_grid(self):
        spec = parse_genspec("grid:w=3,h=4")
        assert build(spec) == gen_grid(3, 4)
        assert spec.name() == "grid:h=4,w=3"

    def test_parse_genspec_errors(self):
        with pytest.raises(ValidationError):
            parse_genspec("mystery:n=3")
        with pytest.raises(ValidationError):
            parse_genspec("gnp:n")
        with pytest.raises(ValidationError):
            build(parse_genspec("gnp:n=3"))
        with pytest.raises(ValidationError):
            build(parse_genspec("grid:w=3,h=4,zz=1"))

    def test_build_rejects_an_unknown_model(self):
        # parse_genspec refuses it first, so only a directly built GenSpec gets here
        with pytest.raises(ValidationError, match="^unknown model 'mystery'; expected one of"):
            build(GenSpec("mystery", {"n": 3}))

    def test_parse_genspec_drops_nothing(self):
        with pytest.raises(ValidationError, match="grid takes no seed"):
            parse_genspec("grid:w=3,h=4,seed=5")
        with pytest.raises(ValidationError, match="repeated key 'n'"):
            parse_genspec("gnp:n=5,p=0.5,n=7")
        with pytest.raises(ValidationError, match="repeated key 'seed'"):
            parse_genspec("random_tree:n=5,seed=1,seed=1")

    # (genspec, GenSpec.name(), SHA-256 prefix of the serialized instance)
    # for every model, frozen from the per-model code the table replaced
    @pytest.mark.parametrize(
        "text, name, digest",
        [
            ("gnp:n=30,p=0.2,seed=7", "gnp:n=30,p=0.2,seed=7", "03d6ad287aecde36"),
            # 719 400 draws in many blocks, 2843 edges
            ("gnp:n=1200,p=0.004,seed=1", "gnp:n=1200,p=0.004,seed=1", "131001aeb2fb8f67"),
            ("grid:w=5,h=4", "grid:h=4,w=5", "25d9a930e1be01fb"),
            ("random_tree:n=40,seed=3", "random_tree:n=40,seed=3", "79ac70fcb78c3bcb"),
            ("d_degenerate:n=30,d=3,seed=11", "d_degenerate:d=3,n=30,seed=11",
             "70a2e7d44d7598d6"),
            ("intersection_one_sc:universe_size=20,set_count=12,max_set_size=4,seed=5",
             "intersection_one_sc:max_set_size=4,set_count=12,universe_size=20,seed=5",
             "aae7350f5fa487fe"),
            # wide draws: every vertex, or every set, draws up to the whole range
            ("d_degenerate:n=300,d=300,seed=7", "d_degenerate:d=300,n=300,seed=7",
             "772e156e1450734e"),
            ("intersection_one_sc:universe_size=600,set_count=10,max_set_size=600,seed=1",
             "intersection_one_sc:max_set_size=600,set_count=10,universe_size=600,seed=1",
             "c6a6d17f7511379e"),
        ],
        ids=["gnp", "gnp_multi_block", "grid", "random_tree", "d_degenerate",
             "intersection_one_sc", "d_degenerate_wide", "intersection_one_sc_wide"],
    )
    def test_name_and_build_per_model(self, text, name, digest):
        spec = parse_genspec(text)
        built = build(spec)
        out = serialize_graph(built) if isinstance(built, Graph) else serialize_set_cover(built)
        assert spec.name() == name
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestVertexLimit:
    """With the limit patched to 10, a generator refuses a larger graph
    before it builds edges or draws random values."""

    @pytest.mark.parametrize(
        "make, n",
        [
            (lambda: gen_gnp(90000, 4 / 90000, 1), 90000),
            (lambda: gen_grid(300, 300), 90000),
            (lambda: gen_random_tree(90000, 1), 90000),
            (lambda: gen_d_degenerate(90000, 3, 1), 90000),
            (lambda: gen_intersection_one(90000, 1, 1, 1), 90001),
        ],
        ids=["gnp", "grid", "random_tree", "d_degenerate", "intersection_one_sc"],
    )
    def test_refused_before_edges_are_built(self, monkeypatch, make, n):
        # the edge lists alone would take 10-30 MiB
        monkeypatch.setattr(graph, "MAX_VERTICES", 10)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"vertex count {n} exceeds the limit 10"):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_gnp_refused_before_the_first_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a random value before the vertex-count check")

        monkeypatch.setattr(graph, "MAX_VERTICES", 10)
        monkeypatch.setattr(generators, "_draws_below", no_draw)
        with pytest.raises(ResourceLimitError, match="vertex count 11 exceeds the limit 10"):
            gen_gnp(11, 0.5, 1)

    def test_limit_itself_is_accepted(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_VERTICES", 10)
        assert gen_grid(5, 2).n == gen_gnp(10, 0.5, 1).n == 10
        assert gen_random_tree(10, 1).n == gen_d_degenerate(10, 3, 1).n == 10
        assert len(gen_intersection_one(9, 1, 1, 1).universe) == 9
