"""Shared test utilities: independent brute-force oracles and an
invariant checker that replays solver traces against the greedy rules.

Everything here recomputes from definitions, deliberately avoiding the
package's own search/selection code paths; only
`enumerate_min_dominating_sets` takes its target size from the exact
oracle, and `reference_exact` its greedy seed from classical greedy.
"""

import sys
from collections import Counter
from heapq import heapify, heappop, heapreplace
from itertools import combinations

from domset.errors import RangeError, ResourceLimitError, ValidationError
from domset.generators import (
    SplitMix64,
    gen_d_degenerate,
    gen_gnp,
    gen_grid,
    gen_random_tree,
)
from domset.graph import Graph, _vertex_ids
from domset.oracles import OracleResult, exact_min_dominating_set
from domset.solvers import BicliqueWitness, Round, _check_i, solve_classical


def target_mask(g: Graph, targets=None) -> int:
    """Bit set of the targets; None means every vertex."""
    if targets is None:
        return (1 << g.n) - 1
    mask = 0
    for v in targets:
        assert 0 <= v < g.n
        mask |= 1 << v
    return mask


def ids_in(mask: int) -> tuple:
    """Sorted ids of the bits set in `mask`."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def closed_mask(g: Graph, v: int) -> int:
    mask = 1 << v
    for u in g.adj[v]:
        mask |= 1 << u
    return mask


def closed_neighborhood(g: Graph, v: int) -> tuple:
    """N[v]: the vertex v together with its neighbors, sorted."""
    if not 0 <= v < g.n:
        raise RangeError(f"vertex {v} out of range for n={g.n}")
    return tuple(sorted(g.adj[v] + (v,)))


def covers(g: Graph, subset, tmask: int) -> bool:
    got = 0
    for v in subset:
        got |= closed_mask(g, v)
    return tmask & ~got == 0


def brute_min_dominating(g: Graph, targets=None):
    """(size, lexicographically first witness) by exhaustive search."""
    tmask = target_mask(g, targets)
    if tmask == 0:
        return 0, ()
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if covers(g, combo, tmask):
                return k, combo
    raise AssertionError("a graph always dominates itself")


def brute_all_min_dominating(g: Graph, targets=None):
    tmask = target_mask(g, targets)
    if tmask == 0:
        return [()]
    k, _ = brute_min_dominating(g, targets)
    return [c for c in combinations(range(g.n), k) if covers(g, c, tmask)]


def enumerate_min_dominating_sets(g: Graph, targets=None) -> list:
    """All sets of minimum cardinality dominating `targets`, in
    lexicographic order: every set of the size the exact oracle finds.
    Exhaustive over subsets of that size; meant for small graphs (n up
    to about 16)."""
    targets = None if targets is None else list(targets)
    tmask = target_mask(g, targets)
    if tmask == 0:
        return [()]
    k = exact_min_dominating_set(g, targets).opt_size
    return [c for c in combinations(range(g.n), k) if covers(g, c, tmask)]


def reference_exact(g: Graph, targets=None, budget=None, max_nodes=None, keys=None) -> OracleResult:
    """The exact oracle's branch and bound without any memo: every node
    recomputes its packing bound, branching target and ratio bound from
    the masks. Same node order, prunes and tie-breaks as
    `exact_min_dominating_set`, so the whole OracleResult, node_count
    included, must match it.

    With a dict `keys`, maps the oracle's memo key (banned & N[A]) << n | A
    of every node with a nonempty A to whether some node with that key
    survived both bounds; tests count the oracle's per-key work against
    it."""
    tids = _vertex_ids(g, targets)
    if not tids:
        if budget is not None and budget < 0:
            return OracleResult(None, None, 0, exceeded=True)
        return OracleResult(0, (), 0)
    masks = [closed_mask(g, v) for v in range(g.n)]
    seed = solve_classical(g, tids).dominating_set
    best_size, best_set = len(seed), seed
    if budget is not None and budget + 1 < best_size:
        best_size, best_set = budget + 1, None
    nodes = 0
    chosen = []
    stack = [(target_mask(g, tids), 0, 0, -1)]
    while stack:
        active, banned, depth, v = stack.pop()
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise ResourceLimitError(f"exact search exceeded the node limit {max_nodes}")
        if depth:
            chosen[depth - 1:] = (v,)
        if active == 0:
            if depth < best_size:
                best_size, best_set = depth, tuple(sorted(chosen))
            continue
        hood = 0
        for u in ids_in(active):
            hood |= masks[u]
        key = (banned & hood) << g.n | active
        if keys is not None:
            keys.setdefault(key, False)
        # packing bound and the target with the fewest allowed dominators
        doms = [(masks[u] & ~banned, u) for u in ids_in(active)]
        if any(dom == 0 for dom, _ in doms):
            continue
        used, lb = 0, 0
        for dom, _ in doms:
            if dom & used == 0:
                lb, used = lb + 1, used | dom
        if depth + lb >= best_size:
            continue
        # ratio bound: ceil(|A| / c), c the best coverage by an allowed vertex
        c = max((masks[w] & active).bit_count() for w in range(g.n) if not banned >> w & 1)
        if depth + -(-active.bit_count() // c) >= best_size:
            continue
        if keys is not None:
            keys[key] = True
        u = min(doms, key=lambda d: (d[0].bit_count(), d[1]))[1]
        cands = [w for w in ids_in(masks[u]) if not banned >> w & 1]
        cands.sort(key=lambda w: (-(masks[w] & active).bit_count(), w))
        children = []
        for w in cands:
            children.append((active & ~masks[w], banned, depth + 1, w))
            banned |= 1 << w
        stack.extend(reversed(children))
    if best_set is None or budget is not None and best_size > budget:
        return OracleResult(None, None, nodes, exceeded=True)
    return OracleResult(best_size, best_set, nodes)


def reference_bound_and_target(masks, active: int, banned: int = 0) -> tuple:
    """`oracles._bound_and_target` walking `active` a bit at a time with
    `a & -a`: (packing bound, branching target, reach, hood), or
    (-1, -1, 0, hood) with the whole hood when some active bit has no
    allowed dominator."""
    allowed = ((1 << len(masks)) - 1) ^ banned
    used = count = hood = 0
    best_u, best_c = -1, len(masks) + 1
    a = active
    while a:
        low = a & -a
        u = low.bit_length() - 1
        a ^= low
        m = masks[u]
        hood |= m
        dom = m & allowed
        if dom == 0:
            while a:
                low = a & -a
                hood |= masks[low.bit_length() - 1]
                a ^= low
            return -1, -1, 0, hood
        if dom & used == 0:
            count += 1
            used |= dom
        c = dom.bit_count()
        if c < best_c:
            best_c, best_u = c, u
    return count, best_u, hood & allowed, hood


def reference_ratio_scan(masks, active: int, size: int, rest: int, cbest: int, slots: int) -> tuple:
    """`oracles._ratio_scan` clearing one bit of `rest` at a time: scan in
    id order until some vertex covers at least size / slots of `active`,
    or `rest` is empty, and return the progress (rest, cbest)."""
    need = -(-size // slots)
    while rest and cbest < need:
        low = rest & -rest
        c = (masks[low.bit_length() - 1] & active).bit_count()
        if c > cbest:
            cbest = c
        rest ^= low
    return rest, cbest


def reference_graph(n: int, edges) -> tuple:
    """(m, adj) of `Graph(n, edges)` built from neighbour sets: each
    edge added to both endpoints' sets, each set sorted into a row.
    The edges are assumed valid."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return sum(map(len, nbrs)) // 2, tuple(tuple(sorted(s)) for s in nbrs)


def reference_residual(adj, tids) -> tuple:
    """(live, gain) of `solvers._residual` by the per-target loop: each
    target is live and adds 1 to the gain of every vertex of its closed
    neighborhood."""
    live = bytearray(len(adj))
    gain = [0] * len(adj)
    for u in tids:
        live[u] = 1
        for w in (u, *adj[u]):
            gain[w] += 1
    return live, gain


def reference_chain_pick(adj, pool, chosen) -> int:
    """The pick w of `solvers._chain_pick`, with a `Counter`: |N[w] & pool|
    for every w in N[pool], the chosen vertices dropped, then the lowest
    id of maximum count."""
    cnt = Counter(pool)
    for b in pool:
        cnt.update(adj[b])
    for v in chosen:
        cnt.pop(v, None)
    top = max(cnt.values())
    return min(w for w, c in cnt.items() if c == top)


def reference_packing(adj, tids) -> tuple:
    """`solvers._packing` as a tuple-and-`max` scan: each target, in
    (degree, id) order, joins when no vertex of N[u] has an owner yet."""
    owner = [-1] * len(adj)
    size = 0
    degree = list(map(len, adj))
    for u in sorted(tids, key=degree.__getitem__):  # stable: ids stay sorted
        hood = (u, *adj[u])
        if max(map(owner.__getitem__, hood)) < 0:  # N[u] meets no member's
            for w in hood:
                owner[w] = u
            size += 1
    return owner, size


def reference_greedy_rounds(adj, live, gain, i) -> tuple:
    """`solvers._greedy_rounds` with its v_1 taken from a lazy heap
    (Minoux 1978) of every vertex of positive gain, in place of
    `_v1_picks`: one int key v - gain[v] * n per vertex, min-heap order
    being gain descending, then id ascending, and the top re-keyed until
    its key is current. Each chain pick is `reference_chain_pick`, and
    every next pool is filtered from the last, kept pick or not.
    Consumes `live` and `gain` and returns the same (rounds, deep).
    Every round's final pool is kept, and under auto `deep` is read
    from them after the run: a round's depth is its number of picks l
    when its pool is non-empty, else 0, and `deep` pairs the sorted
    picks of the earliest round of greatest depth with the l smallest
    ids of its pool (None when every depth is 0, and for every integer
    i)."""
    _check_i(i)
    n = len(adj)
    heap = [v - c * n for v, c in enumerate(gain) if c]
    heapify(heap)
    left = live.count(1)
    rounds = []
    pools = []
    while left:
        # gains only fall, so a stored key is never above the current one
        while True:
            key = heap[0]
            v1 = key % n
            c = gain[v1]
            if key == v1 - c * n:
                break
            if c:
                heapreplace(heap, v1 - c * n)
            else:
                heappop(heap)
        heappop(heap)  # every vertex picked this round ends with gain 0
        chosen = [v1]
        pool = [w for w in adj[v1] if live[w]] if i != 2 else None
        b_sizes = [c - live[v1]]
        while pool and (len(pool) > len(chosen) if i is None else len(chosen) < i - 1):
            v = reference_chain_pick(adj, pool, chosen)
            nbrs = set(adj[v])
            b_next = [b for b in pool if b in nbrs]
            if i is None and len(b_next) < len(chosen) + 1:
                break
            chosen.append(v)
            pool = b_next
            b_sizes.append(len(pool))
        covered = 0
        for v in chosen:
            for u in (v, *adj[v]):
                if live[u]:
                    live[u] = 0
                    covered += 1
                    gain[u] -= 1
                    for w in adj[u]:
                        gain[w] -= 1
        left -= covered
        rounds.append(Round(tuple(chosen), tuple(b_sizes), covered))
        pools.append(pool)
    depths = [len(r.chosen) if pool else 0 for r, pool in zip(rounds, pools)]
    depth = max(depths, default=0)
    if not depth or i is not None:
        return rounds, None
    p = depths.index(depth)  # the earliest wins ties
    return rounds, (tuple(sorted(rounds[p].chosen)), tuple(pools[p][:depth]))


def star_forest(k: int, seed=None) -> Graph:
    """The disjoint stars K_{1,1}, ..., K_{1,k}, each centre before its
    leaves; with a seed, the ids are shuffled by a splitmix64 draw. The
    centres' gains 2..k+1 make k levels with one vertex each."""
    edges = []
    first = 0
    for leaves in range(1, k + 1):
        edges += [(first, first + j) for j in range(1, leaves + 1)]
        first += leaves + 1
    ids = list(range(first))
    if seed is not None:
        rng = SplitMix64(seed)
        for a in range(first - 1, 0, -1):  # Fisher-Yates
            b = rng.next_below(a + 1)
            ids[a], ids[b] = ids[b], ids[a]
    return Graph(first, [(ids[u], ids[v]) for u, v in edges])


def local_max_then_classical(g: Graph, targets, choose) -> list:
    """Dominate, one after another, local maxima of the residual: vertices
    of gain |N[v] & A| > 0 whose key (gain descending, id ascending)
    beats every other vertex within distance 2. `choose` gets the sorted
    local maxima (never empty while a target is live: the global maximum
    is one) and returns one to pick, or None to stop; `solve_classical`
    then finishes what is left. Returns every pick, in order."""
    hoods = [set(closed_neighborhood(g, v)) for v in range(g.n)]
    balls = [set().union(*(hoods[u] for u in hoods[v])) for v in range(g.n)]
    live = set(_vertex_ids(g, targets))
    picks = []
    while live:
        key = [(-len(hood & live), v) for v, hood in enumerate(hoods)]
        maxima = [
            v for v in range(g.n)
            if key[v][0] < 0 and all(key[v] < key[w] for w in balls[v] if w != v)
        ]
        v = choose(maxima)
        if v is None:
            break
        picks.append(v)
        live -= hoods[v]
    return picks + list(solve_classical(g, sorted(live)).dominating_set)


def brute_has_biclique(g: Graph, a: int, b: int) -> bool:
    """Full double enumeration of candidate sides."""
    verts = range(g.n)
    adj = [set(row) for row in g.adj]
    for left in combinations(verts, a):
        rest = [v for v in verts if v not in left]
        for right in combinations(rest, b):
            if all(r in adj[l] for l in left for r in right):
                return True
    return False


def reference_has_biclique(g: Graph, a: int, b: int):
    """`oracles.has_biclique` as it was on per-vertex n-bit neighbour
    masks, without the cap on `a`: the same a-subset enumeration, prune
    and witness, kept to compare the adjacency-set search with."""
    if a < 1 or b < a:
        raise ValidationError(f"need 1 <= a <= b, got a={a}, b={b}")
    n = g.n
    open_masks = [sum(1 << u for u in row) for row in g.adj]

    def extend(start, left, left_mask, common):
        if len(left) == a:
            cand = common & ~left_mask
            if cand.bit_count() >= b:
                return BicliqueWitness(tuple(left), ids_in(cand)[:b])
            return None
        for v in range(start, n - (a - len(left)) + 1):
            nxt = open_masks[v] if not left else common & open_masks[v]
            if (nxt & ~(left_mask | 1 << v)).bit_count() < b:
                continue
            found = extend(v + 1, left + [v], left_mask | 1 << v, nxt)
            if found is not None:
                return found
        return None

    return extend(0, [], 0, 0)


def brute_min_set_cover(sc) -> int:
    """Minimum number of family sets covering the universe."""
    uni = set(sc.universe)
    members = [set(s) for s in sc.sets]
    for k in range(0, len(members) + 1):
        for combo in combinations(range(len(members)), k):
            got = set()
            for idx in combo:
                got |= members[idx]
            if got == uni:
                return k
    raise AssertionError("the family covers its own union")


def first_intersection_violation(sets) -> tuple:
    """(p, q), the lexicographically first pair of sets sharing two or
    more elements, or (-1, -1); an all-pairs scan."""
    members = [set(s) for s in sets]
    for p in range(len(members)):
        for q in range(p + 1, len(members)):
            if len(members[p] & members[q]) > 1:
                return p, q
    return -1, -1


def reference_set_cover(universe, sets) -> tuple:
    """(universe, sets) normalized as `build_instance` does, checked from
    the definitions in `build_instance`'s order and with its messages;
    the shared-pair check is the all-pairs scan above."""
    uni = tuple(universe)
    fam = tuple(tuple(sorted(set(s))) for s in sets)
    if len(set(uni)) != len(uni):
        raise ValidationError("duplicate elements in universe")
    if not uni:
        raise ValidationError("empty universe")
    uni_set = set(uni)
    for idx, s in enumerate(fam):
        if not s:
            raise ValidationError(f"set {idx} is empty")
        extra = set(s) - uni_set
        if extra:
            raise ValidationError(f"set {idx} contains {sorted(extra)} outside the universe")
    union = set().union(*fam) if fam else set()
    if union != uni_set:
        raise ValidationError(f"elements {sorted(uni_set - union)} are covered by no set")
    if len({frozenset(s) for s in fam}) != len(fam):
        raise ValidationError("duplicate sets in family")
    p, q = first_intersection_violation(fam)
    if p >= 0:
        shared = sorted(set(fam[p]) & set(fam[q]))
        raise ValidationError(f"sets {p} and {q} share {shared} (intersection > 1)")
    return uni, fam


def reference_gnp(n: int, p: float, seed: int) -> list:
    """G(n, p)'s edges drawn one pair at a time: each pair {u, v} in
    lexicographic order is an edge iff the next float draw is < p."""
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_f53() < p:
                edges.append((u, v))
    return edges


def degeneracy(g: Graph) -> int:
    """Max over peeling steps of the minimum remaining degree."""
    alive = set(range(g.n))
    deg = {v: g.degree(v) for v in alive}
    worst = 0
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        worst = max(worst, deg[v])
        alive.remove(v)
        for u in g.adj[v]:
            if u in alive:
                deg[u] -= 1
    return worst


def deep_search_graph():
    """gnp(14, 0.25, 10), where greedy finds 6 and the optimum is 4,
    beside 100 disjoint 3-vertex paths. The greedy seed is 2 above the
    optimum, so the exact search descends about one level per path
    before it reaches the gnp part."""
    edges = gen_gnp(14, 0.25, 10).edges()
    for a in range(14, 314, 3):
        edges += [(a, a + 1), (a + 1, a + 2)]
    return Graph(314, edges)


def lower_recursion_limit(headroom):
    """Set the recursion limit `headroom` levels above the current
    depth, as the interpreter counts it; returns the old limit."""
    old = sys.getrecursionlimit()
    limit = 1
    while True:  # the interpreter refuses a limit at or below the depth
        try:
            sys.setrecursionlimit(limit)
            break
        except RecursionError:
            limit += 1
    sys.setrecursionlimit(limit + headroom)
    return old


def check_trace(g: Graph, result, targets=None, cap=None, auto_gate=False):
    """Replay a trace, asserting the greedy selection rules hold at
    every step: lowest-id maximality for each pick, nested pools with
    recorded sizes, per-round progress, and an empty final residual.
    With `auto_gate`, also re-derive auto's certificate from the
    replayed pools: the earliest round of greatest depth (its pick count
    if its final pool is non-empty, else 0), t_detected = depth + 1, and
    the witness (sorted picks, the `depth` smallest ids of that pool)."""
    masks = [closed_mask(g, v) for v in range(g.n)]
    tmask = target_mask(g, targets)
    assert result.trace.initial_targets == ids_in(tmask)
    active = tmask
    all_chosen = []
    best_depth, best_witness = 0, None
    for rnd in result.trace.rounds:
        assert len(rnd.chosen) >= 1
        assert len(set(rnd.chosen)) == len(rnd.chosen)
        if cap is not None:
            assert len(rnd.chosen) <= cap
        assert len(rnd.b_sizes) == len(rnd.chosen)
        assert all(x >= y for x, y in zip(rnd.b_sizes, rnd.b_sizes[1:]))
        v1 = rnd.chosen[0]
        c1 = (masks[v1] & active).bit_count()
        for u in range(g.n):
            cu = (masks[u] & active).bit_count()
            assert cu <= c1
            if u < v1:
                assert cu < c1
        pool = masks[v1] & active & ~(1 << v1)
        assert pool.bit_count() == rnd.b_sizes[0]
        chosen_mask = 1 << v1
        covered = masks[v1] & active
        for s, v in enumerate(rnd.chosen[1:], start=1):
            c = (masks[v] & pool).bit_count()
            assert c >= 1
            for u in range(g.n):
                if chosen_mask >> u & 1:
                    continue
                cu = (masks[u] & pool).bit_count()
                assert cu <= c
                if u < v:
                    assert cu < c
            pool = masks[v] & pool & ~(1 << v)
            assert pool.bit_count() == rnd.b_sizes[s]
            if auto_gate:
                assert rnd.b_sizes[s] >= s + 1
            chosen_mask |= 1 << v
            covered |= masks[v] & active
        # the round must not have stopped while the rules said continue
        if cap is None or len(rnd.chosen) < cap:
            best_v, best_c = -1, 0
            for u in range(g.n):
                if chosen_mask >> u & 1:
                    continue
                cu = (masks[u] & pool).bit_count()
                if best_v < 0 or cu > best_c:
                    best_v, best_c = u, cu
            if auto_gate:
                if best_c > 0:
                    next_pool = masks[best_v] & pool & ~(1 << best_v)
                    assert next_pool.bit_count() < len(rnd.chosen) + 1
            else:
                assert best_c == 0
        assert rnd.newly_dominated == covered.bit_count() >= 1
        depth = len(rnd.chosen) if pool else 0
        if depth > best_depth:  # the earliest round wins ties
            best_depth = depth
            best_witness = (tuple(sorted(rnd.chosen)), ids_in(pool)[:depth])
        active &= ~covered
        all_chosen.extend(rnd.chosen)
    assert active == 0
    if auto_gate:
        assert result.t_detected == best_depth + 1
        got = None if result.witness is None else (result.witness.left, result.witness.right)
        assert got == best_witness
    assert len(set(all_chosen)) == len(all_chosen)
    assert result.trace.final_set == tuple(sorted(all_chosen))
    assert result.dominating_set == result.trace.final_set


def build_validity_suite():
    """The 1000-instance seeded mix used by the acceptance criteria."""
    instances = []
    for n in (8, 16, 24, 32, 48, 64):
        for p in (0.05, 0.2, 0.5):
            for seed in range(20):
                instances.append((f"gnp:n={n},p={p},seed={seed}", gen_gnp(n, p, seed)))
    for seed in range(12):
        instances.append((f"gnp:n=10,p=0.2,seed={100 + seed}", gen_gnp(10, 0.2, 100 + seed)))
    for w in range(1, 9):
        for h in range(w, 9):
            instances.append((f"grid:w={w},h={h}", gen_grid(w, h)))
    for n in (4, 8, 12, 16, 24, 32, 48, 64):
        for seed in range(38):
            instances.append((f"random_tree:n={n},seed={seed}", gen_random_tree(n, seed)))
    for n in (8, 16, 32, 64):
        for d in range(4):
            for seed in range(18):
                instances.append(
                    (f"d_degenerate:n={n},d={d},seed={seed}", gen_d_degenerate(n, d, seed))
                )
    assert len(instances) == 1000
    return instances
