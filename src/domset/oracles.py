"""Ground-truth machinery: exact minimum dominating sets, brute-force
biclique detection, and the harmonic-number helper.

The exact solver is a branch and bound over "which vertex dominates
the hardest remaining target". Each search node makes one pass over the
undominated targets that yields the packing lower bound, the branching
target and the set of vertices that can still cover something; only if
the packing bound does not prune does it try the ratio bound over that
set. The search is one loop over an explicit stack of nodes, so no
interpreter setting limits its depth. Everything here is deterministic
so oracle outputs can be frozen into fixtures.

A search node is three bit sets: the undominated set A, the bans and the
picks on its path. The per-node pass reads only A and the bans inside
N[A], and a node keeps only the bans inside its parent's N[A], which
contains its own; so each search keeps a memo keyed by the bans and A as
the node holds them: a tree search meets each independent part again
under every choice made elsewhere. A memo record holds what the key
fixes: the pass, |A|, how far the ratio scan has got and the branching
order, each computed the first time a node needs it. It holds no prune
decision, since those depend on the depth and the best size, so the
nodes visited, and node_count, are those of a search without it.

Vertex sets in the exact search are Python ints used as bit sets: each
call builds one closed-neighborhood mask per vertex from the adjacency
lists. Nothing else in the package uses bit sets; the biclique search
works on adjacency sets, so its memory is O(n + m).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceLimitError, ValidationError
from .graph import Graph, _vertex_ids
from .solvers import BicliqueWitness, solve_classical

# The exact search clears its memo of bound passes when it holds this many.
_MEMO_CAP = 1 << 16
# has_biclique refuses a left side larger than this; its work grows as n^a.
_MAX_LEFT = 4


def _mask(ids: Iterable[int]) -> int:
    """Bit set of the vertex ids `ids`."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def _closed_masks(g: Graph) -> list[int]:
    """N[v] (v and its neighbors) as a bit set, for every vertex v."""
    return [_mask((v, *row)) for v, row in enumerate(g.adj)]


def _bound_and_target(masks, active: int, banned: int = 0) -> tuple[int, int, int, int]:
    """One pass over the bits of `active`, each dominated by the
    non-banned vertices of its closed neighborhood. Returns:

    * a lower bound on how many non-banned vertices must be picked to
      cover `active`: active bits whose allowed dominator sets are
      pairwise disjoint are packed greedily, and each packed bit needs
      its own vertex;
    * the active bit with the fewest allowed dominators (tie: lowest id),
      or -1 when `active` is empty;
    * the union of the allowed dominator sets: by symmetry of N[.], the
      non-banned vertices that cover at least one active bit;
    * the hood N[active], banned vertices included: the only vertices
      whose ban the pass reads.

    Returns (-1, -1, 0, 0) as soon as some active bit has no allowed
    dominator.
    """
    allowed = ~banned
    used = 0
    count = 0
    best_u = -1
    best_c = -1
    hood = 0
    a = active
    while a:
        low = a & -a
        u = low.bit_length() - 1
        a ^= low
        m = masks[u]
        hood |= m
        dom = m & allowed
        if dom == 0:
            return -1, -1, 0, 0
        if dom & used == 0:
            count += 1
            used |= dom
        c = dom.bit_count()
        if best_u < 0 or c < best_c:
            best_c = c
            best_u = u
    return count, best_u, hood & allowed, hood


def _ratio_scan(masks, active: int, size: int, rest: int, cbest: int, slots: int) -> tuple[int, int]:
    """The ratio bound's scan over reach, resumable. `size` is |active|,
    `rest` the part of reach not yet scanned and `cbest` the largest
    coverage |masks[v] & active| over the part already scanned (0 before
    any scan). Returns the progress (rest, cbest) after scanning `rest`
    in id order until some vertex covers at least size / `slots` (>= 1)
    of the active bits, or until `rest` is empty.

    The ratio bound ceil(size / c) > slots, c the largest coverage over
    reach, then holds exactly when cbest * slots < size: either the scan
    stopped at a vertex that covers enough, or it scanned all of reach
    and cbest is c. Given the returned progress, a later call with any
    `slots` goes on where this one stopped, so each vertex of reach is
    scanned at most once.
    """
    need = -(-size // slots)
    while rest and cbest < need:
        low = rest & -rest
        c = (masks[low.bit_length() - 1] & active).bit_count()
        if c > cbest:
            cbest = c
        rest ^= low
    return rest, cbest


def _branch_order(masks, u: int, nbrs, active: int, banned: int) -> tuple[int, ...]:
    """The non-banned vertices of N[u] (`nbrs` the neighbors of u) by
    decreasing coverage of `active`, ties to the lower id: the order in
    which the search tries them as dominators of u."""
    cands = [v for v in (u, *nbrs) if not banned >> v & 1]
    # the key is a total order, so the order of N[u] does not matter
    return tuple(sorted(cands, key=lambda v: (-(masks[v] & active).bit_count(), v)))


@dataclass(frozen=True)
class OracleResult:
    """opt_size/witness_set are None when a size budget was exceeded."""

    opt_size: int | None
    witness_set: tuple[int, ...] | None
    node_count: int
    exceeded: bool = False

    def as_document(self) -> dict:
        return {
            "opt_size": self.opt_size,
            "witness_set": None if self.witness_set is None else list(self.witness_set),
            "node_count": self.node_count,
            "exceeded": self.exceeded,
        }


def exact_min_dominating_set(
    g: Graph,
    targets: Iterable[int] | None = None,
    budget: int | None = None,
    max_nodes: int | None = None,
) -> OracleResult:
    """Exact minimum size of a set dominating `targets` plus one witness.

    With a budget b, only solutions of size <= b are searched for; if
    none exists the result reports exceeded=True instead of a value.
    With a node limit `max_nodes`, the search raises ResourceLimitError
    when it would visit more nodes than that; otherwise the result is
    the same as without the limit.
    Branches on the remaining target with the fewest allowed dominators,
    trying dominators in decreasing-coverage order and banning each
    tried dominator from the rest of its sibling subtrees.

    A node with undominated set A at depth d is pruned when d + lb >=
    best size, by two bounds in this order: the packing bound (targets
    with pairwise disjoint allowed dominator sets each need their own
    pick), then the ratio bound ceil(|A| / c), c the largest coverage of
    A by an allowed vertex. The ratio bound needs only to know whether
    some allowed vertex covers at least |A| / slots targets, with slots
    the picks left before the best size, so its scan stops at the first
    one that does. Either way the node is pruned exactly when the larger
    of the two bounds reaches the best size, so the visited nodes, and
    with them node_count, do not depend on the order or the early exit.

    Nodes wait on an explicit stack, not in recursive calls. A node's
    children are pushed in reverse candidate order, so they are popped,
    and their subtrees searched, in candidate order: the depth-first
    order of a recursive search. Each node is tested against the best
    size at the moment it is popped, when a recursive search would enter
    it, so node_count is that of the recursive search.

    A node is (A, banned, picked), three bit sets. Its depth is |picked|
    and a leaf's witness is picked: a pick v leaves N[v] & A empty below
    it, so no later branching target has v as a candidate and the picks
    on a path are distinct. The packing bound, branching target and
    reach of a node come from `_bound_and_target`, which reads only A
    and the bans inside N[A], as do the ratio scan and the branching
    order. A node's children keep only its bans inside its N[A], plus
    their own: each descendant's A is a subset, so everything it reads
    lies inside that N[A]. The key banned << n | A thus fixes the pass's
    result, and so |A|, every coverage |N[v] & A| and the non-banned
    part of N[u]. The memo keeps one record per key: the pass, |A|, the
    ratio scan's progress (the part of reach not yet scanned and the
    best coverage seen so far) and the branching order, built the first
    time a node with that key survives both bounds. A node whose key was
    seen before makes no pass; its ratio test needs no scan when the
    best coverage seen already covers |A| in the slots left, and
    otherwise resumes the scan where the last node with that key
    stopped, so each vertex of reach is scanned at most once per key.
    Nothing past the pass is computed before a node asks for it, so a
    key met once costs about what it would without the memo. The prune
    tests still run at every node against its own depth and the best
    size at that moment, each deciding exactly ceil(|A| / c) > slots,
    and the trimmed bans are ones no descendant reads; so the visited
    nodes, node_count and the witness are those of a search without the
    memo. The memo lives for one call and is cleared when it reaches
    `_MEMO_CAP` entries, which bounds its memory.
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValidationError(f"node limit must be >= 0, got {max_nodes}")
    tids = _vertex_ids(g, targets)
    if not tids:
        if budget is not None and budget < 0:
            return OracleResult(None, None, 0, exceeded=True)
        return OracleResult(0, (), 0)

    adj = g.adj
    masks = _closed_masks(g)
    seed = solve_classical(g, tids).dominating_set
    best_size = len(seed)
    best_set: tuple[int, ...] | None = seed
    # a seed over the budget is no answer: search below budget + 1 with none in hand
    if budget is not None and budget < best_size:
        best_size = budget + 1
        best_set = None
    nodes = 0
    # sys.maxsize stands in for no limit, so a node costs one int comparison
    limit = sys.maxsize if max_nodes is None else max_nodes
    n = g.n
    cap = _MEMO_CAP
    # key -> [lb, u, rest, hood, |active|, cbest, branching order or None]:
    # the pass, with reach narrowed to rest as the ratio scan advances
    memo: dict[int, list] = {}
    # a node is (active, banned, picked): its undominated targets, its
    # bans inside its parent's N[active] and the picks on its path
    stack = [(_mask(tids), 0, 0)]
    push = stack.append
    while stack:
        active, banned, picked = stack.pop()
        nodes += 1
        if nodes > limit:
            raise ResourceLimitError(f"exact search exceeded the node limit {max_nodes}")
        # a pick v leaves N[v] & active empty below it, so picks are distinct
        depth = picked.bit_count()
        if active == 0:
            if depth < best_size:
                best_size = depth
                best_set = tuple(v for v in range(n) if picked >> v & 1)
            continue
        key = banned << n | active
        rec = memo.get(key)
        if rec is None:
            if len(memo) >= cap:
                memo.clear()
            rec = memo[key] = [*_bound_and_target(masks, active, banned), active.bit_count(), 0, None]
        lb, u, rest, hood, size, cbest, order = rec
        if lb < 0 or depth + lb >= best_size:
            continue
        # lb >= 1 as active != 0, so at least one slot is left
        slots = best_size - depth - 1
        if cbest * slots < size:
            rest, cbest = rec[2], rec[5] = _ratio_scan(masks, active, size, rest, cbest, slots)
            if cbest * slots < size:
                continue
        if order is None:
            order = rec[6] = _branch_order(masks, u, adj[u], active, banned)
        # push the children last to first, so they pop in branching order;
        # each bans the candidates before it. Only the bans inside hood
        # matter below this node, and N[u] adds every candidate, which the
        # loop lifts one by one
        banned = banned & hood | masks[u]
        for v in reversed(order):
            banned ^= 1 << v
            push((active & ~masks[v], banned, picked | 1 << v))
    if best_set is None:
        return OracleResult(None, None, nodes, exceeded=True)
    return OracleResult(best_size, best_set, nodes)


def has_biclique(g: Graph, a: int, b: int) -> BicliqueWitness | None:
    """Search for a complete bipartite subgraph with side sizes a <= b
    (sides disjoint, all cross edges present; sides need not be
    independent). Returns the witness with the lexicographically first
    left side, its right side the first b common neighbours in id order,
    or None.

    Enumerates a-subsets in increasing id order over adjacency sets, so
    memory is O(n + m); a vertex is skipped as soon as the left side
    with it has fewer than b common neighbours. The enumeration grows
    as n^a, so a above `_MAX_LEFT` is refused with ResourceLimitError.
    """
    if a < 1 or b < a:
        raise ValidationError(f"need 1 <= a <= b, got a={a}, b={b}")
    if a > _MAX_LEFT:
        raise ResourceLimitError(f"left side {a} exceeds the cap {_MAX_LEFT}")
    n = g.n
    nbrs = [set(row) for row in g.adj]

    def extend(start: int, left: list[int], common: set[int]):
        for v in range(start, n - (a - len(left)) + 1):
            # no vertex is its own neighbour, so no common neighbour of
            # left + [v] lies on the left side
            nxt = common & nbrs[v] if left else nbrs[v]
            if len(nxt) < b:
                continue
            if len(left) + 1 == a:
                return BicliqueWitness((*left, v), tuple(sorted(nxt)[:b]))
            found = extend(v + 1, left + [v], nxt)
            if found is not None:
                return found
        return None

    return extend(0, [], set())


def harmonic(n: int) -> float:
    """H_n = sum_{i=1..n} 1/i, H_0 = 0. Accurate to ~1e-12 via fsum."""
    if n < 0:
        raise ValidationError(f"harmonic needs n >= 0, got {n}")
    return math.fsum(1.0 / i for i in range(1, n + 1))
