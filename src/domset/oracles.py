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
N[A], so each search keeps a memo keyed by (banned & N[A]) << n | A,
N[A] looked up in a table A -> N[A] that the passes fill in: a tree
search meets each independent part again under every choice made
elsewhere. A memo record holds what the key fixes: the pass, |A|, how
far the ratio scan has got and the branching order, each computed the
first time a node needs it. What the search does below a node depends
only on its key and its slack (the best size less its depth), so the
record also keeps the last finished subtree of a node with that key:
its slack, the nodes it visited and the picks below its root of the
leaf that set the best size. A later node with the same key and slack
takes these instead of searching the subtree again. The prune tests
still run at every node searched, and a taken subtree adds the nodes a
search of it would visit, so node_count is that of a search without
the memo.

Vertex sets in the exact search are Python ints used as bit sets: each
call builds one closed-neighborhood mask per vertex from the adjacency
lists, after checking that n masks of n bits fit `_MAX_MASK_BYTES`. The
per-node pass and the ratio scan visit the members of a set a byte at a
time: the low byte indexes `_BYTE_BITS`, a table of the set bit offsets
of each byte value, and the set then shifts right 8 bits. A member thus
costs one table item, against three big-int operations (`a & -a`,
`bit_length()`, `^=`) when members are peeled off one at a time, and the
big-int work is one mask and one shift per byte. Nothing else in the
package uses bit sets; the biclique search works on adjacency sets, so
its memory is O(n + m).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceLimitError, ValidationError
from .graph import Graph, _vertex_ids
from .solvers import BicliqueWitness, solve_classical

# The exact search clears its memo of bound passes and finished subtrees,
# and its A -> N[A] table, when the memo holds this many records.
_MEMO_CAP = 1 << 16
# has_biclique refuses a left side larger than this; its work grows as n^a.
_MAX_LEFT = 4
# The exact search refuses a graph whose closed-neighborhood masks could
# take more bytes than this: n masks of up to n bits, 4 bytes per 30 bits
# of a Python int. At n = 32 768, a search stopped at its first node
# peaked under tracemalloc at 141.6 MiB on the star K_{1,32767} (every
# mask n bits) and at 77.6 MiB with no edges. n <= 31 714 passes.
_MAX_MASK_BYTES = 1 << 27


def _mask(ids: Iterable[int]) -> int:
    """Bit set of the vertex ids `ids`."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def _closed_masks(g: Graph) -> list[int]:
    """N[v] (v and its neighbors) as a bit set, for every vertex v."""
    return [_mask((v, *row)) for v, row in enumerate(g.adj)]


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """The set bit offsets of each byte value, in increasing order: each
    entry is its lowest bit followed by the entry of b & (b - 1)."""
    table: list[tuple[int, ...]] = [()]
    for b in range(1, 256):
        table.append(((b & -b).bit_length() - 1, *table[b & (b - 1)]))
    return tuple(table)


_BYTE_BITS = _byte_bits()


def _hood(masks, a: int) -> int:
    """N[a]: the union of masks[u] over the bits u of `a`."""
    hood = 0
    base = 0
    while a:
        for k in _BYTE_BITS[a & 255]:
            hood |= masks[base + k]
        a >>= 8
        base += 8
    return hood


def _bound_and_target(masks, active: int, banned: int = 0) -> tuple[int, int, int, int]:
    """One pass over the bits of `active` in increasing order, each
    dominated by the non-banned vertices of its closed neighborhood.
    Returns:

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

    Returns (-1, -1, 0, hood) as soon as some active bit has no allowed
    dominator, after OR-ing the rest of the hood.

    The pass walks `active` a byte at a time through `_BYTE_BITS`; the
    infeasible exit walks the bits above the failing one through `_hood`.
    """
    # a positive mask, as & with a negative int costs a sign conversion;
    # bans past the last vertex flip bits no mask has
    allowed = ((1 << len(masks)) - 1) ^ banned
    used = 0
    count = 0
    best_u = -1
    # above any |N[u]|, so the first bit always takes it
    best_c = len(masks) + 1
    hood = 0
    a = active
    base = 0
    while a:
        for k in _BYTE_BITS[a & 255]:
            u = base + k
            m = masks[u]
            hood |= m
            dom = m & allowed
            if dom == 0:
                return -1, -1, 0, hood | _hood(masks, active >> u + 1 << u + 1)
            if dom & used == 0:
                count += 1
                used |= dom
            c = dom.bit_count()
            if c < best_c:
                best_c = c
                best_u = u
        a >>= 8
        base += 8
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

    The scan walks `rest` a byte at a time, as `_bound_and_target` walks
    `active`; stopping at vertex u, it returns the bits of `rest` above u.
    """
    need = -(-size // slots)
    if cbest >= need:
        return rest, cbest
    r = rest
    base = 0
    while r:
        for k in _BYTE_BITS[r & 255]:
            c = (masks[base + k] & active).bit_count()
            if c > cbest:
                cbest = c
                if c >= need:
                    u = base + k + 1
                    return rest >> u << u, cbest
        r >>= 8
        base += 8
    return 0, cbest


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
    the same as without the limit. A graph whose bit sets could take
    more than `_MAX_MASK_BYTES` is refused with ResourceLimitError
    before any is built.
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
    lies inside that N[A]. The key (banned & N[A]) << n | A, N[A] the
    node's own, thus fixes the pass's result, and so |A|, every coverage
    |N[v] & A| and the non-banned part of N[u]; N[A] comes from a table
    A -> N[A] filled in by the passes. The memo keeps one record per
    key: the pass, |A|, the ratio scan's progress (the part of reach not
    yet scanned and the best coverage seen so far) and the branching
    order, built the first time a node with that key survives both
    bounds. A node whose key was seen before makes no pass; its ratio
    test needs no scan when the best coverage seen already covers |A|
    in the slots left, and otherwise resumes the scan where the last
    node with that key stopped, so each vertex of reach is scanned at
    most once per key. Nothing past the pass is computed before a node
    asks for it, so a key met once costs about what it would without
    the memo.

    The subtree below a node is fixed by its key and its slack, best
    size less depth: every prune test and leaf compares a depth below
    the node with the best size, and its children follow from the key.
    Its outcome is two numbers: the nodes it visits, and the picks
    below its root of the leaf that set the best size on leaving it (0
    if none did; the best size is then unchanged). When a node
    survives both bounds, a marker pushed under its children pops after
    its subtree and writes these into the node's record, over the last
    ones. A node whose record holds its slack takes them instead of
    searching: it adds the count less itself to the nodes, checks the
    node limit, and adopts the leaf's picks and size if there is one.
    The search would have visited exactly those nodes, one at a time,
    so node_count, the witness and whether the node limit is exceeded
    are those of the search without the memo; only the limit's check
    comes after a whole taken subtree instead of inside it. node_count
    counts the nodes of that search, not the ones popped here: it is in
    the frozen result documents, and the node limit bounds it, so both
    mean the same with or without the memo.

    The prune tests run at every node searched, against its own depth
    and the best size at that moment, each deciding exactly
    ceil(|A| / c) > slots, and the trimmed bans are ones no descendant
    reads. The memo and the A -> N[A] table live for one call and are
    cleared together when the memo reaches `_MEMO_CAP` records, which
    bounds their memory; a subtree open at that moment writes into its
    dropped record.
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValidationError(f"node limit must be >= 0, got {max_nodes}")
    tids = _vertex_ids(g, targets)
    if not tids:
        if budget is not None and budget < 0:
            return OracleResult(None, None, 0, exceeded=True)
        return OracleResult(0, (), 0)

    n = g.n
    need = 4 * n * -(-n // 30)
    if need > _MAX_MASK_BYTES:
        raise ResourceLimitError(
            f"exact search at n={n} needs up to {need} bytes of bit sets,"
            f" over the limit {_MAX_MASK_BYTES}"
        )
    adj = g.adj
    masks = _closed_masks(g)
    seed = solve_classical(g, tids).dominating_set
    best_size = len(seed)
    best_set: tuple[int, ...] | None = seed
    # a seed over the budget is no answer: search below budget + 1 with none in hand
    if budget is not None and budget < best_size:
        best_size = budget + 1
        best_set = None
    # the picks of the leaf that set best_size, 0 until one does
    best = 0
    nodes = 0
    # sys.maxsize stands in for no limit, so a node costs one int comparison
    limit = sys.maxsize if max_nodes is None else max_nodes
    cap = _MEMO_CAP
    # A -> N[A], filled in by the passes
    hoods: dict[int, int] = {}
    # key -> [lb, u, rest, hood, |active|, cbest, branching order or None,
    # slack, count, below]: the pass, with reach narrowed to rest as the
    # ratio scan advances, then the last finished subtree of a node with
    # this key: its slack (0 before any; a node that survives the packing
    # bound has slack >= 2), the nodes it visited, its root included, and
    # the picks below its root of the leaf that set the best size, or 0
    memo: dict[int, list] = {}
    # a node is (active, banned, picked): its undominated targets, its
    # bans inside its parent's N[active] and the picks on its path
    stack = [(_mask(tids), 0, 0)]
    push = stack.append
    # popped after a node's children: its subtree is finished
    done = (-1, 0, 0)
    # per open subtree, innermost last: (record, slack, nodes before it, picked)
    opened = []
    while stack:
        active, banned, picked = stack.pop()
        if active < 0:
            rec, slack, before, picked = opened.pop()
            below = best ^ picked if best_size < picked.bit_count() + slack else 0
            rec[7:] = slack, nodes - before, below
            continue
        nodes += 1
        if nodes > limit:
            raise ResourceLimitError(f"exact search exceeded the node limit {max_nodes}")
        # a pick v leaves N[v] & active empty below it, so picks are distinct
        depth = picked.bit_count()
        if active == 0:
            if depth < best_size:
                best_size = depth
                best = picked
            continue
        hood = hoods.get(active)
        rec = None if hood is None else memo.get((banned & hood) << n | active)
        if rec is None:
            if len(memo) >= cap:
                memo.clear()
                hoods.clear()
            lb, u, reach, hood = _bound_and_target(masks, active, banned)
            hoods[active] = hood
            rec = [lb, u, reach, hood, active.bit_count(), 0, None, 0, 0, 0]
            memo[(banned & hood) << n | active] = rec
        lb, u, rest, hood, size, cbest, order, last, count, below = rec
        slack = best_size - depth
        if lb < 0 or lb >= slack:
            continue
        if last == slack:
            # a node with this key and slack searched this subtree before
            nodes += count - 1
            if nodes > limit:
                raise ResourceLimitError(f"exact search exceeded the node limit {max_nodes}")
            if below:
                best_size = depth + below.bit_count()
                best = picked | below
            continue
        # lb >= 1 as active != 0, so at least one slot is left
        slots = slack - 1
        if cbest * slots < size:
            rest, cbest = rec[2], rec[5] = _ratio_scan(masks, active, size, rest, cbest, slots)
            if cbest * slots < size:
                continue
        if order is None:
            order = rec[6] = _branch_order(masks, u, adj[u], active, banned)
        push(done)
        opened.append((rec, slack, nodes - 1, picked))
        # push the children last to first, so they pop in branching order;
        # each bans the candidates before it. Only the bans inside hood
        # matter below this node, and N[u] adds every candidate, which the
        # loop lifts one by one
        banned = banned & hood | masks[u]
        for v in reversed(order):
            banned ^= 1 << v
            push((active & ~masks[v], banned, picked | 1 << v))
    if best:
        best_set = tuple(v for v in range(n) if best >> v & 1)
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
