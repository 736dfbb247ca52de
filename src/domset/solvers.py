"""Greedy dominating-set solvers with full per-round traces.

All four variants share one round engine. A round always starts by
picking a vertex v_1 of maximum coverage |N[v] & A| over the whole
vertex set (coverage is at least 1 while targets remain, because every
target dominates itself). It may then chain further picks: after
v_1..v_s with nested pools B_1 >= B_2 >= ... (B_1 = N[v_1] & A minus
v_1, B_{s+1} = N[v_{s+1}] & B_s minus v_{s+1}), the next pick v_{s+1}
is the unchosen vertex of maximum coverage of B_s. The variants differ
only in when the chain stops:

* fixed_i(i)    -- chains while fewer than i-1 vertices are chosen and
                   some unchosen vertex still meets B_s.
* classical     -- fixed_i with i = 2: never chains (one vertex per
                   round).
* auto          -- chains while the best pick would leave |B_{s+1}| >=
                   s+1; the deepest chain length certifies a complete
                   bipartite subgraph found along the way, reported as
                   a witness.
* hybrid        -- runs fixed_i or auto once, then extends every round
                   prefix of that run with the classical rule and keeps
                   the smallest result.

Every tie breaks to the lowest vertex id, so identical inputs produce
identical results.

The engine works on the adjacency lists (lazy greedy, Minoux 1978). It
keeps a live flag per target and a gain per vertex, gain[v] = |N[v] & A|;
dominating a target u lowers gain[w] for every w in N[u]. A heap holds
at most one entry per vertex, the int key v - gain[v] * n (n the vertex
count). Min-heap order on it is gain descending, then id ascending (the
order of (-gain, id)), and v = key % n. The v_1 pick re-keys the top
until its key is current, and as gains only fall that top is the
lowest-id maximum. A chain pick counts |N[w] & B_s| only over w in
N[B_s], the only vertices that meet the pool. Rounds are recorded as
plain (chosen, b_sizes, newly_dominated) tuples; `Round` objects are
built only for the rounds a result returns. A run costs O((n + m) log n)
for the v_1 picks and gain updates. A chain step costs the degree sum of
its pool, and each vertex enters one round's pool only, so chains of at
most c picks add O(c (n + m)).
Hybrid carries the live/gain state of the residual along the base
rounds, so each extension starts from a copy of it. It extends only the
prefixes that can change the answer. A prefix whose next base round has
a single pick is skipped: that round is the classical round on the same
residual, so the prefix and the one after it give the same rounds and
the same size. An extension stops as soon as it provably cannot end
strictly below the best size so far, which a later prefix needs to win.
Both skips leave the result unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import Iterable

from .errors import ValidationError
from .graph import Graph, _vertex_ids


@dataclass(frozen=True)
class Round:
    """One round of the engine: vertices chosen in order, the sizes of
    the chain pools B_1..B_l, and how many targets the round removed."""

    chosen: tuple[int, ...]
    b_sizes: tuple[int, ...]
    newly_dominated: int


@dataclass(frozen=True)
class GreedyTrace:
    initial_targets: tuple[int, ...]
    rounds: tuple[Round, ...]
    final_set: tuple[int, ...]


@dataclass(frozen=True)
class BicliqueWitness:
    """Two disjoint vertex sets with every cross pair adjacent."""

    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class SolveResult:
    algorithm: str
    dominating_set: tuple[int, ...]
    trace: GreedyTrace
    t_detected: int | None = None
    witness: BicliqueWitness | None = None

    def as_document(self) -> dict:
        """JSON-shaped view used by the CLI and result files."""
        return {
            "algorithm": self.algorithm,
            "dominating_set": list(self.dominating_set),
            "size": len(self.dominating_set),
            "t_detected": self.t_detected,
            "witness": (
                None
                if self.witness is None
                else {"left": list(self.witness.left), "right": list(self.witness.right)}
            ),
            "rounds": [
                {
                    "chosen": list(r.chosen),
                    "b_sizes": list(r.b_sizes),
                    "newly_dominated": r.newly_dominated,
                }
                for r in self.trace.rounds
            ],
        }


def _residual(adj, tids: tuple[int, ...]) -> tuple[bytearray, list[int]]:
    """Engine state for the targets `tids`: live[u] is 1 while target u
    is undominated, and gain[v] = |N[v] & A| over the live set A."""
    live = bytearray(len(adj))
    gain = [0] * len(adj)
    for u in tids:
        live[u] = 1
        gain[u] += 1
        for w in adj[u]:
            gain[w] += 1
    return live, gain


def _dominate(adj, live: bytearray, gain: list[int], v: int) -> int:
    """Mark the live targets of N[v] dominated, lowering the gain of
    every vertex next to each; returns how many were live."""
    k = 0
    for u in (v, *adj[v]):
        if live[u]:
            live[u] = 0
            k += 1
            gain[u] -= 1
            for w in adj[u]:
                gain[w] -= 1
    return k


def _chain_pick(adj, pool: list[int], chosen: list[int]) -> int:
    """Unchosen vertex maximizing |N[w] & pool|, lowest id on ties; -1
    when none meets the pool. Only w in N[pool] can meet it."""
    cnt = Counter(pool)
    for b in pool:
        cnt.update(adj[b])
    for v in chosen:
        cnt.pop(v, None)
    if not cnt:
        return -1
    top = max(cnt.values())
    return min(w for w, c in cnt.items() if c == top)


# A round as the engine records it: (chosen, b_sizes, newly_dominated),
# the fields of `Round` in order.
RoundRecord = tuple[tuple[int, ...], tuple[int, ...], int]


def _greedy_rounds(
    adj, live: bytearray, gain: list[int], i: int | None, cutoff: int | None = None
) -> tuple[list[RoundRecord], list[list[int]]] | None:
    """Run rounds until no live target remains, consuming `live` and
    `gain`. An integer i >= 2 allows at most i-1 picks per round (i = 2
    is classical); i None chains while |B_{s+1}| >= s+1 (auto). Returns
    the rounds and, in parallel, each round's final chain pool, sorted.

    With a round limit `cutoff`, returns None as soon as the run cannot
    finish in fewer than `cutoff` rounds: a round removes at most the
    current maximum gain, and gains only fall, so at least
    ceil(left / max gain) rounds remain."""
    if i is not None and i < 2:
        raise ValidationError(f"parameter i must be >= 2, got {i}")
    n = len(adj)
    heap = [v - c * n for v, c in enumerate(gain) if c]
    heapify(heap)
    left = live.count(1)
    rounds: list[RoundRecord] = []
    pools: list[list[int]] = []
    while left:
        # Gains only fall, so a stored key is never below the current
        # one; the first top whose key is current is the lowest-id maximum.
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
        if cutoff is not None and len(rounds) - (-left // c) >= cutoff:
            return None
        heappop(heap)  # every vertex picked this round ends with gain 0
        chosen = [v1]
        pool = [w for w in adj[v1] if live[w]]
        b_sizes = [len(pool)]
        while i is None or len(chosen) < i - 1:
            v = _chain_pick(adj, pool, chosen)
            if v < 0:
                break
            nbrs = set(adj[v])
            b_next = [b for b in pool if b in nbrs]
            if i is None and len(b_next) < len(chosen) + 1:
                break
            chosen.append(v)
            pool = b_next
            b_sizes.append(len(pool))
        covered = 0
        for v in chosen:
            covered += _dominate(adj, live, gain, v)
        left -= covered
        rounds.append((tuple(chosen), tuple(b_sizes), covered))
        pools.append(pool)
    return rounds, pools


def _run(
    g: Graph, targets: Iterable[int] | None, i: int | None
) -> tuple[tuple[int, ...], list[RoundRecord], list[list[int]]]:
    """The sorted target ids (None: every vertex), and the engine's
    rounds and pools for them."""
    tids = _vertex_ids(g, targets)
    return (tids, *_greedy_rounds(g.adj, *_residual(g.adj, tids), i))


def _assemble(
    algorithm: str, tids: tuple[int, ...], rounds: list[RoundRecord], **extra
) -> SolveResult:
    dom = tuple(sorted(v for chosen, _, _ in rounds for v in chosen))
    trace = GreedyTrace(
        initial_targets=tids, rounds=tuple(Round(*r) for r in rounds), final_set=dom
    )
    return SolveResult(algorithm, dom, trace, **extra)


def solve_classical(g: Graph, targets: Iterable[int] | None = None) -> SolveResult:
    """Plain greedy: per round, one vertex of maximum coverage."""
    tids, rounds, _ = _run(g, targets, 2)
    return _assemble("classical", tids, rounds)


def solve_fixed_i(g: Graph, i: int, targets: Iterable[int] | None = None) -> SolveResult:
    """Chained greedy with at most i-1 picks per round (i >= 2)."""
    if i is None:  # the engine would run auto
        raise ValidationError("parameter i must be >= 2, got None")
    tids, rounds, _ = _run(g, targets, i)
    return _assemble("fixed", tids, rounds)


def _round_depth(r: RoundRecord) -> int:
    """Chain depth certified by a round: its pick count, except a
    single-pick round with an empty pool certifies nothing."""
    chosen, b_sizes, _ = r
    l = len(chosen)
    if l == 1 and b_sizes[0] == 0:
        return 0
    return l


def solve_auto(g: Graph, targets: Iterable[int] | None = None) -> SolveResult:
    """Parameterless variant: chains while the pool stays large enough,
    and reports the deepest chain as a biclique witness.

    t_detected is 1 + the deepest certified chain depth; each chain of
    depth l pairs its picks with l members of the final pool to form a
    complete bipartite subgraph K_{l,l}. On graphs where no round ever
    certifies depth >= 1 (no edge touches a target), t_detected is 1
    and no witness exists.
    """
    tids, rounds, pools = _run(g, targets, None)
    best_depth = 0
    best = -1
    for k, r in enumerate(rounds):
        d = _round_depth(r)
        if d > best_depth:  # earliest round wins ties
            best_depth = d
            best = k
    witness = None
    if best >= 0:
        witness = BicliqueWitness(
            left=tuple(sorted(rounds[best][0])),
            right=tuple(pools[best][:best_depth]),
        )
    return _assemble("auto", tids, rounds, t_detected=best_depth + 1, witness=witness)


def solve_hybrid(g: Graph, i: int | None = None, targets: Iterable[int] | None = None) -> SolveResult:
    """Run fixed_i (when i given) or auto once, classically extend every
    round prefix of that run, and return the smallest extension.

    The empty prefix is always a candidate and its extension is exactly
    the classical run, so the result is never larger than classical
    greedy. Ties go to the earliest prefix.

    Two kinds of prefix are not extended, and neither changes the result:

    * a prefix p whose base round p has a single pick. That round picks
      the lowest-id vertex of maximum gain on the residual after the
      prefix, exactly as classical greedy would, so extension(p) is
      [base[p]] + extension(p+1): prefix p + 1 gives the same rounds at
      the same size, and wins wherever p would have.
    * the rest of an extension once it cannot end strictly below the
      best size so far (`cutoff` of `_greedy_rounds`); at best it would
      tie, and a tie keeps the earlier prefix.
    """
    tids, base, _ = _run(g, targets, i)
    adj = g.adj

    best_rounds: list[RoundRecord] | None = None
    best_size: int | None = None
    prefix_size = 0
    # the residual after each base prefix, carried forward round by round;
    # each extension runs on a copy
    live, gain = _residual(adj, tids)
    for p in range(len(base) + 1):
        if p:
            chosen = base[p - 1][0]
            for v in chosen:
                _dominate(adj, live, gain, v)
            prefix_size += len(chosen)
        if p < len(base) and len(base[p][0]) == 1:
            continue
        cutoff = None if best_size is None else best_size - prefix_size
        run = _greedy_rounds(adj, live[:], gain[:], 2, cutoff)
        if run is None:
            continue
        extension = run[0]
        size = prefix_size + len(extension)  # one pick per classical round
        if best_size is None or size < best_size:
            best_size = size
            best_rounds = base[:p] + extension
    assert best_rounds is not None
    return _assemble("hybrid", tids, best_rounds)


def verify_witness(g: Graph, w: BicliqueWitness) -> bool:
    """True iff neither side repeats an id, the sides are disjoint and
    every cross pair is an edge."""
    left = _vertex_ids(g, w.left)
    right = set(_vertex_ids(g, w.right))
    if len(left) != len(w.left) or len(right) != len(w.right):
        return False  # a repeated id would count one vertex twice
    # no vertex is its own neighbor, so this also makes the sides disjoint
    return all(right.issubset(g.adj[v]) for v in left)
