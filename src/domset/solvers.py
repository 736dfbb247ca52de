"""Greedy dominating-set solvers with full per-round traces.

All four variants share one round engine. A round always starts by
picking a vertex v_1 of maximum coverage |N[v] & A| over the whole
vertex set (coverage is at least 1 while targets remain, because every
target dominates itself). It may then chain further picks: after
v_1..v_s with nested pools B_1 >= B_2 >= ... (B_1 = N[v_1] & A minus
v_1, B_{s+1} = N[v_{s+1}] & B_s minus v_{s+1}), the next pick v_{s+1}
is the unchosen vertex of maximum coverage of B_s. No pool member is
ever chosen (B_s leaves out v_s), and each member covers itself, so a
non-empty pool always has a candidate. The variants differ only in when
the chain stops:

* fixed_i(i)    -- chains while fewer than i-1 vertices are chosen and
                   the pool B_s is non-empty.
* classical     -- fixed_i with i = 2: never chains (one vertex per
                   round).
* auto          -- chains while the best pick would leave |B_{s+1}| >=
                   s+1, and stops before a pick once |B_s| <= s (B_{s+1}
                   lies in B_s); the deepest chain length certifies a
                   complete bipartite subgraph found along the way,
                   reported as a witness.
* hybrid        -- runs fixed_i or auto once, then extends every round
                   prefix of that run with the classical rule and keeps
                   the smallest result.

Every tie breaks to the lowest vertex id, so identical inputs produce
identical results.

The engine works on the adjacency lists. It keeps a live flag per
target and a gain per vertex, gain[v] = |N[v] & A|; dominating a target
u lowers gain[w] for every w in N[u]. Only `_residual`, which builds
this state, and the engine write gains. The v_1 pick (`_v1_picks`) takes
the lowest-id vertex of maximum gain. Picks go in the order of the int
key v - gain[v] * n (n the vertex count): smaller keys win, which is
gain descending, then id ascending (the order of (-gain, id)), and
v = key % n. The vertices whose starting gain is above twice the mean
wait in a lazy min-heap of these keys (Minoux 1978); once it is empty,
each level is a scan of the gain list itself, which rests on one lemma:
gains only fall, so once x, the lowest-id vertex of maximum gain G, is
picked, every lower id stays below G and x drops to 0, and the next
pick is the first vertex after x whose gain is G. With every vertex a
target, gain[v] starts at deg(v) + 1 and needs no pass over the edges.
A chain pick gathers N[B_s], the only vertices that meet the pool,
with repeats, and sorts it once: each w is then one run of length
|N[w] & B_s|, and the longest run of an unchosen id, the lowest id on
ties, is the pick, whose run also gives |B_{s+1}| before that pool is
built. The engine returns its rounds as the `Round`s a result carries,
and beside them, under auto, the deepest certified round: a round of l
picks whose final chain pool is non-empty certifies a K_{l,l}, and as
it runs the engine keeps the sorted picks and the l smallest pool ids
of the earliest such round of greatest l, which auto reports as its
witness. No pool outlives its round; a classical round has none, its
|B_1| being gain[v_1] less v_1's own liveness.
A run's v_1 scans read O(n + m) entries, its heap costs O(S log h)
for h vertices of starting gains summing to S, and its gain updates
cost O(n + m). A chain step sorts the d ids it gathers, |B_s| plus
the pool's degree sum, in O(d log d); d <= D (D + 1) for the maximum
degree D, and each vertex enters one round's pool only, so chains of
at most c picks add O(c (n + m) log D).
Hybrid extends only the prefixes that can change the answer: it skips a
prefix whose next base round has a single pick, returns a base run with
no chained round as it is, and skips a prefix that a 2-packing of the
targets shows cannot win. Its walk over the base rounds carries only
the live set. The engine runs twice at most: the base run, and the
classical run, which is the empty prefix's extension. Each later
evaluated extension is derived from the previous by a replay
(`_replay`) that yields exactly the classical run, and a replayed
winner's rounds are read back from its replay state (`_rounds_of`).
The replay orders picks by the engine's own key, v - gain * n. It
visits only the old picks near a change and the vertices next to
targets a dropped pick left undominated; it counts those targets per
vertex, and passes over a vertex left with none without reading its
adjacency.
`solve_hybrid` gives each rule and why the result is unchanged.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Iterable, NamedTuple

from .errors import ValidationError
from .graph import Graph, _vertex_ids


class Round(NamedTuple):
    """One round of the engine: vertices chosen in order, the sizes of
    the chain pools B_1..B_l, and how many targets the round removed.

    A NamedTuple: immutable and hashable, and it also compares equal to
    the plain tuple of its fields."""

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
        """JSON-shaped view for library callers and tests; `solve` writes
        `to_json()`, the same document as indented text."""
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

    def to_json(self) -> str:
        """The text of `json.dumps(self.as_document(), indent=2)`, byte
        for byte, formatted directly from the fixed document shape: with
        an indent, `json` falls back to its pure-Python encoder. Each
        round is unpacked as the tuple (chosen, b_sizes, newly_dominated)
        that a `Round` is; a round of several picks is one `%` on the
        template of its shape."""
        w = self.witness
        rounds = [
            _ROUND % (c[0], b[0], k)
            if len(c) == 1 == len(b)
            else _round_format(len(c), len(b)) % (*c, *b, k)
            if c and b
            else _ROUND_ANY % (_json_ints(c, 8), _json_ints(b, 8), k)
            for c, b, k in self.trace.rounds
        ]
        return _RESULT % (
            json.dumps(self.algorithm),
            _json_ints(self.dominating_set, 4),
            len(self.dominating_set),
            "null" if self.t_detected is None else self.t_detected,
            "null" if w is None else _WITNESS % (_json_ints(w.left, 6), _json_ints(w.right, 6)),
            "[\n    " + ",\n    ".join(rounds) + "\n  ]" if rounds else "[]",
        )


# Templates of the result document as json.dumps(indent=2) lays it out.
_RESULT = (
    '{\n  "algorithm": %s,\n  "dominating_set": %s,\n  "size": %d,\n'
    '  "t_detected": %s,\n  "witness": %s,\n  "rounds": %s\n}'
)
_WITNESS = '{\n    "left": %s,\n    "right": %s\n  }'
_ROUND_ANY = '{\n      "chosen": %s,\n      "b_sizes": %s,\n      "newly_dominated": %d\n    }'
# a round whose two lists are non-empty, as every engine round's are;
# their items are joined with _JOIN8
_ROUND = (
    '{\n      "chosen": [\n        %s\n      ],\n'
    '      "b_sizes": [\n        %s\n      ],\n      "newly_dominated": %s\n    }'
)
_JOIN8 = ",\n        "


@functools.cache
def _round_format(picks: int, sizes: int) -> str:
    """_ROUND for `picks` chosen vertices and `sizes` pool sizes, with
    one %d for each int of the round, the last for newly_dominated. An
    engine round has one pool size per pick, so a run meets few shapes."""
    return _ROUND % (_JOIN8.join(["%d"] * picks), _JOIN8.join(["%d"] * sizes), "%d")


def _json_ints(ints, indent: int) -> str:
    """A list of ints as json.dumps(indent=2) lays it out with its items
    `indent` spaces deep."""
    if not ints:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(map(str, ints)) + pad[:-2] + "]"


def _residual(adj, tids: tuple[int, ...]) -> tuple[bytearray, list[int]]:
    """Engine state for the targets `tids`: live[u] is 1 while target u
    is undominated, and gain[v] = |N[v] & A| over the live set A. With
    every vertex a target, gain[v] is |N[v]| = deg(v) + 1."""
    n = len(adj)
    if len(tids) == n:  # the ids are distinct, so every vertex
        return bytearray(b"\x01") * n, [len(a) + 1 for a in adj]
    live = bytearray(n)
    gain = [0] * n
    for u in tids:
        live[u] = 1
        gain[u] += 1
        for w in adj[u]:
            gain[w] += 1
    return live, gain


def _packing(adj, tids: tuple[int, ...]) -> tuple[list[int], int]:
    """A greedy 2-packing P of the targets `tids` (members' closed
    neighborhoods pairwise disjoint), as its `owner` table and its size:
    owner[v] is the member of P in N[v], or -1; it is unique because P
    is a 2-packing, and P is the set of u with owner[u] == u. Targets
    join in (degree, id) order, so leaves go first, as in a tree's
    largest 2-packing. A target joins when neither it nor any neighbour
    has an owner yet; the scan stops at the first owned vertex."""
    owner = [-1] * len(adj)
    size = 0
    degree = list(map(len, adj))
    for u in sorted(tids, key=degree.__getitem__):  # stable: ids stay sorted
        if owner[u] < 0:
            for w in adj[u]:
                if owner[w] >= 0:
                    break
            else:  # N[u] meets no member's
                owner[u] = u
                for w in adj[u]:
                    owner[w] = u
                size += 1
    return owner, size


def _chain_pick(adj, pool: list[int], chosen: tuple[int, ...]) -> tuple[int, int]:
    """The unchosen vertex w maximizing |N[w] & pool|, lowest id on
    ties, for a non-empty pool, and k = |N(w) & pool|, the size of the
    pool w would leave. Only w in N[pool] can meet the pool, and every
    member, being unchosen, meets it at least in itself. N[pool] is
    gathered with repeats and sorted once, so each w is one run of
    length |N[w] & pool|; the runs go in ascending order, and only a
    strictly longer run displaces the best."""
    touched = list(pool)  # N[pool], with repeats
    for b in pool:
        touched += adj[b]
    touched.sort()
    best = prev = touched[0]
    top = run = 0
    for w in touched:
        if w == prev:
            run += 1
        else:
            if run > top and prev not in chosen:
                best, top = prev, run
            prev, run = w, 1
    if run > top and prev not in chosen:
        best, top = prev, run
    return best, top - (best in pool)


def _check_i(i: int | None) -> None:
    """Reject a chain parameter below 2 (ValidationError); None, which
    runs auto, passes."""
    if i is not None and i < 2:
        raise ValidationError(f"parameter i must be >= 2, got {i}")


def _v1_picks(gain: list[int]):
    """Yield the v_1 of each round: the lowest-id vertex of maximum gain,
    read from `gain` as the engine leaves it when it resumes the
    generator, which it does only while a target is live.

    With T = 2 * sum(gain) // n, the vertices of starting gain above T
    go first, from a lazy min-heap of their keys v - gain[v] * n, one
    entry each. Gains only fall, so a stored key is never above its
    vertex's current key: a top whose key is current beats every vertex
    in the heap, and every other vertex has gain at most T. A stale top
    is re-keyed while its gain is above T and dropped once it is not.
    The stale tops number at most the gain decrements of the heap's
    vertices, so for h of them, of starting gains summing to S, the heap
    costs O(S log h).

    Once the heap is empty, every gain is at most T. Gains only fall, so
    once x, the lowest-id vertex of maximum gain G, is picked, every
    lower id stays below G and x drops to 0. The picks at one level
    therefore come in increasing id order, and each is the first vertex
    after the last whose gain is G; a level ends when none is left, and
    the next starts again from the lowest id at the new maximum
    `max(gain)`. These scans read at most T levels of about 3n entries
    each, so a run's scans read O(n + m) entries."""
    n = len(gain)
    top = 2 * sum(gain) // n
    heap = [v - c * n for v, c in enumerate(gain) if c > top]
    heapify(heap)
    while heap:
        k = heap[0]
        v = k % n
        c = gain[v]
        if v - c * n == k:
            yield v
        elif c > top:
            heapreplace(heap, v - c * n)
        else:
            heappop(heap)
    while True:
        g = max(gain)
        p = 0
        try:
            while True:
                p = gain.index(g, p)
                yield p
                p += 1
        except ValueError:  # the level is done
            pass


def _greedy_rounds(
    adj, live: bytearray, gain: list[int], i: int | None
) -> tuple[list[Round], tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Run rounds until no live target remains, consuming `live` and
    `gain`. Each round's v_1 comes from `_v1_picks`.
    An integer i >= 2 allows at most i-1 picks per round (i = 2 is
    classical); i None chains while |B_{s+1}| >= s+1 (auto), and makes
    no pick once |B_s| <= s, as B_{s+1} lies in B_s. A chain runs only
    while its pool is non-empty. A pick's |B_{s+1}| comes from
    `_chain_pick`, so auto drops a pick before it builds anything, and
    B_{s+1} itself is built only when the chain can go on: after every
    kept auto pick, and under fixed_i while fewer than i-1 are chosen.
    A classical round keeps no pool: |B_1| = gain[v1] - live[v1] needs
    none, and a fixed:3 round builds B_1 only.

    Returns the rounds and, under auto, `deep`, the deepest certified
    round (None for an integer i). A round of l picks whose final pool
    is non-empty has depth l, and `deep` is (sorted picks, the l
    smallest pool ids) of the earliest round of greatest depth, or None
    when no round has depth >= 1; such a pool holds at least l ids, as
    auto keeps a pick only then. `deep` is updated only when a round is
    deeper than every earlier one, so no pool is kept past its round."""
    _check_i(i)
    pick = _v1_picks(gain).__next__
    # Round(...) runs a Python-level __new__ that calls tuple.__new__;
    # calling it directly takes 177 ns a round against 284 ns (CPython 3.11)
    new = tuple.__new__
    left = live.count(1)
    rounds: list[Round] = []
    deep = None
    depth = 0
    while left:
        v1 = pick()
        c = gain[v1]
        chosen: tuple[int, ...] = (v1,)
        pool = [w for w in adj[v1] if live[w]] if i != 2 else None
        b_sizes: tuple[int, ...] = (c - live[v1],)  # |B_1|: v1's live neighbours
        while pool and (len(pool) > len(chosen) if i is None else len(chosen) < i - 1):
            v, k = _chain_pick(adj, pool, chosen)
            if i is None and k <= len(chosen):
                break
            chosen += (v,)
            b_sizes += (k,)
            if i is None or len(chosen) < i - 1:  # the chain goes on from B_{s+1}
                nbrs = set(adj[v])
                pool = [b for b in pool if b in nbrs]
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
        rounds.append(new(Round, (chosen, b_sizes, covered)))
        if i is None and pool and len(chosen) > depth:  # pool is sorted, as adj[v1] is
            depth = len(chosen)
            deep = tuple(sorted(chosen)), tuple(pool[:depth])
    return rounds, deep


def _run_keys(adj, live: bytearray, rounds: list[Round]) -> tuple[list[int], list[int]]:
    """The classical run `rounds` of the live targets as replay state: the
    pick key pk[v] of each pick, 0 for other vertices, and the key dk[u]
    of each live target's dominating pick, -(n + 1) * n for other
    vertices. A pick's key is the engine's pick key v - gain * n at its
    pick time: smaller keys win, v = key % n, every key is negative, and
    keys rise strictly along the run. `_rounds_of` reads the rounds
    back."""
    n = len(adj)
    pk = [0] * n
    dk = [-(n + 1) * n] * n  # below every key: never live
    alive = live[:]
    for (v,), _, covered in rounds:
        key = pk[v] = v - covered * n
        for u in (v, *adj[v]):
            if alive[u]:
                alive[u] = 0
                dk[u] = key
    return pk, dk


def _rounds_of(pk: list[int], dk: list[int]) -> list[Round]:
    """The `Round`s of the classical run held as replay state (pk, dk),
    the inverse of `_run_keys`, equal to the engine's. The picks go in
    ascending key order, and a pick v of key k covered c = (v - k) // n
    targets. Its |B_1|, its live neighbours, is c less v itself when v
    was live, that is when v's first dominator is v (dk[v] == k)."""
    n = len(pk)
    new = tuple.__new__  # as in `_greedy_rounds`
    rounds: list[Round] = []
    for k in sorted(filter(None, pk)):
        v = k % n
        c = (v - k) // n
        rounds.append(new(Round, ((v,), (c - (dk[v] == k),), c)))
    return rounds


def _replay(
    adj, pk: list[int], dk: list[int], lost: list[int], queued: list[int], miss: list[int]
) -> int:
    """Edit the classical run (pk, dk) of a residual X (see `_run_keys`),
    in place, into the classical run of X minus the targets `lost`, and
    return the change in its number of picks. `queued` and `miss` are
    all-zero arrays of n entries, and are all zeros again on return.

    Target u is live at key t (after every pick of a key below t) iff
    dk[u] >= t. A lost target gets dk = -(n + 1) * n, so it is never
    live. A target whose pick is dropped gets dk = 0 ("missed"), above
    every key, so it stays live until a pick dominates it; miss[w]
    counts the missed targets in N[w].

    The new run is merged from two min-heaps of keys, the lowest key
    going first, as in the engine's pick order:

    * D: old picks whose key may have changed. These are the dominators
      of lost targets, and of targets that a new pick took over.
    * H: vertices over a lower bound of their key, at most one entry
      each (queued[w] is 1 while w has one). Every vertex with a missed
      target has an entry; a vertex whose missed targets were all taken
      since may keep one.

    No other vertex is visited, and this is exact. An old pick not in D
    keeps its key. A vertex w with no missed target ranks after the old
    pick next in line: a target in N[w] that is live at a key t past the
    sweep was live at t in the old run too (a new pick only lowered its
    targets' dk, to its own key, below t), and as that run was
    classical, w's key there was above that pick's. So the old picks
    between two events keep their places, and an H entry of a vertex
    with no missed target is popped without reading its key. An entry
    stays a lower bound as the sweep goes up: the targets it counted
    were live at the key it was made at, and since then targets have
    only left the live set, save the missed ones, which were counted
    too (their dropped pick's key is at or above the entry's). So a
    vertex that has an entry gets no second one, and its key is not
    read.

    At each step the smaller top goes. A D pick whose key is unchanged
    stays; otherwise it is dropped, its live targets become missed, and
    their neighbours that have no entry in H get one. An H top whose
    key is current is picked, and the old picks of the targets it takes
    over enter D."""
    n = len(adj)
    dirty = {dk[u] for u in lost}
    for u in lost:
        dk[u] = -(n + 1) * n
    D = list(dirty)
    heapify(D)
    H: list[int] = []
    delta = 0

    def key_at(w: int, t: int) -> int:
        """The key of w after every pick of key below t."""
        c = dk[w] >= t
        for u in adj[w]:
            if dk[u] >= t:
                c += 1
        return w - c * n

    while D or H:
        if H and (not D or H[0] < D[0]):  # a tie is one vertex, which either branch picks
            t = H[0]
            v = t % n
            if not miss[v]:  # ranks after the old pick next in line
                heappop(H)
                queued[v] = 0
                continue
            k = key_at(v, t)  # a missed target keeps the gain above 0
            if k != t:
                heapreplace(H, k)
                continue
            heappop(H)
            queued[v] = 0
            if not pk[v]:
                delta += 1
            pk[v] = k  # a later old key of v is now stale
        else:
            k = heappop(D)
            v = k % n
            if pk[v] != k:  # v was picked earlier, from H
                continue
            if key_at(v, k) != k:
                pk[v] = 0
                delta -= 1
                for u in (v, *adj[v]):
                    if dk[u] == k:
                        dk[u] = 0
                        for w in (u, *adj[u]):
                            miss[w] += 1
                            if not queued[w]:
                                queued[w] = 1
                                heappush(H, key_at(w, k))
                continue
        # v is picked at key k: it dominates every target live at k
        for u in (v, *adj[v]):
            x = dk[u]
            if x >= k:
                if not x:
                    for w in (u, *adj[u]):
                        miss[w] -= 1
                elif x != k and x not in dirty:  # u's old pick loses it
                    dirty.add(x)
                    heappush(D, x)
                dk[u] = k
    return delta


def _run(g: Graph, targets: Iterable[int] | None, i: int | None) -> tuple:
    """The sorted target ids (None: every vertex), and the engine's
    rounds and deepest certified round for them."""
    tids = _vertex_ids(g, targets)
    return (tids, *_greedy_rounds(g.adj, *_residual(g.adj, tids), i))


def _assemble(algorithm: str, tids: tuple[int, ...], rounds: list[Round], **extra) -> SolveResult:
    dom = tuple(sorted(v for chosen, _, _ in rounds for v in chosen))
    return SolveResult(algorithm, dom, GreedyTrace(tids, tuple(rounds), dom), **extra)


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


def solve_auto(g: Graph, targets: Iterable[int] | None = None) -> SolveResult:
    """Parameterless variant: chains while the pool stays large enough,
    and reports the deepest chain as a biclique witness.

    A round of l picks whose final pool is non-empty certifies a
    K_{l,l}: every pool member is adjacent to every pick, and a chained
    round's pool holds at least l members, as auto adds a pick only when
    |B_{s+1}| >= s+1. Its depth is l, or 0 for an empty pool (a single
    pick with no live neighbor). t_detected is 1 + the greatest depth,
    and the witness pairs the sorted picks of the earliest round of that
    depth with the `depth` smallest ids of its pool, as the engine keeps
    them. On graphs where no round certifies depth >= 1 (no edge touches
    a target), t_detected is 1 and no witness exists.
    """
    tids, rounds, deep = _run(g, targets, None)
    if deep is None:
        return _assemble("auto", tids, rounds, t_detected=1)
    witness = BicliqueWitness(*deep)
    return _assemble("auto", tids, rounds, t_detected=len(witness.left) + 1, witness=witness)


def solve_hybrid(g: Graph, i: int | None = None, targets: Iterable[int] | None = None) -> SolveResult:
    """Run fixed_i (when i given) or auto once, classically extend every
    round prefix of that run, and return the smallest extension.

    The empty prefix is always a candidate and its extension is exactly
    the classical run, so the result is never larger than classical
    greedy. Ties go to the earliest prefix.

    The first incumbent is the empty prefix (the classical run) if it
    is no larger than the base run, and otherwise the full prefix, whose
    extension is empty, at the base run's size + 1, so a later prefix
    that ties the base run still wins. The search then walks the base
    rounds once, carrying the residual's live set along them: each base
    pick clears its closed neighbourhood, noting the targets it takes,
    and no gain is kept. At round p >= 1, prefix p is evaluated unless
    skipped below, and then round p is applied to the residual.

    Two kinds of prefix are skipped, and neither changes the result:

    * a prefix p whose base round p has a single pick. That round picks
      the lowest-id vertex of maximum gain on the residual after the
      prefix, exactly as classical greedy would, so extension(p) is
      [base[p]] + extension(p+1): prefix p + 1 gives the same rounds at
      the same size, and wins wherever p would have. So when no base
      round is chained, only the full prefix is left, and the base run
      is returned as it is (it is the classical run); this holds for
      auto on every tree, for i = 2 and for an empty target set.
    * a prefix whose size plus `packed` is at least the best size so
      far. `packed` counts the live members of a 2-packing P of the
      targets (`_packing`), built once, before the classical run, when
      some base round is chained: each member needs its own dominator,
      so any extension has at least `packed` picks, and the prefix
      could at best tie.

    Evaluating a prefix finds the size of its classical extension. The
    empty prefix's extension is the classical run itself: the engine
    runs it once, after the packing, and keeps it also as pick keys and
    dominator keys (`_run_keys`). Every later prefix that is evaluated
    is replayed: its residual is the previous one minus the targets the
    base rounds took since, and `_replay` edits the previous run, in
    place, into exactly the engine's run of this residual, pick for pick
    and key for key, so the size is exact.
    Skipped prefixes only make that difference larger; single-pick base
    rounds before the first replay are classical rounds, so it only
    drops their picks. The replay's two scratch arrays are made with the
    classical run and are all zeros between replays, so no replay
    allocates n entries.

    The classical run's rounds are kept only while it is the
    incumbent. A replayed winner keeps a copy of its keys, and its
    rounds are read back from them once, at the end (`_rounds_of`). So
    the engine runs at most twice per call.
    """
    tids = _vertex_ids(g, targets)
    adj = g.adj
    # the live set after each base prefix, carried forward round by round;
    # the base run consumes a copy of it and the gains
    live, gain = _residual(adj, tids)
    base, _ = _greedy_rounds(adj, live[:], gain, i)
    if all(len(chosen) == 1 for chosen, _, _ in base):
        return _assemble("hybrid", tids, base)
    owner, packed = _packing(adj, tids)  # every member is live at prefix 0
    best_ext, _ = _greedy_rounds(adj, *_residual(adj, tids), 2)  # the classical run
    best_p = 0
    pk, dk = _run_keys(adj, live, best_ext)
    scratch = [0] * len(adj), [0] * len(adj)  # _replay's queued and miss
    size = len(best_ext)
    full = sum(len(chosen) for chosen, _, _ in base)  # the full prefix's size
    if size > full:  # the full prefix, whose extension is empty, is smaller
        best_p, best_ext = len(base), []
    best_size = min(size, full + 1)  # earlier prefixes win ties
    prefix_size = 0
    lost: list[int] = []  # targets the base rounds took since the last evaluation
    for p, (chosen, _, _) in enumerate(base):
        limit = best_size - prefix_size  # an extension wins below this size
        if p and len(chosen) > 1 and packed < limit:
            size += _replay(adj, pk, dk, lost, *scratch)
            lost = []
            if size < limit:
                best_size = prefix_size + size
                best_p, best_ext = p, (pk[:], dk[:])  # its rounds are read at the end
        for v in chosen:
            for u in (v, *adj[v]):
                if live[u]:
                    live[u] = 0
                    lost.append(u)
                    if owner[u] == u:  # a member of the packing
                        packed -= 1
        prefix_size += len(chosen)
    if isinstance(best_ext, tuple):  # a replayed winner's keys
        best_ext = _rounds_of(*best_ext)
    return _assemble("hybrid", tids, base[:best_p] + best_ext)


def verify_witness(g: Graph, w: BicliqueWitness) -> bool:
    """True iff neither side repeats an id, the sides are disjoint and
    every cross pair is an edge."""
    left = _vertex_ids(g, w.left)
    right = set(_vertex_ids(g, w.right))
    if len(left) != len(w.left) or len(right) != len(w.right):
        return False  # a repeated id would count one vertex twice
    # no vertex is its own neighbor, so this also makes the sides disjoint
    return all(right.issubset(g.adj[v]) for v in left)
