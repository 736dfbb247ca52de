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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError
from .graph import Graph, _targets_mask, ids_of, mask_of


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


def _best_cover(masks, active: int, excluded: int = 0) -> tuple[int, int]:
    """Vertex maximizing |masks[v] & active| over v not in `excluded`.

    Returns (vertex, count); (-1, 0) when every vertex is excluded.
    Ties break to the lowest vertex id.
    """
    best_v = -1
    best_c = 0
    for v, m in enumerate(masks):
        if excluded >> v & 1:
            continue
        c = (m & active).bit_count()
        if best_v < 0 or c > best_c:
            best_c = c
            best_v = v
    return best_v, best_c


def _greedy_rounds(masks, active: int, i: int | None) -> tuple[list[Round], list[int]]:
    """Run rounds until no targets remain. An integer i >= 2 allows at
    most i-1 picks per round (i = 2 is classical); i None chains while
    |B_{s+1}| >= s+1 (auto). Returns the rounds and, in parallel, each
    round's final chain pool."""
    if i is not None and i < 2:
        raise ValidationError(f"parameter i must be >= 2, got {i}")
    rounds: list[Round] = []
    pools: list[int] = []
    while active:
        v1, _ = _best_cover(masks, active)
        chosen = [v1]
        chosen_mask = 1 << v1
        b = masks[v1] & active & ~(1 << v1)
        b_sizes = [b.bit_count()]
        covered = masks[v1] & active
        while i is None or len(chosen) < i - 1:
            v, c = _best_cover(masks, b, chosen_mask)
            if v < 0 or c == 0:
                break
            b_next = masks[v] & b & ~(1 << v)
            if i is None and b_next.bit_count() < len(chosen) + 1:
                break
            chosen.append(v)
            chosen_mask |= 1 << v
            covered |= masks[v] & active
            b = b_next
            b_sizes.append(b.bit_count())
        active &= ~covered
        rounds.append(Round(tuple(chosen), tuple(b_sizes), covered.bit_count()))
        pools.append(b)
    return rounds, pools


def _assemble(algorithm: str, tmask: int, rounds: list[Round], **extra) -> SolveResult:
    dom = tuple(sorted(v for r in rounds for v in r.chosen))
    trace = GreedyTrace(initial_targets=ids_of(tmask), rounds=tuple(rounds), final_set=dom)
    return SolveResult(algorithm, dom, trace, **extra)


def solve_classical(g: Graph, targets: Iterable[int] | None = None) -> SolveResult:
    """Plain greedy: per round, one vertex of maximum coverage."""
    tmask = _targets_mask(g, targets)
    return _assemble("classical", tmask, _greedy_rounds(g.closed_masks, tmask, 2)[0])


def solve_fixed_i(g: Graph, i: int, targets: Iterable[int] | None = None) -> SolveResult:
    """Chained greedy with at most i-1 picks per round (i >= 2)."""
    if i is None:  # the engine would run auto
        raise ValidationError("parameter i must be >= 2, got None")
    tmask = _targets_mask(g, targets)
    return _assemble("fixed", tmask, _greedy_rounds(g.closed_masks, tmask, i)[0])


def _round_depth(r: Round) -> int:
    """Chain depth certified by a round: its pick count, except a
    single-pick round with an empty pool certifies nothing."""
    l = len(r.chosen)
    if l == 1 and r.b_sizes[0] == 0:
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
    tmask = _targets_mask(g, targets)
    rounds, pools = _greedy_rounds(g.closed_masks, tmask, None)
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
            left=tuple(sorted(rounds[best].chosen)),
            right=ids_of(pools[best])[:best_depth],
        )
    return _assemble("auto", tmask, rounds, t_detected=best_depth + 1, witness=witness)


def solve_hybrid(g: Graph, i: int | None = None, targets: Iterable[int] | None = None) -> SolveResult:
    """Run fixed_i (when i given) or auto once, classically extend every
    round prefix of that run, and return the smallest extension.

    The empty prefix is always a candidate and its extension is exactly
    the classical run, so the result is never larger than classical
    greedy. Ties go to the earliest prefix.
    """
    tmask = _targets_mask(g, targets)
    masks = g.closed_masks
    base, _ = _greedy_rounds(masks, tmask, i)

    best_rounds: list[Round] | None = None
    best_size: int | None = None
    prefix_size = 0
    residual = tmask
    for p in range(len(base) + 1):
        if p:
            for v in base[p - 1].chosen:
                residual &= ~masks[v]
            prefix_size += len(base[p - 1].chosen)
        extension, _ = _greedy_rounds(masks, residual, 2)
        size = prefix_size + len(extension)  # one pick per classical round
        if best_size is None or size < best_size:
            best_size = size
            best_rounds = base[:p] + extension
    assert best_rounds is not None
    return _assemble("hybrid", tmask, best_rounds)


def verify_witness(g: Graph, w: BicliqueWitness) -> bool:
    """True iff the sides are disjoint and every cross pair is an edge."""
    lmask = mask_of(g, w.left)
    rmask = mask_of(g, w.right)
    if lmask & rmask:
        return False
    for v in w.left:
        open_mask = g.closed_masks[v] & ~(1 << v)
        if rmask & ~open_mask:
            return False
    return True
