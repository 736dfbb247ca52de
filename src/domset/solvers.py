"""Greedy dominating-set solvers with full per-round traces.

All four variants share one round engine. A round always starts by
picking a vertex v_1 of maximum coverage |N[v] & A| over the whole
vertex set (coverage is at least 1 while targets remain, because every
target dominates itself). It may then chain further picks: after
v_1..v_s with nested pools B_1 >= B_2 >= ... (B_1 = N[v_1] & A minus
v_1, B_{s+1} = N[v_{s+1}] & B_s minus v_{s+1}), the next pick v_{s+1}
is the unchosen vertex of maximum coverage of B_s. The variants differ
only in when the chain stops:

* classical     -- never chains (one vertex per round).
* fixed_i(i)    -- chains while fewer than i-1 vertices are chosen and
                   some unchosen vertex still meets B_s.
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
from .graph import Graph, ids_of, mask_of


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


class _RoundRec:
    """Engine-internal round record; keeps the final chain pool for
    witness extraction and the residual target mask for hybrid prefixes."""

    __slots__ = ("chosen", "b_sizes", "b_final", "newly", "active_after")

    def __init__(self, chosen, b_sizes, b_final, newly, active_after):
        self.chosen = chosen
        self.b_sizes = b_sizes
        self.b_final = b_final
        self.newly = newly
        self.active_after = active_after


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


def _greedy_rounds(masks, active: int, cap: int | None, auto_gate: bool):
    """Run rounds until no targets remain. cap limits picks per round
    (None = unlimited); auto_gate enables the |B_{s+1}| >= s+1 rule."""
    rounds: list[_RoundRec] = []
    while active:
        v1, _ = _best_cover(masks, active)
        chosen = [v1]
        chosen_mask = 1 << v1
        b = masks[v1] & active & ~(1 << v1)
        b_sizes = [b.bit_count()]
        covered = masks[v1] & active
        while cap is None or len(chosen) < cap:
            v, c = _best_cover(masks, b, chosen_mask)
            if v < 0 or c == 0:
                break
            b_next = masks[v] & b & ~(1 << v)
            if auto_gate and b_next.bit_count() < len(chosen) + 1:
                break
            chosen.append(v)
            chosen_mask |= 1 << v
            covered |= masks[v] & active
            b = b_next
            b_sizes.append(b.bit_count())
        active &= ~covered
        rounds.append(_RoundRec(chosen, b_sizes, b, covered.bit_count(), active))
    return rounds


def _targets_mask(g: Graph, targets: Iterable[int] | None) -> int:
    return g.full_mask if targets is None else mask_of(g, targets)


def _assemble(g: Graph, algorithm: str, tmask: int, rounds: list[_RoundRec], **extra) -> SolveResult:
    dom: list[int] = []
    for rec in rounds:
        dom.extend(rec.chosen)
    trace = GreedyTrace(
        initial_targets=ids_of(tmask),
        rounds=tuple(
            Round(tuple(rec.chosen), tuple(rec.b_sizes), rec.newly) for rec in rounds
        ),
        final_set=tuple(sorted(dom)),
    )
    return SolveResult(algorithm, tuple(sorted(dom)), trace, **extra)


def solve_classical(g: Graph, targets: Iterable[int] | None = None) -> SolveResult:
    """Plain greedy: per round, one vertex of maximum coverage."""
    tmask = _targets_mask(g, targets)
    rounds = _greedy_rounds(g.closed_masks, tmask, cap=1, auto_gate=False)
    return _assemble(g, "classical", tmask, rounds)


def _base_rounds(masks, tmask: int, i: int | None) -> list[_RoundRec]:
    """Rounds of fixed_i for an integer i, or of auto for i None."""
    if i is None:
        return _greedy_rounds(masks, tmask, cap=None, auto_gate=True)
    if i < 2:
        raise ValidationError(f"parameter i must be >= 2, got {i}")
    return _greedy_rounds(masks, tmask, cap=i - 1, auto_gate=False)


def solve_fixed_i(g: Graph, i: int, targets: Iterable[int] | None = None) -> SolveResult:
    """Chained greedy with at most i-1 picks per round (i >= 2)."""
    if i is None:  # _base_rounds would run auto
        raise ValidationError("parameter i must be >= 2, got None")
    tmask = _targets_mask(g, targets)
    return _assemble(g, "fixed", tmask, _base_rounds(g.closed_masks, tmask, i))


def _round_depth(rec: _RoundRec) -> int:
    """Chain depth certified by a round: its pick count, except a
    single-pick round with an empty pool certifies nothing."""
    l = len(rec.chosen)
    if l == 1 and rec.b_sizes[0] == 0:
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
    rounds = _base_rounds(g.closed_masks, tmask, None)
    best_depth = 0
    best_rec = None
    for rec in rounds:
        d = _round_depth(rec)
        if d > best_depth:  # earliest round wins ties
            best_depth = d
            best_rec = rec
    witness = None
    if best_rec is not None:
        witness = BicliqueWitness(
            left=tuple(sorted(best_rec.chosen)),
            right=ids_of(best_rec.b_final)[:best_depth],
        )
    return _assemble(g, "auto", tmask, rounds, t_detected=best_depth + 1, witness=witness)


def solve_hybrid(g: Graph, i: int | None = None, targets: Iterable[int] | None = None) -> SolveResult:
    """Run fixed_i (when i given) or auto once, classically extend every
    round prefix of that run, and return the smallest extension.

    The empty prefix is always a candidate and its extension is exactly
    the classical run, so the result is never larger than classical
    greedy. Ties go to the earliest prefix.
    """
    tmask = _targets_mask(g, targets)
    masks = g.closed_masks
    base = _base_rounds(masks, tmask, i)

    best_rounds: list[_RoundRec] | None = None
    best_size: int | None = None
    prefix_size = 0
    for p in range(len(base) + 1):
        residual = tmask if p == 0 else base[p - 1].active_after
        extension = _greedy_rounds(masks, residual, cap=1, auto_gate=False)
        size = prefix_size + sum(len(rec.chosen) for rec in extension)
        if best_size is None or size < best_size:
            best_size = size
            best_rounds = base[:p] + extension
        if p < len(base):
            prefix_size += len(base[p].chosen)
    assert best_rounds is not None
    return _assemble(g, "hybrid", tmask, best_rounds)


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
