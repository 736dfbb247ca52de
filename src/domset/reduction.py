"""Set cover with pairwise intersection at most 1, and its reduction
to dominating set.

The reduced graph has one vertex per universe element, one per family
set, plus two extras x and y: element u is adjacent to every set
containing it, x is adjacent to every set vertex and to y. Covers of
size s correspond to dominating sets of size s+1 (the set vertices
plus x), and the intersection-1 property keeps the graph free of
complete bipartite K_{3,3} subgraphs.

File format (JSON): {"universe": [ints], "sets": [[ints], ...]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError, ValidationError
from .graph import Graph, _as_text, is_dominating


@dataclass(frozen=True)
class SetCoverInstance:
    universe: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ReducedInstance:
    graph: Graph
    element_of: dict[int, int]  # element vertex -> universe element
    set_of: dict[int, int]      # set vertex -> family index
    x_vertex: int
    y_vertex: int


def build_instance(universe: Iterable[int], sets: Iterable[Iterable[int]]) -> SetCoverInstance:
    """Normalize and fully validate a set-cover instance.

    Enforces: nonempty universe without duplicates, nonempty member
    sets drawn from the universe, universe equal to the union of the
    sets, no duplicate sets, and pairwise intersections of size <= 1
    (the first violating pair is reported).
    """
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
    sc = SetCoverInstance(uni, fam)
    p, q = _first_intersection_violation(sc)
    if p >= 0:
        shared = sorted(set(fam[p]) & set(fam[q]))
        raise ValidationError(f"sets {p} and {q} share {shared} (intersection > 1)")
    return sc


def _first_intersection_violation(sc: SetCoverInstance) -> tuple[int, int]:
    members = [set(s) for s in sc.sets]
    for p in range(len(members)):
        for q in range(p + 1, len(members)):
            if len(members[p] & members[q]) > 1:
                return p, q
    return -1, -1


def validate_intersection_one(sc: SetCoverInstance) -> bool:
    """True iff every pair of sets shares at most one element."""
    p, _ = _first_intersection_violation(sc)
    return p < 0


def parse_set_cover(text: str | bytes) -> SetCoverInstance:
    try:
        doc = json.loads(_as_text(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", exc.lineno) from None
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"universe", "sets"}:
        raise ParseError("expected an object with fields 'universe' and 'sets'")
    universe = doc["universe"]
    sets = doc["sets"]
    # type(e) is int: JSON true and false load as bool, a subclass of int
    if not isinstance(universe, list) or not all(type(e) is int for e in universe):
        raise ParseError("'universe' must be a list of integers")
    if not isinstance(sets, list) or not all(
        isinstance(s, list) and all(type(e) is int for e in s) for s in sets
    ):
        raise ParseError("'sets' must be a list of integer lists")
    return build_instance(universe, sets)


def serialize_set_cover(sc: SetCoverInstance) -> str:
    doc = {"universe": list(sc.universe), "sets": [list(s) for s in sc.sets]}
    return json.dumps(doc, indent=2) + "\n"


def reduce_set_cover(sc: SetCoverInstance) -> ReducedInstance:
    """Build the dominating-set instance for an intersection-1 cover.

    Vertex layout is deterministic: element vertices in universe order,
    then set vertices in family order, then x, then y. The graph has
    |universe| + |sets| + 2 vertices and sum(|set|) + |sets| + 1 edges.
    """
    p, q = _first_intersection_violation(sc)
    if p >= 0:
        raise ValidationError(f"sets {p} and {q} intersect in more than one element")
    n_elem = len(sc.universe)
    n_sets = len(sc.sets)
    elem_vertex = {e: idx for idx, e in enumerate(sc.universe)}
    x = n_elem + n_sets
    y = x + 1
    edges = []
    for idx, s in enumerate(sc.sets):
        sv = n_elem + idx
        for e in s:
            edges.append((elem_vertex[e], sv))
        edges.append((x, sv))
    edges.append((x, y))
    graph = Graph(n_elem + n_sets + 2, edges)
    return ReducedInstance(
        graph=graph,
        element_of={idx: e for idx, e in enumerate(sc.universe)},
        set_of={n_elem + idx: idx for idx in range(n_sets)},
        x_vertex=x,
        y_vertex=y,
    )


def map_solution_back(ri: ReducedInstance, dominating: Iterable[int]) -> list[int]:
    """Turn a dominating set of the reduced graph into a set cover.

    Element vertices are swapped for their lowest-index covering set
    (the neighbors of an element vertex are exactly the sets containing
    it), y for x; the result drops x and returns sorted family indices.
    The cover has size at most |dominating| - 1 whenever x or y was in
    the input (always the case for a genuine dominating set, since only
    x and y dominate y).
    """
    d = set(dominating)
    if not is_dominating(ri.graph, d):
        raise ValidationError("input does not dominate the reduced graph")
    indices: set[int] = set()
    for v in d:
        if v in ri.set_of:
            indices.add(ri.set_of[v])
        elif v in ri.element_of:
            indices.add(min(ri.set_of[w] for w in ri.graph.adj[v]))
        # x and y both collapse onto x, which carries no family index
    return sorted(indices)


def forward_solution(ri: ReducedInstance, cover: Sequence[int]) -> tuple[int, ...]:
    """Dominating set from a set cover: the chosen set vertices plus x.

    Rejects covers with out-of-range or duplicate indices or that miss
    part of the universe.
    """
    idxs = list(cover)
    if len(set(idxs)) != len(idxs):
        raise ValidationError("duplicate indices in cover")
    n_elem = len(ri.element_of)
    n_sets = len(ri.set_of)
    for idx in idxs:
        if not 0 <= idx < n_sets:
            raise ValidationError(f"set index {idx} out of range")
    chosen_vertices = {n_elem + idx for idx in idxs}
    missed = [
        ri.element_of[v]
        for v in range(n_elem)
        if not chosen_vertices.intersection(ri.graph.adj[v])
    ]
    if missed:
        raise ValidationError(f"cover misses elements {sorted(missed)}")
    return tuple(sorted(chosen_vertices | {ri.x_vertex}))
