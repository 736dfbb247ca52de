"""Set cover with pairwise intersection at most 1, and its reduction
to dominating set.

The reduced graph has one vertex per universe element, one per family
set, plus two extras x and y: element u is adjacent to every set
containing it, x is adjacent to every set vertex and to y. Covers of
size s correspond to dominating sets of size s+1 (the set vertices
plus x), and the intersection-1 property keeps the graph free of
complete bipartite K_{3,3} subgraphs.

A SetCoverInstance is valid by construction: it runs every check when
built, so the reduction and the solution maps need none of their own.
The shared-pair check indexes the sets by element and costs the input
size plus at most the total size of the pairwise intersections, not a
scan of every pair of sets; the generator draws under the same rule.

File format (JSON): {"universe": [ints], "sets": [[ints], ...]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError, ValidationError
from .graph import Graph, _as_text, _undominated, is_dominating


def _clash(s: tuple[int, ...], holders: dict[int, set[int]]) -> int:
    """Lowest index of a set sharing two or more elements with `s`, or -1,
    among the sets in `holders` (element -> indices of the sets holding it).

    Reads the holders of each element of s but the most held one, which
    it only probes; so the work is at most sum |S_p & s| over those sets,
    and O(|s|) when s meets the others in one hub element.
    """
    rows = [holders[e] for e in s if e in holders]
    big = max(rows, key=len, default=None)
    seen: set[int] = set()
    clash = -1
    for row in rows:
        if row is not big:
            for p in row:
                if (p in seen or p in big) and (clash < 0 or p < clash):
                    clash = p
                seen.add(p)
    return clash


@dataclass(frozen=True)
class SetCoverInstance:
    """A set family with pairwise intersections of size <= 1, checked on
    construction: a nonempty universe without duplicates, nonempty sets
    each strictly increasing and drawn from the universe, every element
    covered, no duplicate sets, and no two sets sharing two elements (the
    lexicographically first such pair is reported). The checks cost the
    input size plus, at most, the total size of the pairwise intersections.
    """

    universe: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        uni, fam = self.universe, self.sets
        uni_set = set(uni)
        if len(uni_set) != len(uni):
            raise ValidationError("duplicate elements in universe")
        if not uni:
            raise ValidationError("empty universe")
        for idx, s in enumerate(fam):
            if not s:
                raise ValidationError(f"set {idx} is empty")
            if any(a >= b for a, b in zip(s, s[1:])):
                raise ValidationError(f"set {idx} is not strictly increasing")
            extra = [e for e in s if e not in uni_set]
            if extra:
                raise ValidationError(f"set {idx} contains {extra} outside the universe")
        union = set().union(*fam)
        if union != uni_set:
            raise ValidationError(f"elements {sorted(uni_set - union)} are covered by no set")
        if len(set(fam)) != len(fam):
            raise ValidationError("duplicate sets in family")
        holders: dict[int, set[int]] = {}
        clashes = []
        for q, s in enumerate(fam):
            p = _clash(s, holders)
            if p >= 0:
                clashes.append((p, q))
            for e in s:
                holders.setdefault(e, set()).add(q)
        if clashes:
            p, q = min(clashes)
            shared = sorted(set(fam[p]) & set(fam[q]))
            raise ValidationError(f"sets {p} and {q} share {shared} (intersection > 1)")


@dataclass(frozen=True)
class ReducedInstance:
    graph: Graph
    element_of: dict[int, int]  # element vertex -> universe element
    set_of: dict[int, int]      # set vertex -> family index
    x_vertex: int
    y_vertex: int


def build_instance(universe: Iterable[int], sets: Iterable[Iterable[int]]) -> SetCoverInstance:
    """The instance with each set sorted and its repeats dropped; the
    instance checks itself (see SetCoverInstance)."""
    return SetCoverInstance(tuple(universe), tuple(tuple(sorted(set(s))) for s in sets))


def parse_set_cover(text: str | bytes) -> SetCoverInstance:
    try:
        doc = json.loads(_as_text(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", exc.lineno) from None
    # an integer literal past int's digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
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
    missed = [ri.element_of[v] for v in _undominated(ri.graph, chosen_vertices, range(n_elem))]
    if missed:
        raise ValidationError(f"cover misses elements {sorted(missed)}")
    return tuple(sorted(chosen_vertices | {ri.x_vertex}))
