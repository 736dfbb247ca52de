"""Reproducible instance generators.

Every generator draws from splitmix64 with a documented draw order, so
a (model, params, seed) triple yields the same instance on any platform
or implementation. Uniform floats take the top 53 bits of each 64-bit
output divided by 2^53; uniform integers below k are floor(float * k).
k distinct integers below b are drawn one by one, a repeat redrawn,
and kept in first-drawn order (`_distinct`).

splitmix64's state after k draws is seed + k * gamma mod 2^64, so draw
k is a pure function of its index (Steele, Lea and Flood, OOPSLA 2014).
G(n, p) uses that to compute its draws in fixed blocks, many at once
(`_draws_below`): the same draws in the same order as one at a time. A
float draw x = u64 >> 11 over 2^53 is < p exactly when the integer
u64 < ceil(p * 2^53) * 2^11, which is the test it makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import ValidationError
from .graph import Graph, _check_vertex_count
from .reduction import SetCoverInstance, _clash

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# draws per block of `_draws_below`; 1024 to 16384 time the same, 65536
# is slower
_BLOCK = 4096


class SplitMix64:
    """splitmix64 with the standard constants; state advances by the
    golden-gamma increment per draw."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_f53(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_below(self, k: int) -> int:
        """Uniform integer in [0, k)."""
        return int(self.next_f53() * k)


def _distinct(rng: SplitMix64, k: int, below: int) -> list[int]:
    """k distinct integers below `below` (k <= below), in first-drawn
    order; a repeat costs O(1) and is drawn again."""
    seen: dict[int, None] = {}
    while len(seen) < k:
        seen[rng.next_below(below)] = None
    return list(seen)


def _draws_below(seed: int, count: int, threshold: int):
    """Yield, ascending, each k < count whose draw k + 1 of
    SplitMix64(seed) is below `threshold` (0 <= threshold <= 2^64).

    A block of r draws is one int with a 128-bit lane per draw, draw j
    in bits 128j and up. Each splitmix64 step acts on all lanes at once;
    masking every lane to 64 bits before a multiply by a 64-bit constant
    keeps each product below 2^128, so no lane spills into the next.
    A 64-bit output u is below `threshold` iff bit 64 of u + 2^64 -
    threshold is clear; byte 8 of the lane holds that bit and zeros.
    """
    width = min(_BLOCK, count)
    ones = int.from_bytes((b"\x01" + bytes(15)) * width, "little")
    lane_mask = ones * _MASK64
    # lane j holds (j + 1) * gamma: draw j of a block whose state is 0
    steps = int.from_bytes(
        b"".join((j * _GAMMA & _MASK64).to_bytes(16, "little") for j in range(1, width + 1)),
        "little",
    )
    offset = ((1 << 64) - threshold) * ones
    state = seed & _MASK64
    for start in range(0, count, _BLOCK):
        r = min(_BLOCK, count - start)
        if r < width:  # a short last block: keep its r lanes
            keep = (1 << 128 * r) - 1
            ones, lane_mask, steps, offset = ones & keep, lane_mask & keep, steps & keep, offset & keep
        z = (steps + state * ones) & lane_mask
        z = ((z ^ (z >> 30)) & lane_mask) * _MIX1 & lane_mask
        z = ((z ^ (z >> 27)) & lane_mask) * _MIX2 & lane_mask
        z = (z ^ (z >> 31)) & lane_mask
        flags = (z + offset).to_bytes(16 * r, "little")[8::16]
        j = flags.find(0)
        while j >= 0:
            yield start + j
            j = flags.find(0, j + 1)
        state = (state + r * _GAMMA) & _MASK64


@dataclass(frozen=True)
class GenSpec:
    """Parsed form of a generator request, e.g. "gnp:n=20,p=0.2,seed=7"."""

    model: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def name(self) -> str:
        parts = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        if self.model in _MODELS and _MODELS[self.model].seeded:
            parts = parts + f",seed={self.seed}" if parts else f"seed={self.seed}"
        return f"{self.model}:{parts}"


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each pair {u, v} in lexicographic order is an edge iff
    the next float draw is < p. One draw per pair, even for p in {0, 1}.

    Pair k (from 0) takes draw k + 1, whose state is seed + (k + 1) *
    gamma mod 2^64; its float is < p iff its 64-bit output is below
    ceil(p * 2^53) * 2^11. The draws are computed in blocks of `_BLOCK`.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be in [0, 1], got {p}")
    _check_vertex_count(n)
    edges = []
    u, row_end = 0, n - 1  # row u holds pairs row_end - (n - 1 - u) .. row_end - 1
    for k in _draws_below(seed, n * (n - 1) // 2, math.ceil(p * (1 << 53)) << 11):
        while k >= row_end:
            u += 1
            row_end += n - 1 - u
        edges.append((u, k - row_end + n))
    return Graph(n, edges)


def gen_grid(w: int, h: int) -> Graph:
    """w x h grid; vertex (row r, column c) gets id r*w + c."""
    if w < 1 or h < 1:
        raise ValidationError(f"grid sides must be >= 1, got {w}x{h}")
    _check_vertex_count(w * h)
    edges = []
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                edges.append((r * w + c, r * w + c + 1))
            if r + 1 < h:
                edges.append((r * w + c, (r + 1) * w + c))
    return Graph(w * h, edges)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Random attachment tree: vertex v >= 1 attaches to a uniform
    earlier vertex. Connected and acyclic with n-1 edges."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    _check_vertex_count(n)
    rng = SplitMix64(seed)
    edges = [(rng.next_below(v), v) for v in range(1, n)]
    return Graph(n, edges)


def gen_d_degenerate(n: int, d: int, seed: int) -> Graph:
    """Vertices added in id order; vertex v draws min(d, v) distinct
    earlier neighbors (the distinct-draw rule of the module docstring).

    The insertion order 0..n-1 is itself the degeneracy certificate:
    every vertex has at most d neighbors with smaller ids.
    """
    if n < 0 or d < 0:
        raise ValidationError(f"need n, d >= 0, got n={n}, d={d}")
    _check_vertex_count(n)
    rng = SplitMix64(seed)
    edges = []
    for v in range(1, n):
        edges.extend((u, v) for u in _distinct(rng, min(d, v), v))
    return Graph(n, edges)


def gen_intersection_one(
    universe_size: int, set_count: int, max_set_size: int, seed: int
) -> SetCoverInstance:
    """Random set family over 0..universe_size-1 with pairwise
    intersections of size <= 1.

    Rejection sampling: propose sets of uniform size in [1,
    max_set_size] (clamped to the universe), the size drawn first and
    then the elements by the distinct-draw rule of the module docstring;
    accept a proposal iff it meets every accepted set in <= 1 element
    and is not a repeat. Stops after set_count acceptances or 64 *
    set_count proposals, then adds singletons for any uncovered
    elements so the union is the whole universe.
    """
    if universe_size < 1 or set_count < 1 or max_set_size < 1:
        raise ValidationError("generator parameters must be >= 1")
    _check_vertex_count(universe_size + set_count)
    rng = SplitMix64(seed)
    top = min(max_set_size, universe_size)
    # insertion-ordered, with an O(1) repeat test; holders indexes it by element
    accepted: dict[tuple[int, ...], None] = {}
    holders: dict[int, set[int]] = {}
    proposal_cap = 64 * set_count
    for _ in range(proposal_cap):
        if len(accepted) >= set_count:
            break
        cand = tuple(sorted(_distinct(rng, 1 + rng.next_below(top), universe_size)))
        if cand in accepted or _clash(cand, holders) >= 0:
            continue
        for e in cand:
            holders.setdefault(e, set()).add(len(accepted))
        accepted[cand] = None
    singletons = [(e,) for e in range(universe_size) if e not in holders]
    return SetCoverInstance(tuple(range(universe_size)), (*accepted, *singletons))


class _Model(NamedTuple):
    make: Callable
    params: tuple[tuple[str, type], ...]  # (name, type) in the order `make` takes them
    seeded: bool                          # `make` takes the seed after its params


_MODELS = {
    "gnp": _Model(gen_gnp, (("n", int), ("p", float)), True),
    "grid": _Model(gen_grid, (("w", int), ("h", int)), False),
    "random_tree": _Model(gen_random_tree, (("n", int),), True),
    "d_degenerate": _Model(gen_d_degenerate, (("n", int), ("d", int)), True),
    "intersection_one_sc": _Model(
        gen_intersection_one,
        (("universe_size", int), ("set_count", int), ("max_set_size", int)), True
    ),
}

GEN_MODELS = tuple(_MODELS)

# Every generator parameter and its type, in first-use order; each is a
# `gen` option, and a genspec value is converted with its type.
_PARAM_TYPES = dict(pair for m in _MODELS.values() for pair in m.params)


def _check_seeded(model: str) -> None:
    """Reject a seed for a model that takes none, rather than drop it."""
    if not _MODELS[model].seeded:
        raise ValidationError(f"{model} takes no seed")


def parse_genspec(text: str) -> GenSpec:
    """Parse "model:key=value,key=value" (seed is split out of params)."""
    model, _, rest = text.partition(":")
    model = model.strip()
    if model not in GEN_MODELS:
        raise ValidationError(f"unknown model {model!r}; expected one of {GEN_MODELS}")
    params: dict = {}
    seed = 0
    seen: set[str] = set()
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValidationError(f"bad genspec item {item!r} (expected key=value)")
            key = key.strip()
            value = value.strip()
            if key in seen:
                raise ValidationError(f"repeated key {key!r} in genspec {text!r}")
            seen.add(key)
            try:
                if key == "seed":
                    _check_seeded(model)
                    seed = int(value)
                else:
                    # an unknown key is read as an int; build() rejects it
                    params[key] = _PARAM_TYPES.get(key, int)(value)
            except ValueError:
                raise ValidationError(f"bad value for {key!r} in genspec: {value!r}") from None
    return GenSpec(model, params, seed)


def build(spec: GenSpec) -> Graph | SetCoverInstance:
    """Instantiate a GenSpec. Raises on missing or unknown parameters."""
    model, params = spec.model, spec.params
    entry = _MODELS.get(model)
    if entry is None:
        raise ValidationError(f"unknown model {model!r}; expected one of {GEN_MODELS}")
    expected = dict(entry.params)  # name -> type, in the order `make` takes them
    missing = sorted(expected.keys() - params.keys())
    unknown = sorted(params.keys() - expected.keys())
    if missing:
        raise ValidationError(f"model {model!r} is missing parameters {missing}")
    if unknown:
        raise ValidationError(f"unknown parameters for {model!r}: {unknown}")
    args = [params[k] for k in expected]
    if entry.seeded:
        args.append(spec.seed)
    return entry.make(*args)
