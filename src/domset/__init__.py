"""Greedy dominating-set approximation on biclique-free graphs.

Solvers, exact oracles, biclique detection, an approximation-preserving
set-cover reduction, seeded instance generators, and a CLI/benchmark
harness. Pure Python with no runtime dependencies. A graph is its
adjacency lists only, and the solvers, checks and biclique search work
on them; the exact minimum dominating set search alone uses bit sets
(Python ints), built per call.
"""

from .errors import (
    DomsetError,
    ParseError,
    RangeError,
    ResourceLimitError,
    ValidationError,
)
from .generators import (
    GenSpec,
    SplitMix64,
    gen_d_degenerate,
    gen_gnp,
    gen_grid,
    gen_intersection_one,
    gen_random_tree,
)
from .graph import (
    Graph,
    is_dominating,
    parse_graph,
    serialize_graph,
)
from .oracles import (
    OracleResult,
    exact_min_dominating_set,
    harmonic,
    has_biclique,
)
from .reduction import (
    ReducedInstance,
    SetCoverInstance,
    build_instance,
    forward_solution,
    map_solution_back,
    parse_set_cover,
    reduce_set_cover,
    serialize_set_cover,
)
from .solvers import (
    BicliqueWitness,
    GreedyTrace,
    Round,
    SolveResult,
    solve_auto,
    solve_classical,
    solve_fixed_i,
    solve_hybrid,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomsetError",
    "ParseError",
    "RangeError",
    "ValidationError",
    "ResourceLimitError",
    "Graph",
    "parse_graph",
    "serialize_graph",
    "is_dominating",
    "Round",
    "GreedyTrace",
    "SolveResult",
    "BicliqueWitness",
    "solve_classical",
    "solve_fixed_i",
    "solve_auto",
    "solve_hybrid",
    "verify_witness",
    "OracleResult",
    "exact_min_dominating_set",
    "has_biclique",
    "harmonic",
    "SetCoverInstance",
    "ReducedInstance",
    "build_instance",
    "parse_set_cover",
    "serialize_set_cover",
    "reduce_set_cover",
    "map_solution_back",
    "forward_solution",
    "GenSpec",
    "SplitMix64",
    "gen_gnp",
    "gen_grid",
    "gen_random_tree",
    "gen_d_degenerate",
    "gen_intersection_one",
]
