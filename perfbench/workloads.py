"""Workload inputs, the op list run against them, and the output checks.

Every input is generated from the workload seed with `domset.generators`
and written to a file; the program only ever sees those files, through
`domset.cli.main`. The two solve workloads run fixed solver lists on
sparse graphs; `exact_check` consists of quality bundles: one small
instance run through `exact` and then the solvers (a set-cover instance
goes through `reduce --check-free` first).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

# Vertex-count guard passed to `exact`; quality instances stay within it.
EXACT_MAX_N = 40


@dataclass
class Instance:
    name: str
    model: str
    params: dict
    seed: int
    graph: object = None      # domset Graph the ops solve (reduced graph for set cover)
    cover: object = None      # SetCoverInstance, for set-cover inputs
    reduced: object = None    # ReducedInstance, for set-cover inputs


@dataclass
class Op:
    inst: Instance
    command: str              # "reduce", "exact" or "solve"
    algo: str | None = None
    i: int | None = None
    argv: list[str] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)

    @property
    def label(self) -> str:
        tail = self.algo or self.command
        if self.i is not None:
            tail += f":{self.i}"
        return f"{self.inst.name}/{tail}"


SOLVE_OPS = {
    "large_sparse": (("classical", None), ("fixed", 3), ("auto", None)),
    "hybrid_medium": (("hybrid", None), ("hybrid", 3)),
}
# A quality bundle: `exact`, then these solves.
BUNDLE = (("classical", None), ("auto", None), ("hybrid", None))

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("large_sparse", "hybrid_medium", "exact_check")


def _instance_seed(seed, index: int, attempt: int = 0) -> int:
    digest = hashlib.sha256(f"{seed}/{index}/{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _sparse_family(n: int, seed: int, copy: int) -> list[Instance]:
    """Random tree, square grid, 3-degenerate and G(n, 4/n) at about n."""
    side = round(n ** 0.5)
    s = [_instance_seed(seed, 4 * copy + k) for k in range(4)]
    return [
        Instance(f"tree{n}_{copy}", "random_tree", {"n": n}, s[0]),
        Instance(f"grid{side}x{side}_{copy}", "grid", {"w": side, "h": side}, s[1]),
        Instance(f"deg3_{n}_{copy}", "d_degenerate", {"n": n, "d": 3}, s[2]),
        Instance(f"gnp{n}_{copy}", "gnp", {"n": n, "p": 4.0 / n}, s[3]),
    ]


def _set_cover(name: str, seed: int, index: int, universe: int) -> Instance:
    return Instance(name, "intersection_one_sc",
                    {"universe_size": universe, "set_count": universe * 3 // 4,
                     "max_set_size": 4},
                    _instance_seed(seed, index))


def plan(workload: str, seed: int, smoke: bool) -> list[tuple[Instance, tuple | None]]:
    """(instance, solve ops) pairs in run order. Solve ops of None mark a
    quality bundle."""
    if workload in SOLVE_OPS:
        # hybrid_medium takes two graphs per family: hybrid time varies
        # with the graph more than the other solvers' time does.
        n, copies = {"large_sparse": (1200, 1), "hybrid_medium": (350, 2)}[workload]
        if smoke:
            n, copies = 64, 1
        return [(inst, SOLVE_OPS[workload])
                for c in range(copies) for inst in _sparse_family(n, seed, c)]
    if workload != "exact_check":
        raise KeyError(workload)
    # The oracle's cost on random trees at n=40 is heavy-tailed (node counts
    # from tens to ~50k), so trees drawn per seed would swing the totals and
    # the tail from seed to seed. The trees are therefore one fixed corpus;
    # the 2-degenerate graphs (light-tailed) and the set covers follow the seed.
    # Trees carry most of the oracle time, which has to outweigh the ~3 ms
    # fixed cost of each CLI call.
    trees, degs, covers, n = (2, 2, 2, 24) if smoke else (100, 60, 8, EXACT_MAX_N)
    out = []
    for k in range(trees):
        out.append((Instance(f"tree{k}", "random_tree", {"n": n},
                             _instance_seed("tree-corpus", k)), None))
    for k in range(degs):
        out.append((Instance(f"deg2_{k}", "d_degenerate", {"n": n, "d": 2},
                             _instance_seed(seed, 1000 + k)), None))
    for k in range(covers):
        out.append((_set_cover(f"sc{k}", seed, 2000 + k, 10 if smoke else 18), None))
    return out


def build_inputs(mods, workload: str, seed: int, smoke: bool, work: Path) -> list[Op]:
    """Generate every input, write it under `work`, and return the op list."""
    gen, red, graph = mods.generators, mods.reduction, mods.graph
    ops: list[Op] = []
    for inst, solves in plan(workload, seed, smoke):
        if inst.model == "intersection_one_sc":
            index_seed, attempt = inst.seed, 0
            while True:  # redraw until the reduced graph fits the exact guard
                inst.cover = gen.build(gen.GenSpec(inst.model, inst.params, inst.seed))
                inst.reduced = red.reduce_set_cover(inst.cover)
                if inst.reduced.graph.n <= EXACT_MAX_N:
                    break
                attempt += 1
                inst.seed = _instance_seed(index_seed, 0, attempt)
            inst.graph = inst.reduced.graph
            cover_path = work / f"{inst.name}.json"
            cover_path.write_text(red.serialize_set_cover(inst.cover), encoding="utf-8")
            graph_path = work / f"{inst.name}.red.gr"
            map_path = work / f"{inst.name}.map.json"
            ops.append(Op(inst, "reduce",
                          argv=["reduce", str(cover_path), "--out", str(graph_path),
                                "--map", str(map_path), "--check-free"],
                          outputs=[graph_path, map_path]))
        else:
            inst.graph = gen.build(gen.GenSpec(inst.model, inst.params, inst.seed))
            graph_path = work / f"{inst.name}.gr"
            graph_path.write_text(graph.serialize_graph(inst.graph), encoding="utf-8")
        if solves is None:
            out = work / f"{inst.name}.exact.json"
            ops.append(Op(inst, "exact",
                          argv=["exact", str(graph_path), "--max-n", str(EXACT_MAX_N),
                                "--out", str(out)],
                          outputs=[out]))
            solves = BUNDLE
        for algo, i in solves:
            op = Op(inst, "solve", algo, i)
            out = work / f"{op.label.replace('/', '.').replace(':', '_')}.json"
            op.argv = ["solve", str(graph_path), "--algo", algo, "--out", str(out)]
            if i is not None:
                op.argv += ["--i", str(i)]
            op.outputs = [out]
            ops.append(op)
    return ops


def digest(stdout: str, blobs: list[bytes]) -> str:
    """Digest of everything an op produced: its stdout and output files."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    for blob in blobs:
        h.update(b"\0")
        h.update(blob)
    return h.hexdigest()[:8]


def check(mods, op: Op, stdout: str, blobs: list[bytes], optima: dict) -> str | None:
    """Check one op's outputs against the paper's guarantees; return the
    reason it is wrong, or None. `optima` carries each instance's exact
    optimum from its `exact` op to the solve ops that follow it."""
    inst, g = op.inst, op.inst.graph
    if op.command == "reduce":
        if "biclique-free" not in stdout:
            return "reduce --check-free did not report biclique-free"
        if mods.graph.parse_graph(blobs[0]) != g:
            return "reduced graph differs from the reduction of the input"
        mapping = json.loads(blobs[1])
        if (mapping["x_vertex"], mapping["y_vertex"]) != (inst.reduced.x_vertex,
                                                          inst.reduced.y_vertex):
            return "vertex map names the wrong x/y vertices"
        return None

    doc = json.loads(blobs[0])
    if op.command == "exact":
        ds, size = doc["witness_set"], doc["opt_size"]
        if doc["exceeded"] or ds is None or len(ds) != size:
            return "exact result has no witness of the reported size"
    else:
        ds, size = doc["dominating_set"], doc["size"]
        if len(ds) != size or doc["algorithm"] != op.algo:
            return "result document is inconsistent"
    if not mods.graph.is_dominating(g, ds):
        return "result does not dominate the graph"

    if inst.reduced is not None:
        cover = mods.reduction.map_solution_back(inst.reduced, ds)
        covered = set()
        for idx in cover:
            covered.update(inst.cover.sets[idx])
        if covered != set(inst.cover.universe):
            return "mapped-back cover misses elements"
        if op.command == "exact" and len(cover) + 1 != size:
            return "optimum cover + 1 != optimum dominating set"
        if len(cover) + 1 > size:
            return "mapped-back cover is larger than the dominating set - 1"

    if op.command == "exact":
        optima[inst.name] = size
        return None
    opt = optima.get(inst.name)
    if opt is not None:
        if size < opt:
            return f"size {size} below the exact optimum {opt}"
        if op.algo == "classical" and size > mods.oracles.harmonic(g.n) * opt:
            return f"classical size {size} exceeds H_n * opt"
    if op.algo == "auto":
        w = doc["witness"]
        if w is None:
            if doc["t_detected"] != 1:
                return "auto reports t_detected > 1 without a witness"
        else:
            witness = mods.solvers.BicliqueWitness(tuple(w["left"]), tuple(w["right"]))
            depth = doc["t_detected"] - 1
            if not mods.solvers.verify_witness(g, witness):
                return "auto witness is not a complete bipartite subgraph"
            if len(witness.left) != depth or len(witness.right) != depth:
                return "auto witness sides do not match t_detected"
    return None


def hybrid_prefixes(mods, ops: list[Op]) -> int:
    """Base rounds + 1 summed over the hybrid ops: the prefixes the
    hybrid loop extends. Computed from a base run outside any op."""
    total = 0
    for op in ops:
        if op.algo == "hybrid":
            g = op.inst.graph
            base = (mods.solvers.solve_auto(g) if op.i is None
                    else mods.solvers.solve_fixed_i(g, op.i))
            total += len(base.trace.rounds) + 1
    return total
