"""Scaling benchmark: fixed seeded workloads timed in-process, written as
one `BENCH_<label>.json` file. Standard library only.

The first part of a cell's name says what it times:

- `oracle/...`: `exact_min_dominating_set` on 100 random trees and 60
  2-degenerate graphs at n = 40 (the graph families of the perfbench
  `exact_check` corpus), and on the pinned random trees at n = 60, 80
  and 100;
- `ingest/...`: `parse_graph` on the `serialize_graph` text of a random
  tree, a square grid and a 3-degenerate graph at n = 10^3, 10^4 and
  10^5 (the text is made once, outside the timed runs);
- `gen/...`: the generator itself, `gen_gnp(n, 4/n, 1)` at n = 1000
  and 4000;
- `solve/<algo>/...`: `solve_classical`, `solve_fixed_i(g, 3)` or
  `solve_auto` on a random tree, a square grid and a 3-degenerate graph
  at n = 10^3, 10^4 and 10^5, and `solve_hybrid(g)` (`hybrid`) or
  `solve_hybrid(g, 3)` (`hybrid:3`) on the same graphs at n = 10^3 and
  10^4 and on the `gen/...` graphs, and the first three also on
  `reduced_sc/...`, the reduced graph (`reduce_set_cover`) of
  `gen_intersection_one(100000, 600, 600, 1)`: n = 169 571, a hub x of
  degree 69 570 and set vertices of many gains, and on
  `star_forest/k440`, the disjoint stars K_{1,1}, ..., K_{1,440}, each
  centre before its leaves (n = 97 460): the centres' gains 2..441 put
  one vertex on each level, 436 of them above twice the mean gain, the
  v_1 heap's worst shape.
  A solve cell times up to the `to_json()` text of the result (the
  graph is made once, outside the timed runs, and shared by the cells
  that solve it).
- `cli/<algo>/...`: the whole `solve` command in-process,
  `cli.main(["solve", "--algo", ..., FILE, "--out", OUT])` for
  classical, fixed:3 (`--algo fixed --i 3`) and auto on the random
  tree, square grid and 3-degenerate graph at n = 10^5: reading the
  file, parsing, solving, `to_json` and writing the result. Each graph
  file is written once, outside the timed runs, into a temporary
  directory that is removed at exit.

    python3 benchmarks/scaling.py --label NAME            # writes BENCH_NAME.json
    python3 benchmarks/scaling.py --label NAME --src DIR  # measures DIR/domset
    python3 benchmarks/scaling.py --label NAME --against DIR
    python3 benchmarks/scaling.py --smoke                 # a few graphs, JSON on stdout

One repetition of a cell runs its function once on each of its inputs
and times the total with `perf_counter`; the cell reports the median and
quartiles over `REPS` repetitions (written into the output). Outside
the timed repetitions, one counting run records what the outputs are,
summed over the cell's inputs: for oracle cells node_count and the distinct bound passes
(calls of `oracles._bound_and_target`: one per distinct memo key
(banned & N[A]) << n | A, N[A] the node's own, over the nodes of the
search while the memo is not cleared; a subtree taken from the memo
holds no key not met before), for ingest and gen cells the vertices
and edges of the graphs read or made, for solve and cli cells the
dominating-set sizes and the rounds.
Under `tracemalloc`, each input is run `PEAK_RUNS` more times, with
`gc.collect()` before each run; the cell's peak_mib is the largest,
over its inputs, of the median peak of one call, so one stray reading
does not set it. The collection also empties the interpreter's free
lists, so a call's peak counts the objects it would otherwise take from
them, whatever ran before. A SHA-256 over the outputs (result
documents, the result files a cli cell writes, or the graphs
serialized) pins them.

With `--against DIR`, a second copy of the package is loaded from DIR
and timed in the same process, alternating with the first: in even
repetitions the measured copy runs first, in odd ones the other. Each
cell then also gives, under "against", the other copy's peak_mib and
quartiles, the median and quartiles of the per-repetition time ratios
(measured / other: ratio_median, ratio_q1, ratio_q3) and the number of
repetitions the measured copy was faster; the run stops with exit 1 if
the two copies' outputs differ.

A ratio is not evidence on its own. Cells that run the same code on
both sides have read up to 1.04x in the median, so a solve cell cannot
resolve a few per cent; a cell whose ratio quartiles straddle 1 is
unresolved, and quartiles that exclude 1 are not evidence either: the
unchanged `ingest/d_degenerate/n100000/d3/seed1` cell once read 1.042x
[1.002, 1.120]. The oracle, ingest and gen cells, whose code a solver
change leaves alone, are the run's control: a solve cell counts as
changed only where its ratio lies outside the spread of their ratios in
the same run.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# timed repetitions per cell: enough for quartiles and a win count
REPS = 21
SMOKE_REPS = 3
# tracemalloc runs per input; the median peak is kept
PEAK_RUNS = 3


def families(n: int) -> dict:
    """The sparse graphs of the ingest and solve cells at about n
    vertices, by their name in a cell."""
    side = round(n ** 0.5)
    return {
        f"random_tree/n{n}/seed1": ("gen_random_tree", (n, 1)),
        f"grid/{side}x{side}": ("gen_grid", (side, side)),
        f"d_degenerate/n{n}/d3/seed1": ("gen_d_degenerate", (n, 3, 1)),
    }


# cell name -> graphs, as (generator name, args); smoke cells are prefixes
CELLS = {
    "oracle/random_tree/n40/seeds0-99": [("gen_random_tree", (40, s)) for s in range(100)],
    "oracle/d_degenerate/n40/d2/seeds0-59": [("gen_d_degenerate", (40, 2, s)) for s in range(60)],
    "oracle/random_tree/n60/seed1": [("gen_random_tree", (60, 1))],
    "oracle/random_tree/n80/seed1": [("gen_random_tree", (80, 1))],
    "oracle/random_tree/n100/seed1": [("gen_random_tree", (100, 1))],
}
for _n in (10**3, 10**4, 10**5):
    for _name, _spec in families(_n).items():
        CELLS[f"ingest/{_name}"] = [_spec]
for _n in (1000, 4000):
    CELLS[f"gen/gnp/n{_n}/p4n/seed1"] = [("gen_gnp", (_n, 4 / _n, 1))]
# solve cell algorithm -> (solver name in `solvers`, its arguments after the graph)
SOLVERS = {
    "classical": ("solve_classical", ()),
    "fixed:3": ("solve_fixed_i", (3,)),
    "auto": ("solve_auto", ()),
    "hybrid": ("solve_hybrid", ()),
    "hybrid:3": ("solve_hybrid", (3,)),
}
for _n in (10**3, 10**4, 10**5):
    for _algo in SOLVERS:
        # at 10^5 one call takes about 0.31 / 0.54 s on the tree, 4.29 / 4.27 s
        # on the grid and 13.2 / 63.1 s on the 3-degenerate graph (hybrid /
        # hybrid:3), and a cell makes REPS + PEAK_RUNS + 1 calls per copy: the
        # six cells would add about 70 minutes to a run with --against
        if _algo.startswith("hybrid") and _n > 10**4:
            continue
        for _name, _spec in families(_n).items():
            CELLS[f"solve/{_algo}/{_name}"] = [_spec]
for _n in (1000, 4000):
    for _algo in ("hybrid", "hybrid:3"):
        CELLS[f"solve/{_algo}/gnp/n{_n}/p4n/seed1"] = CELLS[f"gen/gnp/n{_n}/p4n/seed1"]
# cli cell algorithm -> its `domset solve` options
CLI_ALGOS = {
    "classical": ["--algo", "classical"],
    "fixed:3": ["--algo", "fixed", "--i", "3"],
    "auto": ["--algo", "auto"],
}
for _algo in CLI_ALGOS:
    for _name, _spec in families(10**5).items():
        CELLS[f"cli/{_algo}/{_name}"] = [_spec]
# a graph spec ("reduced", (generator name, args)) is the reduced graph of
# the generated set cover, and ("star_forest", (k,)) is `star_forest(k)`
for _algo in ("classical", "fixed:3", "auto"):
    CELLS[f"solve/{_algo}/reduced_sc/u100000/s600/w600/seed1"] = [
        ("reduced", ("gen_intersection_one", (100000, 600, 600, 1)))
    ]
    CELLS[f"solve/{_algo}/star_forest/k440"] = [("star_forest", (440,))]
SMOKE_CELLS = {
    "oracle/random_tree/n40/seeds0-4": CELLS["oracle/random_tree/n40/seeds0-99"][:5],
    "oracle/d_degenerate/n40/d2/seeds0-4": CELLS["oracle/d_degenerate/n40/d2/seeds0-59"][:5],
    "oracle/random_tree/n60/seed1": CELLS["oracle/random_tree/n60/seed1"],
    "ingest/d_degenerate/n1000/d3/seed1": CELLS["ingest/d_degenerate/n1000/d3/seed1"],
    "gen/gnp/n1000/p4n/seed1": CELLS["gen/gnp/n1000/p4n/seed1"],
    "solve/auto/d_degenerate/n1000/d3/seed1": CELLS["solve/auto/d_degenerate/n1000/d3/seed1"],
    "solve/hybrid:3/random_tree/n1000/seed1": CELLS["solve/hybrid:3/random_tree/n1000/seed1"],
    "solve/hybrid:3/d_degenerate/n1000/d3/seed1": CELLS["solve/hybrid:3/d_degenerate/n1000/d3/seed1"],
    "solve/auto/reduced_sc/u2000/s60/w60/seed1": [
        ("reduced", ("gen_intersection_one", (2000, 60, 60, 1)))
    ],
    "solve/classical/star_forest/k40": [("star_forest", (40,))],
    "cli/auto/d_degenerate/n1000/d3/seed1": CELLS["ingest/d_degenerate/n1000/d3/seed1"],
}


def star_forest(graph_type, k: int):
    """The disjoint stars K_{1,1}, ..., K_{1,k}, each centre before its
    leaves, as a `graph_type` graph."""
    edges = []
    first = 0
    for leaves in range(1, k + 1):
        edges += [(first, first + j) for j in range(1, leaves + 1)]
        first += leaves + 1
    return graph_type(first, edges)


def kind(cell: str) -> str:
    """"oracle", "ingest", "gen", "solve" or "cli": the first part of the
    cell's name."""
    return cell.partition("/")[0]


def invoke(make):
    return make()


def load_package(src: Path, name: str) -> None:
    """Import the domset package found in `src` under the module name `name`."""
    init = src / "domset" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no domset package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)


class Subject:
    """One copy of the package and the inputs of every cell, built by its
    own generators so that each copy reads its own Graph type and text."""

    def __init__(self, src: Path, name: str, cells: dict):
        load_package(src, name)
        self.oracles = importlib.import_module(f"{name}.oracles")
        self.graph = importlib.import_module(f"{name}.graph")
        self.solvers = importlib.import_module(f"{name}.solvers")
        self.cli = importlib.import_module(f"{name}.cli")
        # the graph files of the cli cells, and the result file they write
        self.files = tempfile.TemporaryDirectory(prefix=f"{name}-")
        self.out = str(Path(self.files.name) / "result.json")
        reduction = importlib.import_module(f"{name}.reduction")
        gens = importlib.import_module(f"{name}.generators")
        graphs = {}  # spec -> graph, made once and shared by the cells that read it
        paths = {}  # spec -> graph file, written once and shared likewise

        def build(fn: str, args: tuple):
            if (fn, args) not in graphs:
                if fn == "reduced":
                    gen, gen_args = args
                    g = reduction.reduce_set_cover(getattr(gens, gen)(*gen_args)).graph
                elif fn == "star_forest":
                    g = star_forest(self.graph.Graph, *args)
                else:
                    g = getattr(gens, fn)(*args)
                graphs[fn, args] = g
            return graphs[fn, args]

        def write(spec: tuple) -> str:
            if spec not in paths:
                paths[spec] = str(Path(self.files.name) / f"{len(paths)}.gr")
                Path(paths[spec]).write_text(self.graph.serialize_graph(build(*spec)),
                                             encoding="utf-8", newline="")
            return paths[spec]

        self.inputs = {}
        for cell, specs in cells.items():
            if kind(cell) == "gen":
                self.inputs[cell] = [functools.partial(getattr(gens, fn), *args)
                                     for fn, args in specs]
            elif kind(cell) == "ingest":
                self.inputs[cell] = [self.graph.serialize_graph(build(*spec)) for spec in specs]
            elif kind(cell) == "cli":
                self.inputs[cell] = [write(spec) for spec in specs]
            else:
                self.inputs[cell] = [build(*spec) for spec in specs]

    def function(self, cell: str):
        """What one repetition of `cell` calls on each of its inputs."""
        if kind(cell) == "solve":
            solve = self.solver(cell)
            return lambda g: solve(g).to_json()
        if kind(cell) == "cli":
            argv = ["solve", *CLI_ALGOS[cell.split("/")[1]]]
            return lambda path: self.cli.main([*argv, path, "--out", self.out])
        return {
            "oracle": self.oracles.exact_min_dominating_set,
            "ingest": self.graph.parse_graph,
            "gen": invoke,
        }[kind(cell)]

    def solver(self, cell: str):
        """The solver of a solve cell, as a function of the graph alone."""
        name, args = SOLVERS[cell.split("/")[1]]
        solve = getattr(self.solvers, name)
        return lambda g: solve(g, *args)

    def run(self, cell: str) -> float:
        call = self.function(cell)
        start = time.perf_counter()
        for x in self.inputs[cell]:
            call(x)
        return time.perf_counter() - start

    def count(self, cell: str) -> dict:
        if kind(cell) == "oracle":
            return self.count_oracle(cell)
        if kind(cell) == "solve":
            return self.count_solve(cell)
        if kind(cell) == "cli":
            return self.count_cli(cell)
        return self.count_graphs(cell)

    def count_graphs(self, cell: str) -> dict:
        """Vertices and edges read or made and the digest of the graphs,
        from one run."""
        function = self.function(cell)
        digest = hashlib.sha256()
        vertices = edges = 0
        for x in self.inputs[cell]:
            g = function(x)
            vertices += g.n
            edges += g.m
            digest.update(self.graph.serialize_graph(g).encode())
        return {"vertices": vertices, "edges": edges, "digest": digest.hexdigest()}

    def count_solve(self, cell: str) -> dict:
        """Dominating-set sizes, rounds and the digest of the result
        texts, from one run."""
        solve = self.solver(cell)
        digest = hashlib.sha256()
        size = rounds = 0
        for g in self.inputs[cell]:
            r = solve(g)
            size += len(r.dominating_set)
            rounds += len(r.trace.rounds)
            digest.update(r.to_json().encode() + b"\n")
        return {"size": size, "rounds": rounds, "digest": digest.hexdigest()}

    def count_cli(self, cell: str) -> dict:
        """Dominating-set sizes, rounds and the digest of the result
        files, from one run."""
        function = self.function(cell)
        digest = hashlib.sha256()
        size = rounds = 0
        for path in self.inputs[cell]:
            if function(path) != 0:
                raise SystemExit(f"{cell}: domset solve failed on {path}")
            data = Path(self.out).read_bytes()
            doc = json.loads(data)
            size += doc["size"]
            rounds += len(doc["rounds"])
            digest.update(data)
        return {"size": size, "rounds": rounds, "digest": digest.hexdigest()}

    def count_oracle(self, cell: str) -> dict:
        """node_count, distinct passes and the documents' digest, from one
        run with the bound pass wrapped in a counter."""
        oracles = self.oracles
        pass_ = oracles._bound_and_target
        passes = 0

        def counted(*args):
            nonlocal passes
            passes += 1
            return pass_(*args)

        digest = hashlib.sha256()
        nodes = 0
        oracles._bound_and_target = counted
        try:
            for g in self.inputs[cell]:
                r = oracles.exact_min_dominating_set(g)
                nodes += r.node_count
                digest.update(json.dumps(r.as_document(), separators=(",", ":")).encode() + b"\n")
        finally:
            oracles._bound_and_target = pass_
        return {"node_count": nodes, "distinct_passes": passes, "digest": digest.hexdigest()}

    def peak_mib(self, cell: str) -> float:
        """The largest, over the cell's inputs, of the median tracemalloc
        peak of `PEAK_RUNS` calls on one input, each above what was
        allocated before it started."""
        call = self.function(cell)
        peak = 0
        tracemalloc.start()
        try:
            for x in self.inputs[cell]:
                runs = []
                for _ in range(PEAK_RUNS):
                    gc.collect()
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    call(x)
                    runs.append(tracemalloc.get_traced_memory()[1] - before)
                peak = max(peak, statistics.median(runs))
        finally:
            tracemalloc.stop()
        return round(peak / 2**20, 3)


def quartiles(times: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return {"median_s": round(q2, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4)}


def measure(subject: Subject, other: Subject | None, cells: dict, reps: int) -> dict:
    out = {}
    for cell in cells:
        entry = {"graphs": len(cells[cell]), **subject.count(cell)}
        if other is not None and other.count(cell)["digest"] != entry["digest"]:
            raise SystemExit(f"{cell}: the two copies give different outputs")
        entry["peak_mib"] = subject.peak_mib(cell)
        mine, theirs = [], []
        for rep in range(reps):
            if other is None:
                mine.append(subject.run(cell))
            elif rep % 2 == 0:
                mine.append(subject.run(cell))
                theirs.append(other.run(cell))
            else:
                theirs.append(other.run(cell))
                mine.append(subject.run(cell))
        entry.update(quartiles(mine))
        if other is not None:
            q1, q2, q3 = statistics.quantiles([a / b for a, b in zip(mine, theirs)], n=4)
            entry["against"] = {
                "peak_mib": other.peak_mib(cell),
                **quartiles(theirs),
                "ratio_median": round(q2, 3),
                "ratio_q1": round(q1, 3),
                "ratio_q3": round(q3, 3),
                "wins": sum(a < b for a, b in zip(mine, theirs)),
            }
        out[cell] = entry
        print(f"{cell}: {json.dumps(entry)}", file=sys.stderr)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default=None, help="write BENCH_<label>.json at the repository root")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="source directory measured")
    ap.add_argument("--against", type=Path, default=None,
                    help="source directory of a second copy, timed alternately")
    ap.add_argument("--smoke", action="store_true", help="a few graphs, 3 repetitions, stdout only")
    args = ap.parse_args(argv)
    cells = SMOKE_CELLS if args.smoke else CELLS
    reps = SMOKE_REPS if args.smoke else REPS
    subject = Subject(args.src, "domset_measured", cells)
    other = None if args.against is None else Subject(args.against, "domset_against", cells)
    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "reps": reps,
        "cells": measure(subject, other, cells, reps),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.label is None or args.smoke:
        sys.stdout.write(text)
    else:
        (ROOT / f"BENCH_{args.label}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
