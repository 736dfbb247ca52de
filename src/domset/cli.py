"""Command-line front end and benchmark harness.

Subcommands: solve, exact, verify, bench, reduce, gen. Exit codes:
0 success, 1 usage or parse error, 2 validation failure, 3 resource
guard refusal.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from . import generators, oracles, reduction, solvers
from .errors import DomsetError, ParseError, ResourceLimitError, ValidationError
from .graph import Graph, _decimal, _undominated, is_dominating, parse_graph, serialize_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_GUARD = 3

# algorithm -> (name of its solver in `solvers`, whether it takes i:
# "never", "requires" or "accepts"). The solver is looked up on the
# module at each call, so wrappers installed there see the call.
_ALGORITHMS = {
    "classical": ("solve_classical", "never"),
    "fixed": ("solve_fixed_i", "requires"),
    "auto": ("solve_auto", "never"),
    "hybrid": ("solve_hybrid", "accepts"),
}


@dataclass(frozen=True)
class BenchRecord:
    graph_name: str
    n: int | None = None
    m: int | None = None
    algorithm: str = ""
    i_param: int | None = None
    ds_size: int | None = None
    opt_size: int | None = None
    ratio: float | None = None
    t_detected: int | None = None
    rounds: int | None = None
    elapsed_micros: int | None = None
    error: str = ""

    def row(self) -> list[str]:
        vals = (getattr(self, name) for name in BENCH_COLUMNS)
        return ["" if v is None else str(v) for v in vals]


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRecord))


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_text(path: str) -> str:
    """A UTF-8 input file; undecodable bytes are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _read_vertex_list(path: str) -> list[int]:
    """Whitespace-separated decimal vertex ids; 'c ...' comment lines
    allowed."""
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "c":
            continue
        for tok in tokens:
            try:
                out.append(_decimal(tok))
            except ValueError:
                raise ParseError(f"expected a vertex id, got {tok!r}", lineno) from None
    return out


def _write(text: str, out: str | None) -> None:
    """Write `text` to the file `out`, or to stdout when `out` is not set."""
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _check_algorithm(algo: str, i: int | None) -> None:
    """Reject an unknown algorithm, an i it needs but lacks or would
    ignore, and an i below 2, with the solvers' own message."""
    if algo not in _ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algo!r}")
    uses_i = _ALGORITHMS[algo][1]
    if uses_i == "requires" and i is None:
        raise ValidationError(f"{algo} requires an i, e.g. --i 2 or {algo}:2")
    if uses_i == "never" and i is not None:
        raise ValidationError(f"{algo} takes no i parameter")
    solvers._check_i(i)


def _run_algorithm(g: Graph, algo: str, i: int | None, targets=None) -> solvers.SolveResult:
    """Run a checked algorithm (see _check_algorithm)."""
    name, uses_i = _ALGORITHMS[algo]
    solve = getattr(solvers, name)
    return solve(g, targets) if uses_i == "never" else solve(g, i, targets)


def cmd_solve(args) -> int:
    _check_algorithm(args.algo, args.i)
    g = _read_graph(args.graph)
    targets = _read_vertex_list(args.targets) if args.targets else None
    result = _run_algorithm(g, args.algo, args.i, targets)
    _write(result.to_json() + "\n", args.out)
    return EXIT_OK


def _check_oracle_limits(args) -> None:
    """Refuse a negative --max-nodes or --max-n before any input is read."""
    if args.max_nodes is not None and args.max_nodes < 0:
        raise ValidationError(f"--max-nodes must be >= 0, got {args.max_nodes}")
    if args.max_n < 0:
        raise ValidationError(f"--max-n must be >= 0, got {args.max_n}")


def cmd_exact(args) -> int:
    _check_oracle_limits(args)
    g = _read_graph(args.graph)
    if g.n > args.max_n and not args.force:
        raise ResourceLimitError(
            f"n={g.n} exceeds the guard --max-n {args.max_n}; pass --force to override"
        )
    targets = _read_vertex_list(args.targets) if args.targets else None
    result = oracles.exact_min_dominating_set(
        g, targets, budget=args.budget, max_nodes=args.max_nodes
    )
    _write(json.dumps(result.as_document(), indent=2) + "\n", args.out)
    return EXIT_GUARD if result.exceeded else EXIT_OK


def cmd_verify(args) -> int:
    if not (args.ds or args.witness):
        raise ValidationError("verify needs --ds or --witness")
    if args.ds and args.witness:
        raise ValidationError("verify takes --ds or --witness, not both")
    if args.targets and args.witness:
        raise ValidationError("--targets applies to --ds, not to --witness")
    g = _read_graph(args.graph)
    if args.witness:
        try:
            doc = json.loads(_read_text(args.witness))
            w = solvers.BicliqueWitness(tuple(doc["left"]), tuple(doc["right"]))
        # ValueError: malformed JSON, or an integer past int's digit limit;
        # RecursionError: nesting past the recursion limit
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise ParseError(f"bad witness file: {exc}") from None
        bad = [v for v in w.left + w.right if type(v) is not int]
        if bad:
            raise ParseError(f"bad witness file: expected vertex ids, got {bad[0]!r}")
        if solvers.verify_witness(g, w):
            print("OK")
            return EXIT_OK
        print("FAIL: not a complete bipartite subgraph")
        return EXIT_VALIDATION
    ds = _read_vertex_list(args.ds)
    targets = _read_vertex_list(args.targets) if args.targets else None
    missing = _undominated(g, ds, targets)
    if not missing:
        print("OK")
        return EXIT_OK
    print(f"FAIL undominated: {' '.join(map(str, missing))}")
    return EXIT_VALIDATION


def _parse_algos(text: str) -> list[tuple[str, int | None]]:
    """Parse "classical,fixed:2,auto,hybrid:3,hybrid" into (name, i) pairs."""
    out: list[tuple[str, int | None]] = []
    for item in text.split(","):
        item = item.strip()
        name, _, arg = item.partition(":")
        try:
            i = int(arg) if arg else None
        except ValueError:
            raise ParseError(f"expected an integer i in {item!r}") from None
        _check_algorithm(name, i)
        out.append((name, i))
    return out


def _bench_instances(args) -> list[tuple[str, Graph | None, str]]:
    """(name, graph or None, error) triples in deterministic order."""
    instances: list[tuple[str, Graph | None, str]] = []
    if args.graphs:
        if not Path(args.graphs).is_dir():
            raise NotADirectoryError(f"--graphs {args.graphs}: not a directory")
        for path in sorted(Path(args.graphs).glob("*.gr")):
            try:
                instances.append((path.stem, _read_graph(str(path)), ""))
            except (DomsetError, OSError) as exc:
                instances.append((path.stem, None, str(exc)))
    for spec_text in args.gen or ():
        spec = generators.parse_genspec(spec_text)
        built = generators.build(spec)
        if not isinstance(built, Graph):
            raise ValidationError(f"genspec {spec_text!r} does not produce a graph")
        instances.append((spec.name(), built, ""))
    return instances


def _check_witness(g: Graph, result: solvers.SolveResult) -> None:
    """A witness must be a biclique with t_detected - 1 vertices a side."""
    w = result.witness
    if w is None:
        return
    side = None if result.t_detected is None else result.t_detected - 1
    if not (len(w.left) == len(w.right) == side and solvers.verify_witness(g, w)):
        raise ValidationError("result failed witness check")


def _error_rows(name: str, g: Graph | None, algos, error: str) -> list[BenchRecord]:
    """One error row per algorithm for an instance that cannot be run."""
    n, m = (None, None) if g is None else (g.n, g.m)
    return [
        BenchRecord(graph_name=name, n=n, m=m, algorithm=a, i_param=i, error=error)
        for a, i in algos
    ]


def cmd_bench(args) -> int:
    algos = _parse_algos(args.algos)
    if args.max_nodes is not None and not args.with_exact:
        raise ValidationError("--max-nodes limits the oracle, so it needs --with-exact")
    _check_oracle_limits(args)
    records: list[BenchRecord] = []
    for name, g, err in _bench_instances(args):
        if g is None:
            records.extend(_error_rows(name, None, algos, err))
            continue
        opt: int | None = None
        if args.with_exact and g.n <= args.max_n:
            try:
                opt = oracles.exact_min_dominating_set(g, max_nodes=args.max_nodes).opt_size
            except DomsetError as exc:
                records.extend(_error_rows(name, g, algos, str(exc)))
                continue
        for algo, i in algos:
            try:
                start = time.perf_counter()
                result = _run_algorithm(g, algo, i)
                elapsed = int((time.perf_counter() - start) * 1e6)
                if not is_dominating(g, result.dominating_set):
                    raise ValidationError("result failed domination check")
                _check_witness(g, result)
                size = len(result.dominating_set)
                records.append(
                    BenchRecord(
                        graph_name=name,
                        n=g.n,
                        m=g.m,
                        algorithm=algo,
                        i_param=i,
                        ds_size=size,
                        opt_size=opt,
                        ratio=None if opt in (None, 0) else size / opt,
                        t_detected=result.t_detected,
                        rounds=len(result.trace.rounds),
                        elapsed_micros=elapsed if args.timings else None,
                    )
                )
            except DomsetError as exc:
                records.extend(_error_rows(name, g, [(algo, i)], str(exc)))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    writer.writerows(rec.row() for rec in records)
    _write(text.getvalue(), args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    sc = reduction.parse_set_cover(_read_text(args.setcover))
    ri = reduction.reduce_set_cover(sc)
    _write(serialize_graph(ri.graph), args.out)
    if args.map:
        mapping = {
            "element_of": {str(v): e for v, e in sorted(ri.element_of.items())},
            "set_of": {str(v): idx for v, idx in sorted(ri.set_of.items())},
            "x_vertex": ri.x_vertex,
            "y_vertex": ri.y_vertex,
        }
        Path(args.map).write_text(json.dumps(mapping, indent=2) + "\n", encoding="utf-8")
    if args.check_free:
        witness = oracles.has_biclique(ri.graph, 3, 3)
        if witness is not None:
            print(f"FAIL: found K_3,3 with sides {witness.left} / {witness.right}")
            return EXIT_VALIDATION
        print("biclique-free: no K_3,3 subgraph")
    return EXIT_OK


def cmd_gen(args) -> int:
    params = {k: getattr(args, k) for k in generators._PARAM_TYPES if getattr(args, k) is not None}
    if args.seed is not None:
        generators._check_seeded(args.model)
    built = generators.build(generators.GenSpec(args.model, params, args.seed or 0))
    if isinstance(built, Graph):
        text = serialize_graph(built)
    else:
        text = reduction.serialize_set_cover(built)
    _write(text, args.out)
    return EXIT_OK


# Built on the first main() call, not at import, and kept: parse_args
# returns a fresh Namespace each call and no default is mutable.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="domset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a greedy solver on a graph file")
    p.add_argument("graph")
    p.add_argument("--algo", required=True, choices=tuple(_ALGORITHMS))
    p.add_argument("--i", type=int, default=None, help="round cap parameter (fixed/hybrid)")
    p.add_argument("--targets", default=None, help="file of target vertex ids")
    p.add_argument("--out", default=None, help="write the result document here")

    p = sub.add_parser("exact", help="exact minimum dominating set (small graphs)")
    p.add_argument("graph")
    p.add_argument("--targets", default=None)
    p.add_argument("--budget", type=int, default=None, help="report 'exceeded' if optimum > budget")
    p.add_argument("--max-n", type=int, default=30, dest="max_n")
    p.add_argument("--force", action="store_true", help="ignore the --max-n guard")
    p.add_argument("--max-nodes", type=int, default=None, dest="max_nodes",
                   help="refuse (exit 3) once the search visits more than N nodes")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="check a dominating set or biclique witness")
    p.add_argument("graph")
    p.add_argument("--ds", default=None, help="file of dominating-set vertex ids")
    p.add_argument("--targets", default=None)
    p.add_argument("--witness", default=None, help="JSON file with 'left'/'right' vertex lists")

    p = sub.add_parser("bench", help="run algorithms over instances, emit CSV")
    p.add_argument("--graphs", default=None, help="directory of *.gr files")
    p.add_argument("--gen", action="append", default=None, metavar="SPEC",
                   help="genspec like gnp:n=20,p=0.2,seed=7 (repeatable)")
    p.add_argument("--algos", required=True, help="e.g. classical,fixed:2,auto,hybrid")
    p.add_argument("--with-exact", action="store_true", dest="with_exact")
    p.add_argument("--max-n", type=int, default=30, dest="max_n",
                   help="oracle guard for --with-exact")
    p.add_argument("--max-nodes", type=int, default=None, dest="max_nodes",
                   help="oracle node limit for --with-exact; an instance over it gets error rows")
    p.add_argument("--timings", action="store_true",
                   help="fill elapsed_micros (breaks byte-for-byte determinism)")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("reduce", help="reduce an intersection-1 set cover to dominating set")
    p.add_argument("setcover", help="JSON file with 'universe' and 'sets'")
    p.add_argument("--out", default=None, help="graph output path")
    p.add_argument("--map", default=None, help="vertex-map JSON output path")
    p.add_argument("--check-free", action="store_true", dest="check_free",
                   help="verify the reduced graph has no K_3,3 subgraph")

    p = sub.add_parser("gen", help="generate a graph or set-cover instance")
    p.add_argument("--model", required=True, choices=generators.GEN_MODELS)
    for key, kind in generators._PARAM_TYPES.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up on the module at each call, like the solvers in _ALGORITHMS,
    # so wrappers installed after the parser was built see the call
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except DomsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
