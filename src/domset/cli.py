"""Command-line front end and benchmark harness.

Subcommands: solve, exact, verify, bench, reduce, gen. Exit codes:
0 success, 1 usage or parse error, 2 validation failure, 3 resource
guard refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import generators, oracles, reduction, solvers
from .errors import (
    DomsetError,
    GenerationError,
    ParseError,
    RangeError,
    ResourceLimitError,
    ValidationError,
)
from .graph import Graph, is_dominating, mask_of, parse_graph, serialize_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_GUARD = 3

BENCH_COLUMNS = (
    "graph_name",
    "n",
    "m",
    "algorithm",
    "i_param",
    "ds_size",
    "opt_size",
    "ratio",
    "t_detected",
    "rounds",
    "elapsed_micros",
    "error",
)


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
        vals = (
            self.graph_name, self.n, self.m, self.algorithm, self.i_param,
            self.ds_size, self.opt_size, self.ratio, self.t_detected,
            self.rounds, self.elapsed_micros, self.error,
        )
        return ["" if v is None else str(v) for v in vals]


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
    """Whitespace-separated vertex ids; 'c ...' comment lines allowed."""
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        for tok in line.split():
            try:
                out.append(int(tok))
            except ValueError:
                raise ParseError(f"expected a vertex id, got {tok!r}", lineno) from None
    return out


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_algorithm(g: Graph, algo: str, i: int | None, targets=None) -> solvers.SolveResult:
    if algo == "classical":
        return solvers.solve_classical(g, targets)
    if algo == "fixed":
        if i is None:
            raise ValidationError("--algo fixed requires --i")
        return solvers.solve_fixed_i(g, i, targets)
    if algo == "auto":
        return solvers.solve_auto(g, targets)
    if algo == "hybrid":
        return solvers.solve_hybrid(g, i, targets)
    raise ValidationError(f"unknown algorithm {algo!r}")


def cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    targets = _read_vertex_list(args.targets) if args.targets else None
    result = _run_algorithm(g, args.algo, args.i, targets)
    _emit(result.as_document(), args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    g = _read_graph(args.graph)
    if g.n > args.max_n and not args.force:
        print(
            f"error: n={g.n} exceeds the guard --max-n {args.max_n}; pass --force to override",
            file=sys.stderr,
        )
        return EXIT_GUARD
    targets = _read_vertex_list(args.targets) if args.targets else None
    result = oracles.exact_min_dominating_set(g, targets, budget=args.budget)
    _emit(result.as_document(), args.out)
    return EXIT_GUARD if result.exceeded else EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    if args.witness:
        try:
            doc = json.loads(_read_text(args.witness))
            w = solvers.BicliqueWitness(tuple(doc["left"]), tuple(doc["right"]))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad witness file: {exc}") from None
        bad = [v for v in w.left + w.right if type(v) is not int]
        if bad:
            raise ParseError(f"bad witness file: expected vertex ids, got {bad[0]!r}")
        if solvers.verify_witness(g, w):
            print("OK")
            return EXIT_OK
        print("FAIL: not a complete bipartite subgraph")
        return EXIT_VALIDATION
    if not args.ds:
        raise ValidationError("verify needs --ds or --witness")
    ds = _read_vertex_list(args.ds)
    targets = _read_vertex_list(args.targets) if args.targets else None
    if is_dominating(g, ds, targets):
        print("OK")
        return EXIT_OK
    covered = 0
    for v in ds:
        covered |= g.closed_masks[v]
    tmask = g.full_mask if targets is None else mask_of(g, targets)
    missing = [v for v in range(g.n) if tmask >> v & 1 and not covered >> v & 1]
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
        if name not in ("classical", "fixed", "auto", "hybrid"):
            raise ValidationError(f"unknown algorithm {name!r}")
        if name == "fixed" and i is None:
            raise ValidationError("fixed requires an i, e.g. fixed:2")
        if name in ("classical", "auto") and i is not None:
            raise ValidationError(f"{name} takes no i parameter")
        out.append((name, i))
    return out


def _bench_instances(args) -> list[tuple[str, Graph | None, str]]:
    """(name, graph or None, error) triples in deterministic order."""
    instances: list[tuple[str, Graph | None, str]] = []
    if args.graphs:
        for path in sorted(Path(args.graphs).glob("*.gr")):
            try:
                instances.append((path.stem, _read_graph(str(path)), ""))
            except DomsetError as exc:
                instances.append((path.stem, None, str(exc)))
    for spec_text in args.gen or ():
        spec = generators.parse_genspec(spec_text)
        built = generators.build(spec)
        if not isinstance(built, Graph):
            raise ValidationError(f"genspec {spec_text!r} does not produce a graph")
        instances.append((spec.name(), built, ""))
    return instances


def cmd_bench(args) -> int:
    algos = _parse_algos(args.algos)
    records: list[BenchRecord] = []
    for name, g, err in _bench_instances(args):
        if g is None:
            records.extend(
                BenchRecord(graph_name=name, algorithm=a, i_param=i, error=err)
                for a, i in algos
            )
            continue
        opt: int | None = None
        if args.with_exact and g.n <= args.max_n:
            opt = oracles.exact_min_dominating_set(g).opt_size
        for algo, i in algos:
            try:
                start = time.perf_counter()
                result = _run_algorithm(g, algo, i)
                elapsed = int((time.perf_counter() - start) * 1e6)
                if not is_dominating(g, result.dominating_set):
                    raise ValidationError("result failed domination check")
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
                records.append(
                    BenchRecord(graph_name=name, n=g.n, m=g.m, algorithm=algo,
                                i_param=i, error=str(exc))
                )
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_reduce(args) -> int:
    sc = reduction.parse_set_cover(_read_text(args.setcover))
    ri = reduction.reduce_set_cover(sc)
    graph_text = serialize_graph(ri.graph)
    if args.out:
        Path(args.out).write_text(graph_text, encoding="utf-8")
    else:
        sys.stdout.write(graph_text)
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
    params = {}
    for key in ("n", "w", "h", "d", "universe_size", "set_count", "max_set_size"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.p is not None:
        params["p"] = args.p
    spec = generators.GenSpec(args.model, params, args.seed)
    built = generators.build(spec)
    if isinstance(built, Graph):
        text = serialize_graph(built)
    else:
        text = reduction.serialize_set_cover(built)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="domset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a greedy solver on a graph file")
    p.add_argument("graph")
    p.add_argument("--algo", required=True, choices=("classical", "fixed", "auto", "hybrid"))
    p.add_argument("--i", type=int, default=None, help="round cap parameter (fixed/hybrid)")
    p.add_argument("--targets", default=None, help="file of target vertex ids")
    p.add_argument("--out", default=None, help="write the result document here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="exact minimum dominating set (small graphs)")
    p.add_argument("graph")
    p.add_argument("--targets", default=None)
    p.add_argument("--budget", type=int, default=None, help="report 'exceeded' if optimum > budget")
    p.add_argument("--max-n", type=int, default=30, dest="max_n")
    p.add_argument("--force", action="store_true", help="ignore the --max-n guard")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="check a dominating set or biclique witness")
    p.add_argument("graph")
    p.add_argument("--ds", default=None, help="file of dominating-set vertex ids")
    p.add_argument("--targets", default=None)
    p.add_argument("--witness", default=None, help="JSON file with 'left'/'right' vertex lists")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run algorithms over instances, emit CSV")
    p.add_argument("--graphs", default=None, help="directory of *.gr files")
    p.add_argument("--gen", action="append", default=None, metavar="SPEC",
                   help="genspec like gnp:n=20,p=0.2,seed=7 (repeatable)")
    p.add_argument("--algos", required=True, help="e.g. classical,fixed:2,auto,hybrid")
    p.add_argument("--with-exact", action="store_true", dest="with_exact")
    p.add_argument("--max-n", type=int, default=30, dest="max_n",
                   help="oracle guard for --with-exact")
    p.add_argument("--timings", action="store_true",
                   help="fill elapsed_micros (breaks byte-for-byte determinism)")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("reduce", help="reduce an intersection-1 set cover to dominating set")
    p.add_argument("setcover", help="JSON file with 'universe' and 'sets'")
    p.add_argument("--out", default=None, help="graph output path")
    p.add_argument("--map", default=None, help="vertex-map JSON output path")
    p.add_argument("--check-free", action="store_true", dest="check_free",
                   help="verify the reduced graph has no K_3,3 subgraph")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate a graph or set-cover instance")
    p.add_argument("--model", required=True, choices=generators.GEN_MODELS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--universe-size", type=int, default=None, dest="universe_size")
    p.add_argument("--set-count", type=int, default=None, dest="set_count")
    p.add_argument("--max-set-size", type=int, default=None, dest="max_set_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RangeError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ResourceLimitError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
