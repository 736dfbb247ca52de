#!/usr/bin/env python3
"""Closed-loop benchmark of the domset command line.

One client, one process, no threads: each op is one `domset.cli.main`
call (`solve`, `exact` or `reduce`) on a generated input file, and the
next op starts only after the previous one returned. The op list of a
workload is run pass after pass until `--seconds` have passed; every op
is timed end to end and its outputs are checked outside the timed
region (see workloads.check and the golden digests).

    python3 perfbench/run.py --workload exact_check --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports `src/domset` from there.
`--trace 0` prints the end-to-end metrics; `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed as speeds  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = HERE / "golden.json"
SETUPS = 5  # cold set-ups per untraced run; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "graph.parse_graph.self_s": "s",
    "graph.Graph.s": "s",
    "graph.validate.s": "s",
    "graph.Graph.peak_kib": "KiB",
    "solvers.solve_classical.s": "s",
    "solvers.solve_fixed_i.s": "s",
    "solvers.solve_auto.s": "s",
    "solvers.picks": "count",
    "solvers.rounds": "count",
    "solvers.us_per_pick": "us",
    "solvers.solve_hybrid.self_s": "s",
    "solvers.hybrid_prefixes": "count",
    "solvers.solve_hybrid.ms_per_prefix": "ms",
    "solvers.as_document.s": "s",
    "oracles.exact_min_dominating_set.self_s": "s",
    "oracles.nodes": "count",
    "oracles.us_per_node": "us",
    "oracles.has_biclique.s": "s",
    "reduction.parse_set_cover.s": "s",
    "reduction.reduce_set_cover.s": "s",
    "generators.build.s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_domset(src: Path) -> SimpleNamespace:
    """Import domset afresh from `src`, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "domset" or m.startswith("domset.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("domset")
    if Path(pkg.__file__).resolve().parent != (src / "domset").resolve():
        raise ImportError(f"domset imported from {pkg.__file__}, not from {src}")
    mods = {short: importlib.import_module(f"domset.{short}")
            for short in tracing.LAYER_MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


def environment(mods) -> dict:
    """What a result depends on besides the code: runs on different
    kernel backends are not comparable."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "DOMSET_KERNEL": os.environ.get("DOMSET_KERNEL", ""),
        # KERNEL_BACKEND goes away with the compiled kernels
        "backend": getattr(mods.pkg, "KERNEL_BACKEND", "python"),
    }


def setup(src: Path, workload: str, seed: int, smoke: bool, work: Path, tracer):
    """Import, generate every input and write it out. Returns the fresh
    modules and the op list."""
    mods = import_domset(src)
    if tracer is not None:
        tracer.install(mods)
        tracer.op = "setup"
    try:
        ops = workloads.build_inputs(mods, workload, seed, smoke, work)
    finally:
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    return mods, ops


def cold_setup(root: Path, workload: str, seed: int, smoke: bool,
               work: Path) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the end of its set-up:
    interpreter start, imports, generation and writing the inputs. The
    child prints its CLOCK_MONOTONIC readings, which are system-wide.
    Returns the measured seconds and their scale to the nominal speed.
    The scale comes from reference kernel runs in the child, before and
    after it generates the inputs (their time is left out): the child
    may run on another CPU than this process, at another speed."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", str(work),
            "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    if smoke:
        argv.append("--smoke")
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=120, check=True)
    imported, resumed, end, kernel_s = map(float, proc.stdout.split()[-4:])
    return (imported - start) + (end - resumed), speeds.REF_S / kernel_s


def run_pass(mods, ops, reference, tracer, pass_no, speed):
    """Run every op once. Returns per-op latencies (s) with their start
    times, digests and failures; checks, file clean-up and the reference
    kernel stay outside the timed region."""
    latencies, starts, digests, failures, optima = [], [], [], [], {}
    main = mods.cli.main
    for k, op in enumerate(ops):
        for path in op.outputs:
            path.unlink(missing_ok=True)
        speed.due()
        out, err = io.StringIO(), io.StringIO()
        reason = None
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is not None:
                tracer.op = f"{pass_no}:{k}"
            start = time.perf_counter()
            try:
                code = main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed op, not a failed run
                code, reason = None, f"raised {exc!r}"
            latencies.append(time.perf_counter() - start)
            starts.append(start)
            if tracer is not None:
                tracer.op = None
        digest = None
        if reason is None and code != 0:
            reason = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if reason is None:
            try:
                blobs = [path.read_bytes() for path in op.outputs]
                digest = workloads.digest(out.getvalue(), blobs)
                if reference is not None and digest != reference[k]:
                    reason = "output digest differs from the reference"
                else:
                    reason = workloads.check(mods, op, out.getvalue(), blobs, optima)
            except Exception as exc:  # malformed output is a failed op
                reason = f"check raised {exc!r}"
        digests.append(digest)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return SimpleNamespace(latencies=latencies, starts=starts, digests=digests,
                           failures=failures)


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 values beyond it,
    and that percentile. With 20 values or fewer that percentile would lie
    at or below the median, so the maximum stands in."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 20 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def times(per_op: list[float], setups: list[float]) -> dict:
    tail_s, _ = tail(per_op)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail_s,
    }


def end_to_end(passes, setup_times, speed) -> tuple[dict, dict]:
    """Each op's latency is its median over the passes, at the nominal
    speed of speed.py; wall_s is the op list's total of those. setup_s
    is the median of the cold set-ups, at the nominal speed as well.
    The same figures as measured, unscaled, go into the notes."""
    scaled = [[lat * speed.scale(start, start + lat) for lat, start in zip(p.latencies, p.starts)]
              for p in passes]
    per_op = [statistics.median(lats) for lats in zip(*scaled)]
    raw_op = [statistics.median(lats) for lats in zip(*(p.latencies for p in passes))]
    metrics = times(per_op, [s * sc for s, sc in setup_times])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _, tail_pct = tail(per_op)
    notes = {"op_samples": len(per_op), "op_tail_percentile": round(tail_pct, 1),
             "measured": times(raw_op, [s for s, _ in setup_times]),
             "kernel_ms": 1e3 * statistics.median(speed.samples)}
    return metrics, notes


def per_layer(tracer, traced, untraced, setup_span, prefixes, peak_kib) -> tuple[dict, dict]:
    """Median over traced passes of each layer metric."""
    rows = []
    for p in traced:
        total, own = tracing.layer_times(tracer.spans, p.first_span, p.last_span)
        picks = rounds = nodes = 0
        for s in tracer.spans[p.first_span:p.last_span]:
            result = s[tracing.RESULT]
            if result is None:
                continue
            if s[tracing.NAME].startswith("oracles."):
                nodes += result.node_count
            else:
                rounds += len(result.trace.rounds)
                picks += sum(len(r.chosen) for r in result.trace.rounds)
        greedy = sum(total[f"solvers.{f}"] for f in ("solve_classical", "solve_fixed_i", "solve_auto"))
        hybrid = own["solvers.solve_hybrid"]
        oracle = own["oracles.exact_min_dominating_set"]
        rows.append({
            "cli.main.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
            "graph.parse_graph.self_s": own["graph.parse_graph"],
            "graph.Graph.s": total["graph.Graph"],
            "graph.validate.s": total["graph.validate"],
            "solvers.solve_classical.s": total["solvers.solve_classical"],
            "solvers.solve_fixed_i.s": total["solvers.solve_fixed_i"],
            "solvers.solve_auto.s": total["solvers.solve_auto"],
            "solvers.picks": picks,
            "solvers.rounds": rounds,
            "solvers.us_per_pick": 1e6 * greedy / picks if picks else 0.0,
            "solvers.solve_hybrid.self_s": hybrid,
            "solvers.solve_hybrid.ms_per_prefix": 1e3 * hybrid / prefixes if prefixes else 0.0,
            "solvers.as_document.s": total["solvers.as_document"],
            "oracles.exact_min_dominating_set.self_s": oracle,
            "oracles.nodes": nodes,
            "oracles.us_per_node": 1e6 * oracle / nodes if nodes else 0.0,
            "oracles.has_biclique.s": total["oracles.has_biclique"],
            "reduction.parse_set_cover.s": total["reduction.parse_set_cover"],
            "reduction.reduce_set_cover.s": total["reduction.reduce_set_cover"],
            "_own": own,
            "_wall": sum(p.latencies),
        })
    metrics = {name: statistics.median(r[name] for r in rows)
               for name in rows[0] if not name.startswith("_")}
    metrics["solvers.hybrid_prefixes"] = prefixes
    metrics["graph.Graph.peak_kib"] = peak_kib
    metrics["generators.build.s"] = tracing.layer_times(tracer.spans, *setup_span)[0]["generators.build"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["_wall"] for r in rows)
        / statistics.median(sum(p.latencies) for p in untraced))
    # Share of traced op time by layer self time, to show which layer dominates.
    wall = sum(r["_wall"] for r in rows)
    own_sum: dict[str, float] = {}
    for r in rows:
        for k, v in r["_own"].items():
            own_sum[k] = own_sum.get(k, 0.0) + v
    shares = sorted(((v / wall, k) for k, v in own_sum.items()), reverse=True)[:6]
    notes = {"self_time_share": {k: round(v, 3) for v, k in shares}}
    notes["count_failures"] = [f"{name} differs between traced passes"
                               for name in ("solvers.picks", "solvers.rounds", "oracles.nodes")
                               if len({r[name] for r in rows}) != 1]
    return metrics, notes


def graph_peak_kib(mods, ops) -> float:
    """tracemalloc peak while building the largest input graph."""
    g = max((op.inst.graph for op in ops), key=lambda g: (g.n + g.m, g.n))
    edges = g.edges()
    tracemalloc.start()
    try:
        mods.graph.Graph(g.n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024


def load_golden(smoke: bool, workload: str, seed: int) -> list[str] | None:
    table = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    digests = table.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(seed))
    return None if digests is None else digests.split()


def save_golden(smoke: bool, workload: str, seed: int, digests: list[str]) -> None:
    table = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    table.setdefault("smoke" if smoke else "full", {}).setdefault(workload, {})[str(seed)] = " ".join(digests)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, golden: list[str] | None = None, after_setup=None,
        write_golden: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object
    plus `env` and `notes`. `golden` overrides the committed digests and
    `after_setup(mods)` may patch the fresh modules; both are for tests."""
    src = root / "src"
    if not (src / "domset" / "__init__.py").is_file():
        raise FileNotFoundError(f"no domset sources under {src}")
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        tracer = tracing.Tracer() if trace else None
        speed = speeds.Speed()
        mods, ops = setup(src, workload, seed, smoke, work, tracer)
        setup_span = (0, len(tracer.spans) if tracer else 0)
        # setup_s needs cold interpreters, so it comes from child processes.
        # They run between passes, spread evenly over the run, so that they
        # do not all fall into one slow spell of the machine.
        cold, cold_dir = not trace, work / "cold"
        setup_times = []
        if after_setup is not None:
            after_setup(mods)
        if golden is None and not write_golden:
            golden = load_golden(smoke, workload, seed)
        reference = golden
        golden_checked = reference is not None
        if reference is not None and len(reference) != len(ops):
            raise ValueError("golden digests do not match the op list")

        passes, traced, untraced = [], [], []
        begin = time.perf_counter()
        deadline = begin + seconds
        while True:
            tracing_on = trace and len(passes) % 2 == 1
            if tracing_on:
                tracer.install(mods)
            first = len(tracer.spans) if tracer else 0
            try:
                p = run_pass(mods, ops, reference, tracer if tracing_on else None,
                             len(passes), speed)
            finally:
                if tracing_on:
                    tracer.uninstall()
            p.first_span, p.last_span = first, len(tracer.spans) if tracer else 0
            if reference is None:
                reference = p.digests  # later passes must repeat the first
            passes.append(p)
            (traced if tracing_on else untraced).append(p)
            if write_golden:
                break
            due = SETUPS * (time.perf_counter() - begin) / seconds if seconds > 0 else SETUPS
            while cold and len(setup_times) < min(SETUPS, math.ceil(due)):
                setup_times.append(cold_setup(root, workload, seed, smoke, cold_dir))
            if time.perf_counter() >= deadline and (traced or not trace):
                break
        speed.sample()  # so that the last ops have kernel runs after them too
        while cold and len(setup_times) < SETUPS:
            setup_times.append(cold_setup(root, workload, seed, smoke, cold_dir))

        failures = [f for p in passes for f in p.failures]
        if write_golden and not failures:
            save_golden(smoke, workload, seed, p.digests)
        if trace:
            metrics, notes = per_layer(tracer, traced, untraced, setup_span,
                                       workloads.hybrid_prefixes(mods, ops),
                                       graph_peak_kib(mods, ops))
            tracer.write(scratch / f"spans-{workload}-{seed}.jsonl")
            failures += notes.pop("count_failures")
            units = PER_LAYER
        else:
            metrics, notes = end_to_end(passes, setup_times, speed)
            units = END_TO_END
        attempted = len(ops) * len(passes)
        notes.update(passes=len(passes), ops_per_pass=len(ops), golden_checked=golden_checked,
                     fail_ratio=len(failures) / attempted, failures=failures[:20])
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            "env": environment(mods),
            "notes": notes,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    ap.add_argument("--record", default=None,
                    help="append the full result, with env and notes, to this JSON-lines file")
    ap.add_argument("--write-golden", action="store_true",
                    help="run one pass and store its output digests as the golden ones")
    ap.add_argument("--setup-only", metavar="DIR", default=None,
                    help="only set up into DIR; print CLOCK_MONOTONIC readings and "
                         "the reference kernel's time")
    args = ap.parse_args(argv)
    if args.setup_only:
        work = Path(args.setup_only)
        work.mkdir(parents=True, exist_ok=True)
        mods = import_domset(Path.cwd() / "src")
        imported = time.monotonic()
        speed = speeds.Speed()
        for _ in range(speeds.SIDE):
            speed.sample()
        resumed = time.monotonic()
        workloads.build_inputs(mods, args.workload, args.seed, args.smoke, work)
        end = time.monotonic()
        for _ in range(speeds.SIDE):
            speed.sample()
        print(imported, resumed, end, statistics.median(speed.samples))
        return 0
    try:
        result = run(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace),
                     smoke=args.smoke, write_golden=args.write_golden)
    except (FileNotFoundError, ImportError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    notes = result["notes"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={notes['passes']} ops/pass={notes['ops_per_pass']} "
          f"golden={'committed' if notes['golden_checked'] else 'first pass'}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {notes['fail_ratio']:.6g} ratio ({result['failed']}/{result['attempted']})")
    if "op_samples" in notes:
        print(f"op_tail_ms is p{notes['op_tail_percentile']} over {notes['op_samples']} ops; "
              f"op_p50_ms over {notes['op_samples']} ops (each op's median pass)")
        print(f"times above are at the nominal speed: reference kernel {speeds.REF_S * 1e3:g} ms; "
              f"it took {notes['kernel_ms']:.4g} ms here, and as measured the times were:")
        for name, value in notes["measured"].items():
            print(f"  measured {name} {value:.6g} {END_TO_END[name]}")
    if "self_time_share" in notes:
        print("self_time_share " + json.dumps(notes["self_time_share"]))
    for failure in notes["failures"]:
        print(f"FAILED {failure}")
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result}) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
