#!/usr/bin/env python3
"""Summarise and compare benchmark records.

Records are the JSON lines `run.py --record FILE` appends, one per run.

    python3 perfbench/compare.py summary runs.jsonl [--out baseline.json]
    python3 perfbench/compare.py diff parent.jsonl change.jsonl

`summary` prints, per workload and metric, the median and quartiles of
the runs and the spread (quartile distance over median) against the
metric's bound in BENCHMARK.json. `diff` compares the medians of two
sets of runs metric by metric: worse by more than the bound is a
regression; a spread wider than the bound leaves the metric unresolved
unless every run of the change beats every run of the parent. Records
whose kernel backends differ are never compared (exit 2).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> dict:
    """{(workload, metric): [values]}, the kernel backend and the
    environment of the first record."""
    values = defaultdict(list)
    backends = set()
    env = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        env = env or rec["env"]
        backends.add(rec["env"]["backend"])
        for name, m in rec["metrics"].items():
            values[(rec["workload"], name)].append(m["value"])
    if len(backends) > 1:
        sys.exit(f"{path}: records from different kernel backends {sorted(backends)}")
    return {"values": values, "backend": backends.pop() if backends else None, "env": env}


def stats(vals: list[float]) -> dict:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals),
            "spread": (q3 - q1) / med if med else 0.0}


def summary(args) -> int:
    data = load(args.records)
    out, worst = {}, 0.0
    print(f"{'workload':14s} {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} spread  bound")
    for (workload, name), vals in sorted(data["values"].items()):
        s = stats(vals)
        bound = METRICS[name].get("bound")
        flag = ""
        if bound is not None:
            worst = max(worst, s["spread"] / bound)
            flag = " OVER" if s["spread"] > bound else (" >1/3" if s["spread"] > bound / 3 else "")
        print(f"{workload:14s} {name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:6.3f} {bound if bound is not None else '':>5}{flag}")
        out.setdefault(workload, {})[name] = {"unit": METRICS[name]["unit"], **s}
    print(f"largest spread/bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"env": data["env"], "workloads": out},
                                             indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def diff(args) -> int:
    base, new = load(args.parent), load(args.change)
    if base["backend"] != new["backend"]:
        print(f"refused: parent ran on backend {base['backend']!r}, "
              f"change on {new['backend']!r}", file=sys.stderr)
        return 2
    regressions = 0
    for key in sorted(base["values"].keys() & new["values"].keys()):
        workload, name = key
        bound = METRICS[name].get("bound")
        if bound is None:
            continue
        b, c = base["values"][key], new["values"][key]
        sb, sc = stats(b), stats(c)
        sign = 1 if METRICS[name]["better"] == "lower" else -1
        worse = sign * (sc["median"] - sb["median"]) / sb["median"]
        all_better = max(c) < min(b) if sign > 0 else min(c) > max(b)
        if worse > bound:
            verdict = "REGRESSION"
            regressions += 1
        elif max(sb["spread"], sc["spread"]) > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"{workload:14s} {name:14s} parent {sb['median']:.6g} change {sc['median']:.6g} "
              f"worse by {worse:+.3f} (bound {bound}) {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("summary")
    p.add_argument("records")
    p.add_argument("--out", default=None, help="write the summary as a baseline JSON file")
    p.set_defaults(func=summary)
    p = sub.add_parser("diff")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=diff)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
