"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or look at captured output).

The shared 1000-instance seeded mix lives in helpers.build_validity_suite;
exact optima come from the branch-and-bound oracle, with independent
brute-force cross-checks where the criterion calls for them.
"""

import math
import time
from itertools import combinations

import pytest

from helpers import brute_min_dominating, brute_min_set_cover, enumerate_min_dominating_sets

from domset.cli import main as cli_main
from domset.generators import gen_intersection_one, gen_random_tree
from domset.graph import Graph, is_dominating
from domset.oracles import exact_min_dominating_set, harmonic, has_biclique
from domset.reduction import map_solution_back, reduce_set_cover
from domset.solvers import (
    solve_auto,
    solve_classical,
    solve_fixed_i,
    solve_hybrid,
    verify_witness,
)

ALGO_RUNNERS = {
    "classical": solve_classical,
    "fixed2": lambda g: solve_fixed_i(g, 2),
    "fixed3": lambda g: solve_fixed_i(g, 3),
    "fixed4": lambda g: solve_fixed_i(g, 4),
    "auto": solve_auto,
    "hybrid": solve_hybrid,
}


@pytest.fixture(scope="session")
def suite_runs(validity_suite):
    """All six algorithms over all 1000 instances, with validity checked
    inside the timed section."""
    start = time.perf_counter()
    runs = {}
    violations = []
    for name, g in validity_suite:
        per_algo = {}
        for algo, runner in ALGO_RUNNERS.items():
            result = runner(g)
            if not is_dominating(g, result.dominating_set):
                violations.append((name, algo))
            per_algo[algo] = result
        runs[name] = per_algo
    elapsed = time.perf_counter() - start
    return runs, elapsed, violations


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {label}: {status} - {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


class TestAcceptance:
    def test_criterion_1_validity_suite(self, validity_suite, suite_runs):
        runs, elapsed, violations = suite_runs
        ok = not violations and elapsed < 10.0 and len(validity_suite) == 1000
        report(
            1,
            "validity suite",
            ok,
            f"{len(validity_suite)} instances x {len(ALGO_RUNNERS)} algorithms in "
            f"{elapsed:.2f}s (< 10s), {len(violations)} domination failures",
        )

    def test_criterion_2_classical_harmonic_bound(self, validity_suite, suite_runs, suite_optima):
        runs, _, _ = suite_runs
        checked = 0
        violations = []
        for name, g in validity_suite:
            if g.n > 20:
                continue
            checked += 1
            opt = suite_optima(name, g)
            size = len(runs[name]["classical"].dominating_set)
            if size > harmonic(g.n) * opt + 1e-9:
                violations.append((name, size, opt))
        report(
            2,
            "classical H_n bound",
            checked > 0 and not violations,
            f"{checked} instances with n <= 20, {len(violations)} violations",
        )

    def test_criterion_3_chained_greedy_size_bound(self, validity_suite, suite_runs, suite_optima):
        runs, _, _ = suite_runs
        checked = 0
        violations = []
        for name, g in validity_suite:
            if g.n > 25:
                continue
            if name.startswith("random_tree"):
                j = 2
            elif name.startswith("grid"):
                j = 3
            else:
                continue
            checked += 1
            i = 2
            k = suite_optima(name, g)
            size = len(runs[name]["fixed2"].dominating_set)
            bound = i * k + i * k * math.log(min(g.n, (k ** i) * (j + i))) + i
            if size > bound + 1e-9:
                violations.append((name, size, bound))
        report(
            3,
            "chained-greedy size bound (trees j=2, grids j=3, i=2)",
            checked > 0 and not violations,
            f"{checked} instances with n <= 25, {len(violations)} violations",
        )

    def test_criterion_4_first_round_hits_every_optimum(self):
        start = time.perf_counter()
        qualifying = 0
        counterexamples = []
        for seed in range(200):
            n = 2 + seed % 15
            g = gen_random_tree(n, seed)
            k = exact_min_dominating_set(g).opt_size
            if n < 4 * k * k:
                continue
            qualifying += 1
            first_round = set(solve_fixed_i(g, 2).trace.rounds[0].chosen)
            for m in enumerate_min_dominating_sets(g):
                if not first_round & set(m):
                    counterexamples.append((seed, m))
        elapsed = time.perf_counter() - start
        ok = qualifying > 0 and not counterexamples and elapsed < 60.0
        report(
            4,
            "first round intersects every minimum dominating set",
            ok,
            f"{qualifying}/200 qualifying trees, {len(counterexamples)} counterexamples, "
            f"{elapsed:.2f}s (< 60s)",
        )

    def test_criterion_5_hybrid_never_worse_than_classical(self, validity_suite, suite_runs):
        runs, _, _ = suite_runs
        violations = [
            name
            for name, _ in validity_suite
            if len(runs[name]["hybrid"].dominating_set)
            > len(runs[name]["classical"].dominating_set)
        ]
        report(
            5,
            "hybrid dominance",
            not violations,
            f"{len(validity_suite)} instances, {len(violations)} violations",
        )

    def test_criterion_6_auto_witness_soundness(self, validity_suite, suite_runs):
        runs, _, _ = suite_runs
        with_witness = 0
        independent = 0
        violations = []
        for name, g in validity_suite:
            result = runs[name]["auto"]
            if result.witness is None:
                continue
            with_witness += 1
            w = result.witness
            side = result.t_detected - 1
            if not verify_witness(g, w) or len(w.left) != side or len(w.right) != side:
                violations.append(name)
                continue
            if g.n <= 14:
                independent += 1
                if has_biclique(g, side, side) is None:
                    violations.append(name)
        report(
            6,
            "auto witness soundness",
            with_witness > 0 and independent > 0 and not violations,
            f"{with_witness} witnesses verified, {independent} confirmed independently, "
            f"{len(violations)} violations",
        )

    def test_criterion_7_reduction_correctness(self):
        start = time.perf_counter()
        instances = []
        seed = 0
        while len(instances) < 100:
            sc = gen_intersection_one(4 + seed % 9, 2 + seed % 4, 2 + seed % 3, seed)
            seed += 1
            if len(sc.sets) <= 8 and len(sc.universe) <= 12:
                instances.append(sc)
        failures = []
        for idx, sc in enumerate(instances):
            ri = reduce_set_cover(sc)
            oracle = exact_min_dominating_set(ri.graph)
            gamma = oracle.opt_size
            min_cover = brute_min_set_cover(sc)
            if gamma != min_cover + 1:
                failures.append((idx, "optimum correspondence"))
            if has_biclique(ri.graph, 3, 3) is not None:
                failures.append((idx, "K_33 found"))
            cover = map_solution_back(ri, oracle.witness_set)
            covered = set()
            for s in cover:
                covered.update(sc.sets[s])
            if covered != set(sc.universe) or len(cover) != gamma - 1:
                failures.append((idx, "mapped cover"))
        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 60.0
        report(
            7,
            "set-cover reduction",
            ok,
            f"100 instances, {len(failures)} failures, {elapsed:.2f}s (< 60s)",
        )

    def test_criterion_8_bench_determinism(self, tmp_path):
        args = [
            "bench",
            "--gen", "gnp:n=24,p=0.2,seed=3",
            "--gen", "grid:w=4,h=4",
            "--gen", "random_tree:n=30,seed=5",
            "--gen", "d_degenerate:n=24,d=2,seed=7",
            "--algos", "classical,fixed:2,fixed:3,auto,hybrid",
            "--with-exact",
        ]
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        identical = out1.read_bytes() == out2.read_bytes()
        report(
            8,
            "bench CSV determinism",
            identical,
            f"two runs, {out1.stat().st_size} bytes each, byte-identical: {identical}",
        )

    def test_criterion_9_oracle_self_check(self):
        checked = 0
        mismatches = []
        for n in range(0, 6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph(n, [pairs[b] for b in range(len(pairs)) if bits >> b & 1])
                checked += 1
                expect, _ = brute_min_dominating(g)
                got = exact_min_dominating_set(g)
                if got.opt_size != expect:
                    mismatches.append((n, bits))
                elif got.witness_set is not None and not is_dominating(g, got.witness_set):
                    mismatches.append((n, bits))
        report(
            9,
            "oracle matches naive brute force on all labeled graphs n <= 5",
            checked == 1100 and not mismatches,
            f"{checked} graphs, {len(mismatches)} mismatches",
        )
