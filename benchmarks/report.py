#!/usr/bin/env python3
"""Regenerate every experiment table for EXPERIMENTS.md.

Runs the same seeded workloads as the pytest-benchmark suite, but prints
compact paper-style tables (one per experiment id from DESIGN.md) with a
single timed run per point — the *shape* of each series is the reproduced
result.  Usage::

    python benchmarks/report.py                    # all experiments
    python benchmarks/report.py F1-conj F3         # a subset
    python benchmarks/report.py --json BENCH.json  # + metrics snapshots
    python benchmarks/report.py --baseline benchmarks/BENCH_baseline.json

``--baseline`` compares each experiment's wall time against a committed
``--json`` snapshot and exits 1 when any experiment above the noise
floor is more than ``--max-slowdown`` (default 2x) slower — the CI
benchmark smoke gate.

With ``--json`` every experiment runs under the observability layer
(:mod:`repro.obs`) and the output file records, per experiment id, the
counters, gauges, and histogram summaries the engines emitted — the
*work done* (CPDHB invocations, eliminations, cuts explored), not just
wall time.

Unless ``--no-ledger`` is passed (or ``REPRO_RUNS=off``), each report
run also appends one ``repro-run-v1`` record (``command: "bench"``,
per-experiment wall times in ``stats``) to the run ledger, so
``repro runs diff`` can compare benchmark runs across PRs — see
``docs/RUNS.md``.  The record is assembled after the timed loop from the
report's own measurements; experiments never run under ledger
instrumentation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Callable, Dict, List

from workloads import (
    arbitrary_walk_workload,
    chain_structured_group,
    conjunctive_workload,
    exponential_subset_sum,
    singular_workload,
    unit_walk_workload,
)

from repro.computation import count_consistent_cuts
from repro.detection import (
    definitely_sum,
    detect_by_chain_choice,
    detect_by_process_choice,
    detect_conjunctive,
    detect_special_case,
    possibly_enumerate,
    possibly_sum,
    possibly_sum_eq_exact,
    possibly_symmetric,
)
from repro.monitor import OnlineConjunctiveMonitor
from repro.predicates import (
    absence_of_simple_majority,
    exactly_k_tokens,
    exclusive_or,
    sum_predicate,
)
from repro.reductions import (
    dpll_solve,
    random_3cnf,
    satisfiability_to_detection,
    subset_sum_to_detection,
    to_nonmonotone_3cnf,
)
from repro.simulation.protocols import build_resource_pool
from repro.slicing import ConjunctiveSlice
from repro.trace import random_computation


def timed(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1000.0


def header(exp_id: str, claim: str) -> None:
    print(f"\n## {exp_id} — {claim}")


def row(*cells) -> None:
    print("  " + " | ".join(f"{c}" for c in cells))


def f1_conj() -> None:
    header("F1-conj", "conjunctive predicates are polynomial (CPDHB)")
    row("processes", "events", "holds", "time_ms")
    for n in (2, 4, 8, 16, 32):
        comp, pred = conjunctive_workload(n)
        result, ms = timed(detect_conjunctive, comp, pred)
        row(n, comp.total_events(), result.holds, f"{ms:.2f}")


def f1_sing_special() -> None:
    header(
        "F1-sing-special",
        "singular k-CNF is polynomial on receive-/send-ordered traces (CPDSC)",
    )
    row("groups", "ordering", "holds", "time_ms")
    for ordering in ("receive", "send"):
        for m in (2, 4, 8, 12):
            comp, pred = singular_workload(
                m, group_size=3, events_per_process=12, ordering=ordering
            )
            result, ms = timed(detect_special_case, comp, pred)
            row(m, ordering, result.holds, f"{ms:.2f}")


def f1_sing_general() -> None:
    header(
        "F1-sing-general",
        "general singular k-CNF: Section 3.3 engines vs lattice enumeration",
    )
    row("groups", "engine", "combinations/cuts", "holds", "time_ms")
    for m in (2, 3, 4, 5):
        comp, pred = singular_workload(m, 2, events_per_process=8)
        chain, ms_chain = timed(detect_by_chain_choice, comp, pred)
        row(m, "chain-choice", chain.stats["combinations"], chain.holds,
            f"{ms_chain:.2f}")
        proc, ms_proc = timed(detect_by_process_choice, comp, pred)
        row(m, "process-choice", proc.stats["combinations"], proc.holds,
            f"{ms_proc:.2f}")
    for m in (2, 3):
        comp, pred = singular_workload(m, 2, events_per_process=3)
        enum, ms_enum = timed(possibly_enumerate, comp, pred)
        row(m, "cooper-marzullo", enum.stats["cuts_explored"], enum.holds,
            f"{ms_enum:.2f}")


def f1_rel_ineq() -> None:
    header("F1-rel-ineq", "sum inequalities are polynomial via min-cut")
    row("processes", "regime", "bound", "time_ms")
    for n in (2, 4, 8, 16, 32):
        comp = unit_walk_workload(n)
        result, ms = timed(possibly_sum, comp, sum_predicate("v", "<=", 0))
        row(n, "±1 walks", result.stats["min_sum"], f"{ms:.2f}")
    for n in (2, 4, 8, 16, 32):
        comp = arbitrary_walk_workload(n)
        result, ms = timed(possibly_sum, comp, sum_predicate("v", ">=", 100))
        row(n, "arbitrary", result.stats["max_sum"], f"{ms:.2f}")


def f1_sum_eq_unit() -> None:
    header("F1-sum-eq-unit", "sum = k is polynomial under ±1 steps (Thm 7)")
    row("processes", "k", "holds", "min..max", "time_ms")
    for n in (2, 4, 8, 16, 32):
        comp = unit_walk_workload(n)
        pred = sum_predicate("v", "==", n // 2)
        result, ms = timed(possibly_sum, comp, pred)
        row(n, n // 2, result.holds,
            f"{result.stats['min_sum']}..{result.stats['max_sum']}",
            f"{ms:.2f}")
    row("definitely(sum = 0), small scale:", "", "", "", "")
    for n in (2, 3, 4):
        comp = unit_walk_workload(n, events_per_process=6)
        result, ms = timed(definitely_sum, comp, sum_predicate("v", "==", 0))
        row(n, 0, result.holds, "-", f"{ms:.2f}")


def f1_sum_eq_arbitrary() -> None:
    header(
        "F1-sum-eq-arb",
        "sum = k is NP-complete under arbitrary increments (Thm 2): "
        "exponential exact engine vs flat ±1 contrast",
    )
    row("elements", "engine", "reachable_sums", "time_ms")
    for n in (8, 10, 12, 14, 16, 18):
        comp, pred = subset_sum_to_detection(exponential_subset_sum(n))
        result, ms = timed(possibly_sum_eq_exact, comp, pred)
        row(n, "exact (sumset DP)", result.stats["achievable_sums"],
            f"{ms:.2f}")
    for n in (8, 10, 12, 14, 16, 18):
        comp = unit_walk_workload(n, events_per_process=16)
        result, ms = timed(possibly_sum, comp, sum_predicate("v", "==", 1))
        row(n, "±1 (Theorem 7)", "-", f"{ms:.2f}")


def f2() -> None:
    header("F2", "the paper's Figure 2 computation, validated")
    from repro.computation import ComputationBuilder, least_consistent_cut

    builder = ComputationBuilder(4)
    for p in range(4):
        builder.init_values(p, x=False)
    builder.internal(0, label="e", x=True)
    builder.send(1, label="f", x=True)
    builder.receive(2, label="g", x=True)
    builder.internal(3, label="h", x=True)
    builder.message("f", "g")
    comp = builder.build()
    labels = comp.label_index()
    e, f, g, h = labels["e"], labels["f"], labels["g"], labels["h"]
    row("fact", "value")
    row("e and h consistent", comp.pairwise_consistent(e, h))
    row("f happened-before g", comp.happened_before(f, g))
    row("e and h independent", comp.concurrent(e, h))
    row("f and g independent", comp.concurrent(f, g))
    row("consistent cuts", count_consistent_cuts(comp))
    row("cut through e and h",
        least_consistent_cut(comp, [e, h]).frontier)


def f3() -> None:
    header("F3", "Figure 3 reduction: SAT <=> possibly(B) on the gadget")
    row("clauses(src)", "clauses(nm)", "processes", "sat", "detected",
        "invocations", "time_ms")
    for nc in (4, 6, 8, 10):
        formula, _ = to_nonmonotone_3cnf(random_3cnf(max(4, nc), nc, seed=nc))
        instance = satisfiability_to_detection(formula)
        sat = dpll_solve(instance.formula) is not None
        result, ms = timed(
            detect_by_chain_choice, instance.computation, instance.predicate
        )
        assert result.holds == sat
        row(nc, len(instance.formula.clauses),
            instance.computation.num_processes, sat, result.holds,
            result.stats["invocations"], f"{ms:.2f}")


def t_sym() -> None:
    header("T-sym", "Section 4.3 symmetric predicates on a resource pool")
    workers, capacity = 8, 3
    comp = build_resource_pool(workers, capacity, rounds=3, seed=5)
    n = workers + 1
    row("predicate", "holds", "time_ms")
    for name, pred in (
        ("absence of simple majority", absence_of_simple_majority("busy", n)),
        (f"exactly {capacity} busy (saturation)",
         exactly_k_tokens("busy", n, capacity)),
        (f"exactly {capacity + 1} busy (over capacity)",
         exactly_k_tokens("busy", n, capacity + 1)),
        ("exclusive-or", exclusive_or("busy", n)),
    ):
        result, ms = timed(possibly_symmetric, comp, pred)
        row(name, result.holds, f"{ms:.2f}")


def t_lattice() -> None:
    header("T-lattice", "the combinatorial explosion (lattice size vs n)")
    row("processes", "consistent cuts", "time_ms")
    for n in (2, 3, 4, 5, 6):
        comp = random_computation(n, 4, 0.1, seed=13)
        count, ms = timed(count_consistent_cuts, comp)
        row(n, count, f"{ms:.2f}")


def t_chain() -> None:
    header(
        "T-chain",
        "ablation: chain-cover (c^m) vs process-choice (k^m) combinations",
    )
    row("groups", "chains/group", "satisfiable", "chain combos",
        "process combos", "speedup", "chain_ms", "process_ms")
    for satisfiable in (True, False):
        for m in (2, 4, 6, 8):
            for c in (1, 2):
                comp, pred = chain_structured_group(
                    m, 4, chains_per_group=c, satisfiable=satisfiable
                )
                chain, ms_chain = timed(detect_by_chain_choice, comp, pred)
                proc, ms_proc = timed(detect_by_process_choice, comp, pred)
                assert chain.holds == proc.holds == satisfiable
                row(m, c, satisfiable, chain.stats["combinations"],
                    proc.stats["combinations"],
                    f"{proc.stats['combinations'] / chain.stats['combinations']:.0f}x",
                    f"{ms_chain:.2f}", f"{ms_proc:.2f}")


def t_parallel() -> None:
    header(
        "T-parallel",
        "chain-choice sweep over the memoized causality index on the "
        "multi-combination singular k-CNF tier",
    )
    row("groups", "combos", "indexed_ms")
    for m in (6, 7):
        comp, pred = chain_structured_group(
            m, 4, chains_per_group=4, events_per_process=8,
            satisfiable=False,
        )
        serial, ms_serial = timed(detect_by_chain_choice, comp, pred)
        assert not serial.holds
        row(m, serial.stats["combinations"], f"{ms_serial:.1f}")


def t_slice() -> None:
    header("T-slice", "slicing vs filtering the lattice (satisfying cuts)")
    from repro.computation import iter_consistent_cuts
    from repro.predicates import conjunctive, local
    from repro.trace import BoolVar

    row("processes", "lattice", "satisfying", "slice_ms", "filter_ms")
    for n in (3, 4, 5):
        comp = random_computation(
            n, 5, 0.2, seed=29, variables=[BoolVar("x", 0.45)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(n)))
        slc = ConjunctiveSlice(comp, pred)
        count, ms_slice = timed(slc.count)
        total, ms_filter = timed(
            lambda: sum(
                1 for cut in iter_consistent_cuts(comp)
                if pred.evaluate(cut)
            )
        )
        lattice = count_consistent_cuts(comp)
        assert count == total
        row(n, lattice, count, f"{ms_slice:.2f}", f"{ms_filter:.2f}")


def t_definitely() -> None:
    header(
        "T-definitely",
        "ablation: interval-anchor vs lattice reachability for "
        "definitely(conjunctive)",
    )
    from repro.detection import definitely_conjunctive, definitely_enumerate
    from repro.predicates import conjunctive, local
    from repro.slicing import sliced_definitely_enumerate
    from repro.trace import BoolVar

    row("processes", "holds", "anchor_ms", "lattice cuts", "lattice_ms",
        "sliced cuts", "sliced_ms", "reduction")
    for n in (3, 4, 5, 6):
        comp = random_computation(
            n, 6, 0.25, seed=41, variables=[BoolVar("x", 0.5)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(n)))
        fast, ms_fast = timed(definitely_conjunctive, comp, pred)
        slow, ms_slow = timed(definitely_enumerate, comp, pred)
        sliced, ms_sliced = timed(sliced_definitely_enumerate, comp, pred)
        assert fast.holds == slow.holds == sliced.holds
        row(n, fast.holds, f"{ms_fast:.2f}",
            slow.stats.get("cuts_explored", "-"), f"{ms_slow:.2f}",
            sliced.stats.get("cuts_explored", "-"), f"{ms_sliced:.2f}",
            f"{sliced.stats.get('reduction', 1.0):.1f}x")


#: Replays per T-online stream: the reported time is their median, and
#: the experiment's wall time is spent in the monitor, not in building the
#: traces, so the --baseline gate sees a monitor regression.
ONLINE_REPLAYS = 25


def t_online() -> None:
    header("T-online", "streaming monitor replay throughput")
    from repro.computation import some_linearization
    from repro.trace import BoolVar

    row("processes", "observations", "fed", "detected", "median_ms",
        "obs/ms")
    for n in (4, 8, 16):
        comp = random_computation(
            n, 32, 0.2, seed=31, variables=[BoolVar("x", 0.3)]
        )
        order = some_linearization(comp)
        stream = []
        for p in range(n):
            ev = comp.initial_event(p)
            stream.append((p, 0, comp.clock(ev.event_id),
                           bool(ev.value("x", False))))
        for eid in order:
            ev = comp.event(eid)
            stream.append((eid[0], eid[1], comp.clock(eid),
                           bool(ev.value("x", False))))

        def replay():
            monitor = OnlineConjunctiveMonitor(n, range(n))
            fed = 0
            for item in stream:
                fed += 1
                if monitor.observe(*item):
                    break
            else:
                monitor.finish_all()
            return monitor, fed

        times = []
        for _ in range(ONLINE_REPLAYS):
            (monitor, fed), ms = timed(replay)
            times.append(ms)
        ms = statistics.median(times)
        row(n, len(stream), fed, monitor.detected, f"{ms:.3f}",
            f"{fed / max(ms, 0.001):.0f}")


def t_classify() -> None:
    header(
        "T-classify",
        "static classification of opaque conjunctive predicates: "
        "inference + fast engine vs raw lattice enumeration",
    )
    from repro.analysis.classify import classification_for, clear_cache, opaquify
    from repro.detection import detect, possibly_enumerate
    from workloads import conjunctive_workload

    row("processes", "events", "engine", "holds", "classify_ms",
        "dispatch_ms", "enumeration_ms", "speedup")
    calibration = (5, 8)
    for n, events in ((3, 6), (4, 8), calibration):
        comp, pred = conjunctive_workload(n, events_per_process=events)
        wrapped = opaquify(pred)
        clear_cache()
        # Cold: one full classification (parse + rewrite + differential
        # validation); dispatch then reuses the cached certificate.
        certificate, ms_classify = timed(classification_for, wrapped, comp)
        assert certificate is not None and certificate.validated
        inferred, ms_dispatch = timed(detect, comp, wrapped)
        assert inferred.algorithm.startswith("classify:")
        enum, ms_enum = timed(possibly_enumerate, comp, wrapped)
        assert inferred.holds == enum.holds
        speedup = ms_enum / (ms_classify + ms_dispatch)
        row(n, comp.total_events(), inferred.algorithm, inferred.holds,
            f"{ms_classify:.2f}", f"{ms_dispatch:.2f}", f"{ms_enum:.2f}",
            f"{speedup:.0f}x")
        if (n, events) == calibration:
            # The acceptance bounds: at calibration size the inferred
            # fast engine (classification cost included) beats raw
            # enumeration by >= 2x, and classification itself costs
            # less than half the enumeration it replaces.
            assert speedup >= 2.0, (
                f"inference+fast-engine speedup {speedup:.2f}x < 2x"
            )
            assert ms_classify < ms_enum / 2, (
                f"classification overhead {ms_classify:.1f}ms not bounded "
                f"by half of enumeration ({ms_enum:.1f}ms)"
            )


def t_service() -> None:
    header("T-service", "multi-session monitoring service under load")
    from bench_service_load import run_load

    row("sessions", "workers", "applied", "shed", "obs/s",
        "ttd_p50_ms", "ttd_p95_ms", "queue_hw")
    for sessions, workers in ((8, 2), (16, 4), (32, 4)):
        summary = run_load(
            sessions=sessions,
            workers=workers,
            events_per_process=16,
            queue_capacity=16,
            policy="degrade",
            seed=7,
        )
        assert summary["queue_bound_ok"], (
            "queue memory bound violated: high water "
            f"{summary['max_queue_high_water']} > capacity + controls"
        )
        row(
            sessions,
            workers,
            summary["applied"],
            summary["shed"],
            f"{summary['throughput_obs_per_s']:.0f}",
            f"{summary['ttd_p50_ms']:.1f}",
            f"{summary['ttd_p95_ms']:.1f}",
            summary["max_queue_high_water"],
        )


EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "F1-conj": f1_conj,
    "F1-sing-special": f1_sing_special,
    "F1-sing-general": f1_sing_general,
    "F1-rel-ineq": f1_rel_ineq,
    "F1-sum-eq-unit": f1_sum_eq_unit,
    "F1-sum-eq-arb": f1_sum_eq_arbitrary,
    "F2": f2,
    "F3": f3,
    "T-sym": t_sym,
    "T-lattice": t_lattice,
    "T-chain": t_chain,
    "T-parallel": t_parallel,
    "T-slice": t_slice,
    "T-definitely": t_definitely,
    "T-online": t_online,
    "T-classify": t_classify,
    "T-service": t_service,
}


#: Experiments faster than this in the baseline are skipped by the
#: regression gate: their timings are scheduler noise, not signal.
NOISE_FLOOR_MS = 20.0


def check_baseline(
    baseline_path: str,
    wall_times: Dict[str, float],
    max_slowdown: float,
) -> int:
    """Compare this run's wall times against a committed baseline.

    Returns the number of regressions (experiments slower than
    ``max_slowdown`` × their baseline time, baseline above the noise
    floor).
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)["experiments"]
    print(f"\n## Baseline comparison ({baseline_path}, "
          f"max slowdown {max_slowdown:.1f}x)")
    row("experiment", "baseline_ms", "current_ms", "ratio", "verdict")
    regressions = 0
    for exp_id, current_ms in wall_times.items():
        entry = baseline.get(exp_id)
        if entry is None:
            row(exp_id, "-", f"{current_ms:.1f}", "-", "no baseline")
            continue
        base_ms = entry["wall_time_ms"]
        ratio = current_ms / base_ms if base_ms > 0 else float("inf")
        if base_ms < NOISE_FLOOR_MS:
            row(exp_id, f"{base_ms:.1f}", f"{current_ms:.1f}",
                f"{ratio:.2f}", "skipped (noise floor)")
            continue
        if ratio > max_slowdown:
            regressions += 1
            row(exp_id, f"{base_ms:.1f}", f"{current_ms:.1f}",
                f"{ratio:.2f}", "REGRESSION")
        else:
            row(exp_id, f"{base_ms:.1f}", f"{current_ms:.1f}",
                f"{ratio:.2f}", "ok")
    return regressions


def append_ledger_record(
    ledger_flag: "str | None",
    argv: List[str],
    wanted: List[str],
    wall_times: Dict[str, float],
    regressions: int,
    exit_code: int,
    started_at: str,
    wall_ms: float,
    cpu_ms: float,
) -> None:
    """Record this benchmark run in the run ledger (see docs/RUNS.md)."""
    from repro.obs import ledger

    path = ledger.resolve_ledger_path(ledger_flag)
    if path is None:
        return
    stats: Dict[str, float] = {
        "experiments": len(wanted),
        "regressions": regressions,
    }
    for exp_id, ms in wall_times.items():
        stats[f"wall.{exp_id}"] = round(ms, 3)
    record = {
        "command": "bench",
        "argv": list(argv),
        "args_fingerprint": ledger.fingerprint_args("bench", argv),
        "started_at": started_at,
        "wall_ms": wall_ms,
        "cpu_ms": cpu_ms,
        "exit_code": exit_code,
        "verdict": "regressions" if regressions else "ok",
        "trace": None,
        "stats": stats,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": [],
        "extra": {},
    }
    try:
        full = ledger.append_record(path, record)
        print(f"\nappended run record {full['id']} to {path}")
    except OSError as exc:
        print(f"warning: could not append run record: {exc}", file=sys.stderr)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*", metavar="EXP_ID")
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write per-experiment metrics snapshots (counters, gauges, "
        "histogram summaries) as JSON",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="BENCH.json",
        help="compare wall times against a committed --json snapshot; "
        "exit 1 when any experiment exceeds --max-slowdown",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=2.0, metavar="RATIO",
        help="regression threshold for --baseline (default 2.0)",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="run-ledger path (default: $REPRO_RUNS or .repro/runs.jsonl; "
        "'off' disables)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not append a run record to the ledger",
    )
    args = parser.parse_args(argv)
    wanted = args.experiments or list(EXPERIMENTS)
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"known: {list(EXPERIMENTS)}", file=sys.stderr)
        return 2
    started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    run_wall_start = time.perf_counter()
    run_cpu_start = time.process_time()
    print("# Experiment report (regenerated)")
    metrics: Dict[str, Dict] = {}
    wall_times: Dict[str, float] = {}
    for exp_id in wanted:
        if args.json_path is not None:
            from repro import obs

            start = time.perf_counter()
            with obs.Capture() as cap:
                EXPERIMENTS[exp_id]()
            wall_times[exp_id] = (time.perf_counter() - start) * 1000.0
            metrics[exp_id] = {
                "wall_time_ms": wall_times[exp_id],
                "metrics": cap.registry.snapshot(),
            }
        else:
            start = time.perf_counter()
            EXPERIMENTS[exp_id]()
            wall_times[exp_id] = (time.perf_counter() - start) * 1000.0
    if args.json_path is not None:
        with open(args.json_path, "w") as handle:
            json.dump({"experiments": metrics}, handle, indent=2)
        print(f"\nwrote metrics snapshots to {args.json_path}")
    regressions = 0
    if args.baseline is not None:
        regressions = check_baseline(
            args.baseline, wall_times, args.max_slowdown
        )
    code = 1 if regressions else 0
    if not args.no_ledger:
        append_ledger_record(
            args.ledger, argv, wanted, wall_times, regressions, code,
            started_at,
            wall_ms=(time.perf_counter() - run_wall_start) * 1000.0,
            cpu_ms=(time.process_time() - run_cpu_start) * 1000.0,
        )
    if regressions:
        print(f"\n{regressions} experiment(s) regressed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
