"""Detection benchmark: time to verdict on a large trace, a predicate-class
mix, and lattice enumeration.

Run from the repository root::

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``large-trace``, ``query-mix``, ``lattice`` (see
``workloads.py`` for why each exists).  The benchmark generates the
workload's traces from ``--seed`` into a scratch directory, fixes the
expected verdicts, measures the workload in a fresh child process
(``child.py``) with one closed-loop client, checks every answer with its
own checker (``oracle.py``), and prints a table followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones of ``layers.py``, and the program's own
counter snapshot is printed beside the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from layers import LAYERS, per_layer_names  # noqa: E402
from workloads import POSSIBLY, WORKLOADS, Plan, build  # noqa: E402

#: Every run, set-up and checks included, ends within this many seconds.
DEADLINE_S = 175

END_TO_END_UNITS = {
    "setup_s": "s",
    "detect_ms_p50": "ms",
    "detect_ms_p90": "ms",
    "queries_per_s": "1/s",
    "cli_detect_s": "s",
    "peak_rss_mb": "MB",
    "monitor_obs_per_s": "1/s",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check(plan: Plan, answers: list, errors: List[str]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over every answer the child saw."""
    attempted = len(errors)
    failed = len(errors)
    problems = list(errors)
    for record, count in answers:
        attempted += count
        problem = _problem(plan, record)
        if problem:
            failed += count
            problems.append(problem)
    return attempted, failed, problems


def _problem(plan: Plan, record: list) -> Optional[str]:
    if record[0] == "monitor":
        _, k, detected, processed = record
        spec = plan.monitors[k]
        if detected != spec["expected"]:
            return f"monitor {k}: detected={detected}, expected {spec['expected']}"
        if not detected and processed != spec["observations"]:
            return f"monitor {k}: processed {processed} of {spec['observations']}"
        return None
    source, qid, holds, witness, algorithm = record
    query = plan.queries[qid]
    where = f"{source} query {qid} ({query['modality']} {query['source']}, {algorithm})"
    if holds != query["expected"]:
        return f"{where}: holds={holds}, expected {query['expected']}"
    if holds and query["modality"] == POSSIBLY:
        raw = plan.raw[query["trace"]]
        if witness is None:
            return f"{where}: no witness cut"
        if not raw.consistent(witness):
            return f"{where}: witness {witness} is not a consistent cut"
        if not plan.exprs[qid].holds(raw.cut(witness)):
            return f"{where}: predicate is false at witness {witness}"
    return None


def end_to_end(timings: dict, observations: List[int]) -> Dict[str, float]:
    """The end-to-end metrics of one run, from scaled step times.

    Every step is scaled to the reference speed of the calibration loop
    (see ``child.py``): on a shared machine other tenants slow everything
    down by up to about 2x, for stretches from a second to many minutes,
    and the loop timed next to each step tracks that speed.  Every query is
    timed many times over the run, and its latency is the median of its
    scaled samples; the percentiles and the throughput are taken over those
    per-query latencies.  Monitor chunks, CLI calls and trace-set loads are
    medians of their scaled samples the same way.
    """
    latencies_ms = [row[1] * 1000.0 for row in timings["query"].values()]
    chunks = timings["monitor"].values()
    return {
        "setup_s": timings["setup"]["setup"][1],
        "detect_ms_p50": statistics.median(latencies_ms),
        "detect_ms_p90": statistics.quantiles(latencies_ms, n=10)[8],
        "queries_per_s": len(latencies_ms) / (sum(latencies_ms) / 1000.0),
        "cli_detect_s": timings["cli"]["cli"][1],
        "monitor_obs_per_s": sum(observations) / sum(row[1] for row in chunks),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name in ("slicing.explored_share", "obs.overhead_ratio"):
        return "ratio"
    return "count"


def _total(table: Dict[str, Optional[float]], names: Tuple[str, ...]) -> float:
    return sum(table.get(name) or 0.0 for name in names)


def print_layers(
    table: Dict[str, Optional[float]], counters: Optional[dict], cli_s: float
) -> None:
    print(f"{'layer':<26}{'metric':<36}{'value':>14}  should move")
    for layer, metrics, moves in LAYERS:
        for k, name in enumerate(metrics):
            value = table.get(name)
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"{layer if k == 0 else '':<26}{name:<36}{shown:>14}  "
                  f"{moves if k == 0 else ''}")
    print("plan mix:", ", ".join(
        f"{name[len('detection.algo.'):]}={int(value)}"
        for name, value in table.items()
        if name.startswith("detection.algo.") and value
    ))
    ingest = _total(table, ("trace.read_json_s", "trace.decode_s",
                            "computation.build_s", "perf.index_s", "perf.matrix_s"))
    print(f"ingest layers (trace, computation, perf): {ingest:.3g} s, "
          f"{ingest / cli_s:.0%} of one CLI call ({cli_s:.3g} s)")
    query = _total(table, ("predicates.parse_s", "analysis.classify_s",
                           "slicing.slice_info_s", "detection.engine_s"))
    engine = _total(table, ("slicing.slice_info_s", "detection.engine_s"))
    print(f"detection + slicing: {engine:.3g} s, {engine / query:.0%} of the "
          f"query layers' time per pass")
    print("program counters (repro.obs snapshot of one traced pass):")
    print(json.dumps(counters, sort_keys=True))


def measure(workdir: Path, timeout: float) -> Optional[int]:
    """Runs child.py in its own process group; on timeout the whole group,
    CLI subprocesses included, is killed and None returned."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(workdir / "plan.json"),
         str(workdir / "result.json")],
        env=env, cwd=str(workdir), start_new_session=True,
    ) as proc:
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        plan = build(args.workload, args.seed, workdir)
        spec = plan.to_json()
        spec.update(seconds=args.seconds, trace=args.trace, workdir=str(workdir),
                    runs_file=str(workdir / "runs.jsonl"))
        (workdir / "plan.json").write_text(json.dumps(spec))
        code = measure(workdir, DEADLINE_S - (time.monotonic() - started))
        if code != 0:
            print(f"perfbench: measuring process ended with {code}", file=sys.stderr)
            return 1
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    attempted, failed, problems = check(plan, result["answers"], result["errors"])
    for problem in problems:
        print("FAIL", problem)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} answers "
          f"checked, {failed} wrong; {len(plan.queries)} queries over "
          f"{len(plan.traces)} traces")
    if args.trace:
        table = result["layers"]
        print_layers(table, result["counters"], table.pop("cli.wall_s"))
        metrics = {
            name: {"value": table.get(name), "unit": _unit(name)}
            for name in per_layer_names()
        }
    else:
        timings = result["timings"]
        values = end_to_end(timings, result["observations"])
        values["peak_rss_mb"] = result["peak_rss_mb"]
        print(f"fail_ratio {failed / attempted:.6g}; "
              f"{len(timings['query'])} distinct queries; samples: "
              + ", ".join(f"{sum(row[0] for row in timings[kind].values())} {kind}"
                          for kind in timings))
        for part, walls in result["probe_s"].items():
            print(f"calibration {part} part: {len(walls)} runs, median "
                  f"{statistics.median(walls) * 1e3:.4g} ms (reference "
                  f"{result['reference_s'][part] * 1e3:g} ms), range "
                  f"{min(walls) * 1e3:.4g}-{max(walls) * 1e3:.4g} ms")
        for name, value in values.items():
            print(f"{name:<20}{value:>14.6g} {END_TO_END_UNITS[name]}")
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
