"""Measures one workload in a fresh process; started by ``run.py``.

Usage: ``python3 child.py PLAN.json OUT.json`` with the program's ``src``
on ``PYTHONPATH``.  The plan names the trace files, the queries and the
run settings.  The child loads the traces, runs every query once as a
discarded warm-up, then measures until the time is up, and writes timings
and every distinct answer to OUT.json for the parent to check.

Four kinds of work share the measured time, one step at a time, each kind
getting its ``shares`` of it: a query (``detect`` on a freshly built
predicate object, so classification is paid as a CLI user pays it), a
``python -m repro detect`` call, a chunk of a monitor replay, and a load
of the whole trace set.  Interleaving them in small steps spreads the
samples of every kind over the whole run.  Between steps a calibration
loop is timed, and every step is reported scaled to the reference speed
of that loop (see ``timings``).  Only the stable surface is used here:
``load_computation``, ``parse_predicate``, ``detect``,
``OnlineConjunctiveMonitor`` and ``python -m repro detect``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.detection import detect
from repro.monitor import OnlineConjunctiveMonitor
from repro.predicates import FunctionPredicate, Modality, parse_predicate
from repro.trace import load_computation

#: Observations per timed monitor step.
CHUNK = 1024

KINDS = ("query", "cli", "monitor", "setup")

#: How often the calibration loop runs between measured steps, and how
#: far around a step its runs count towards the step's scaling.
PROBE_EVERY = 0.1
PROBE_WINDOW = 0.5
#: The calibration loop's times at the reference speed, per part.  The
#: values are close to the parts' usual times on the 2-core 2.0 GHz Xeon
#: VM the benchmark was tuned on.
REFERENCE_S = {"table": 0.002, "object": 0.00075, "memory": 0.0012}
#: The parts whose times scale each kind of step: the object part alone
#: for monitor steps, all three for the rest.  Over several minutes of
#: changing machine speed, the ratio of each kind of step to these parts
#: (their geometric mean) stayed the most nearly constant.
SCALED_BY = {"monitor": ("object",)}
ALL_PARTS = tuple(REFERENCE_S)

#: The memory part reads a list of this many ints at scattered positions,
#: so that like the program's heap it misses the CPU caches (about 9 MB,
#: counted in every workload's peak_rss_mb).
_HEAP = list(range(250_000))
_SCATTERED = random.Random(0).sample(range(len(_HEAP)), 2000)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def below(self, other: "_Point") -> bool:
        return self.a <= other.a and self.b <= other.b


def calibration_loop() -> Dict[str, float]:
    """Fixed pieces of interpreter work whose times track the machine's
    current speed; returns the wall time of each part.  The table part
    (dict updates, tuple and string building, a sort) resembles the query
    engines and the trace loader, the object part (small objects and
    method calls) the monitor, and the memory part (reads scattered over a
    large list) the cache misses of large computations; the phases of a
    shared machine slow these kinds of code by different amounts.  The
    loop runs with the garbage collector off, so the program's heap does
    not change its cost."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        counts: Dict[int, int] = {}
        for i in range(4000):
            counts[i % 251] = counts.get(i % 251, 0) + i
        rows = [(i, str(i * 7919 % 1000)) for i in range(1600)]
        rows.sort(key=lambda row: row[1])
        t1 = perf_counter()
        points = [_Point(i % 37, i % 41) for i in range(1200)]
        sum(p.below(q) for p, q in zip(points, points[1:]))
        t2 = perf_counter()
        heap = _HEAP
        sum(heap[i] for i in _SCATTERED)
        t3 = perf_counter()
    finally:
        if collecting:
            gc.enable()
    return {"table": t1 - t0, "object": t2 - t1, "memory": t3 - t2}


def make(query: dict, num_processes: int):
    """A fresh predicate object for one query."""
    if query["kind"] == "lambda":
        fn = eval(compile(query["source"], "<perfbench>", "eval"))
        fn.__repro_source__ = query["source"]
        return FunctionPredicate(fn, query["source"])
    return parse_predicate(query["source"], num_processes)


class Runner:
    def __init__(self, plan: dict):
        self.plan = plan
        self.comps = self.load()
        self.streams = [self._stream(m) for m in plan["monitors"]]
        self.answers: Counter = Counter()
        self.errors: List[str] = []
        #: (start, wall) of every measured step, by kind of work and item:
        #: query id, monitor chunk ("stream/start"), "cli" or "setup".
        self.samples: Dict[str, Dict[str, List[Tuple[float, float]]]] = {
            kind: {} for kind in KINDS
        }
        #: Start and part times of every run of the calibration loop.
        self.probes: List[Tuple[float, Dict[str, float]]] = []
        self.env = dict(os.environ, REPRO_RUNS=plan["runs_file"])
        # Round-robin positions: next query, and the replay in progress.
        self.next_query = 0
        self.replay: Optional[list] = None  # [stream, start, monitor]
        self.next_stream = 0
        #: Observations the monitor of the last finished replay processed.
        self.processed = 0

    def load(self) -> list:
        return [load_computation(t["file"]) for t in self.plan["traces"]]

    def _stream(self, monitor: dict) -> list:
        """(process, index, clock, truth) observations, round-robin."""
        comp = self.comps[monitor["trace"]]
        events = [comp.events_of(p) for p in range(comp.num_processes)]
        return [
            (p, i, comp.clock((p, i)), bool(evs[i].value(monitor["truth"][p])))
            for i in range(max(len(evs) for evs in events))
            for p, evs in enumerate(events)
            if i < len(evs)
        ]

    def _record(self, kind: str, key: str, t0: float, elapsed: float) -> None:
        self.samples[kind].setdefault(key, []).append((t0, elapsed))

    # -- steps: each does one unit of work and returns its wall time ----
    def setup_step(self) -> float:
        """One ``load_computation`` of every trace file of the workload."""
        gc.collect()
        t0 = perf_counter()
        comps = self.load()
        elapsed = perf_counter() - t0
        del comps
        self._record("setup", "setup", t0, elapsed)
        return elapsed

    def query_step(self, measured: bool = True) -> float:
        q = self.plan["queries"][self.next_query]
        self.next_query = (self.next_query + 1) % len(self.plan["queries"])
        comp = self.comps[q["trace"]]
        pred = make(q, comp.num_processes)
        t0 = perf_counter()
        try:
            result = detect(comp, pred, Modality(q["modality"]))
        except Exception as exc:  # counted as a failed query
            self.errors.append(f"query {q['id']}: {exc!r}")
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        if measured:
            self._record("query", str(q["id"]), t0, elapsed)
        witness = list(result.witness.frontier) if result.witness else None
        self.answers[json.dumps(
            ["query", q["id"], result.holds, witness, result.algorithm]
        )] += 1
        return elapsed

    def cli_step(self, measured: bool = True) -> float:
        q = self.plan["queries"][self.plan["cli"]["query"]]
        trace = self.plan["traces"][q["trace"]]["file"]
        cmd = [sys.executable, "-m", "repro", "detect", trace, q["source"],
               "--modality", q["modality"]]
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.plan["workdir"],
                              capture_output=True, text=True, timeout=150)
        elapsed = perf_counter() - t0
        try:
            out = json.loads(proc.stdout)
            holds, witness = out["holds"], out.get("witness_frontier")
        except (ValueError, KeyError, TypeError):
            self.errors.append(f"cli exit {proc.returncode}: {proc.stderr[-300:]}")
            return elapsed
        if proc.returncode != (0 if holds else 1):
            self.errors.append(f"cli exit {proc.returncode} with holds={holds}")
            return elapsed
        if measured:
            self._record("cli", "cli", t0, elapsed)
        self.answers[json.dumps(["cli", q["id"], holds, witness, out["algorithm"]])] += 1
        return elapsed

    def monitor_step(self, measured: bool = True) -> float:
        """Feeds the next CHUNK observations of the replay in progress;
        a replay that ends records the monitor's answer."""
        if self.replay is None:
            k = self.next_stream
            self.next_stream = (k + 1) % len(self.streams)
            n = self.comps[self.plan["monitors"][k]["trace"]].num_processes
            self.replay = [k, 0, OnlineConjunctiveMonitor(n, list(range(n)))]
        k, start, monitor = self.replay
        stream = self.streams[k]
        last = start + CHUNK >= len(stream)
        t0 = perf_counter()
        for observation in stream[start:start + CHUNK]:
            monitor.observe(*observation)
        if last:
            monitor.finish_all()
        elapsed = perf_counter() - t0
        if measured:
            self._record("monitor", f"{k}/{start}", t0, elapsed)
        if last:
            self.answers[json.dumps(
                ["monitor", k, monitor.detected, monitor.observations]
            )] += 1
            self.processed = monitor.observations
            self.replay = None
        else:
            self.replay[1] = start + CHUNK
        return elapsed

    def probe(self) -> None:
        """Times one run of the calibration loop."""
        self.probes.append((perf_counter(), calibration_loop()))

    def measure(self, seconds: float) -> None:
        """One closed loop: the next step goes to the kind of work that is
        furthest below its share, until the time is up and every item has
        at least one sample.  The calibration loop runs between steps, at
        most every PROBE_EVERY seconds."""
        steps = {"query": self.query_step, "cli": self.cli_step,
                 "monitor": self.monitor_step, "setup": self.setup_step}
        items = {"query": len(self.plan["queries"]), "cli": 1, "setup": 1,
                 "monitor": sum(-(-len(s) // CHUNK) for s in self.streams)}
        shares = self.plan["shares"]
        spent = dict.fromkeys(steps, 0.0)
        done = dict.fromkeys(steps, 0)
        start = perf_counter()
        self.probe()
        while perf_counter() - start < seconds or any(
            done[k] < items[k] for k in steps
        ):
            kind = min(steps, key=lambda k: spent[k] / shares[k])
            spent[kind] += steps[kind]()
            done[kind] += 1
            if perf_counter() - self.probes[-1][0] >= PROBE_EVERY:
                self.probe()
        self.probe()

    def timings(self) -> Dict[str, Dict[str, list]]:
        """Per kind of work and item: [samples, median scaled time].  A
        step's scaled time is its wall time times the geometric mean, over
        the calibration parts that scale its kind, of the part's reference
        time over its median time within PROBE_WINDOW seconds of the
        step."""
        starts = [t for t, _ in self.probes]
        out: Dict[str, Dict[str, list]] = {}
        for kind, items in self.samples.items():
            parts = SCALED_BY.get(kind, ALL_PARTS)
            out[kind] = {}
            for key, samples in items.items():
                scaled = []
                for t0, wall in samples:
                    lo = bisect_left(starts, t0 - PROBE_WINDOW)
                    hi = max(bisect_right(starts, t0 + wall + PROBE_WINDOW), lo + 1)
                    near = self.probes[lo:hi]
                    factor = 1.0
                    for part in parts:
                        median = statistics.median(p[part] for _, p in near)
                        factor *= REFERENCE_S[part] / median
                    scaled.append(wall * factor ** (1.0 / len(parts)))
                out[kind][key] = [len(samples), statistics.median(scaled)]
        return out

    # -- whole passes, for the warm-up and the traced run ---------------
    def query_pass(self) -> None:
        for _ in self.plan["queries"]:
            self.query_step(measured=False)

    def replay_all(self) -> int:
        """Replays every stream once; returns the observations that the
        monitors processed."""
        processed = 0
        for _ in self.streams:
            self.monitor_step(measured=False)
            while self.replay is not None:
                self.monitor_step(measured=False)
            processed += self.processed
        return processed


def pin() -> None:
    """Keeps this process, and the CLI calls it starts, on one CPU: the
    CPUs of a shared machine run at different speeds at the same moment,
    and the calibration loop measures the one the steps run on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control: run unpinned
        pass


def main(plan_path: str, out_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    pin()
    runner = Runner(plan)
    runner.query_pass()  # warm-up: lazy imports and caches
    result: Dict[str, object] = {}
    if plan["trace"]:
        result.update(traced(runner, plan["seconds"]))
    else:
        runner.measure(plan["seconds"])
        result.update(
            timings=runner.timings(),
            probe_s={part: [parts[part] for _, parts in runner.probes]
                     for part in REFERENCE_S},
            reference_s=REFERENCE_S,
        )
    result.update(
        observations=[len(stream) for stream in runner.streams],
        answers=[[json.loads(key), count] for key, count in runner.answers.items()],
        errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(out_path, "w") as fh:
        json.dump(result, fh)


def traced(runner: Runner, seconds: float) -> Dict[str, object]:
    """Per-layer table, tracing overhead and the program's counters.

    In-process passes (queries and monitor replays) alternate between
    untraced and wrapped in ``repro.obs.Capture()`` until the time is up;
    the overhead ratio is the ratio of their medians.
    """
    import layers
    from repro import obs

    plain: List[float] = []
    wrapped: List[float] = []
    counters: Optional[dict] = None

    def in_process() -> float:
        t0 = perf_counter()
        runner.query_pass()
        runner.replay_all()
        return perf_counter() - t0

    start = perf_counter()
    while True:
        for wrap in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if wrap:
                with obs.Capture() as cap:
                    wrapped.append(in_process())
                counters = cap.registry.snapshot()["counters"]
            else:
                plain.append(in_process())
        if perf_counter() - start >= seconds:
            break
    table = layers.measure(runner.plan, runner.comps, make)
    t0 = perf_counter()
    processed = runner.replay_all()
    wall = perf_counter() - t0
    streamed = sum(len(stream) for stream in runner.streams)
    table["monitor.observe_us"] = wall / streamed * 1e6
    table["monitor.observations"] = processed
    imports = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], env=runner.env,
                       cwd=runner.plan["workdir"], check=True, timeout=120)
        imports.append(perf_counter() - t0)
    table["cli.import_s"] = statistics.median(imports)
    # The CLI wall the ingest layers are set against.
    table["cli.wall_s"] = runner.cli_step(measured=False)
    table["obs.overhead_ratio"] = statistics.median(wrapped) / statistics.median(plain)
    return {"layers": table, "counters": counters}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
