"""Per-layer measurements for the traced run.

Every call into a layer below the stable surface goes through
:data:`ENTRY_POINTS`, looked up by name at run time.  When a planned
refactor removes or renames an entry point, its layer's metrics read
``None`` (printed as "absent") and the run carries on.

Ingest layers are timed over all of the workload's trace files; query
layers over one pass of the workload's queries.
"""

from __future__ import annotations

import gc
import importlib
import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

ENTRY_POINTS = {
    "computation_from_dict": ("repro.trace", "computation_from_dict"),
    "Computation": ("repro.computation", "Computation"),
    "CausalityIndex": ("repro.perf.causality", "CausalityIndex"),
    "classification_for": ("repro.analysis.classify", "classification_for"),
    "slice_info": ("repro.slicing.dispatch", "slice_info"),
}

#: (layer module, its metrics, the end-to-end metrics it should move).
LAYERS = (
    ("repro.trace", ("trace.read_json_s", "trace.decode_s", "trace.bytes"),
     "setup_s, cli_detect_s"),
    ("repro.computation", ("computation.build_s", "computation.events",
                           "computation.messages", "computation.lattice_cuts"),
     "setup_s, cli_detect_s, peak_rss_mb; detect_ms_* on lattice"),
    ("repro.perf", ("perf.index_s", "perf.matrix_s"),
     "setup_s / first query; queries_per_s on query-mix"),
    ("repro.predicates", ("predicates.parse_s",), "cli_detect_s (guard)"),
    ("repro.analysis.classify", ("analysis.classify_s",
                                 "analysis.classify.rewrites",
                                 "analysis.classify.unclassifiable"),
     "detect_ms_p50 on query-mix"),
    ("repro.slicing", ("slicing.slice_info_s", "slicing.explored_share"),
     "detect_ms_p90, peak_rss_mb on lattice"),
    ("repro.detection", ("detection.engine_s", "detection.cuts_explored",
                         "detection.invocations", "detection.combinations"),
     "queries_per_s, detect_ms_*"),
    ("repro.monitor", ("monitor.observe_us", "monitor.observations"),
     "monitor_obs_per_s"),
    ("repro.cli", ("cli.import_s",), "cli_detect_s"),
    ("repro.obs", ("obs.overhead_ratio",), "none (guard on the traced run)"),
)

#: Algorithms the workloads are answered by at the commit that defined
#: the benchmark; anything else is counted under ``detection.algo.other``.
ALGORITHMS = (
    "cpdhb",
    "interval-anchor",
    "chain-choice",
    "cpdsc",
    "stoller-schneider",
    "min-cut",
    "theorem7-unit-step",
    "avoidance-search",
    "symmetric-unit-step",
    "symmetric-theorem7-unit-step",
    "cooper-marzullo",
    "slice:cooper-marzullo",
    "classify:cpdhb",
    "classify:theorem7-unit-step",
    "classify:symmetric-unit-step",
)


def algo_metric(algorithm: str) -> str:
    name = algorithm if algorithm in ALGORITHMS else "other"
    return "detection.algo." + name.replace(":", ".")


def per_layer_names() -> List[str]:
    names = [m for _, metrics, _ in LAYERS for m in metrics]
    names += [algo_metric(a) for a in ALGORITHMS] + ["detection.algo.other"]
    return names


def entry(name: str) -> Optional[Callable]:
    module, attribute = ENTRY_POINTS[name]
    try:
        return getattr(importlib.import_module(module), attribute, None)
    except ImportError:
        return None


def uses_slice(algorithm: str) -> bool:
    """Did the answer come from a slice-first enumeration path (the paths
    that call ``slice_info``)?"""
    last = algorithm.split(":")[-1]
    return last == "cooper-marzullo" or last == "slice" or "slice:" in algorithm


def measure(plan: dict, comps: list, make: Callable) -> Dict[str, Optional[float]]:
    """Time each layer's public entry points from the benchmark's side.

    ``make(query, num_processes)`` builds a fresh predicate for a query.
    """
    out: Dict[str, Optional[float]] = dict.fromkeys(per_layer_names())
    out.update(_ingest(plan))
    out.update(_queries(plan, comps, make))
    return out


def _ingest(plan: dict) -> Dict[str, Optional[float]]:
    """Ingest layers, summed over the workload's trace files."""
    from_dict = entry("computation_from_dict")
    computation = entry("Computation")
    index = entry("CausalityIndex")
    out: Dict[str, Optional[float]] = dict.fromkeys(
        ("trace.read_json_s", "trace.bytes", "trace.decode_s", "computation.build_s",
         "computation.events", "computation.messages", "perf.index_s",
         "perf.matrix_s"), 0)
    out["computation.lattice_cuts"] = sum(t["lattice_cuts"] for t in plan["traces"])
    for trace in plan["traces"]:
        gc.collect()
        t0 = perf_counter()
        text = Path(trace["file"]).read_text()
        data = json.loads(text)
        out["trace.read_json_s"] += perf_counter() - t0
        out["trace.bytes"] += len(text.encode())
        del text
        if from_dict is None or computation is None:
            continue
        t0 = perf_counter()
        comp = from_dict(data)
        decode = perf_counter() - t0
        del data
        events = [comp.events_of(p) for p in range(comp.num_processes)]
        t0 = perf_counter()
        comp = computation(events, comp.messages, meta=comp.meta)
        build = perf_counter() - t0
        del events
        out["computation.build_s"] += build
        out["trace.decode_s"] += decode - build
        out["computation.events"] += comp.total_events()
        out["computation.messages"] += len(comp.messages)
        if index is None:
            continue
        t0 = perf_counter()
        idx = index(comp)
        out["perf.index_s"] += perf_counter() - t0
        t0 = perf_counter()
        getattr(idx, "matrix", None)
        out["perf.matrix_s"] += perf_counter() - t0
        del comp, idx
    if from_dict is None or computation is None:
        for name in ("trace.decode_s", "computation.build_s", "computation.events",
                     "computation.messages"):
            out[name] = None
    if from_dict is None or computation is None or index is None:
        out["perf.index_s"] = out["perf.matrix_s"] = None
    return out


def _queries(plan: dict, comps: list, make: Callable) -> Dict[str, Optional[float]]:
    """Query layers over one pass: parse, classify, slice, engine."""
    from repro.detection import detect
    from repro.predicates import Modality, parse_predicate

    classify = entry("classification_for")
    slicer = entry("slice_info")
    out: Dict[str, Optional[float]] = dict.fromkeys(
        ("predicates.parse_s", "analysis.classify_s", "analysis.classify.rewrites",
         "analysis.classify.unclassifiable", "slicing.slice_info_s",
         "detection.cuts_explored", "detection.invocations",
         "detection.combinations"), 0)
    out.update((algo_metric(a), 0) for a in ALGORITHMS + ("other",))
    engine = 0.0
    explored = cuts = 0
    for q in plan["queries"]:
        comp = comps[q["trace"]]
        if q["kind"] == "text":
            t0 = perf_counter()
            parse_predicate(q["source"], comp.num_processes)
            out["predicates.parse_s"] += perf_counter() - t0
        elif classify is not None:
            pred = make(q, comp.num_processes)
            t0 = perf_counter()
            certificate = classify(pred, comp)
            out["analysis.classify_s"] += perf_counter() - t0
            if certificate is None:
                out["analysis.classify.unclassifiable"] += 1
            elif getattr(certificate, "rewrite", None) is not None:
                out["analysis.classify.rewrites"] += 1
        pred = make(q, comp.num_processes)
        modality = Modality(q["modality"])
        if q["kind"] == "lambda":
            detect(comp, pred, modality)  # fills the classify cache for pred
        t0 = perf_counter()
        result = detect(comp, pred, modality)
        engine += perf_counter() - t0
        for stat in ("cuts_explored", "invocations", "combinations"):
            out["detection." + stat] += int(result.stats.get(stat, 0))
        out[algo_metric(result.algorithm)] += 1
        if uses_slice(result.algorithm):
            explored += int(result.stats.get("cuts_explored", 0))
            cuts += plan["traces"][q["trace"]]["lattice_cuts"]
            if slicer is not None:
                t0 = perf_counter()
                slicer(comp, pred)
                out["slicing.slice_info_s"] += perf_counter() - t0
    out["detection.engine_s"] = engine - out["slicing.slice_info_s"]
    out["slicing.explored_share"] = explored / cuts if cuts else 0.0
    if classify is None:
        for name in ("analysis.classify_s", "analysis.classify.rewrites",
                     "analysis.classify.unclassifiable"):
            out[name] = None
    if slicer is None:
        out["slicing.slice_info_s"] = None
    return out
