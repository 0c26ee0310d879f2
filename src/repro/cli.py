"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``detect`` — run possibly/definitely detection of a predicate (in the
  :mod:`repro.predicates.parser` language) against a JSON trace;
* ``classify`` — statically classify an opaque Python predicate
  (``lambda cut: ...``): print the inferred class certificate and the
  engine detection would dispatch to (see ``docs/ANALYSIS.md``);
* ``profile`` — repeat a detection query under the observability layer
  and report latency percentiles plus engine counters;
* ``generate`` — produce a seeded random trace as JSON;
* ``simulate`` — run one of the bundled protocols and dump its trace;
* ``fuzz`` — differential-fuzz every registered engine against the
  brute-force oracles; shrink and save any disagreement
  (see ``docs/TESTING.md``);
* ``lint`` — run the static-analysis suite (determinism lint, protocol
  race detector, instrumentation-conformance checker) over source
  paths (see ``docs/ANALYSIS.md``);
* ``serve`` — host the resilient multi-session monitoring service:
  supervised workers, bounded ingest queues with backpressure,
  checkpoint-based crash restart, graceful drain on SIGTERM
  (see ``docs/SERVICE.md``);
* ``feed`` — stream a trace's observations to a running ``serve`` over
  the line-JSON protocol, with retry/backoff/jitter and an optional
  per-call deadline;
* ``info`` — structural summary of a trace (processes, events, messages,
  lattice size if small enough);
* ``runs`` — inspect the run ledger: every other command appends one
  ``repro-run-v1`` record to ``.repro/runs.jsonl`` (``--runs-ledger`` /
  ``REPRO_RUNS`` override the path, ``REPRO_RUNS=off`` or
  ``--no-runs-ledger`` disable it); ``runs list|show|last|diff``
  read it back (see ``docs/RUNS.md``).

Long detections can be watched and bounded: ``detect --progress``
(also ``fuzz --progress``) prints rate-limited ``progress:`` ticks to
stderr, and ``detect --deadline-ms N`` turns a blown budget into a
clean ``inconclusive`` verdict with exit code 7 instead of a hang.

Examples::

    python -m repro simulate token-ring --processes 5 --seed 1 -o ring.json
    python -m repro simulate token-ring --faults plan.json -o lossy.json
    python -m repro simulate lock-server --variant crash-restart -o mx.json
    python -m repro detect ring.json "cs@1 & cs@3"
    python -m repro detect ring.json "cs@1 & cs@3" --profile
    python -m repro detect ring.json "(a@0 | a@1) & (b@2 | b@3)"
    python -m repro detect ring.json "count(token) >= 2" --modality definitely
    python -m repro classify ring.json \
        "lambda cut: cut.value(1, 'cs') and cut.value(3, 'cs')"
    python -m repro profile ring.json "cs@1 & cs@3" --repeat 20
    python -m repro generate --processes 4 --events 10 --bool x -o random.json
    python -m repro fuzz --seed 7 --iterations 100
    python -m repro fuzz --seed 7 --time-budget 30 --corpus tests/corpus
    python -m repro info random.json
    python -m repro detect ring.json "cs@1 & cs@3" --progress --deadline-ms 5000
    python -m repro runs list
    python -m repro runs diff prev last
    python -m repro serve --port 0 --workers 4 --checkpoint-dir .repro/ckpt
    python -m repro feed mx.json --port 7007 --query "lock=2,3" \
        --variable holds_lock --deadline-ms 5000

Exit codes: 0 = success (``detect``: predicate holds; ``fuzz``: all
engines agreed; ``lint``: no findings; ``classify``: a validated
certificate), 1 = ``detect`` ran but the predicate does not hold,
``fuzz`` found a disagreement, ``lint`` reported findings, or
``classify`` found the predicate unclassifiable (or differential
validation rejected the certificate), 2 = usage or predicate-syntax
error,
3 = unreadable/malformed trace, 4 = simulation or fault-plan error,
5 = monitor error, 6 = lint usage/internal error (unknown rule or path,
unreadable canonical-key docs), 7 = ``--deadline-ms`` expired before a
verdict (``detect`` and ``feed`` print an ``inconclusive`` payload with
partial progress), 8 = monitoring-service error (``serve``/``feed``:
unreachable server, rejected session, drain refused the request).
Every error prints a one-line ``repro: <message>`` diagnostic to stderr
instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.computation import count_consistent_cuts
from repro.detection import detect
from repro.predicates import Modality
from repro.predicates.parser import parse_predicate
from repro.trace import (
    BoolVar,
    UnitWalkVar,
    dump_computation,
    load_computation,
    random_computation,
)

__all__ = ["main"]


def _progress_interval() -> float:
    """Sink rate limit in seconds (REPRO_PROGRESS_INTERVAL_MS override)."""
    return float(os.environ.get("REPRO_PROGRESS_INTERVAL_MS", "250")) / 1000.0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.ledger import annotate
    from repro.obs.progress import (
        DeadlineExceeded,
        progress_context,
        stderr_sink,
    )

    computation = load_computation(args.trace)
    annotate(trace=args.trace)
    predicate = parse_predicate(
        args.predicate, num_processes=computation.num_processes
    )
    modality = Modality(args.modality)
    from contextlib import nullcontext

    sink = stderr_sink if args.progress else None
    prog_ctx = (
        progress_context(
            sink=sink,
            deadline_ms=args.deadline_ms,
            interval_s=_progress_interval(),
        )
        if sink is not None or args.deadline_ms is not None
        else nullcontext()
    )
    try:
        with prog_ctx, (
            obs.Capture() if args.profile else nullcontext()
        ) as cap:
            result = detect(
                computation,
                predicate,
                modality,
                slice=not args.no_slice,
                infer=not args.no_infer,
            )
        if args.profile:
            print("── span tree ──", file=sys.stderr)
            print(obs.format_span_tree(cap.roots), file=sys.stderr)
            print("── metrics ──", file=sys.stderr)
            print(obs.format_metrics(cap.registry.snapshot()), file=sys.stderr)
            annotate(spans=[root.to_dict() for root in cap.roots])
    except DeadlineExceeded as exc:
        payload = {
            "predicate": predicate.description(),
            "modality": modality.value,
            "holds": None,
            "verdict": "inconclusive",
            "deadline_ms": exc.deadline_ms,
            "progress": {
                "loop": exc.name,
                "done": exc.done,
                "total": exc.total,
                "elapsed_ms": round(exc.elapsed_ms, 3),
            },
        }
        print(json.dumps(payload, indent=2))
        annotate(
            verdict="inconclusive",
            stats={"deadline_loop": exc.name, "deadline_done": exc.done},
        )
        return 7
    annotate(
        verdict="holds" if result.holds else "not-holds",
        stats={k: _jsonable(v) for k, v in result.stats.items()},
    )
    payload = {
        "predicate": predicate.description(),
        "modality": modality.value,
        "holds": result.holds,
        "algorithm": result.algorithm,
        "stats": {k: _jsonable(v) for k, v in result.stats.items()},
    }
    if args.count_witnesses:
        from repro.detection import count_witnesses

        payload["witness_count"] = count_witnesses(computation, predicate)
    if result.witness is not None:
        payload["witness_frontier"] = list(result.witness.frontier)
        if args.show_witness_values:
            payload["witness_values"] = [
                dict(result.witness.last_event(p).values)
                for p in range(computation.num_processes)
            ]
    print(json.dumps(payload, indent=2))
    return 0 if result.holds else 1


def _compile_python_predicate(source: str):
    """Compile a ``lambda cut: ...`` source string into a callable.

    A bare body expression (``cut.value(0, 'x') and ...``) is accepted
    too and wrapped into a one-cut lambda.  The compiled function carries
    the source as ``__repro_source__`` so the classifier can analyze it
    without :func:`inspect.getsource`.
    """
    import ast

    from repro.predicates import PredicateError

    try:
        body = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise PredicateError(
            f"cannot compile predicate source: {exc}"
        ) from exc
    if not isinstance(body, ast.Lambda):
        source = f"lambda cut: {source}"
    try:
        code = compile(source, "<classify>", "eval")
    except SyntaxError as exc:
        raise PredicateError(
            f"cannot compile predicate source: {exc}"
        ) from exc
    try:
        fn = eval(code)  # noqa: S307 - the user's own predicate source
    except Exception as exc:
        raise PredicateError(
            f"predicate source failed to evaluate: {exc}"
        ) from exc
    if not callable(fn):
        raise PredicateError(
            "predicate source must evaluate to a callable of one cut"
        )
    try:
        fn.__repro_source__ = source
    except AttributeError:
        pass  # builtins reject attributes; getsource will fail precisely
    return fn


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.analysis.classify import Unclassifiable, classify
    from repro.analysis.classify.validate import validate_certificate
    from repro.obs.ledger import annotate
    from repro.predicates.base import FunctionPredicate

    computation = load_computation(args.trace)
    annotate(trace=args.trace)
    fn = _compile_python_predicate(args.python)
    predicate = FunctionPredicate(fn, name=args.python)
    modality = Modality(args.modality)
    try:
        certificate = classify(
            predicate, num_processes=computation.num_processes
        )
    except Unclassifiable as exc:
        payload = {
            "predicate": args.python,
            "classified": False,
            "reason": exc.reason,
            "line": exc.line,
            "engine": "enumeration",
        }
        print(json.dumps(payload, indent=2))
        annotate(verdict="unclassifiable")
        return 1
    validated = validate_certificate(computation, predicate, certificate)
    certificate.validated = validated
    trusted = validated and certificate.actionable
    payload = {
        "predicate": args.python,
        "classified": True,
        "certificate": certificate.to_dict(),
        "engine": (
            certificate.engine_hint(modality) if trusted else "enumeration"
        ),
    }
    print(json.dumps(payload, indent=2))
    annotate(
        verdict="classified" if trusted else "rejected",
        stats={"engine": payload["engine"]},
    )
    return 0 if trusted else 1


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _cmd_slice(args: argparse.Namespace) -> int:
    from repro.obs.ledger import annotate
    from repro.slicing.dispatch import slice_info

    computation = load_computation(args.trace)
    annotate(trace=args.trace)
    predicate = parse_predicate(
        args.predicate, num_processes=computation.num_processes
    )
    info = slice_info(computation, predicate)
    full_volume = 1
    for p in range(computation.num_processes):
        full_volume *= len(computation.events_of(p))
    payload = {
        "predicate": predicate.description(),
        "useful": info.useful,
        "exact": info.exact,
        "approximation": (
            info.approximation.description()
            if info.approximation is not None
            else None
        ),
        "frontier_space": full_volume,
        "reduction": info.reduction(),
    }
    bounds = info.bounds
    if not info.useful:
        payload["empty"] = None
    elif bounds is None:
        payload["empty"] = True
    else:
        least, greatest = bounds
        box_volume = 1
        for lo, hi in zip(least, greatest):
            box_volume *= hi - lo + 1
        payload.update(
            empty=False,
            least_frontier=list(least),
            greatest_frontier=list(greatest),
            box_volume=box_volume,
        )
        if args.count:
            payload["slice_cuts"] = info.slice.count()
    annotate(stats={"reduction": info.reduction()})
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.ledger import annotate

    computation = load_computation(args.trace)
    annotate(trace=args.trace)
    predicate = parse_predicate(
        args.predicate, num_processes=computation.num_processes
    )
    modality = Modality(args.modality)
    with obs.Capture() as cap:
        result = None
        for _ in range(max(1, args.repeat)):
            result = detect(computation, predicate, modality)
    assert result is not None
    annotate(
        verdict="holds" if result.holds else "not-holds",
        spans=[root.to_dict() for root in cap.roots],
    )
    if args.spans:
        print("── span tree ──", file=sys.stderr)
        print(obs.format_span_tree(cap.roots), file=sys.stderr)
    if args.export == "prometheus":
        print(cap.registry.to_prometheus(), end="")
        return 0
    snapshot = cap.registry.snapshot()
    latency = snapshot["histograms"].get("span.detect.query.ms", {"count": 0})
    payload = {
        "predicate": predicate.description(),
        "modality": modality.value,
        "repeat": max(1, args.repeat),
        "engine": result.algorithm,
        "holds": result.holds,
        "latency_ms": {
            key: latency.get(key)
            for key in ("count", "mean", "p50", "p95", "max")
        },
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": {
            name: summary
            for name, summary in snapshot["histograms"].items()
            if name != "span.detect.query.ms"
        },
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    variables = []
    for name in args.bool or []:
        variables.append(BoolVar(name, density=args.true_density))
    for name in args.walk or []:
        variables.append(UnitWalkVar(name, floor=None))
    computation = random_computation(
        num_processes=args.processes,
        events_per_process=args.events,
        message_density=args.message_density,
        seed=args.seed,
        variables=variables,
    )
    dump_computation(computation, args.output)
    from repro.obs.ledger import annotate

    annotate(
        trace=args.output,
        stats={
            "processes": computation.num_processes,
            "events": computation.total_events(),
        },
    )
    print(
        f"wrote {computation.num_processes} processes, "
        f"{computation.total_events()} events, "
        f"{len(computation.messages)} messages to {args.output}"
    )
    return 0


def _run_simulation(args: argparse.Namespace, faults) -> "object":
    from repro.simulation.protocols import (
        build_crash_restart_lock_scenario,
        build_leader_election,
        build_lock_scenario,
        build_primary_backup,
        build_resource_pool,
        build_token_ring,
    )

    if args.protocol == "token-ring":
        return build_token_ring(
            args.processes,
            hops=args.rounds,
            seed=args.seed,
            rogue_process=args.rogue,
            faults=faults,
        )
    if args.protocol == "leader-election":
        return build_leader_election(
            args.processes, seed=args.seed, faults=faults
        )
    if args.protocol == "primary-backup":
        return build_primary_backup(
            max(1, args.processes - 1),
            args.rounds,
            seed=args.seed,
            faults=faults,
        )
    if args.protocol == "resource-pool":
        return build_resource_pool(
            max(1, args.processes - 1),
            capacity=max(1, args.processes // 3),
            rounds=args.rounds,
            seed=args.seed,
            faults=faults,
        )
    if args.protocol == "lock-server":
        if args.variant == "crash-restart":
            # The deterministic mutual-exclusion-violation demo; an
            # explicit --faults plan overrides the built-in one.
            return build_crash_restart_lock_scenario(
                seed=args.seed, faults=faults
            )
        return build_lock_scenario(
            consistent_order=not args.conflicting_order,
            seed=args.seed,
            faults=faults,
        )
    raise ValueError(args.protocol)  # pragma: no cover - argparse choices


def _cmd_simulate(args: argparse.Namespace) -> int:
    faults = None
    if args.faults is not None:
        from repro.simulation.faults import load_fault_plan

        faults = load_fault_plan(args.faults)
    if args.profile:
        from repro import obs

        with obs.Capture() as cap:
            computation = _run_simulation(args, faults)
        print("── span tree ──", file=sys.stderr)
        print(obs.format_span_tree(cap.roots), file=sys.stderr)
        print("── metrics ──", file=sys.stderr)
        print(obs.format_metrics(cap.registry.snapshot()), file=sys.stderr)
    else:
        computation = _run_simulation(args, faults)
    dump_computation(computation, args.output)
    from repro.obs.ledger import annotate

    annotate(
        trace=args.output,
        stats={
            "processes": computation.num_processes,
            "events": computation.total_events(),
            "messages": len(computation.messages),
        },
    )
    summary = (
        f"{args.protocol}: {computation.num_processes} processes, "
        f"{computation.total_events()} events, "
        f"{len(computation.messages)} messages -> {args.output}"
    )
    fault_meta = computation.meta.get("faults")
    if fault_meta:
        counts = fault_meta.get("counts", {})
        injected = ", ".join(
            f"{kind}={n}" for kind, n in sorted(counts.items())
        ) or "none"
        summary += f" (faults: {injected})"
    print(summary)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.obs.ledger import annotate
    from repro.obs.progress import progress_context, stderr_sink
    from repro.testkit import CorpusCase, FuzzConfig, run_fuzz, save_case

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        families=args.family or None,
        shrink=not args.no_shrink,
    )
    from contextlib import nullcontext

    sink_ctx = (
        progress_context(sink=stderr_sink, interval_s=_progress_interval())
        if args.progress
        else nullcontext()
    )
    with sink_ctx:
        if args.profile:
            from repro import obs

            with obs.Capture() as cap:
                report = run_fuzz(config)
            print("── metrics ──", file=sys.stderr)
            print(
                obs.format_metrics(cap.registry.snapshot()), file=sys.stderr
            )
        else:
            report = run_fuzz(config)
    annotate(
        verdict="agreed" if report.ok else "disagreed",
        stats={
            "iterations_run": report.iterations_run,
            "findings": len(report.findings),
        },
    )
    for line in report.log_lines():
        print(line)
    if args.corpus is not None and report.findings:
        from repro.testkit import default_registry

        registry = default_registry()
        for finding in report.findings:
            comp = finding.minimized_computation
            pred = finding.minimized_predicate
            oracle = registry.oracle_for(pred, finding.modality)
            if oracle is None or not oracle.applicable(comp, pred):
                print(
                    "repro: no applicable oracle for minimized case of "
                    f"iteration {finding.log.iteration}; not saved",
                    file=sys.stderr,
                )
                continue
            case = CorpusCase(
                name=f"fuzz-seed{args.seed}-iter{finding.log.iteration:04d}",
                pins=(
                    f"{finding.engine_pair[0]} vs {finding.engine_pair[1]} "
                    f"({finding.log.family}, {finding.log.modality})"
                ),
                modality=finding.modality,
                expected=bool(oracle.run(comp, pred)),
                computation=comp,
                predicate=pred,
                provenance={
                    "fuzz_seed": args.seed,
                    "iteration": finding.log.iteration,
                    "instance_seed": finding.log.instance_seed,
                    "family": finding.log.family,
                },
            )
            path = save_case(case, args.corpus)
            print(f"saved minimized counterexample to {path}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintConfig, render_json, render_text, run_lint

    docs_paths = None
    if args.docs_root is not None:
        from pathlib import Path

        root = Path(args.docs_root)
        docs_paths = [str(root / "ALGORITHMS.md"), str(root / "OBSERVABILITY.md")]
    config = LintConfig(
        select=_split_rule_ids(args.select),
        ignore=_split_rule_ids(args.ignore),
        docs_paths=docs_paths,
        require_docs=args.require_docs,
    )
    report = run_lint(args.paths, config)
    from repro.obs.ledger import annotate

    annotate(
        verdict="clean" if report.ok else "findings",
        stats={
            "findings": len(report.findings),
            "files_checked": report.files_checked,
        },
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def _split_rule_ids(values) -> list:
    ids = []
    for value in values or []:
        ids.extend(part for part in value.split(",") if part.strip())
    return ids


def _cmd_render(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.viz import computation_to_dot, lattice_to_dot

    computation = load_computation(args.trace)
    if args.what == "computation":
        dot = computation_to_dot(computation, variable=args.variable)
    else:
        predicate = None
        if args.predicate is not None:
            predicate = parse_predicate(
                args.predicate, num_processes=computation.num_processes
            )
        dot = lattice_to_dot(
            computation, predicate=predicate, max_cuts=args.max_cuts
        )
    Path(args.output).write_text(dot)
    from repro.obs.ledger import annotate

    annotate(trace=args.trace)
    print(f"wrote {args.what} DOT to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    computation = load_computation(args.trace)
    if args.deep:
        from repro.analysis import summarize

        info = summarize(computation)
    else:
        info = {
            "processes": computation.num_processes,
            "events": computation.total_events(),
            "messages": len(computation.messages),
            "events_per_process": [
                computation.num_events(p)
                for p in range(computation.num_processes)
            ],
            "variables": sorted(
                {
                    key
                    for event in computation.all_events(include_initial=True)
                    for key in event.values
                }
            ),
        }
    if computation.total_events() <= args.lattice_limit:
        info["consistent_cuts"] = count_consistent_cuts(computation)
    from repro.obs.ledger import annotate

    annotate(
        trace=args.trace,
        stats={
            "processes": computation.num_processes,
            "events": computation.total_events(),
        },
    )
    print(json.dumps(info, indent=2))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs import ledger

    path = ledger.resolve_ledger_path(args.ledger)
    if path is None:
        raise ValueError(
            "run ledger is disabled (REPRO_RUNS=off); pass --ledger PATH"
        )
    records = ledger.read_records(path)
    action = args.action or "list"
    if action == "list":
        limit = getattr(args, "n", None)
        shown = records[-limit:] if limit else records
        for record in shown:
            verdict = record.get("verdict") or "-"
            print(
                f"{record['id']}  {record['started_at']}  "
                f"{record['command']:<9} exit={record['exit_code']} "
                f"verdict={verdict} wall={record['wall_ms']:.1f}ms"
            )
        return 0
    if action in ("show", "last"):
        ref = "last" if action == "last" else args.ref
        record = ledger.resolve_ref(records, ref)
        if getattr(args, "otlp", False):
            from repro.obs.export import otlp_json, span_from_dict

            roots = [span_from_dict(tree) for tree in record["spans"]]
            print(otlp_json(roots, seed=record["id"]))
        else:
            print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    assert action == "diff"
    refs = list(args.refs or [])
    if not refs:
        refs = ["prev", "last"]
    if len(refs) != 2:
        raise ValueError("runs diff takes exactly two run references")
    record_a = ledger.resolve_ref(records, refs[0])
    record_b = ledger.resolve_ref(records, refs[1])
    print(ledger.format_diff(ledger.diff_records(record_a, record_b)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.obs.progress import progress_context, stderr_sink
    from repro.service import MonitorService, ServiceServer

    ledger_path = None
    if not args.no_runs_ledger:
        from repro.obs import ledger

        ledger_path = ledger.resolve_ledger_path(args.runs_ledger)
    from contextlib import nullcontext

    prog_ctx = (
        progress_context(sink=stderr_sink, interval_s=_progress_interval())
        if args.progress
        else nullcontext()
    )
    with prog_ctx:
        service = MonitorService(
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            default_policy=args.policy,
            default_queue_capacity=args.queue_capacity,
            ledger_path=ledger_path,
        )
        server = ServiceServer(service, host=args.host, port=args.port)
        server.start()
        stop = threading.Event()

        def _on_signal(signum, frame):  # noqa: ARG001
            stop.set()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        ready = f"repro-serve: ready host={server.host} port={server.port}"
        print(ready, flush=True)
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.host} {server.port}\n")
        while not stop.is_set():
            if server.shutdown_requested.wait(0.2):
                break
        print("repro-serve: draining", file=sys.stderr, flush=True)
        summary = service.drain(timeout_s=args.drain_timeout_s)
        server.stop()
        service.shutdown(timeout_s=1.0)
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _parse_queries(args: argparse.Namespace, num_processes: int):
    """The ``(name, processes)`` list a ``feed`` run monitors."""
    import itertools

    queries = []
    for spec in args.query or []:
        name, eq, procs = spec.partition("=")
        if not eq or not name:
            raise ValueError(
                f"bad --query {spec!r}: expected NAME=p1,p2[,...]"
            )
        try:
            members = [int(p) for p in procs.split(",") if p.strip() != ""]
        except ValueError:
            raise ValueError(
                f"bad --query {spec!r}: process list must be integers"
            ) from None
        if len(members) < 1:
            raise ValueError(f"bad --query {spec!r}: empty process list")
        queries.append((name, members))
    if args.all_pairs:
        for i, j in itertools.combinations(range(num_processes), 2):
            queries.append((f"pair({i},{j})", [i, j]))
    if not queries:
        raise ValueError("feed needs at least one --query or --all-pairs")
    return queries


def _cmd_feed(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.ledger import annotate
    from repro.service import SocketTransport, SubmitDeadline, Submitter
    from repro.service.session import observation_stream, session_id_ok

    computation = load_computation(args.trace)
    annotate(trace=args.trace)
    queries = _parse_queries(args, computation.num_processes)
    monitored = sorted({p for _, procs in queries for p in procs})
    stream = observation_stream(
        computation, monitored, variable=args.variable
    )
    session_id = args.session or Path(args.trace).stem
    if not session_id_ok(session_id):
        session_id = "feed"
    submitter = Submitter(
        SocketTransport(
            host=args.host, port=args.port, timeout_s=args.timeout_s
        ),
        retries=args.retries,
        backoff_s=args.backoff_ms / 1000.0,
        jitter=args.jitter,
        seed=args.seed,
        deadline_s=(
            args.deadline_ms / 1000.0
            if args.deadline_ms is not None
            else None
        ),
    )
    try:
        submitter.open_session(
            session_id,
            computation.num_processes,
            queries,
            lossy=not args.strict,
            policy=args.policy,
            queue_capacity=args.queue_capacity,
        )
        totals = {"accepted": 0, "shed": 0, "dead_lettered": 0}
        for i in range(0, len(stream), args.batch):
            outcome = submitter.submit(session_id, stream[i:i + args.batch])
            for key in totals:
                totals[key] += outcome[key]
        report = submitter.close_session(session_id)["report"]
    except SubmitDeadline as exc:
        payload = {
            "session": session_id,
            "verdict": "inconclusive",
            "deadline_ms": exc.deadline_ms,
            "elapsed_ms": round(exc.elapsed_ms, 3),
            "attempts": exc.attempts,
            "last_error": exc.last_error,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        annotate(verdict="inconclusive")
        return 7
    payload = {
        "session": session_id,
        "submitted": totals,
        "verdicts": report["verdicts"],
        "witnesses": report["witnesses"],
        "gaps": report["gaps"],
        "dead_letters": report["dead_letters"],
        "counts": report["counts"],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    detected = any(report["detected"].values())
    annotate(
        verdict="detected" if detected else "none-detected",
        stats={"queries": len(queries), "accepted": totals["accepted"]},
    )
    return 0 if detected else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Global predicate detection in distributed computations "
        "(Mittal & Garg, ICDCS 2001).",
    )
    parser.add_argument(
        "--runs-ledger", default=None, metavar="PATH",
        help="append this run's repro-run-v1 record to PATH "
        "(default .repro/runs.jsonl; env REPRO_RUNS overrides, "
        "REPRO_RUNS=off disables; see docs/RUNS.md)",
    )
    parser.add_argument(
        "--no-runs-ledger", action="store_true",
        help="do not record this invocation in the run ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect a predicate on a trace")
    p_detect.add_argument("trace", help="path to a repro-trace-v1 JSON file")
    p_detect.add_argument("predicate", help='e.g. "(x@0 | x@1) & sum(v) == 2"')
    p_detect.add_argument(
        "--modality",
        choices=["possibly", "definitely"],
        default="possibly",
    )
    p_detect.add_argument(
        "--show-witness-values",
        action="store_true",
        help="include per-process variable values at the witness cut",
    )
    p_detect.add_argument(
        "--count-witnesses",
        action="store_true",
        help="also count every satisfying consistent cut (may be slow)",
    )
    p_detect.add_argument(
        "--profile",
        action="store_true",
        help="print the query's span tree and metrics snapshot to stderr",
    )
    p_detect.add_argument(
        "--progress", action="store_true",
        help="print rate-limited progress ticks to stderr while detecting",
    )
    p_detect.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="give up after MS milliseconds with a clean 'inconclusive' "
        "verdict (exit code 7) instead of running to completion",
    )
    p_detect.add_argument(
        "--no-slice", action="store_true",
        help="disable slice-first pruning of enumeration engines; "
        "verdict and witness guarantees are unchanged (docs/ALGORITHMS.md)",
    )
    p_detect.add_argument(
        "--no-infer", action="store_true",
        help="disable static classification of opaque predicates; "
        "verdicts are unchanged, opaque predicates fall back to "
        "enumeration (docs/ANALYSIS.md)",
    )
    p_detect.set_defaults(func=_cmd_detect)

    p_classify = sub.add_parser(
        "classify",
        help="statically classify an opaque Python predicate "
        "(see docs/ANALYSIS.md)",
    )
    p_classify.add_argument(
        "trace", help="path to a repro-trace-v1 JSON file"
    )
    p_classify.add_argument(
        "python",
        help="Python source of a one-cut callable, e.g. "
        "\"lambda cut: cut.value(0, 'x') and cut.value(1, 'x')\" "
        "(a bare body expression is wrapped into the lambda for you)",
    )
    p_classify.add_argument(
        "--modality",
        choices=["possibly", "definitely"],
        default="possibly",
        help="modality used for the reported engine choice",
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_slice = sub.add_parser(
        "slice",
        help="show a predicate's computation slice (bounds + reduction)",
    )
    p_slice.add_argument("trace", help="path to a repro-trace-v1 JSON file")
    p_slice.add_argument("predicate", help='e.g. "x@0 & sum(v) >= 2"')
    p_slice.add_argument(
        "--count", action="store_true",
        help="also count the cuts of the slice sublattice (may be slow)",
    )
    p_slice.set_defaults(func=_cmd_slice)

    p_profile = sub.add_parser(
        "profile",
        help="repeat a detection query and report latency percentiles "
        "and engine counters",
    )
    p_profile.add_argument("trace", help="path to a repro-trace-v1 JSON file")
    p_profile.add_argument("predicate", help='e.g. "x@0 & x@1"')
    p_profile.add_argument(
        "--modality",
        choices=["possibly", "definitely"],
        default="possibly",
    )
    p_profile.add_argument(
        "--repeat", type=int, default=10,
        help="number of timed repetitions (default 10)",
    )
    p_profile.add_argument(
        "--export", choices=["json", "prometheus"], default="json",
        help="output format on stdout (default json)",
    )
    p_profile.add_argument(
        "--spans", action="store_true",
        help="also print the final repetition's span tree to stderr",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_gen = sub.add_parser("generate", help="generate a random trace")
    p_gen.add_argument("--processes", type=int, default=4)
    p_gen.add_argument("--events", type=int, default=10)
    p_gen.add_argument("--message-density", type=float, default=0.3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--bool", action="append", metavar="NAME",
        help="add a boolean variable (repeatable)",
    )
    p_gen.add_argument(
        "--walk", action="append", metavar="NAME",
        help="add a ±1 integer variable (repeatable)",
    )
    p_gen.add_argument("--true-density", type=float, default=0.3)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the detection engines against the oracles",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed; a fuzz run is bit-for-bit reproducible per seed",
    )
    p_fuzz.add_argument(
        "--iterations", type=int, default=50,
        help="number of instances to generate (default 50)",
    )
    p_fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop after this many seconds even if iterations remain",
    )
    p_fuzz.add_argument(
        "--family", action="append", metavar="NAME",
        help="restrict to an instance family (repeatable); see docs/TESTING.md",
    )
    p_fuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write shrunk counterexamples as corpus cases into DIR",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report raw findings without minimizing them",
    )
    p_fuzz.add_argument(
        "--profile", action="store_true",
        help="print testkit.* metrics to stderr after the run",
    )
    p_fuzz.add_argument(
        "--progress", action="store_true",
        help="print rate-limited progress ticks to stderr while fuzzing",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_runs = sub.add_parser(
        "runs",
        help="inspect the run ledger of past invocations (see docs/RUNS.md)",
    )
    p_runs.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="ledger file to read (default .repro/runs.jsonl or REPRO_RUNS)",
    )
    runs_sub = p_runs.add_subparsers(dest="action")
    r_list = runs_sub.add_parser("list", help="list recorded runs")
    r_list.add_argument(
        "-n", type=int, default=20, help="show at most N latest runs"
    )
    r_show = runs_sub.add_parser("show", help="print one run record as JSON")
    r_show.add_argument(
        "ref", help="run reference: id prefix, 1-based index, -1, prev, last"
    )
    r_show.add_argument(
        "--otlp", action="store_true",
        help="print the record's span tree as OTLP/JSON instead",
    )
    r_last = runs_sub.add_parser("last", help="print the latest run record")
    r_last.add_argument(
        "--otlp", action="store_true",
        help="print the record's span tree as OTLP/JSON instead",
    )
    r_diff = runs_sub.add_parser(
        "diff", help="metric and latency deltas between two runs"
    )
    r_diff.add_argument(
        "refs", nargs="*",
        help="two run references (default: prev last)",
    )
    for action_parser in (r_list, r_show, r_last, r_diff):
        # Accept --ledger after the action too (`runs diff --ledger P`).
        # SUPPRESS keeps the subparser from clobbering the value the
        # parent parser already stored.
        action_parser.add_argument(
            "--ledger", default=argparse.SUPPRESS, metavar="PATH",
            help=argparse.SUPPRESS,
        )
    p_runs.set_defaults(func=_cmd_runs, action=None)

    p_lint = sub.add_parser(
        "lint",
        help="run the static-analysis suite over source paths "
        "(see docs/ANALYSIS.md)",
    )
    p_lint.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="files or directories to lint (e.g. src/repro examples)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format on stdout (default text)",
    )
    p_lint.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule codes/slugs to run exclusively "
        "(repeatable), e.g. DET101,unsorted-set-iteration",
    )
    p_lint.add_argument(
        "--ignore", action="append", metavar="RULES",
        help="comma-separated rule codes/slugs to skip (repeatable)",
    )
    p_lint.add_argument(
        "--docs-root", default=None, metavar="DIR",
        help="directory holding ALGORITHMS.md and OBSERVABILITY.md "
        "(default: auto-discover a docs/ directory near the paths)",
    )
    p_lint.add_argument(
        "--require-docs", action="store_true",
        help="fail (exit 6) when the canonical-key docs cannot be found "
        "instead of skipping the conformance rules",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_sim = sub.add_parser("simulate", help="run a bundled protocol")
    p_sim.add_argument(
        "protocol",
        choices=[
            "token-ring",
            "leader-election",
            "primary-backup",
            "resource-pool",
            "lock-server",
        ],
    )
    p_sim.add_argument("--processes", type=int, default=5)
    p_sim.add_argument("--rounds", type=int, default=6)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--rogue", type=int, default=None,
        help="token-ring only: index of the process with the injected bug",
    )
    p_sim.add_argument(
        "--variant",
        choices=["deadlock", "crash-restart"],
        default="deadlock",
        help="lock-server only: workload variant (crash-restart is the "
        "deterministic mutual-exclusion-violation demo, see docs/FAULTS.md)",
    )
    p_sim.add_argument(
        "--conflicting-order",
        action="store_true",
        help="lock-server deadlock variant only: clients acquire locks in "
        "opposite orders (hold-and-wait cycle)",
    )
    p_sim.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="inject faults from a JSON fault plan (see docs/FAULTS.md); "
        "injected faults are recorded in the trace's meta.faults",
    )
    p_sim.add_argument(
        "--profile",
        action="store_true",
        help="print the simulation's span tree and metrics (including "
        "sim.faults.* counters) to stderr",
    )
    p_sim.add_argument("-o", "--output", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_render = sub.add_parser(
        "render", help="render a trace (or its cut lattice) as Graphviz DOT"
    )
    p_render.add_argument("trace")
    p_render.add_argument(
        "--what", choices=["computation", "lattice"], default="computation"
    )
    p_render.add_argument(
        "--variable", default=None,
        help="computation only: double-circle events where this boolean holds",
    )
    p_render.add_argument(
        "--predicate", default=None,
        help="lattice only: fill cuts satisfying this predicate expression",
    )
    p_render.add_argument("--max-cuts", type=int, default=500)
    p_render.add_argument("-o", "--output", required=True)
    p_render.set_defaults(func=_cmd_render)

    p_serve = sub.add_parser(
        "serve",
        help="run the resilient multi-session monitoring service "
        "(docs/SERVICE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = ephemeral; the bound port is printed on the "
        "ready line)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="supervised worker threads sessions are sharded across",
    )
    p_serve.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist per-session checkpoints as DIR/<session>.ckpt.json "
        "(atomic rename)",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=64, metavar="N",
        help="journal entries between periodic checkpoints",
    )
    p_serve.add_argument(
        "--policy", default="block",
        choices=["block", "reject", "reject-with-retry-after", "degrade"],
        help="default backpressure policy for sessions that don't pick one",
    )
    p_serve.add_argument(
        "--queue-capacity", type=int, default=256, metavar="N",
        help="default per-session ingest-queue bound",
    )
    p_serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write 'host port' to PATH once the service accepts requests",
    )
    p_serve.add_argument(
        "--drain-timeout-s", type=float, default=30.0, metavar="S",
        help="per-session settle budget during graceful drain",
    )
    p_serve.add_argument(
        "--progress", action="store_true",
        help="print rate-limited service heartbeats to stderr",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_feed = sub.add_parser(
        "feed",
        help="stream a trace's observations to a running 'repro serve'",
    )
    p_feed.add_argument("trace", help="path to a repro-trace-v1 JSON file")
    p_feed.add_argument("--host", default="127.0.0.1")
    p_feed.add_argument("--port", type=int, required=True)
    p_feed.add_argument(
        "--session", default=None,
        help="session id (default: the trace filename stem)",
    )
    p_feed.add_argument(
        "--query", action="append", metavar="NAME=P1,P2[,...]",
        help="a named conjunctive query over the listed processes "
        "(repeatable)",
    )
    p_feed.add_argument(
        "--all-pairs", action="store_true",
        help="add one pair(i,j) query per unordered process pair",
    )
    p_feed.add_argument(
        "--variable", default="x",
        help="boolean variable whose per-process truth feeds the monitors",
    )
    p_feed.add_argument(
        "--batch", type=int, default=16,
        help="observations per protocol request",
    )
    p_feed.add_argument(
        "--strict", action="store_true",
        help="open the session with strict (non-lossy) monitors",
    )
    p_feed.add_argument(
        "--policy", default=None,
        choices=["block", "reject", "reject-with-retry-after", "degrade"],
        help="backpressure policy for this session (default: the server's)",
    )
    p_feed.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="ingest-queue bound for this session (default: the server's)",
    )
    p_feed.add_argument(
        "--retries", type=int, default=5,
        help="max attempts per request (transient failures + rejects)",
    )
    p_feed.add_argument(
        "--backoff-ms", type=float, default=50.0, metavar="MS",
        help="initial retry backoff (doubles per attempt, capped at 2s)",
    )
    p_feed.add_argument(
        "--jitter", type=float, default=0.5,
        help="fraction of the backoff randomized (seeded; 0 disables)",
    )
    p_feed.add_argument(
        "--seed", type=int, default=0, help="jitter seed (reproducible runs)",
    )
    p_feed.add_argument(
        "--timeout-s", type=float, default=10.0,
        help="per-request socket timeout",
    )
    p_feed.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="give up after MS milliseconds with a clean 'inconclusive' "
        "payload (exit code 7) instead of retrying forever",
    )
    p_feed.set_defaults(func=_cmd_feed)

    p_info = sub.add_parser("info", help="summarize a trace")
    p_info.add_argument("trace")
    p_info.add_argument(
        "--lattice-limit", type=int, default=24,
        help="count consistent cuts only when total events <= this",
    )
    p_info.add_argument(
        "--deep", action="store_true",
        help="include structural statistics (width, density, variable "
        "regimes)",
    )
    p_info.set_defaults(func=_cmd_info)

    return parser


def _fail(message: str, code: int) -> int:
    print(f"repro: {message}", file=sys.stderr)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    from repro.analysis import AnalysisError
    from repro.computation import ComputationError
    from repro.monitor import MonitorError
    from repro.predicates import PredicateError
    from repro.service import ServiceError
    from repro.simulation import FaultPlanError, SimulationError
    from repro.trace import TraceFormatError

    try:
        return args.func(args)
    except PredicateError as exc:
        return _fail(f"bad predicate: {exc}", 2)
    except FaultPlanError as exc:
        return _fail(f"bad fault plan: {exc}", 4)
    except AnalysisError as exc:
        return _fail(f"lint failed: {exc}", 6)
    except (TraceFormatError, ComputationError) as exc:
        return _fail(f"bad trace: {exc}", 3)
    except OSError as exc:
        return _fail(str(exc), 3)
    except SimulationError as exc:
        return _fail(f"simulation failed: {exc}", 4)
    except MonitorError as exc:
        return _fail(f"monitor failed: {exc}", 5)
    except ServiceError as exc:
        return _fail(f"service failed: {exc}", 8)
    except ValueError as exc:
        # e.g. an unknown --family name passed to fuzz.
        return _fail(str(exc), 2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ledger_path = None
    if args.command != "runs" and not args.no_runs_ledger:
        from repro.obs import ledger

        ledger_path = ledger.resolve_ledger_path(args.runs_ledger)
    if ledger_path is None:
        return _dispatch(args)
    from repro.obs import ledger

    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    with ledger.RunRecorder(ledger_path, args.command, raw_argv) as recorder:
        code = _dispatch(args)
        recorder.exit_code = code
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
