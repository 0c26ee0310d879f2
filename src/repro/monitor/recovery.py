"""Checkpoint / restore for online monitors (crash-tolerant monitoring).

The checker process of a deployed monitor can itself crash.  Because
:class:`~repro.monitor.online.OnlineConjunctiveMonitor` keeps only a small
amount of state — the pending candidate queues, per-process stream
positions, and the gap/quarantine bookkeeping — that state serializes to a
compact JSON document.  A monitor restarted from a checkpoint resumes the
stream exactly where it left off: feeding the remainder of the
observations yields the same verdict and witness as an uninterrupted run
(verified property in the tests).

This module is the monitor's serialization *friend*: it reaches into the
monitor's private fields so the hot observation path stays free of any
persistence concerns.

::

    from repro.monitor import recovery

    state = recovery.checkpoint_monitor(monitor)      # JSON-safe dict
    recovery.save_monitor(monitor, "monitor.ckpt")    # ... or straight to disk

    monitor = recovery.restore_monitor(state)         # after the restart
    monitor = recovery.load_monitor("monitor.ckpt")

:class:`~repro.monitor.multiplex.MonitorGroup` checkpoints the same way
with :func:`checkpoint_group` / :func:`restore_group`.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from repro.events import VectorClock
from repro.monitor.multiplex import MonitorGroup
from repro.monitor.online import MonitorError, OnlineConjunctiveMonitor, _Candidate

__all__ = [
    "MONITOR_STATE_FORMAT",
    "GROUP_STATE_FORMAT",
    "checkpoint_group",
    "checkpoint_monitor",
    "load_group",
    "load_monitor",
    "restore_group",
    "restore_monitor",
    "save_group",
    "save_monitor",
    "write_checkpoint_text",
]

MONITOR_STATE_FORMAT = "repro-monitor-state-v1"
GROUP_STATE_FORMAT = "repro-monitor-group-state-v1"


def checkpoint_monitor(monitor: OnlineConjunctiveMonitor) -> Dict[str, Any]:
    """Serialize the monitor's full state to a JSON-safe dictionary.

    Per-process entries are sorted by process id (and the document is
    written with ``sort_keys=True`` by :func:`save_monitor`), so two
    monitors with identical logical state checkpoint to byte-identical
    JSON regardless of registration or restore order.
    """
    witness = None
    if monitor._witness is not None:
        witness = [
            [p, index, list(clock)]
            for p, (index, clock) in sorted(monitor._witness.items())
        ]
    return {
        "format": MONITOR_STATE_FORMAT,
        "num_processes": monitor._n,
        "monitored": sorted(monitor._monitored),
        "lossy": monitor._lossy,
        "last_index": [[p, i] for p, i in sorted(monitor._last_index.items())],
        "finished": sorted(
            p for p, done in monitor._finished.items() if done
        ),
        "queues": [
            [p, [[c.index, list(c.clock)] for c in queue]]
            for p, queue in sorted(monitor._queues.items())
        ],
        "gaps": [
            [p, [list(span) for span in spans]]
            for p, spans in sorted(monitor._gaps.items())
        ],
        "quarantined": [
            [p, [[index, list(clock), truth] for index, clock, truth in items]]
            for p, items in sorted(monitor._quarantine.items())
        ],
        "witness": witness,
        "witness_gapped": monitor._witness_gapped,
        "impossible": monitor._impossible,
        "observations": monitor.observations,
        "eliminations": monitor.eliminations,
        "stale_dropped": monitor.stale_dropped,
    }


def restore_monitor(state: Mapping[str, Any]) -> OnlineConjunctiveMonitor:
    """Rebuild a monitor from a :func:`checkpoint_monitor` dictionary.

    An undecided monitor's queues are settled once, every monitored
    process seeded, before it is returned: a checkpoint is already at the
    elimination fixpoint and stays as it is, while a document that is not
    has its eliminated heads popped (and counted) and its conclusion
    drawn.

    Raises:
        MonitorError: If the state document is malformed.
    """
    if not isinstance(state, Mapping):
        raise MonitorError(
            f"monitor state must be an object, got {type(state).__name__}"
        )
    fmt = state.get("format")
    if fmt != MONITOR_STATE_FORMAT:
        raise MonitorError(
            f"unsupported monitor state format {fmt!r}; "
            f"expected {MONITOR_STATE_FORMAT!r}"
        )
    try:
        monitor = OnlineConjunctiveMonitor(
            state["num_processes"],
            state["monitored"],
            lossy=state.get("lossy", False),
        )
        for p, index in state["last_index"]:
            if p not in monitor._last_index:
                raise MonitorError(f"state refers to unmonitored process {p}")
            monitor._last_index[p] = index
        for p in state.get("finished", []):
            if p not in monitor._finished:
                raise MonitorError(f"state refers to unmonitored process {p}")
            monitor._finished[p] = True
        for p, queue in state["queues"]:
            if p not in monitor._queues:
                raise MonitorError(f"state refers to unmonitored process {p}")
            candidates = deque(
                _Candidate(index, VectorClock(clock)) for index, clock in queue
            )
            if any(len(c.clock) != monitor._n for c in candidates):
                raise MonitorError(f"clock dimension mismatch in queue of {p}")
            monitor._queues[p] = candidates
        for p, spans in state.get("gaps", []):
            monitor._gaps[p] = [(a, b) for a, b in spans]
        for p, items in state.get("quarantined", []):
            monitor._quarantine[p] = [
                (index, VectorClock(clock), bool(truth))
                for index, clock, truth in items
            ]
        witness = state.get("witness")
        if witness is not None:
            monitor._witness = {
                p: (index, VectorClock(clock)) for p, index, clock in witness
            }
        monitor._witness_gapped = bool(state.get("witness_gapped", False))
        monitor._impossible = bool(state.get("impossible", False))
        monitor.observations = int(state.get("observations", 0))
        monitor.eliminations = int(state.get("eliminations", 0))
        monitor.stale_dropped = int(state.get("stale_dropped", 0))
        if not (monitor.detected or monitor.impossible):
            # Observations only compare heads that change, so they rely on
            # the heads being settled; a document may not be.
            monitor._settle(monitor.monitored)
    except MonitorError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MonitorError(f"malformed monitor state: {exc!r}") from exc
    return monitor


def checkpoint_group(group: MonitorGroup) -> Dict[str, Any]:
    """Serialize a :class:`MonitorGroup` and all its monitors.

    Monitors are sorted by name so the checkpoint bytes do not depend on
    registration order.
    """
    return {
        "format": GROUP_STATE_FORMAT,
        "num_processes": group._n,
        "lossy": group._lossy,
        "monitors": [
            [name, checkpoint_monitor(monitor)]
            for name, monitor in sorted(group._monitors.items())
        ],
    }


def restore_group(state: Mapping[str, Any]) -> MonitorGroup:
    """Rebuild a :class:`MonitorGroup` from a :func:`checkpoint_group` dict."""
    if not isinstance(state, Mapping):
        raise MonitorError(
            f"group state must be an object, got {type(state).__name__}"
        )
    fmt = state.get("format")
    if fmt != GROUP_STATE_FORMAT:
        raise MonitorError(
            f"unsupported group state format {fmt!r}; "
            f"expected {GROUP_STATE_FORMAT!r}"
        )
    try:
        group = MonitorGroup(
            state["num_processes"], lossy=state.get("lossy", False)
        )
        for name, monitor_state in state["monitors"]:
            monitor = restore_monitor(monitor_state)
            group._monitors[name] = monitor
            for p in monitor.monitored:
                group._interested.setdefault(p, []).append(name)
    except MonitorError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MonitorError(f"malformed group state: {exc!r}") from exc
    return group


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
def write_checkpoint_text(path: Union[str, Path], text: str) -> None:
    """Crash-safe file write: temp file in the same directory + rename.

    A checkpoint exists to survive the very crash that may interrupt
    writing it, so the bytes are staged in a sibling temp file, flushed
    and fsynced, and only then atomically renamed over ``path`` — a
    reader (or a restart) sees either the previous complete checkpoint
    or the new complete one, never a torn prefix.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        # On any failure past creation (including a failed rename) the
        # target is untouched; just drop the stale temp file.
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


def save_monitor(
    monitor: OnlineConjunctiveMonitor, path: Union[str, Path]
) -> None:
    """Atomically write the monitor's checkpoint as JSON to ``path``."""
    write_checkpoint_text(
        path, json.dumps(checkpoint_monitor(monitor), indent=2, sort_keys=True)
    )


def load_monitor(path: Union[str, Path]) -> OnlineConjunctiveMonitor:
    """Read a checkpoint previously written by :func:`save_monitor`."""
    return restore_monitor(_load_json(path))


def save_group(group: MonitorGroup, path: Union[str, Path]) -> None:
    """Atomically write the group's checkpoint as JSON to ``path``."""
    write_checkpoint_text(
        path, json.dumps(checkpoint_group(group), indent=2, sort_keys=True)
    )


def load_group(path: Union[str, Path]) -> MonitorGroup:
    """Read a checkpoint previously written by :func:`save_group`."""
    return restore_group(_load_json(path))


def _load_json(path: Union[str, Path]) -> Any:
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise MonitorError(f"{path}: cannot read checkpoint: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MonitorError(f"{path}: invalid JSON: {exc}") from exc
