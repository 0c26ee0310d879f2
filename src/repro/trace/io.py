"""JSON (de)serialization of computations.

The on-disk format is deliberately simple and stable so traces recorded by
other tooling can be imported::

    {
      "format": "repro-trace-v1",
      "processes": [
        [ {"kind": "initial", "values": {...}},
          {"kind": "send", "values": {...}, "label": "f"}, ... ],
        ...
      ],
      "messages": [ [[1, 1], [2, 1]], ... ],
      "meta": {"faults": {...}}          # optional provenance metadata
    }

Only JSON-representable variable values survive a round trip (bool, int,
float, str, None, and nested lists/dicts thereof) — which covers every
predicate in this library.

Malformed payloads raise :class:`TraceFormatError` (a ``ValueError``) with
a message naming the file, the offending key, and the expected shape —
never a raw ``KeyError``/``TypeError``.  Payloads that parse but violate
the computation's *semantic* rules (dangling message endpoints, cyclic
dependencies, ...) still raise the usual
:class:`~repro.computation.errors.ComputationError` subclasses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.computation import Computation
from repro.events import Event, EventKind
from repro.obs.spans import layer_span

__all__ = [
    "TraceFormatError",
    "computation_to_dict",
    "computation_from_dict",
    "dump_computation",
    "load_computation",
]

FORMAT = "repro-trace-v1"


class TraceFormatError(ValueError):
    """A trace payload is structurally malformed (bad JSON shape)."""


def computation_to_dict(computation: Computation) -> Dict[str, Any]:
    """Serialize to a JSON-compatible dictionary."""
    processes: List[List[Dict[str, Any]]] = []
    for p in range(computation.num_processes):
        events: List[Dict[str, Any]] = []
        for ev in computation.events_of(p):
            record: Dict[str, Any] = {
                "kind": ev.kind.value,
                "values": dict(ev.values),
            }
            if ev.label is not None:
                record["label"] = ev.label
            events.append(record)
        processes.append(events)
    payload: Dict[str, Any] = {
        "format": FORMAT,
        "processes": processes,
        "messages": [
            [list(send), list(recv)] for send, recv in computation.messages
        ],
    }
    if computation.meta:
        payload["meta"] = dict(computation.meta)
    return payload


#: Event kinds by their JSON value (the loader's fast path; any other
#: input falls back to ``EventKind(value)``).
_KINDS = {kind.value: kind for kind in EventKind}


def _is_list(value: Any) -> bool:
    """A JSON array: any ``Sequence`` except ``str``/``bytes``."""
    kind = type(value)
    if kind is list or kind is tuple:
        return True
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _is_object(value: Any) -> bool:
    """A JSON object: any ``Mapping``."""
    return type(value) is dict or isinstance(value, Mapping)


def _parse_endpoint(
    entry: Any, what: str, fail: "_Fail"
) -> tuple:
    if not _is_list(entry) or len(entry) != 2:
        fail(f"{what} must be a [process, index] pair, got {entry!r}")
    process, index = entry
    if type(process) is not int or type(index) is not int:
        for part in (process, index):
            if isinstance(part, bool) or not isinstance(part, int):
                fail(f"{what} components must be integers, got {entry!r}")
    return (process, index)


class _Fail:
    """Raises :class:`TraceFormatError` with an optional source prefix."""

    def __init__(self, source: Optional[str]):
        self._prefix = f"{source}: " if source else ""

    def __call__(self, message: str) -> None:
        raise TraceFormatError(self._prefix + message)


def _parse_kind(raw: Any, p: int, i: int, fail: _Fail) -> EventKind:
    """The slow path of the kind lookup: whatever ``EventKind`` accepts."""
    try:
        return EventKind(raw)
    except ValueError:
        fail(
            f"process {p}, event {i}: unknown event kind {raw!r} "
            f"(expected one of {sorted(k.value for k in EventKind)})"
        )


def computation_from_dict(
    data: Mapping[str, Any], source: Optional[str] = None
) -> Computation:
    """Deserialize a computation; validates structure and format tag.

    Args:
        data: The parsed JSON payload.
        source: Optional provenance (e.g. a file name) prefixed to error
            messages.

    Raises:
        TraceFormatError: If the payload shape is malformed.
        ComputationError: If the payload parses but describes an invalid
            computation (bad message endpoints, cycles, ...).
    """
    fail = _Fail(source)
    if not _is_object(data):
        fail(f"trace must be a JSON object, got {type(data).__name__}")
    fmt = data.get("format")
    if fmt != FORMAT:
        fail(f"unsupported trace format {fmt!r}; expected {FORMAT!r}")
    if "processes" not in data:
        fail("missing required key 'processes'")
    with layer_span("trace.decode") as sp:
        process_events, messages, meta = _decode(data, fail)
        sp.set(
            processes=len(process_events),
            events=sum(len(events) for events in process_events),
            messages=len(messages),
        )
    return Computation(process_events, messages, meta=meta)


def _decode(data: Mapping[str, Any], fail: _Fail):
    """Events, message edges and meta of a payload, shape-checked."""
    raw_processes = data["processes"]
    if not _is_list(raw_processes):
        fail(
            "'processes' must be a list of per-process event lists, got "
            f"{type(raw_processes).__name__}"
        )
    process_events: List[List[Event]] = []
    for p, records in enumerate(raw_processes):
        if not _is_list(records):
            fail(
                f"process {p}: events must be a list, got "
                f"{type(records).__name__}"
            )
        events: List[Event] = []
        for i, record in enumerate(records):
            if not _is_object(record):
                fail(
                    f"process {p}, event {i}: expected an object, got "
                    f"{type(record).__name__}"
                )
            if "kind" not in record:
                fail(f"process {p}, event {i}: missing required key 'kind'")
            raw_kind = record["kind"]
            kind = _KINDS.get(raw_kind) if type(raw_kind) is str else None
            if kind is None:
                kind = _parse_kind(raw_kind, p, i, fail)
            values = record.get("values", {})
            if not _is_object(values):
                fail(
                    f"process {p}, event {i}: 'values' must be an object, "
                    f"got {type(values).__name__}"
                )
            label = record.get("label")
            if label is not None and not isinstance(label, str):
                fail(
                    f"process {p}, event {i}: 'label' must be a string, "
                    f"got {label!r}"
                )
            events.append(Event(p, i, kind, dict(values), label))
        process_events.append(events)
    raw_messages = data.get("messages", [])
    if not _is_list(raw_messages):
        fail(f"'messages' must be a list, got {type(raw_messages).__name__}")
    messages = []
    for m, entry in enumerate(raw_messages):
        if not _is_list(entry) or len(entry) != 2:
            fail(
                f"message {m} must be a [send, receive] pair, got {entry!r}"
            )
        send = _parse_endpoint(entry[0], f"message {m} send endpoint", fail)
        recv = _parse_endpoint(entry[1], f"message {m} receive endpoint", fail)
        messages.append((send, recv))
    meta = data.get("meta")
    if meta is not None and not _is_object(meta):
        fail(f"'meta' must be an object, got {type(meta).__name__}")
    return process_events, messages, meta


def dump_computation(
    computation: Computation, path: Union[str, Path]
) -> None:
    """Write the computation as JSON to ``path``."""
    payload = computation_to_dict(computation)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_computation(path: Union[str, Path]) -> Computation:
    """Read a computation previously written by :func:`dump_computation`.

    Raises:
        TraceFormatError: On an unreadable file, invalid JSON, or a
            malformed payload — always with the file name in the message.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot read trace: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: invalid JSON: {exc}") from exc
    return computation_from_dict(data, source=str(path))
