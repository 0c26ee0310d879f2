"""Tracing spans: nested wall-time measurements with structured attributes.

A span measures one region of work::

    with span("engine.cpdhb", chains=len(chains)) as sp:
        ...
        sp.set(advances=scan.advances)

Spans nest through a thread-local stack, so engine dispatch (e.g.
``detect`` → ``detect_singular`` → per-combination CPDHB scans) yields a
real call tree; finished top-level spans land in the thread's root list,
harvested by :class:`Capture`.

When observability is disabled (the default) :func:`span` returns a shared
:data:`NOOP` object whose ``__enter__``/``__exit__``/``set`` do nothing —
the only per-call-site cost is the ``STATE.enabled`` attribute check.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.obs.config import STATE
from repro.obs.metrics import registry

__all__ = ["Span", "span", "layer_span", "current_span", "Capture", "NOOP"]


class _NoopSpan:
    """Shared do-nothing stand-in used when observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attributes: Any) -> None:
        pass


NOOP = _NoopSpan()

_local = threading.local()


def _stack() -> List["Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _roots() -> List["Span"]:
    roots = getattr(_local, "roots", None)
    if roots is None:
        roots = _local.roots = []
    return roots


class Span:
    """One timed region.  Acts as its own context manager."""

    __slots__ = (
        "name", "attributes", "start_time", "end_time", "children", "rooted",
    )

    def __init__(
        self, name: str, attributes: Dict[str, Any], rooted: bool = True
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.start_time: float = 0.0
        self.end_time: Optional[float] = None
        self.children: List[Span] = []
        #: False for :func:`layer_span` spans: they never become roots.
        self.rooted = rooted

    def set(self, **attributes: Any) -> None:
        """Attach structured attributes to the span."""
        self.attributes.update(attributes)

    @property
    def duration_ms(self) -> float:
        end = self.end_time if self.end_time is not None else perf_counter()
        return (end - self.start_time) * 1000.0

    def __enter__(self) -> "Span":
        _stack().append(self)
        self.start_time = perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.end_time = perf_counter()
        stack = _stack()
        # Tolerate foreign frames: pop self wherever it is (normally last).
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - misnested exit
            stack.remove(self)
        if stack:
            stack[-1].children.append(self)
        elif self.rooted:
            _roots().append(self)
        registry().histogram("span." + self.name + ".ms").record(
            self.duration_ms
        )
        return False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly tree form."""
        return {
            "name": self.name,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f}ms, "
            f"{len(self.children)} children)"
        )


def span(name: str, **attributes: Any):
    """Open a span (use as a context manager); no-op when disabled."""
    if not STATE.enabled:
        return NOOP
    return Span(name, attributes)


def layer_span(name: str, **attributes: Any):
    """Open a span over an ingest layer (trace decoding, clock building).

    It nests like :func:`span` under the innermost open span, but opened
    outside every span it records only its ``span.<name>.ms`` histogram and
    never becomes a root.  Traces are loaded before a query starts and
    indices are built lazily inside one, so this keeps their timings
    without changing which roots a captured run has.  No-op when disabled.
    """
    if not STATE.enabled:
        return NOOP
    return Span(name, attributes, rooted=False)


def current_span():
    """The innermost open span of this thread, or the no-op stand-in."""
    if not STATE.enabled:
        return NOOP
    stack = getattr(_local, "stack", None)
    if not stack:
        return NOOP
    return stack[-1]


def take_roots() -> List[Span]:
    """Drain and return this thread's finished top-level spans."""
    roots = _roots()
    _local.roots = []
    return roots


class Capture:
    """Scoped profiling session: enable, record, restore.

    Resets the global metrics registry and this thread's span roots on
    entry so the snapshot covers exactly the captured region::

        with Capture() as cap:
            detect(computation, predicate)
        print(cap.registry.to_json())
        for root in cap.roots: ...

    On exit the previous enabled/disabled state is restored; the registry
    object stays readable (it is the live global registry).
    """

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self.registry = registry()
        self._prev_enabled = False

    def __enter__(self) -> "Capture":
        self._prev_enabled = STATE.enabled
        self.registry.reset()
        take_roots()
        _stack().clear()
        STATE.enabled = True
        return self

    def __exit__(self, *exc: object) -> bool:
        STATE.enabled = self._prev_enabled
        self.roots = take_roots()
        # An exception inside the capture can leave open spans on the
        # thread-local stack; drop them so consecutive captures in one
        # process never inherit residual frames.
        _stack().clear()
        return False
