"""The distributed computation poset (substrate S2).

A :class:`Computation` is the finite trace object every algorithm in this
library consumes: for each process a sequence of events (beginning with a
fictitious initial event), plus the message edges relating send events to
their receive events.  The induced irreflexive partial order *precedes*
(happened-before) is the transitive closure of

* the local order on each process,
* the message edges, and
* "every initial event precedes every non-initial event" (paper, Section 2.1).

The class computes every event's Fidge–Mattern vector clock once, at
construction, into one table of component tuples (:attr:`clock_table`);
the same sweep verifies acyclicity.  Every consumer reads that table:
happened-before and pairwise consistency are O(1) component reads, cut
consistency is O(n^2) (n = number of processes), and
:class:`repro.perf.causality.CausalityIndex` and its clock matrix are
built from it without recomputing a clock.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.computation.errors import (
    ComputationError,
    CyclicComputationError,
    UnknownEventError,
)
from repro.events import Event, EventId, EventKind, VectorClock
from repro.obs.spans import layer_span

__all__ = ["Computation", "MessageEdge"]

#: A message edge relates a send event to its receive event.
MessageEdge = Tuple[EventId, EventId]

#: Kinds that may send, resp. receive, a message.
_SENDS = frozenset(kind for kind in EventKind if kind.is_send)
_RECEIVES = frozenset(kind for kind in EventKind if kind.is_receive)

#: ``table[p][i]`` is the clock component tuple of event ``(p, i)``.
ClockTable = Tuple[Tuple[Tuple[int, ...], ...], ...]


class Computation:
    """An immutable distributed computation.

    Construct directly from per-process event lists and message edges, or use
    :class:`repro.computation.builder.ComputationBuilder` for incremental
    construction, or record one from the simulator
    (:mod:`repro.simulation`).

    Args:
        process_events: For each process, its events in local order.  The
            first event of each process must be its initial event (index 0,
            kind ``INITIAL``); builders insert it automatically.
        messages: Send/receive event-id pairs.  Both endpoints must exist,
            the endpoints must be on different processes or at least be
            distinct events, and neither endpoint may be an initial event.

    Raises:
        ComputationError: On malformed inputs.
        CyclicComputationError: If local order plus message edges is cyclic.

    Construction validates the inputs once and computes all vector clocks
    into :attr:`clock_table`; no query recomputes or re-validates a clock.
    """

    def __init__(
        self,
        process_events: Sequence[Sequence[Event]],
        messages: Iterable[MessageEdge] = (),
        *,
        meta: Optional[Mapping[str, object]] = None,
    ):
        if not process_events:
            raise ComputationError("a computation needs at least one process")
        processes = len(process_events)
        with layer_span("computation.build", processes=processes) as sp:
            self._meta: Dict[str, object] = dict(meta) if meta else {}
            self._events: Tuple[Tuple[Event, ...], ...] = tuple(
                tuple(seq) for seq in process_events
            )
            self._messages: Tuple[MessageEdge, ...] = tuple(messages)
            self._validate_events()
            self._validate_messages()
            # Message adjacency by event id.
            self._sent_from: Dict[EventId, List[EventId]] = {}
            self._received_at: Dict[EventId, List[EventId]] = {}
            for send_id, recv_id in self._messages:
                self._sent_from.setdefault(send_id, []).append(recv_id)
                self._received_at.setdefault(recv_id, []).append(send_id)
            with layer_span("computation.clocks"):
                self._clk: ClockTable = _clock_table(
                    [len(seq) for seq in self._events], self._messages
                )
            sp.set(events=self.total_events(), messages=len(self._messages))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        """Number of processes in the computation."""
        return len(self._events)

    @property
    def messages(self) -> Tuple[MessageEdge, ...]:
        """All (send-id, receive-id) message edges."""
        return self._messages

    @property
    def meta(self) -> Mapping[str, object]:
        """Structured provenance metadata (e.g. injected faults).

        Carries information *about* the recording — such as the fault plan
        and the faults actually injected by the simulator — that is not
        part of the event structure itself.  Algorithms never read it; it
        exists so results can be cross-referenced with how the trace was
        produced.  Round-trips through the JSON trace format.
        """
        return self._meta

    def events_of(self, process: int) -> Tuple[Event, ...]:
        """All events of ``process`` in local order (initial event first)."""
        self._check_process(process)
        return self._events[process]

    def num_events(self, process: int) -> int:
        """Number of events of ``process`` *excluding* the initial event."""
        self._check_process(process)
        return len(self._events[process]) - 1

    def total_events(self) -> int:
        """Total number of non-initial events in the computation."""
        return sum(len(seq) - 1 for seq in self._events)

    def event(self, event_id: EventId) -> Event:
        """The event with the given ``(process, index)`` id."""
        process, index = event_id
        self._check_process(process)
        if not 0 <= index < len(self._events[process]):
            raise UnknownEventError(event_id)
        return self._events[process][index]

    def has_event(self, event_id: EventId) -> bool:
        """True iff ``event_id`` denotes an event of this computation."""
        process, index = event_id
        return (
            0 <= process < len(self._events)
            and 0 <= index < len(self._events[process])
        )

    def all_events(self, include_initial: bool = False) -> Iterator[Event]:
        """Iterate over every event, process by process."""
        for seq in self._events:
            start = 0 if include_initial else 1
            yield from seq[start:]

    def initial_event(self, process: int) -> Event:
        """The fictitious initial event of ``process``."""
        return self.events_of(process)[0]

    def final_event(self, process: int) -> Event:
        """The last event of ``process`` (its initial event if it has none)."""
        return self.events_of(process)[-1]

    def predecessor(self, event_id: EventId) -> Optional[EventId]:
        """Local predecessor ``pred(e)`` or None for an initial event."""
        process, index = event_id
        if not self.has_event(event_id):
            raise UnknownEventError(event_id)
        if index == 0:
            return None
        return (process, index - 1)

    def successor(self, event_id: EventId) -> Optional[EventId]:
        """Local successor ``succ(e)`` or None for a final event."""
        process, index = event_id
        if not self.has_event(event_id):
            raise UnknownEventError(event_id)
        if index + 1 >= len(self._events[process]):
            return None
        return (process, index + 1)

    def message_targets(self, event_id: EventId) -> Tuple[EventId, ...]:
        """Receive events of the messages sent at ``event_id``."""
        return tuple(self._sent_from.get(event_id, ()))

    def message_sources(self, event_id: EventId) -> Tuple[EventId, ...]:
        """Send events of the messages received at ``event_id``."""
        return tuple(self._received_at.get(event_id, ()))

    @property
    def clock_table(self) -> ClockTable:
        """All vector clocks: ``clock_table[p][i]`` is the component tuple
        of event ``(p, i)``.

        Computed once at construction and shared, not copied, by every
        consumer (:class:`~repro.perf.causality.CausalityIndex`, its clock
        matrix, :class:`~repro.computation.cut.Cut`).  Component ``q``
        counts the events of process ``q``, initial event included, that
        precede or equal the event.  An initial event ``(p, 0)`` carries
        the unit vector of ``p``.
        """
        return self._clk

    def clock(self, event_id: EventId) -> VectorClock:
        """The Fidge–Mattern vector clock of the event (a view of its row
        in :attr:`clock_table`)."""
        if not self.has_event(event_id):
            raise UnknownEventError(event_id)
        return VectorClock.unchecked(self._clk[event_id[0]][event_id[1]])

    # ------------------------------------------------------------------
    # Causality queries
    # ------------------------------------------------------------------
    def happened_before(self, e: EventId, f: EventId) -> bool:
        """True iff event ``e`` precedes event ``f`` (irreflexive).

        O(1): component ``p(e)`` of ``f``'s clock counts the events of
        ``e``'s process (including its initial event) in ``f``'s causal
        past, so ``e -> f`` iff that count reaches ``index(e) + 1``.
        """
        if e == f:
            return False
        if not self.has_event(e):
            raise UnknownEventError(e)
        if not self.has_event(f):
            raise UnknownEventError(f)
        # Initial events precede all non-initial events (paper, Section 2.1);
        # distinct initial events are incomparable.
        if e[1] == 0:
            return f[1] != 0
        if f[1] == 0:
            return False
        return self._clk[f[0]][f[1]][e[0]] > e[1]

    def leq(self, e: EventId, f: EventId) -> bool:
        """Reflexive causal order: ``e == f`` or ``e`` precedes ``f``."""
        return e == f or self.happened_before(e, f)

    def concurrent(self, e: EventId, f: EventId) -> bool:
        """True iff ``e`` and ``f`` are independent (incomparable)."""
        return (
            e != f
            and not self.happened_before(e, f)
            and not self.happened_before(f, e)
        )

    def pairwise_consistent(self, e: EventId, f: EventId) -> bool:
        """True iff some consistent cut passes through both events.

        Per the paper (Section 2.2), events ``e`` and ``f`` are *inconsistent*
        iff ``succ(e) -> f`` or ``succ(f) -> e`` (where a missing successor
        cannot cause inconsistency).  Two events on the same process are
        consistent only if they are the same event.
        """
        if e == f:
            return True
        if e[0] == f[0]:
            return False
        succ_e = self.successor(e)
        if succ_e is not None and self.leq(succ_e, f):
            return False
        succ_f = self.successor(f)
        if succ_f is not None and self.leq(succ_f, e):
            return False
        return True

    def causal_past_frontier(self, e: EventId) -> Tuple[int, ...]:
        """Frontier vector of the least consistent cut containing ``e``.

        Component ``j`` is the number of events of process ``j`` (counting the
        initial event) in the downward closure of ``e``; this equals the
        vector clock of ``e`` with every component clamped to at least 1
        (initial events belong to every cut).
        """
        if not self.has_event(e):
            raise UnknownEventError(e)
        return tuple(max(1, c) for c in self._clk[e[0]][e[1]])

    # ------------------------------------------------------------------
    # Structural classification (paper, Section 3.2)
    # ------------------------------------------------------------------
    def receive_events(self, process: int) -> List[EventId]:
        """Ids of the receive events of ``process`` in local order."""
        return [
            ev.event_id
            for ev in self.events_of(process)
            if ev.kind.is_receive
        ]

    def send_events(self, process: int) -> List[EventId]:
        """Ids of the send events of ``process`` in local order."""
        return [ev.event_id for ev in self.events_of(process) if ev.kind.is_send]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_process(self, process: int) -> None:
        if not 0 <= process < len(self._events):
            raise ComputationError(f"process {process} out of range")

    def _validate_events(self) -> None:
        for p, seq in enumerate(self._events):
            if not seq:
                raise ComputationError(f"process {p} has no initial event")
            for i, ev in enumerate(seq):
                if ev.process != p or ev.index != i:
                    raise ComputationError(
                        f"event at position ({p}, {i}) carries id "
                        f"({ev.process}, {ev.index})"
                    )
            if seq[0].kind is not EventKind.INITIAL:
                raise ComputationError(
                    f"first event of process {p} must have kind INITIAL"
                )
            if any(ev.kind is EventKind.INITIAL for ev in seq[1:]):
                raise ComputationError(
                    f"process {p} has an INITIAL event at a non-zero index"
                )

    def _validate_messages(self) -> None:
        events = self._events
        n = len(events)
        for send_id, recv_id in self._messages:
            sp, si = send_id
            if not (0 <= sp < n and 0 <= si < len(events[sp])):
                raise ComputationError(f"message send endpoint {send_id} unknown")
            rp, ri = recv_id
            if not (0 <= rp < n and 0 <= ri < len(events[rp])):
                raise ComputationError(
                    f"message receive endpoint {recv_id} unknown"
                )
            if send_id == recv_id:
                raise ComputationError(
                    f"message with identical endpoints {send_id}"
                )
            if si == 0 or ri == 0:
                raise ComputationError("initial events cannot exchange messages")
            send_kind = events[sp][si].kind
            if send_kind not in _SENDS:
                raise ComputationError(
                    f"event {send_id} sends a message but has kind "
                    f"{send_kind.value}"
                )
            recv_kind = events[rp][ri].kind
            if recv_kind not in _RECEIVES:
                raise ComputationError(
                    f"event {recv_id} receives a message but has kind "
                    f"{recv_kind.value}"
                )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Computation(processes={self.num_processes}, "
            f"events={self.total_events()}, messages={len(self._messages)})"
        )

    def label_index(self) -> Mapping[str, EventId]:
        """Map from event label to event id for all labelled events."""
        index: Dict[str, EventId] = {}
        for ev in self.all_events(include_initial=True):
            if ev.label is not None:
                if ev.label in index:
                    raise ComputationError(f"duplicate event label {ev.label!r}")
                index[ev.label] = ev.event_id
        return index


def _clock_table(
    lengths: Sequence[int], messages: Sequence[MessageEdge]
) -> ClockTable:
    """Fidge–Mattern clocks of every event, swept process by process.

    Each process runs forward from its initial event as far as it can: an
    event needs its local predecessor (already swept) and the send events
    of the messages it receives.  A process that reaches a receive whose
    send is not yet swept waits on the sender's process and is resumed once
    that process advances, so the sweep does O(events + messages) work.
    The running clock of each process starts at all-ones, so every
    non-initial event dominates every initial event (paper, Section 2.1);
    an initial event's own row is the unit vector of its process.

    Raises:
        CyclicComputationError: If some events can never be swept.
    """
    n = len(lengths)
    # sources[p][i]: send events of the messages received at (p, i).
    sources: List[List[Optional[List[EventId]]]] = [
        [None] * length for length in lengths
    ]
    for send, (rp, ri) in messages:
        srcs = sources[rp][ri]
        if srcs is None:
            sources[rp][ri] = [send]
        else:
            srcs.append(send)
    rows: List[List[Tuple[int, ...]]] = [
        [tuple(1 if q == p else 0 for q in range(n))] for p in range(n)
    ]
    running: List[List[int]] = [[1] * n for _ in range(n)]
    swept = [1] * n  # events of each process swept so far
    waiting: List[List[int]] = [[] for _ in range(n)]
    runnable = list(range(n - 1, -1, -1))
    while runnable:
        p = runnable.pop()
        start = i = swept[p]
        length = lengths[p]
        row, srcs_p, cur = rows[p], sources[p], running[p]
        while i < length:
            srcs = srcs_p[i]
            if srcs is not None:
                swept[p] = i
                blocker = -1
                for q, j in srcs:
                    if j >= swept[q]:
                        blocker = q
                        break
                if blocker >= 0:
                    # A same-process blocker is a backward message: a cycle.
                    if blocker != p:
                        waiting[blocker].append(p)
                    break
                for q, j in srcs:
                    cur = list(map(max, cur, rows[q][j]))
            cur[p] += 1
            row.append(tuple(cur))
            i += 1
        swept[p] = i
        running[p] = cur
        if i > start and waiting[p]:
            runnable.extend(waiting[p])
            waiting[p] = []
    processed = sum(swept) - n
    total = sum(lengths) - n
    if processed != total:
        raise CyclicComputationError(
            "event dependencies contain a cycle; "
            f"only {processed} of {total} events orderable"
        )
    return tuple(tuple(row) for row in rows)
