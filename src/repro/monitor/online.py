"""Online (streaming) conjunctive predicate detection.

The offline CPDHB scan (:mod:`repro.detection.garg_waldecker`) assumes the
whole trace is available.  In a deployed monitor — the paper's motivating
setting — each process reports its events *as they happen*, and a checker
process must raise the alarm the moment ``possibly(B)`` becomes true.

:class:`OnlineConjunctiveMonitor` is that checker.  Each monitored process
streams ``(index, vector clock, local-predicate value)`` triples in local
order (any interleaving across processes).  The monitor keeps a queue of
pending true events per process and runs the Garg–Waldecker elimination
incrementally, exploiting the O(1) happened-before test

    ``succ(e) -> f   <=>   vc(f)[p(e)] >= index(e) + 2``

(component ``p`` of a Fidge–Mattern clock counts the events of process
``p``, including its initial event, in the causal past), so eliminations
never need the successor's full clock — a candidate pair's verdict is
final the moment both clocks are known.  Detection is therefore announced
at the earliest possible observation point, with the witness event per
process.

**Cost.**  Between observations the queue heads are at the elimination
fixpoint, so only a head that changes — a true event reaching an empty
queue, or a pop — is compared, once, against every other non-empty head:
O(|monitored|) clock reads per head change, and
O(|monitored| · (true events + eliminations)) for a whole stream.  A true
event queued behind an existing head changes no head and costs only the
O(|monitored|) conclusion check.

The stream for process p must include *all* its events (true and false):
false events cost O(1) and carry the causal information that eliminates
stale candidates... they are simply ignored by the queues, but feeding
them is how a real monitor works and keeps indices honest.

**Lossy streams.**  A monitor watching a faulty system cannot assume its
own observation channel is perfect.  With ``lossy=True`` the monitor
tolerates imperfect streams instead of raising :class:`MonitorError`:

* *gaps* — a jump in the reported index (equivalently, in the process's
  own vector-clock component, since ``clock[p] == index + 1`` for a
  Fidge–Mattern labeling) means observations were lost; the gap is
  recorded and the stream continues;
* *stale or duplicated observations* (index at or below the last seen
  one, e.g. a duplicated report) are dropped and counted;
* *corrupted observations* whose index contradicts their own clock
  component are quarantined — kept aside, never used for detection.

Detection remains **sound** under gaps: every queued candidate was really
observed with its true clock, eliminations rely only on observed clocks,
and a witness is a genuinely pairwise-consistent set of true events.  What
loss costs is *completeness*: a witness whose events fell into a gap can
be missed, so (a) a detection after any gap is reported as
``detected_despite_gaps`` (an earlier witness may exist), and (b) the
monitor never concludes ``impossible`` once a gap occurred — the verdict
becomes ``inconclusive`` instead.  See ``docs/FAULTS.md``.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.events import VectorClock
from repro.obs import STATE, registry

__all__ = ["OnlineConjunctiveMonitor", "MonitorError"]


class MonitorError(Exception):
    """Monitor misuse: out-of-order or malformed observations."""


class _Candidate:
    __slots__ = ("index", "clock")

    def __init__(self, index: int, clock: VectorClock):
        self.index = index
        self.clock = clock


class OnlineConjunctiveMonitor:
    """Streaming detector for a conjunctive predicate.

    Args:
        num_processes: Total processes in the system (clock dimension).
        monitored: The processes hosting a conjunct, in any order.

    Feed observations with :meth:`observe`; query :attr:`detected` /
    :attr:`witness` at any time.  Call :meth:`finish` when a process's
    stream ends so the monitor can conclude impossibility.

    Args:
        lossy: Tolerate imperfect streams (observation gaps, duplicates,
            corrupted reports) instead of raising; see the module
            docstring for the exact semantics.
    """

    def __init__(
        self,
        num_processes: int,
        monitored: Sequence[int],
        lossy: bool = False,
    ):
        if not monitored:
            raise MonitorError("need at least one monitored process")
        seen = set()
        for p in monitored:
            if not 0 <= p < num_processes:
                raise MonitorError(f"process {p} out of range")
            if p in seen:
                raise MonitorError(f"process {p} monitored twice")
            seen.add(p)
        self._n = num_processes
        self._monitored: Tuple[int, ...] = tuple(monitored)
        self._lossy = bool(lossy)
        self._queues: Dict[int, Deque[_Candidate]] = {
            p: deque() for p in self._monitored
        }
        self._last_index: Dict[int, int] = {p: -1 for p in self._monitored}
        self._finished: Dict[int, bool] = {p: False for p in self._monitored}
        self._witness: Optional[Dict[int, Tuple[int, VectorClock]]] = None
        self._witness_gapped = False
        self._impossible = False
        #: Per process, the inclusive (first, last) index ranges never observed.
        self._gaps: Dict[int, List[Tuple[int, int]]] = {
            p: [] for p in self._monitored
        }
        #: Per process, quarantined (index, clock, truth) observations whose
        #: index contradicted their own clock component.
        self._quarantine: Dict[int, List[Tuple[int, VectorClock, bool]]] = {
            p: [] for p in self._monitored
        }
        self.observations = 0
        self.eliminations = 0
        self.stale_dropped = 0
        self._created_at = perf_counter()

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def detected(self) -> bool:
        """Has a witness (pairwise-consistent true events) been found?"""
        return self._witness is not None

    @property
    def impossible(self) -> bool:
        """Has the monitor proven the predicate can never hold?"""
        return self._impossible

    @property
    def witness(self) -> Optional[Dict[int, Tuple[int, VectorClock]]]:
        """Per monitored process, the witness (event index, clock)."""
        if self._witness is None:
            return None
        return dict(self._witness)

    @property
    def lossy(self) -> bool:
        """Was the monitor created in lossy-stream mode?"""
        return self._lossy

    @property
    def monitored(self) -> Tuple[int, ...]:
        """The monitored processes, in registration order."""
        return self._monitored

    @property
    def gaps(self) -> Dict[int, List[Tuple[int, int]]]:
        """Per process, the inclusive index ranges lost from its stream."""
        return {p: list(ranges) for p, ranges in self._gaps.items()}

    @property
    def had_gaps(self) -> bool:
        """Did any monitored stream lose or corrupt observations?"""
        return any(self._gaps.values()) or any(self._quarantine.values())

    @property
    def quarantined(self) -> Dict[int, int]:
        """Per process, the number of quarantined (corrupted) observations."""
        return {p: len(items) for p, items in self._quarantine.items()}

    @property
    def verdict(self) -> str:
        """Current verdict as a string.

        * ``"detected"`` — witness found on a gap-free stream;
        * ``"detected_despite_gaps"`` — witness found, but observations had
          been lost or quarantined by then, so an earlier witness may have
          been missed;
        * ``"impossible"`` — complete streams ended without a witness;
        * ``"inconclusive"`` — streams ended without a witness, but gaps
          mean one may have gone unobserved;
        * ``"undecided"`` — streams still open, nothing found yet.
        """
        if self.detected:
            return "detected_despite_gaps" if self._witness_gapped else "detected"
        if self._impossible:
            return "impossible"
        if all(self._finished.values()):
            # Streams ended, no witness, impossibility not provable
            # (gaps may have hidden one).
            return "inconclusive"
        return "undecided"

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def observe(
        self,
        process: int,
        index: int,
        clock: VectorClock,
        truth: bool,
    ) -> bool:
        """Report one event of a monitored process.

        Args:
            process: The reporting process.
            index: The event's local index (0 = initial event); must arrive
                in strictly increasing order per process.
            clock: The event's Fidge–Mattern clock.
            truth: Whether the process's conjunct holds after this event.

        Returns:
            True iff the predicate has been detected (now or earlier).
        """
        if self.detected or self._impossible:
            return self.detected
        if process not in self._queues:
            raise MonitorError(f"process {process} is not monitored")
        if len(clock) != self._n:
            raise MonitorError("clock dimension mismatch")
        if self._finished[process]:
            if self._lossy:
                # A restarted reporter may replay its tail; drop quietly.
                self.stale_dropped += 1
                if STATE.enabled:
                    registry().counter("monitor.stale_observations").inc()
                return self.detected
            raise MonitorError(f"process {process} already finished")
        if index <= self._last_index[process]:
            if self._lossy:
                # Duplicate or stale delivery of an observation.
                self.stale_dropped += 1
                if STATE.enabled:
                    registry().counter("monitor.stale_observations").inc()
                return self.detected
            raise MonitorError(
                f"out-of-order observation for process {process}: "
                f"{index} after {self._last_index[process]}"
            )
        if self._lossy:
            if clock[process] != index + 1:
                # In a Fidge-Mattern labeling an event's own component is
                # its index + 1; a mismatch means the observation itself is
                # corrupt.  Quarantine it rather than poisoning the queues
                # (or killing the monitor).
                self._quarantine[process].append((index, clock, truth))
                if STATE.enabled:
                    registry().counter("monitor.quarantined_observations").inc()
                return self.detected
            if index > self._last_index[process] + 1:
                # Vector-clock discontinuity: observations were lost.
                self._gaps[process].append(
                    (self._last_index[process] + 1, index - 1)
                )
                if STATE.enabled:
                    registry().counter("monitor.gaps").inc()
        self._last_index[process] = index
        self.observations += 1
        if STATE.enabled:
            registry().counter("monitor.observations").inc()
        if truth:
            queue = self._queues[process]
            queue.append(_Candidate(index, clock))
            if STATE.enabled:
                registry().counter("monitor.candidates_queued").inc()
            already = self.detected
            # A candidate queued behind an unchanged head leaves the heads
            # settled: nothing to compare, only the conclusion to draw.
            self._settle((process,) if len(queue) == 1 else ())
            if STATE.enabled and self.detected and not already:
                registry().counter("monitor.detections").inc()
                registry().gauge("monitor.observations_to_detection").set(
                    self.observations
                )
                registry().histogram("monitor.time_to_detection.ms").record(
                    (perf_counter() - self._created_at) * 1000.0
                )
        return self.detected

    def degrade_to_lossy(self) -> None:
        """Switch a strict monitor to lossy-stream mode, in place.

        Used by overload control (the service's ``degrade`` backpressure
        policy): once observations are being shed on purpose, the stream
        is lossy by construction, so gaps must be recorded rather than
        raised.  A no-op on monitors already in lossy mode; irreversible
        — verdicts after the flip carry lossy semantics
        (``detected_despite_gaps`` / ``inconclusive``).
        """
        self._lossy = True

    def finish(self, process: int) -> None:
        """Declare that a monitored process will report no more events."""
        if process not in self._finished:
            raise MonitorError(f"process {process} is not monitored")
        self._finished[process] = True
        self._check_impossible()

    def finish_all(self) -> None:
        """Declare the end of every stream."""
        for p in self._monitored:
            self._finished[p] = True
        self._check_impossible()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _settle(self, changed: Iterable[int]) -> None:
        """Compare the heads of ``changed`` (and of every process a pop
        changes) with the other heads until no head eliminates another,
        then conclude.  The heads of the other processes must already be
        settled.  Elimination is monotone along a process, so the queues
        and the elimination count do not depend on the order of the pops.
        """
        queues = self._queues
        pending = deque(changed)
        popped = 0
        while pending:
            i = pending.popleft()
            queue_i = queues[i]
            if not queue_i:
                continue
            head_i = queue_i[0]
            clock_i = head_i.clock
            # succ(head_i) -> f  <=>  clock(f)[i] >= index(head_i) + 2
            limit_i = head_i.index + 2
            for j, queue_j in queues.items():
                if j == i or not queue_j:
                    continue
                head_j = queue_j[0]
                if head_j.clock[i] >= limit_i:
                    # head_i can never pair with head_j nor with any later
                    # true event of j: clocks grow monotonically along a
                    # process, so the test stays true for them.
                    queue_i.popleft()
                    popped += 1
                    if queue_i:
                        pending.append(i)
                    break
                if clock_i[j] >= head_j.index + 2:
                    queue_j.popleft()
                    popped += 1
                    if queue_j and j not in pending:
                        pending.append(j)
        if popped:
            self.eliminations += popped
            if STATE.enabled:
                registry().counter("monitor.eliminations").inc(popped)
        if all(queues.values()):
            self._witness = {
                p: (queues[p][0].index, queues[p][0].clock)
                for p in self._monitored
            }
            self._witness_gapped = self.had_gaps
        else:
            self._check_impossible()

    def _check_impossible(self) -> None:
        if self.detected:
            return
        if self._lossy and self.had_gaps:
            # A true event lost in a gap could have completed a witness, so
            # impossibility is no longer provable; the verdict stays
            # "inconclusive" once the streams finish.
            return
        for p in self._monitored:
            if not self._queues[p] and self._finished[p]:
                self._impossible = True
                if STATE.enabled:
                    registry().counter("monitor.impossible_verdicts").inc()
                return
