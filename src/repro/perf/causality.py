"""Per-computation memoized causality index (the detection hot path).

Every engine in :mod:`repro.detection` ultimately spends its time on the
same three questions: *what is the local successor of this event*, *does
this event causally precede that one*, and *which events make this clause
true*.  The paper's Section 3.3 enumeration engines ask them once per
CPDHB scan — and run up to ``prod c_j`` scans over the **same immutable
computation**, re-deriving identical answers on every scan.

:class:`CausalityIndex` hoists those answers into flat per-computation
structures built once and shared by every scan (and, through the
module-level weak cache, by every query against the same computation):

* the computation's own clock table (``_clk[p][i]``, shared by
  reference with :attr:`Computation.clock_table
  <repro.computation.Computation.clock_table>`, never copied), giving a
  ``leq`` fast path with no
  :class:`~repro.events.vector_clock.VectorClock` indirection and no
  per-call id validation;
* precomputed local-successor arrays (``successor`` becomes a list
  lookup);
* memoized per-clause true-event lists and minimum chain covers, so the
  process-choice/chain-choice engines and the auto dispatcher stop
  recomputing them;
* memoized receive-/send-orderedness verdicts per group structure;
* consistent-successor frontier expansion for lattice walks
  (:meth:`successor_frontiers`), letting BFS engines track plain frontier
  tuples instead of constructing and re-hashing :class:`Cut` objects per
  edge.

Indices are cached per computation in a :class:`weakref.WeakKeyDictionary`
— they live exactly as long as the computation they describe.  All cache
hit/miss tallies are kept as plain integers (always cheap) and mirrored
into the metrics registry as ``perf.*`` counters by
:meth:`maybe_flush_metrics` when observability is enabled.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.computation.chains import minimum_chain_cover
from repro.computation.computation import Computation
from repro.events import EventId
from repro.obs.config import STATE
from repro.obs.metrics import registry
from repro.obs.spans import layer_span

__all__ = ["CausalityIndex"]

#: Chains of a cover, as immutable event-id tuples.
ChainCover = Tuple[Tuple[EventId, ...], ...]

_INDEX_CACHE: "weakref.WeakKeyDictionary[Computation, CausalityIndex]" = (
    weakref.WeakKeyDictionary()
)


class CausalityIndex:
    """Flat, memoized causality structures for one immutable computation.

    Obtain through :meth:`of` (cached per computation) rather than the
    constructor; building the index costs one pass over all events, and
    the point is to pay it once.
    """

    __slots__ = (
        "computation",
        "num_processes",
        "_lengths",
        "_clk",
        "_succ",
        "_true_on",
        "_true_all",
        "_covers",
        "_orderedness",
        "_interner",
        "_matrix",
        "counters",
        "_flushed",
        "__weakref__",
    )

    #: Tally of `of()` lookups served from / missing the weak cache.
    index_hits: int = 0
    index_misses: int = 0

    def __init__(self, computation: Computation):
        self.computation = computation
        n = computation.num_processes
        self.num_processes = n
        with layer_span("perf.index.build", processes=n):
            # The computation's clock table: _clk[p][i] is the component
            # tuple of event (p, i).
            self._clk = computation.clock_table
            lengths = [len(row) for row in self._clk]
            self._lengths: List[int] = lengths
            # Local-successor array: _succ[p][i] is succ((p, i)) or None.
            self._succ: List[List[Optional[EventId]]] = [
                [(p, i) for i in range(1, lengths[p])] + [None]
                for p in range(n)
            ]
        self._true_on: Dict[object, Tuple[EventId, ...]] = {}
        self._true_all: Dict[object, Tuple[EventId, ...]] = {}
        self._covers: Dict[object, ChainCover] = {}
        self._orderedness: Dict[object, bool] = {}
        self._interner = None
        self._matrix = None
        self.counters: Dict[str, int] = {
            "clause_cache.hits": 0,
            "clause_cache.misses": 0,
            "chain_cover.hits": 0,
            "chain_cover.misses": 0,
            "orderedness.hits": 0,
            "orderedness.misses": 0,
        }
        self._flushed: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, computation: Computation) -> "CausalityIndex":
        """The (weakly cached) index of ``computation``."""
        index = _INDEX_CACHE.get(computation)
        if index is None:
            cls.index_misses += 1
            index = cls(computation)
            _INDEX_CACHE[computation] = index
        else:
            cls.index_hits += 1
        return index

    # ------------------------------------------------------------------
    # Causality fast paths
    # ------------------------------------------------------------------
    def successor(self, e: EventId) -> Optional[EventId]:
        """Local successor ``succ(e)`` or None, as a list lookup."""
        return self._succ[e[0]][e[1]]

    def clock_tuple(self, e: EventId) -> Tuple[int, ...]:
        """The raw Fidge–Mattern component tuple of ``e``."""
        return self._clk[e[0]][e[1]]

    def happened_before(self, e: EventId, f: EventId) -> bool:
        """Irreflexive causal order, without per-call id validation."""
        if e == f:
            return False
        ei = e[1]
        if ei == 0:
            return f[1] != 0
        if f[1] == 0:
            return False
        return self._clk[f[0]][f[1]][e[0]] > ei

    def leq(self, e: EventId, f: EventId) -> bool:
        """Reflexive causal order (``e == f`` or ``e`` precedes ``f``)."""
        if e == f:
            return True
        ei = e[1]
        if ei == 0:
            return f[1] != 0
        if f[1] == 0:
            return False
        return self._clk[f[0]][f[1]][e[0]] > ei

    def concurrent(self, e: EventId, f: EventId) -> bool:
        """True iff the events are incomparable."""
        return (
            e != f
            and not self.happened_before(e, f)
            and not self.happened_before(f, e)
        )

    def pairwise_consistent(self, e: EventId, f: EventId) -> bool:
        """Some consistent cut passes through both events (Section 2.2)."""
        if e == f:
            return True
        if e[0] == f[0]:
            return False
        succ_e = self._succ[e[0]][e[1]]
        if succ_e is not None and self.leq(succ_e, f):
            return False
        succ_f = self._succ[f[0]][f[1]]
        if succ_f is not None and self.leq(succ_f, e):
            return False
        return True

    def successor_frontiers(
        self, frontier: Tuple[int, ...]
    ) -> List[Tuple[int, ...]]:
        """Frontiers of the consistent cuts immediately above ``frontier``.

        Equivalent to ``[c.frontier for c in Cut(comp, frontier).successors()]``
        for a consistent frontier, but works on plain tuples: no ``Cut``
        construction, no frontier re-validation, no clock-object indexing.
        """
        out: List[Tuple[int, ...]] = []
        lengths = self._lengths
        clk_all = self._clk
        for p in range(self.num_processes):
            nxt = frontier[p]
            if nxt >= lengths[p]:
                continue
            clk = clk_all[p][nxt]
            enabled = True
            for q, have in enumerate(frontier):
                if q != p and clk[q] > have:
                    enabled = False
                    break
            if enabled:
                out.append(frontier[:p] + (nxt + 1,) + frontier[p + 1 :])
        return out

    def successor_frontiers_batch(
        self, frontiers: Sequence[Tuple[int, ...]]
    ) -> List[List[Tuple[int, ...]]]:
        """Per-input successor frontiers for a batch of frontiers.

        Equivalent to ``[self.successor_frontiers(f) for f in frontiers]``
        but routed through the :class:`ClockMatrix` frontier-consistency
        kernel when numpy is active and the batch is worth one array
        round trip.
        """
        if len(frontiers) >= 4:
            matrix = self.matrix
            if matrix.use_numpy:
                return matrix.successor_frontiers_batch(frontiers)
        return [self.successor_frontiers(f) for f in frontiers]

    # ------------------------------------------------------------------
    # Per-clause memoization (singular k-CNF engines)
    # ------------------------------------------------------------------
    def clause_true_events_on(self, cl, process: int) -> Tuple[EventId, ...]:
        """Memoized events of ``process`` making some literal of ``cl`` true."""
        key = (cl, process)
        cached = self._true_on.get(key)
        if cached is not None:
            self.counters["clause_cache.hits"] += 1
            return cached
        self.counters["clause_cache.misses"] += 1
        literals = [lit for lit in cl.literals if lit.process == process]
        if literals:
            result = tuple(
                event.event_id
                for event in self.computation.events_of(process)
                if any(lit.holds_after(event) for lit in literals)
            )
        else:
            result = ()
        self._true_on[key] = result
        return result

    def clause_true_events(self, cl) -> Tuple[EventId, ...]:
        """Memoized true events of the clause across its whole group."""
        cached = self._true_all.get(cl)
        if cached is not None:
            self.counters["clause_cache.hits"] += 1
            return cached
        self.counters["clause_cache.misses"] += 1
        result: List[EventId] = []
        for process in sorted(cl.processes()):
            result.extend(self.clause_true_events_on(cl, process))
        out = tuple(result)
        self._true_all[cl] = out
        return out

    def chain_cover(self, cl) -> ChainCover:
        """Memoized minimum chain cover of the clause's true events."""
        cached = self._covers.get(cl)
        if cached is not None:
            self.counters["chain_cover.hits"] += 1
            return cached
        self.counters["chain_cover.misses"] += 1
        trues = self.clause_true_events(cl)
        cover = tuple(
            tuple(chain)
            for chain in minimum_chain_cover(self.computation, list(trues))
        )
        self._covers[cl] = cover
        return cover

    # ------------------------------------------------------------------
    # Memoized structural classification (Section 3.2 dispatch)
    # ------------------------------------------------------------------
    def _totally_ordered(self, ids: Sequence[EventId]) -> bool:
        for i, e in enumerate(ids):
            for f in ids[i + 1 :]:
                if not self.leq(e, f) and not self.leq(f, e):
                    return False
        return True

    def is_receive_ordered(self, groups: Sequence[Sequence[int]]) -> bool:
        """Memoized receive-orderedness with respect to ``groups``."""
        key = ("recv", tuple(tuple(g) for g in groups))
        cached = self._orderedness.get(key)
        if cached is not None:
            self.counters["orderedness.hits"] += 1
            return cached
        self.counters["orderedness.misses"] += 1
        result = all(
            self._totally_ordered(
                [
                    eid
                    for p in group
                    for eid in self.computation.receive_events(p)
                ]
            )
            for group in groups
        )
        self._orderedness[key] = result
        return result

    def is_send_ordered(self, groups: Sequence[Sequence[int]]) -> bool:
        """Memoized send-orderedness with respect to ``groups``."""
        key = ("send", tuple(tuple(g) for g in groups))
        cached = self._orderedness.get(key)
        if cached is not None:
            self.counters["orderedness.hits"] += 1
            return cached
        self.counters["orderedness.misses"] += 1
        result = all(
            self._totally_ordered(
                [
                    eid
                    for p in group
                    for eid in self.computation.send_events(p)
                ]
            )
            for group in groups
        )
        self._orderedness[key] = result
        return result

    # ------------------------------------------------------------------
    # Struct-of-arrays clock matrix
    # ------------------------------------------------------------------
    @property
    def matrix(self):
        """The computation's shared :class:`~repro.perf.clockmatrix.ClockMatrix`.

        Built lazily from the computation's clock table; pure-Python
        kernels when numpy is unavailable (callers never branch on the
        backend).
        """
        if self._matrix is None:
            from repro.perf.clockmatrix import ClockMatrix

            with layer_span("perf.matrix.build", rows=sum(self._lengths)):
                self._matrix = ClockMatrix(self._clk, self._lengths)
        return self._matrix

    # ------------------------------------------------------------------
    # Cut interning
    # ------------------------------------------------------------------
    @property
    def interner(self):
        """The computation's shared :class:`~repro.perf.interning.CutInterner`."""
        if self._interner is None:
            from repro.perf.interning import CutInterner

            self._interner = CutInterner(self.computation)
        return self._interner

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def maybe_flush_metrics(self) -> None:
        """Mirror tally deltas into ``perf.*`` registry counters.

        Engines call this once per query; with observability disabled it
        is a single attribute check.  Deltas (not totals) are pushed so
        repeated flushes never double-count.
        """
        if not STATE.enabled:
            return
        reg = registry()
        for key, value in self.counters.items():
            delta = value - self._flushed.get(key, 0)
            if delta:
                reg.counter(f"perf.{key}").inc(delta)
                self._flushed[key] = value
        if self._interner is not None:
            for key, value in (
                ("cut_intern.hits", self._interner.hits),
                ("cut_intern.misses", self._interner.misses),
            ):
                delta = value - self._flushed.get(key, 0)
                if delta:
                    reg.counter(f"perf.{key}").inc(delta)
                    self._flushed[key] = value
        if self._matrix is not None:
            for short, value in self._matrix.counters.items():
                key = f"clockmatrix.{short}"
                delta = value - self._flushed.get(key, 0)
                if delta:
                    reg.counter(f"perf.{key}").inc(delta)
                    self._flushed[key] = value
        cls = type(self)
        for key, value in (
            ("index.hits", cls.index_hits),
            ("index.misses", cls.index_misses),
        ):
            # Class-wide tallies: flush the global delta through gauges to
            # avoid cross-index double counting of a shared total.
            reg.gauge(f"perf.{key}").set(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CausalityIndex(processes={self.num_processes}, "
            f"clauses_cached={len(self._true_all)}, "
            f"covers_cached={len(self._covers)})"
        )
