"""Tests for the streaming conjunctive monitor.

The key property: feeding any linearization of a trace event by event must
reach the same verdict as the offline CPDHB scan on the full trace.
"""

from __future__ import annotations

import random

import pytest

from repro.computation import iter_linearizations, some_linearization
from repro.detection import detect_conjunctive
from repro.events import VectorClock
from repro.monitor import MonitorError, OnlineConjunctiveMonitor
from repro.obs import STATE, Capture, registry
from repro.predicates import conjunctive, local
from repro.trace import BoolVar, random_computation


def stream_trace(comp, monitor, variable="x", order=None):
    """Feed a linearization of the computation into the monitor."""
    order = order if order is not None else some_linearization(comp)
    monitored = set(monitor._monitored)  # test-only introspection
    # Initial events first (they precede everything).
    for p in sorted(monitored):
        ev = comp.initial_event(p)
        if monitor.observe(p, 0, comp.clock(ev.event_id), bool(ev.value(variable, False))):
            return True
    for eid in order:
        p, index = eid
        if p not in monitored:
            continue
        ev = comp.event(eid)
        if monitor.observe(
            p, index, comp.clock(eid), bool(ev.value(variable, False))
        ):
            return True
    monitor.finish_all()
    return monitor.detected


class TestAgainstOffline:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_cpdhb(self, seed):
        comp = random_computation(
            4, 6, 0.5, seed=seed, variables=[BoolVar("x", 0.35)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(4)))
        offline = detect_conjunctive(comp, pred)
        monitor = OnlineConjunctiveMonitor(4, range(4))
        online = stream_trace(comp, monitor)
        assert online == offline.holds, seed

    @pytest.mark.parametrize("seed", range(8))
    def test_order_independent(self, seed):
        comp = random_computation(
            3, 3, 0.5, seed=seed, variables=[BoolVar("x", 0.4)]
        )
        pred = conjunctive(*(local(p, "x") for p in range(3)))
        offline = detect_conjunctive(comp, pred).holds
        for order in iter_linearizations(comp, limit=10):
            monitor = OnlineConjunctiveMonitor(3, range(3))
            assert stream_trace(comp, monitor, order=order) == offline

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_events_are_true_and_consistent(self, seed):
        comp = random_computation(
            3, 5, 0.5, seed=seed, variables=[BoolVar("x", 0.5)]
        )
        monitor = OnlineConjunctiveMonitor(3, range(3))
        if stream_trace(comp, monitor):
            witness = monitor.witness
            ids = [(p, witness[p][0]) for p in witness]
            for eid in ids:
                assert comp.event(eid).value("x", False)
            for a in ids:
                for b in ids:
                    assert comp.pairwise_consistent(a, b)

    def test_subset_of_processes(self):
        comp = random_computation(
            4, 5, 0.4, seed=3, variables=[BoolVar("x", 0.5)]
        )
        pred = conjunctive(local(1, "x"), local(3, "x"))
        offline = detect_conjunctive(comp, pred).holds
        monitor = OnlineConjunctiveMonitor(4, [1, 3])
        assert stream_trace(comp, monitor) == offline


class TestLifecycle:
    def test_detects_at_earliest_point(self):
        # Two independent processes, both true at their first event: the
        # monitor must fire as soon as the second truth arrives.
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        assert not monitor.observe(0, 1, VectorClock([2, 1]), True)
        assert monitor.observe(1, 1, VectorClock([1, 2]), True)
        assert monitor.detected

    def test_impossible_after_finish(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        monitor.observe(0, 1, VectorClock([2, 1]), False)
        monitor.finish_all()
        assert monitor.impossible
        assert not monitor.detected

    def test_elimination_counted(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        # p0 true at index 1; p1's true event causally follows succ(p0@1),
        # i.e. its clock has >= 3 in component 0: eliminates p0's candidate.
        monitor.observe(0, 1, VectorClock([2, 1]), True)
        monitor.observe(1, 1, VectorClock([3, 2]), True)
        assert monitor.eliminations == 1
        assert not monitor.detected

    def test_errors(self):
        with pytest.raises(MonitorError):
            OnlineConjunctiveMonitor(2, [])
        with pytest.raises(MonitorError):
            OnlineConjunctiveMonitor(2, [0, 0])
        with pytest.raises(MonitorError):
            OnlineConjunctiveMonitor(2, [5])
        monitor = OnlineConjunctiveMonitor(2, [0])
        with pytest.raises(MonitorError):
            monitor.observe(1, 0, VectorClock([1, 0]), True)
        with pytest.raises(MonitorError):
            monitor.observe(0, 0, VectorClock([1]), True)
        monitor.observe(0, 1, VectorClock([2, 0]), False)
        with pytest.raises(MonitorError):
            monitor.observe(0, 1, VectorClock([2, 0]), False)

    def test_observe_after_finish_rejected(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        monitor.observe(0, 1, VectorClock([2, 1]), True)
        monitor.finish(0)  # queue non-empty: not yet impossible
        assert not monitor.impossible
        with pytest.raises(MonitorError):
            monitor.observe(0, 2, VectorClock([3, 1]), True)

    def test_observations_ignored_once_impossible(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        monitor.finish(0)  # empty queue + finished: impossible
        assert monitor.impossible
        assert not monitor.observe(1, 1, VectorClock([1, 2]), True)

    def test_observations_after_detection_are_noops(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        monitor.observe(0, 0, VectorClock([1, 0]), True)
        assert monitor.observe(1, 0, VectorClock([0, 1]), True)
        # Further observations keep returning True without state changes.
        assert monitor.observe(0, 5, VectorClock([6, 1]), False)


class RescanMonitor(OnlineConjunctiveMonitor):
    """Oracle only: the full-rescan elimination the monitor used before it
    compared only changed heads.  After every true observation it rescans
    every pair of heads and starts over after every elimination."""

    def _settle(self, changed_heads):
        queues = self._queues
        changed = True
        while changed:
            changed = False
            for i in self._monitored:
                if not queues[i]:
                    continue
                head_i = queues[i][0]
                for j in self._monitored:
                    if i == j or not queues[j]:
                        continue
                    head_j = queues[j][0]
                    if head_j.clock[i] >= head_i.index + 2:
                        queues[i].popleft()
                        changed = True
                    elif head_i.clock[j] >= head_j.index + 2:
                        queues[j].popleft()
                        changed = True
                    if changed:
                        self.eliminations += 1
                        if STATE.enabled:
                            registry().counter("monitor.eliminations").inc()
                        break
                if changed:
                    break
        if all(queues[p] for p in self._monitored):
            self._witness = {
                p: (queues[p][0].index, queues[p][0].clock)
                for p in self._monitored
            }
            self._witness_gapped = self.had_gaps
        else:
            self._check_impossible()


def random_interleaving(comp, rng):
    """A random linearization of the non-initial events, as event ids:
    each step emits a uniformly chosen enabled event.

    An event is enabled once its clock's other components are covered by
    what has been emitted (initial events count as emitted).
    """
    n = comp.num_processes
    emitted = [1] * n
    lengths = [len(comp.events_of(p)) for p in range(n)]
    order = []
    while True:
        enabled = []
        for p in range(n):
            if emitted[p] < lengths[p]:
                clock = comp.clock((p, emitted[p]))
                if all(clock[q] <= emitted[q] for q in range(n) if q != p):
                    enabled.append(p)
        if not enabled:
            return order
        p = rng.choice(enabled)
        order.append((p, emitted[p]))
        emitted[p] += 1


def random_stream(rng):
    """A random computation, monitored subset and (strict or lossy)
    observation stream with drops, duplicates and corrupted reports.

    Returns ``(n, monitored, lossy, stream)``; a stream item is either an
    observation ``(p, index, clock, truth)`` or ``("finish", p)``.
    """
    n = rng.randint(2, 8)
    comp = random_computation(
        n,
        rng.randint(1, 16),
        rng.choice([0.0, 0.4, 0.7, 1.0]),
        seed=rng.randrange(10**6),
    )
    density = rng.choice([0.1, 0.25, 0.5])
    monitored = rng.sample(range(n), rng.randint(1, n))
    lossy = rng.random() < 0.5
    order = [(p, 0) for p in range(n)] + random_interleaving(comp, rng)
    last = {p: len(comp.events_of(p)) - 1 for p in range(n)}
    stream = []
    for p, index in order:
        if p not in monitored:
            continue
        clock = comp.clock((p, index))
        truth = rng.random() < density
        if lossy and rng.random() < 0.15:
            continue  # lost
        if lossy and rng.random() < 0.05:
            # Corrupted: own component contradicts the index.
            stream.append((p, index, VectorClock(
                [c + 1 if q == p else c for q, c in enumerate(clock)]
            ), truth))
            continue
        stream.append((p, index, clock, truth))
        if lossy and rng.random() < 0.15:
            stream.append((p, index, clock, truth))  # duplicated
        if index == last[p] and rng.random() < 0.5:
            stream.append(("finish", p))
    return n, monitored, lossy, stream


def monitor_state(monitor):
    witness = monitor.witness
    return {
        "queues": {
            p: [(c.index, tuple(c.clock)) for c in queue]
            for p, queue in monitor._queues.items()
        },
        "eliminations": monitor.eliminations,
        "detected": monitor.detected,
        "witness": None if witness is None else {
            p: (index, tuple(clock)) for p, (index, clock) in witness.items()
        },
        "verdict": monitor.verdict,
    }


def replay(monitor, stream):
    for item in stream:
        if item[0] == "finish":
            monitor.finish(item[1])
        else:
            monitor.observe(*item)


class TestAgainstFullRescan:
    """Comparing only changed heads reaches the full rescan's fixpoint:
    equal queues, counts and verdicts after every single observation."""

    @pytest.mark.parametrize("seed", range(200))
    def test_state_equal_after_every_observation(self, seed):
        rng = random.Random(seed)
        n, monitored, lossy, stream = random_stream(rng)
        monitor = OnlineConjunctiveMonitor(n, monitored, lossy=lossy)
        oracle = RescanMonitor(n, monitored, lossy=lossy)
        for step, item in enumerate(stream):
            for m in (monitor, oracle):
                replay(m, [item])
            assert monitor_state(monitor) == monitor_state(oracle), (seed, step)
        monitor.finish_all()
        oracle.finish_all()
        assert monitor_state(monitor) == monitor_state(oracle), seed

    @pytest.mark.parametrize("seed", range(20))
    def test_counters_equal(self, seed):
        rng = random.Random(seed)
        n, monitored, lossy, stream = random_stream(rng)
        snapshots = []
        for cls in (OnlineConjunctiveMonitor, RescanMonitor):
            with Capture() as cap:
                m = cls(n, monitored, lossy=lossy)
                replay(m, stream)
                m.finish_all()
            counters = cap.registry.snapshot()["counters"]
            snapshots.append(
                {k: v for k, v in counters.items() if k.startswith("monitor.")}
            )
        assert snapshots[0] == snapshots[1], seed
