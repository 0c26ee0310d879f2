"""Lossy-stream monitoring and monitor checkpoint/resume.

Covers the robustness semantics of ``OnlineConjunctiveMonitor(lossy=True)``
(gaps, duplicates, quarantine, verdict strings), the
``repro.monitor.recovery`` checkpoint/restore round trip, and the
end-to-end crash-restart demo: a fault-injected lock-server run whose
mutual-exclusion violation is caught by the offline engine *and* by a
lossy monitor that is checkpointed and resumed mid-stream.
"""

from __future__ import annotations

import pytest

from repro.computation import some_linearization
from repro.detection import detect_conjunctive
from repro.events import VectorClock
from repro.monitor import (
    MonitorError,
    MonitorGroup,
    OnlineConjunctiveMonitor,
    recovery,
)
from repro.predicates import conjunctive, local
from repro.simulation.protocols import build_crash_restart_lock_scenario
from repro.trace import BoolVar, random_computation


def observation_stream(comp, monitored, variable="x"):
    """The (process, index, clock, truth) stream of a computation."""
    monitored = set(monitored)
    stream = []
    for p in sorted(monitored):
        ev = comp.initial_event(p)
        stream.append(
            (p, 0, comp.clock(ev.event_id), bool(ev.value(variable, False)))
        )
    for eid in some_linearization(comp):
        p, index = eid
        if p not in monitored:
            continue
        ev = comp.event(eid)
        stream.append(
            (p, index, comp.clock(eid), bool(ev.value(variable, False)))
        )
    return stream


def feed(monitor, stream):
    for p, index, clock, truth in stream:
        monitor.observe(p, index, clock, truth)
    return monitor


class TestLossyMode:
    def _clock(self, values):
        return VectorClock(values)

    def test_gap_is_recorded_and_stream_continues(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1], lossy=True)
        monitor.observe(0, 0, self._clock([1, 0]), False)
        # Indices 1-2 of process 0 are lost.
        monitor.observe(0, 3, self._clock([4, 0]), True)
        assert monitor.gaps[0] == [(1, 2)]
        assert monitor.had_gaps
        monitor.observe(1, 1, self._clock([0, 2]), True)
        assert monitor.detected
        assert monitor.verdict == "detected_despite_gaps"

    def test_strict_mode_still_raises(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1])
        monitor.observe(0, 1, self._clock([2, 0]), False)
        with pytest.raises(MonitorError, match="out-of-order"):
            monitor.observe(0, 1, self._clock([2, 0]), False)

    def test_duplicates_dropped_silently(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1], lossy=True)
        monitor.observe(0, 0, self._clock([1, 0]), False)
        monitor.observe(0, 1, self._clock([2, 0]), False)
        monitor.observe(0, 1, self._clock([2, 0]), False)  # duplicate
        monitor.observe(0, 0, self._clock([1, 0]), True)   # stale replay
        assert monitor.stale_dropped == 2
        assert not monitor.had_gaps  # duplicates are not gaps

    def test_corrupt_observation_quarantined(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1], lossy=True)
        # clock[0] must be index+1 == 2; 7 is corrupt.
        monitor.observe(0, 1, self._clock([7, 0]), True)
        assert monitor.quarantined[0] == 1
        assert monitor.had_gaps
        # The corrupt observation is not used for detection.
        monitor.observe(1, 1, self._clock([0, 2]), True)
        assert not monitor.detected

    def test_no_impossible_verdict_after_gaps(self):
        monitor = OnlineConjunctiveMonitor(2, [0, 1], lossy=True)
        monitor.observe(0, 2, self._clock([3, 0]), False)  # gap: 0-1 lost
        monitor.finish_all()
        assert not monitor.impossible
        assert monitor.verdict == "inconclusive"

    def test_gap_free_lossy_matches_strict(self):
        for seed in range(10):
            comp = random_computation(
                3, 5, 0.4, seed=seed, variables=[BoolVar("x", 0.4)]
            )
            stream = observation_stream(comp, range(3))
            strict = feed(OnlineConjunctiveMonitor(3, range(3)), stream)
            lossy = feed(
                OnlineConjunctiveMonitor(3, range(3), lossy=True), stream
            )
            strict.finish_all()
            lossy.finish_all()
            assert strict.detected == lossy.detected, seed
            assert strict.witness == lossy.witness, seed
            assert lossy.verdict in ("detected", "impossible")

    def test_lossy_detection_is_sound(self):
        # Dropping arbitrary *false* observations (they can only carry
        # eliminating clock information) must never create a detection the
        # full trace does not have.
        pred = conjunctive(*(local(p, "x") for p in range(3)))
        for seed in range(15):
            comp = random_computation(
                3, 5, 0.4, seed=seed, variables=[BoolVar("x", 0.35)]
            )
            stream = observation_stream(comp, range(3))
            thinned = [
                obs for i, obs in enumerate(stream)
                if obs[3] or i % 3 != seed % 3
            ]
            monitor = feed(
                OnlineConjunctiveMonitor(3, range(3), lossy=True), thinned
            )
            monitor.finish_all()
            if monitor.detected:
                assert detect_conjunctive(comp, pred).holds, seed


class TestCheckpointResume:
    def test_resume_equivalence(self):
        for seed in range(10):
            comp = random_computation(
                3, 6, 0.4, seed=seed, variables=[BoolVar("x", 0.35)]
            )
            stream = observation_stream(comp, range(3))
            half = len(stream) // 2
            original = feed(
                OnlineConjunctiveMonitor(3, range(3), lossy=True),
                stream[:half],
            )
            resumed = recovery.restore_monitor(
                recovery.checkpoint_monitor(original)
            )
            feed(original, stream[half:])
            feed(resumed, stream[half:])
            original.finish_all()
            resumed.finish_all()
            assert original.verdict == resumed.verdict, seed
            assert original.witness == resumed.witness, seed
            assert original.gaps == resumed.gaps, seed
            assert original.observations == resumed.observations, seed

    def test_save_and_load_file(self, tmp_path):
        monitor = OnlineConjunctiveMonitor(2, [0, 1], lossy=True)
        monitor.observe(0, 2, VectorClock([3, 0]), True)  # gap 0-1
        path = tmp_path / "monitor.ckpt"
        recovery.save_monitor(monitor, path)
        loaded = recovery.load_monitor(path)
        assert loaded.lossy
        assert loaded.gaps == monitor.gaps
        loaded.observe(1, 0, VectorClock([0, 1]), True)
        assert loaded.detected
        assert loaded.verdict == "detected_despite_gaps"

    def test_restore_rejects_bad_payloads(self, tmp_path):
        with pytest.raises(MonitorError, match="format"):
            recovery.restore_monitor({"format": "nope"})
        with pytest.raises(MonitorError, match="must be an object"):
            recovery.restore_monitor([1, 2, 3])
        state = recovery.checkpoint_monitor(
            OnlineConjunctiveMonitor(2, [0, 1])
        )
        state["last_index"] = [[9, 4]]
        with pytest.raises(MonitorError, match="unmonitored process 9"):
            recovery.restore_monitor(state)
        bad = recovery.checkpoint_monitor(OnlineConjunctiveMonitor(2, [0]))
        bad["queues"] = "garbage"
        with pytest.raises(MonitorError, match="malformed"):
            recovery.restore_monitor(bad)
        short = recovery.checkpoint_monitor(OnlineConjunctiveMonitor(2, [0, 1]))
        short["queues"] = [[0, [[1, [2]]]], [1, [[1, [0, 2]]]]]
        with pytest.raises(MonitorError, match="dimension"):
            recovery.restore_monitor(short)
        missing = tmp_path / "missing.ckpt"
        with pytest.raises(MonitorError, match="missing.ckpt"):
            recovery.load_monitor(missing)

    def test_group_checkpoint_roundtrip(self):
        comp = random_computation(
            4, 6, 0.4, seed=3, variables=[BoolVar("x", 0.4)]
        )
        stream = observation_stream(comp, range(4))
        half = len(stream) // 2
        group = MonitorGroup.all_pairs(4, lossy=True)
        for p, index, clock, truth in stream[:half]:
            group.observe(p, index, clock, truth)
        restored = recovery.restore_group(recovery.checkpoint_group(group))
        assert restored.lossy
        assert len(restored) == len(group)
        for g in (group, restored):
            for p, index, clock, truth in stream[half:]:
                g.observe(p, index, clock, truth)
            g.finish_all()
        assert group.detailed_verdicts() == restored.detailed_verdicts()

    def test_group_restore_rejects_bad_format(self):
        with pytest.raises(MonitorError, match="format"):
            recovery.restore_group({"format": "repro-monitor-state-v1"})


class TestCrashRestartDemo:
    """The acceptance demo: crash-restart breaks mutual exclusion and the
    violation survives offline detection, lossy streaming, and a
    mid-stream monitor crash."""

    def test_offline_detection(self):
        comp = build_crash_restart_lock_scenario(seed=0)
        result = detect_conjunctive(
            comp,
            conjunctive(local(2, "holds_lock"), local(3, "holds_lock")),
        )
        assert result.holds

    @pytest.mark.parametrize("seed", range(5))
    def test_lossy_monitor_with_checkpoint_resume(self, seed, tmp_path):
        comp = build_crash_restart_lock_scenario(seed=seed)
        stream = observation_stream(comp, [2, 3], variable="holds_lock")
        half = len(stream) // 2
        monitor = OnlineConjunctiveMonitor(4, [2, 3], lossy=True)
        feed(monitor, stream[:half])
        # The monitor crashes; a fresh one resumes from its checkpoint.
        path = tmp_path / "monitor.ckpt"
        recovery.save_monitor(monitor, path)
        resumed = recovery.load_monitor(path)
        feed(resumed, stream[half:])
        assert resumed.detected
        assert resumed.verdict == "detected"
        witness = resumed.witness
        assert set(witness) == {2, 3}

    def test_lossy_monitor_with_observation_loss(self):
        comp = build_crash_restart_lock_scenario(seed=0)
        stream = observation_stream(comp, [2, 3], variable="holds_lock")
        # The observation channel drops every false report (e.g. the
        # reporters batch and the batch with the falses is lost).
        thinned = [obs for obs in stream if obs[3] or obs[1] == 0]
        monitor = feed(
            OnlineConjunctiveMonitor(4, [2, 3], lossy=True), thinned
        )
        assert monitor.detected
        assert monitor.verdict == "detected_despite_gaps"
        assert monitor.had_gaps

    def test_group_catches_the_violating_pair(self):
        comp = build_crash_restart_lock_scenario(seed=0)
        stream = observation_stream(comp, [2, 3], variable="holds_lock")
        group = MonitorGroup(4, lossy=True)
        group.add("mutex(2,3)", [2, 3])
        fired = []
        for p, index, clock, truth in stream:
            fired.extend(group.observe(p, index, clock, truth))
        assert fired == ["mutex(2,3)"]
        assert group.detailed_verdicts() == {"mutex(2,3)": "detected"}


class TestRestoreSettles:
    """A restored monitor's heads are at the elimination fixpoint, even
    when the document's are not: observations compare only heads that
    change, so an unsettled restore would never be repaired."""

    # Two processes; p0's send at index 2 is received by p1 at index 1,
    # and p1's send at index 2 is received by p0 at index 3.
    STREAM = [(p, i, VectorClock(c), truth) for p, i, c, truth in [
        (0, 0, (1, 0), False),
        (1, 0, (0, 1), False),
        (0, 1, (2, 0), True),
        (0, 2, (3, 0), False),
        (1, 1, (3, 2), True),  # succ(p0@1) -> p1@1: eliminates p0@1
        (1, 2, (3, 3), True),
        (0, 3, (4, 3), True),  # succ(p1@1) -> p0@3: eliminates p1@1
        (0, 4, (5, 3), False),
        (1, 3, (3, 4), False),
    ]]

    def _unsettled_document(self, prefix):
        """Every true event of ``prefix`` queued, none eliminated."""
        state = recovery.checkpoint_monitor(OnlineConjunctiveMonitor(2, [0, 1]))
        queues = {0: [], 1: []}
        last = {0: -1, 1: -1}
        for p, index, clock, truth in prefix:
            last[p] = index
            if truth:
                queues[p].append([index, list(clock)])
        state["queues"] = [[p, queues[p]] for p in (0, 1)]
        state["last_index"] = [[p, last[p]] for p in (0, 1)]
        state["observations"] = len(prefix)
        return state, sum(len(q) for q in queues.values())

    def test_hand_built_mutual_elimination_is_settled(self):
        state, queued = self._unsettled_document(self.STREAM[:7])
        # Both pairs of heads in the document eliminate each other in turn.
        restored = recovery.restore_monitor(state)
        assert restored.eliminations == 2 == queued - sum(
            len(q) for q in restored._queues.values()
        )
        assert restored.verdict == "detected"
        assert {p: w[0] for p, w in restored.witness.items()} == {0: 3, 1: 2}

    @pytest.mark.parametrize("cut", range(len(STREAM) + 1))
    def test_restore_equals_uninterrupted_run(self, cut):
        state, queued = self._unsettled_document(self.STREAM[:cut])
        restored = recovery.restore_monitor(state)
        heads = {p: q[0] for p, q in restored._queues.items() if q}
        for i, head_i in heads.items():
            for j, head_j in heads.items():
                if i != j:
                    assert head_j.clock[i] < head_i.index + 2, (cut, i, j)
        remaining = sum(len(q) for q in restored._queues.values())
        assert restored.eliminations == queued - remaining
        # The state a monitor fed the prefix settled into, pop for pop.
        prefix = feed(OnlineConjunctiveMonitor(2, [0, 1]), self.STREAM[:cut])
        settled = ("queues", "eliminations", "witness", "impossible")
        documents = [
            recovery.checkpoint_monitor(m) for m in (restored, prefix)
        ]
        for key in settled:
            assert documents[0][key] == documents[1][key], (cut, key)
        whole = feed(OnlineConjunctiveMonitor(2, [0, 1]), self.STREAM)
        feed(restored, self.STREAM[cut:])
        for m in (whole, restored):
            m.finish_all()
        assert restored.verdict == whole.verdict == "detected"
        assert restored.witness == whole.witness
        assert restored.eliminations == whole.eliminations


class TestCheckpointByteStability:
    """Checkpoints of equal logical state are byte-identical snapshots."""

    def _stream(self, seed=7):
        comp = random_computation(
            3, 6, 0.4, seed=seed, variables=[BoolVar("x", 0.35)]
        )
        return observation_stream(comp, range(3))

    def test_checkpoint_restore_checkpoint_is_identity(self):
        import json

        monitor = feed(
            OnlineConjunctiveMonitor(3, range(3), lossy=True),
            self._stream(),
        )
        first = recovery.checkpoint_monitor(monitor)
        second = recovery.checkpoint_monitor(
            recovery.restore_monitor(first)
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_registration_order_does_not_change_bytes(self):
        import json

        forward = OnlineConjunctiveMonitor(3, [0, 1, 2], lossy=True)
        backward = OnlineConjunctiveMonitor(3, [2, 1, 0], lossy=True)
        for m in (forward, backward):
            feed(m, self._stream())
        dumps = [
            json.dumps(recovery.checkpoint_monitor(m), sort_keys=True)
            for m in (forward, backward)
        ]
        assert dumps[0] == dumps[1]

    def test_save_monitor_bytes_stable(self, tmp_path):
        monitor = feed(
            OnlineConjunctiveMonitor(3, range(3), lossy=True),
            self._stream(),
        )
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        recovery.save_monitor(monitor, a)
        recovery.save_monitor(recovery.load_monitor(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_group_bytes_stable(self, tmp_path):
        group = MonitorGroup.all_pairs(3, lossy=True)
        for p, index, clock, truth in self._stream():
            group.observe(p, index, clock, truth)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        recovery.save_group(group, a)
        recovery.save_group(recovery.load_group(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestTornWriteSafety:
    """A crash mid-save must never tear an existing checkpoint.

    `save_monitor` / `save_group` stage bytes in a sibling temp file and
    atomically `os.replace` it over the target; these tests simulate the
    crash at the worst moment (the rename itself) and at write time, and
    assert the previous complete checkpoint survives byte-for-byte with
    no temp-file litter left behind.
    """

    def _monitor(self, seed=7):
        comp = random_computation(
            3, 6, 0.4, seed=seed, variables=[BoolVar("x", 0.35)]
        )
        return feed(
            OnlineConjunctiveMonitor(3, range(3), lossy=True),
            observation_stream(comp, range(3)),
        )

    def _group(self, seed=7):
        comp = random_computation(
            3, 6, 0.4, seed=seed, variables=[BoolVar("x", 0.35)]
        )
        group = MonitorGroup.all_pairs(3, lossy=True)
        for p, index, clock, truth in observation_stream(comp, range(3)):
            group.observe(p, index, clock, truth)
        return group

    def test_failed_rename_leaves_monitor_checkpoint_intact(
        self, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "monitor.ckpt"
        recovery.save_monitor(self._monitor(seed=1), path)
        before = path.read_bytes()

        def torn_replace(src, dst, **kwargs):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", torn_replace)
        with pytest.raises(OSError):
            recovery.save_monitor(self._monitor(seed=2), path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["monitor.ckpt"]
        # The surviving checkpoint is still loadable.
        recovery.load_monitor(path)

    def test_failed_rename_leaves_group_checkpoint_intact(
        self, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "group.ckpt"
        recovery.save_group(self._group(seed=1), path)
        before = path.read_bytes()

        monkeypatch.setattr(
            os, "replace",
            lambda *a, **k: (_ for _ in ()).throw(OSError("torn")),
        )
        with pytest.raises(OSError):
            recovery.save_group(self._group(seed=2), path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["group.ckpt"]
        recovery.load_group(path)

    def test_failed_write_cleans_temp_and_preserves_target(
        self, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "monitor.ckpt"
        recovery.save_monitor(self._monitor(seed=1), path)
        before = path.read_bytes()

        real_fsync = os.fsync

        def torn_fsync(fd):
            raise OSError("simulated disk-full at flush")

        monkeypatch.setattr(os, "fsync", torn_fsync)
        with pytest.raises(OSError):
            recovery.save_monitor(self._monitor(seed=2), path)
        monkeypatch.setattr(os, "fsync", real_fsync)

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["monitor.ckpt"]

    def test_first_save_failure_leaves_no_file_at_all(
        self, tmp_path, monkeypatch
    ):
        import os

        path = tmp_path / "fresh.ckpt"
        monkeypatch.setattr(
            os, "replace",
            lambda *a, **k: (_ for _ in ()).throw(OSError("torn")),
        )
        with pytest.raises(OSError):
            recovery.save_monitor(self._monitor(), path)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
