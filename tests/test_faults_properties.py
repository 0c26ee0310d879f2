"""Property tests: fault injection never breaks causal consistency.

Whatever the fault plan does — drop, duplicate, delay, sever, crash,
restart — the recorded computation must remain a *valid distributed
computation*: a Fidge–Mattern relabeling computed naively from the raw
process sequences and message edges must agree with the clocks the
:class:`~repro.computation.Computation` assigns, and every trace must
survive a JSON round trip bit for bit.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.computation import some_linearization
from repro.events import VectorClock
from repro.simulation import CrashSpec, DelaySpike, FaultPlan
from repro.simulation.protocols import build_lock_scenario, build_token_ring
from repro.trace import computation_from_dict, computation_to_dict


def naive_clocks(comp):
    """Recompute Fidge–Mattern clocks from first principles.

    Processes events along a linearization, carrying one running clock per
    process (started at all-ones so non-initial events dominate every
    initial event) and merging in the sender's clock at each receive —
    independent of the clock sweep inside :class:`Computation`.
    """
    n = comp.num_processes
    running = [VectorClock((1,) * n) for _ in range(n)]
    clocks = {}
    for p in range(n):
        clocks[(p, 0)] = VectorClock(1 if j == p else 0 for j in range(n))
    sources = {}
    for send, recv in comp.messages:
        sources.setdefault(recv, []).append(send)
    for eid in some_linearization(comp):
        p = eid[0]
        clk = running[p]
        for src in sources.get(eid, ()):
            clk = clk.merge(clocks[src])
        clk = clk.tick(p)
        clocks[eid] = clk
        running[p] = clk
    return clocks


def assert_causally_consistent(comp):
    clocks = naive_clocks(comp)
    for event in comp.all_events(include_initial=True):
        assert comp.clock(event.event_id) == clocks[event.event_id]
        if event.index > 0:
            # Own component counts own events including the initial one.
            assert comp.clock(event.event_id)[event.process] == event.index + 1
    for send, recv in comp.messages:
        assert comp.happened_before(send, recv)


def assert_roundtrips(comp):
    payload = computation_to_dict(comp)
    blob = json.dumps(payload, sort_keys=True)
    restored = computation_from_dict(json.loads(blob))
    assert json.dumps(computation_to_dict(restored), sort_keys=True) == blob


plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**20),
    message_loss=st.floats(0.0, 0.9),
    message_duplication=st.floats(0.0, 0.9),
    delay_spike=st.one_of(
        st.none(),
        st.builds(
            DelaySpike,
            probability=st.floats(0.0, 1.0),
            extra_min=st.floats(0.0, 2.0),
            extra_max=st.floats(2.0, 30.0),
        ),
    ),
)


class TestLossDuplicationConsistency:
    @settings(max_examples=30, deadline=None)
    @given(plans, st.integers(0, 1000))
    def test_token_ring_stays_causally_consistent(self, plan, seed):
        comp = build_token_ring(4, hops=8, seed=seed, faults=plan)
        assert_causally_consistent(comp)
        assert_roundtrips(comp)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000), st.floats(0.0, 0.8))
    def test_lock_scenario_with_crashes(self, seed, loss):
        plan = FaultPlan(
            seed=seed,
            message_loss=loss,
            crashes=(
                CrashSpec(process=2, at=3.0),
                CrashSpec(process=0, at=4.0, restart_at=7.0),
            ),
        )
        comp = build_lock_scenario(
            consistent_order=True, seed=seed, faults=plan
        )
        assert_causally_consistent(comp)
        assert_roundtrips(comp)
        # Whatever happened, the plan itself is preserved verbatim.
        assert comp.meta["faults"]["plan"] == plan.to_dict()
