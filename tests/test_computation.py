"""Tests for the computation poset: construction, clocks, causality."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.computation import (
    Computation,
    ComputationBuilder,
    ComputationError,
    CyclicComputationError,
    UnknownEventError,
)
from repro.events import Event, EventKind
from repro.trace import BoolVar, random_computation


def reference_order(comp: Computation) -> nx.DiGraph:
    """Happened-before via networkx transitive closure (test oracle)."""
    graph = nx.DiGraph()
    for p in range(comp.num_processes):
        events = comp.events_of(p)
        for ev in events:
            graph.add_node(ev.event_id)
        for i in range(len(events) - 1):
            graph.add_edge((p, i), (p, i + 1))
    for send, recv in comp.messages:
        graph.add_edge(send, recv)
    # Initial events precede every non-initial event.
    for p in range(comp.num_processes):
        for q in range(comp.num_processes):
            for ev in comp.events_of(q)[1:]:
                graph.add_edge((p, 0), ev.event_id)
    return nx.transitive_closure(graph)


class TestValidation:
    def test_empty_computation_rejected(self):
        with pytest.raises(ComputationError):
            Computation([])

    def test_process_without_initial_rejected(self):
        with pytest.raises(ComputationError):
            Computation([[]])

    def test_first_event_must_be_initial(self):
        events = [Event(process=0, index=0, kind=EventKind.INTERNAL)]
        with pytest.raises(ComputationError):
            Computation([events])

    def test_misnumbered_event_rejected(self):
        events = [
            Event(process=0, index=0, kind=EventKind.INITIAL),
            Event(process=0, index=2),
        ]
        with pytest.raises(ComputationError):
            Computation([events])

    def test_initial_event_mid_sequence_rejected(self):
        events = [
            Event(process=0, index=0, kind=EventKind.INITIAL),
            Event(process=0, index=1, kind=EventKind.INITIAL),
        ]
        with pytest.raises(ComputationError):
            Computation([events])

    def test_message_endpoints_must_exist(self):
        builder = ComputationBuilder(2)
        builder.send(0)
        with pytest.raises(ComputationError):
            Computation(
                [
                    [
                        Event(0, 0, EventKind.INITIAL),
                        Event(0, 1, EventKind.SEND),
                    ],
                    [Event(1, 0, EventKind.INITIAL)],
                ],
                [((0, 1), (1, 5))],
            )

    def test_message_kind_checked(self):
        with pytest.raises(ComputationError):
            Computation(
                [
                    [
                        Event(0, 0, EventKind.INITIAL),
                        Event(0, 1, EventKind.INTERNAL),
                    ],
                    [
                        Event(1, 0, EventKind.INITIAL),
                        Event(1, 1, EventKind.RECEIVE),
                    ],
                ],
                [((0, 1), (1, 1))],
            )

    def test_initial_events_cannot_message(self):
        with pytest.raises(ComputationError):
            Computation(
                [
                    [Event(0, 0, EventKind.INITIAL)],
                    [
                        Event(1, 0, EventKind.INITIAL),
                        Event(1, 1, EventKind.RECEIVE),
                    ],
                ],
                [((0, 0), (1, 1))],
            )

    def test_cycle_detected(self):
        # p0 sends at 1 and receives at 2; p1 receives at 1 and sends at 2,
        # but the message p1->p0 lands *before* p0's send completes a cycle
        # when combined with p0->p1 into p1's earlier event.
        events0 = [
            Event(0, 0, EventKind.INITIAL),
            Event(0, 1, EventKind.RECEIVE),
            Event(0, 2, EventKind.SEND),
        ]
        events1 = [
            Event(1, 0, EventKind.INITIAL),
            Event(1, 1, EventKind.RECEIVE),
            Event(1, 2, EventKind.SEND),
        ]
        with pytest.raises(CyclicComputationError):
            Computation(
                [events0, events1],
                [((0, 2), (1, 1)), ((1, 2), (0, 1))],
            )

    def test_self_message_rejected(self):
        events0 = [
            Event(0, 0, EventKind.INITIAL),
            Event(0, 1, EventKind.SEND_RECEIVE),
        ]
        with pytest.raises(ComputationError):
            Computation([events0], [((0, 1), (0, 1))])


class TestAccessors:
    def test_counts(self, figure2):
        assert figure2.num_processes == 4
        assert figure2.total_events() == 4
        assert figure2.num_events(0) == 1

    def test_event_lookup(self, figure2):
        assert figure2.event((1, 1)).label == "f"
        with pytest.raises(UnknownEventError):
            figure2.event((1, 9))

    def test_has_event(self, figure2):
        assert figure2.has_event((0, 1))
        assert not figure2.has_event((0, 2))
        assert not figure2.has_event((9, 0))

    def test_predecessor_successor(self, figure2):
        assert figure2.predecessor((0, 1)) == (0, 0)
        assert figure2.predecessor((0, 0)) is None
        assert figure2.successor((0, 0)) == (0, 1)
        assert figure2.successor((0, 1)) is None

    def test_message_adjacency(self, figure2):
        assert figure2.message_targets((1, 1)) == ((2, 1),)
        assert figure2.message_sources((2, 1)) == ((1, 1),)
        assert figure2.message_targets((0, 1)) == ()

    def test_initial_final_events(self, figure2):
        assert figure2.initial_event(0).is_initial
        assert figure2.final_event(2).label == "g"

    def test_label_index(self, figure2):
        index = figure2.label_index()
        assert index["e"] == (0, 1)
        assert index["h"] == (3, 1)

    def test_all_events_excludes_initial_by_default(self, figure2):
        assert len(list(figure2.all_events())) == 4
        assert len(list(figure2.all_events(include_initial=True))) == 8

    def test_receive_and_send_event_listing(self, figure2):
        assert figure2.send_events(1) == [(1, 1)]
        assert figure2.receive_events(2) == [(2, 1)]
        assert figure2.receive_events(0) == []


class TestCausality:
    def test_message_orders_events(self, figure2):
        f, g = (1, 1), (2, 1)
        assert figure2.happened_before(f, g)
        assert not figure2.happened_before(g, f)

    def test_independent_events(self, figure2):
        assert figure2.concurrent((0, 1), (3, 1))
        assert figure2.concurrent((1, 1), (0, 1))

    def test_irreflexive(self, figure2):
        assert not figure2.happened_before((0, 1), (0, 1))

    def test_initial_precedes_all_non_initial(self, figure2):
        for p in range(4):
            for q in range(4):
                assert figure2.happened_before((p, 0), (q, 1))

    def test_initials_incomparable(self, figure2):
        assert figure2.concurrent((0, 0), (1, 0))
        assert not figure2.happened_before((0, 0), (1, 0))

    def test_leq_reflexive(self, figure2):
        assert figure2.leq((0, 1), (0, 1))

    def test_matches_transitive_closure_oracle(self):
        for seed in range(8):
            comp = random_computation(
                4, 6, message_density=0.5, seed=seed, variables=[BoolVar("x")]
            )
            oracle = reference_order(comp)
            ids = [
                ev.event_id for ev in comp.all_events(include_initial=True)
            ]
            for e in ids:
                for f in ids:
                    expected = e != f and oracle.has_edge(e, f)
                    assert comp.happened_before(e, f) == expected, (e, f, seed)


class TestPairwiseConsistency:
    def test_same_event_consistent(self, figure2):
        assert figure2.pairwise_consistent((0, 1), (0, 1))

    def test_same_process_distinct_inconsistent(self, two_chain):
        assert not two_chain.pairwise_consistent((0, 1), (0, 2))

    def test_message_pair(self, figure2):
        # f -> g but succ(f) does not exist, so f and g are consistent.
        assert figure2.pairwise_consistent((1, 1), (2, 1))

    def test_inconsistent_via_successor(self, two_chain):
        # succ((0,2)) = (0,3)?  No: (0,2) sends to (1,2); succ((0,2))=(0,3)
        # does NOT precede (1,2).  But succ((0,1)) = (0,2) -> (1,2), so
        # (0,1) and (1,2) are inconsistent... succ((0,1))=(0,2) and
        # (0,2) -> (1,2) holds via the message.
        assert not two_chain.pairwise_consistent((0, 1), (1, 2))

    def test_definition_matches_existence_of_cut(self, two_chain):
        from helpers import all_consistent_cuts

        cuts = all_consistent_cuts(two_chain)
        ids = [
            ev.event_id for ev in two_chain.all_events(include_initial=True)
        ]
        for e in ids:
            for f in ids:
                exists = any(
                    cut.passes_through(e) and cut.passes_through(f)
                    for cut in cuts
                )
                assert two_chain.pairwise_consistent(e, f) == exists, (e, f)

    def test_definition_matches_on_random_traces(self):
        from helpers import all_consistent_cuts

        for seed in range(5):
            comp = random_computation(3, 3, 0.5, seed=seed)
            cuts = all_consistent_cuts(comp)
            ids = [
                ev.event_id for ev in comp.all_events(include_initial=True)
            ]
            for e in ids:
                for f in ids:
                    exists = any(
                        cut.passes_through(e) and cut.passes_through(f)
                        for cut in cuts
                    )
                    assert comp.pairwise_consistent(e, f) == exists


class TestClocks:
    def test_own_component_counts_local_events(self, two_chain):
        for p in range(2):
            for ev in two_chain.events_of(p)[1:]:
                assert two_chain.clock(ev.event_id)[p] == ev.index + 1

    def test_clock_of_unknown_event(self, figure2):
        with pytest.raises(UnknownEventError):
            figure2.clock((7, 7))

    def test_causal_past_frontier_is_consistent(self, diamond):
        from repro.computation import Cut

        for ev in diamond.all_events():
            frontier = diamond.causal_past_frontier(ev.event_id)
            cut = Cut(diamond, frontier)
            assert cut.is_consistent()
            assert cut.passes_through(ev.event_id)


def _causal_counts(comp: Computation):
    """Per event, the events of each process at or before it (oracle)."""
    oracle = reference_order(comp)
    return {
        f.event_id: [
            sum(
                1
                for e in comp.events_of(q)
                if e.event_id == f.event_id
                or oracle.has_edge(e.event_id, f.event_id)
            )
            for q in range(comp.num_processes)
        ]
        for f in comp.all_events(include_initial=True)
    }


def _crash_restart_trace(seed: int) -> Computation:
    from repro.simulation import CrashSpec, FaultPlan
    from repro.simulation.protocols import build_lock_scenario

    plan = FaultPlan(
        seed=seed,
        message_loss=0.2,
        crashes=(
            CrashSpec(process=2, at=3.0),
            CrashSpec(process=0, at=4.0, restart_at=7.0),
        ),
    )
    return build_lock_scenario(consistent_order=True, seed=seed, faults=plan)


class TestClockTable:
    """The clock table computed once at construction, and its consumers."""

    @pytest.mark.parametrize("seed", range(6))
    def test_components_count_causal_past_random(self, seed):
        comp = random_computation(
            2 + seed % 4, 5, message_density=0.6, seed=seed,
            variables=[BoolVar("x")],
        )
        for eid, counts in _causal_counts(comp).items():
            assert list(comp.clock(eid)) == counts, eid
            assert comp.clock_table[eid[0]][eid[1]] == tuple(counts)

    @pytest.mark.parametrize("seed", [3, 17, 101])
    def test_components_count_causal_past_crash_restart(self, seed):
        comp = _crash_restart_trace(seed)
        assert comp.meta["faults"]["plan"]["crashes"]
        for eid, counts in _causal_counts(comp).items():
            assert list(comp.clock(eid)) == counts, eid

    def test_index_shares_the_table(self, figure2):
        from repro.perf.causality import CausalityIndex

        assert CausalityIndex.of(figure2)._clk is figure2.clock_table

    @pytest.mark.parametrize("use_numpy", [False, True])
    def test_matrix_rows_equal_table(self, use_numpy):
        from repro.perf.clockmatrix import ClockMatrix, numpy_available

        if use_numpy and not numpy_available():
            pytest.skip("numpy backend unavailable")
        comp = _crash_restart_trace(5)
        table = comp.clock_table
        matrix = ClockMatrix(table, [len(row) for row in table], use_numpy)
        rows = [
            tuple(int(c) for c in matrix.clk[matrix.row((p, i))])
            for p in range(comp.num_processes)
            for i in range(len(table[p]))
        ]
        assert rows == [clock for row in table for clock in row]

    def test_three_process_cycle(self):
        # p0 -> p1 -> p2 -> p0, each message received before it is sent.
        events = [
            [
                Event(p, 0, EventKind.INITIAL),
                Event(p, 1, EventKind.RECEIVE),
                Event(p, 2, EventKind.SEND),
            ]
            for p in range(3)
        ]
        messages = [((0, 2), (1, 1)), ((1, 2), (2, 1)), ((2, 2), (0, 1))]
        with pytest.raises(CyclicComputationError) as info:
            Computation(events, messages)
        assert str(info.value) == (
            "event dependencies contain a cycle; only 0 of 6 events orderable"
        )

    def test_cycle_behind_orderable_prefix(self):
        # (0,2) <- (1,3) <- (1,2) <- (0,3) <- (0,2) is a cycle; (0,1), (1,1),
        # (2,1) and (2,2) (which receives from (1,1)) are still orderable.
        events = [
            [
                Event(0, 0, EventKind.INITIAL),
                Event(0, 1),
                Event(0, 2, EventKind.RECEIVE),
                Event(0, 3, EventKind.SEND),
            ],
            [
                Event(1, 0, EventKind.INITIAL),
                Event(1, 1, EventKind.SEND),
                Event(1, 2, EventKind.RECEIVE),
                Event(1, 3, EventKind.SEND),
            ],
            [
                Event(2, 0, EventKind.INITIAL),
                Event(2, 1),
                Event(2, 2, EventKind.RECEIVE),
            ],
        ]
        messages = [((1, 1), (2, 2)), ((0, 3), (1, 2)), ((1, 3), (0, 2))]
        with pytest.raises(CyclicComputationError) as info:
            Computation(events, messages)
        assert str(info.value) == (
            "event dependencies contain a cycle; only 4 of 8 events orderable"
        )
