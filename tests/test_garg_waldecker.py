"""Tests for the Garg–Waldecker CPDHB conjunctive detection scan."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_possibly
from repro.computation import ComputationBuilder, least_consistent_cut
from repro.detection import (
    SelectionScan,
    detect_conjunctive,
    find_consistent_selection,
    possibly_enumerate,
)
from repro.predicates import conjunctive, local
from repro.predicates.local import true_events
from repro.trace import BoolVar, random_computation

random_comp = st.builds(
    random_computation,
    num_processes=st.integers(2, 5),
    events_per_process=st.integers(0, 5),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 100_000),
    variables=st.just([BoolVar("x", density=0.4)]),
)


class TestSelectionScan:
    def test_empty_chain_set(self, figure2):
        assert find_consistent_selection(figure2, []) == []

    def test_chain_without_events_fails(self, figure2):
        assert find_consistent_selection(figure2, [[], [(0, 1)]]) is None

    def test_single_chains(self, figure2):
        selection = find_consistent_selection(
            figure2, [[(0, 1)], [(3, 1)]]
        )
        assert selection == [(0, 1), (3, 1)]

    def test_eliminates_past_events(self, two_chain):
        # (0,1) is inconsistent with (1,2) (message (0,2)->(1,2)); the scan
        # must advance chain 0 to (0,3).
        selection = find_consistent_selection(
            two_chain, [[(0, 1), (0, 3)], [(1, 2)]]
        )
        assert selection == [(0, 3), (1, 2)]

    def test_no_selection_when_all_eliminated(self, two_chain):
        # (1,3) requires everything... (0,1) vs (1,3): succ((0,1))=(0,2)
        # precedes (1,2) precedes (1,3) -> eliminate (0,1); chain exhausted.
        selection = find_consistent_selection(two_chain, [[(0, 1)], [(1, 3)]])
        assert selection is None

    def test_stats_counters(self, two_chain):
        scan = SelectionScan(two_chain, [[(0, 1), (0, 3)], [(1, 2)]])
        assert scan.run() is not None
        assert scan.advances >= 1
        assert scan.comparisons >= 1


class TestSelectionScanProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_comp)
    def test_advances_bounded_by_total_chain_length(self, comp):
        """The docstring's bound: at most ``sum of chain lengths`` advances."""
        chains = [
            true_events(comp, local(p, "x"))
            for p in range(comp.num_processes)
        ]
        scan = SelectionScan(comp, chains)
        scan.run()
        assert scan.advances <= sum(len(chain) for chain in chains)

    @settings(max_examples=150, deadline=None)
    @given(random_comp)
    def test_selection_matches_brute_force(self, comp):
        """A selection exists iff some consistent cut makes every x true,
        and the selection found lies on such a cut."""
        chains = [
            true_events(comp, local(p, "x"))
            for p in range(comp.num_processes)
        ]
        pred = conjunctive(*(local(p, "x") for p in range(comp.num_processes)))
        selection = SelectionScan(comp, chains).run()
        assert (selection is None) == (brute_possibly(comp, pred.evaluate) is None)
        if selection is not None:
            assert all(e in chain for e, chain in zip(selection, chains))
            witness = least_consistent_cut(comp, selection)
            assert witness is not None
            assert pred.evaluate(witness)


class TestDetectConjunctive:
    def test_figure2_all_true(self, figure2):
        pred = conjunctive(*(local(p, "x") for p in range(4)))
        result = detect_conjunctive(figure2, pred)
        assert result.holds
        assert pred.evaluate(result.witness)

    def test_unsatisfiable_conjunct(self, figure2):
        pred = conjunctive(local(0, "x"), local(1, "missing"))
        assert not detect_conjunctive(figure2, pred).holds

    def test_subset_of_processes(self, figure2):
        pred = conjunctive(local(1, "x"), local(2, "x"))
        result = detect_conjunctive(figure2, pred)
        assert result.holds
        assert result.witness.passes_through((1, 1))
        assert result.witness.passes_through((2, 1))

    def test_negated_conjuncts(self, figure2):
        pred = conjunctive(
            local(0, "x"), local(1, "x", negated=True)
        )
        result = detect_conjunctive(figure2, pred)
        assert result.holds

    def test_sequentialized_processes_limit_witnesses(self):
        # p0 true only at its first event; p1 true only after hearing from
        # p0's second event: impossible to align.
        builder = ComputationBuilder(2)
        builder.init_values(0, x=False)
        builder.init_values(1, x=False)
        builder.internal(0, x=True)
        builder.send(0, x=False)
        builder.receive(1, x=True)
        builder.message((0, 2), (1, 1))
        comp = builder.build()
        pred = conjunctive(local(0, "x"), local(1, "x"))
        assert not detect_conjunctive(comp, pred).holds

    @settings(max_examples=60, deadline=None)
    @given(random_comp, st.integers(2, 5))
    def test_matches_enumeration(self, comp, width):
        processes = list(range(min(width, comp.num_processes)))
        pred = conjunctive(*(local(p, "x") for p in processes))
        fast = detect_conjunctive(comp, pred)
        slow = possibly_enumerate(comp, pred)
        assert fast.holds == slow.holds
        if fast.holds:
            assert pred.evaluate(fast.witness)

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_witness_is_least(self, comp):
        """CPDHB's witness passes through the *first* admissible true events."""
        pred = conjunctive(local(0, "x"), local(1, "x"))
        result = detect_conjunctive(comp, pred)
        brute = brute_possibly(comp, pred.evaluate)
        assert result.holds == (brute is not None)
