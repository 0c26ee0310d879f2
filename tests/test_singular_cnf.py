"""Tests for singular k-CNF detection: all engines against the SAT oracle."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection import (
    SelectionScan,
    detect_by_chain_choice,
    detect_by_process_choice,
    detect_singular,
    possibly_enumerate,
)
from repro.detection.singular_cnf import (
    clause_true_events,
    clause_true_events_on,
)
from repro.detection.work_optimal import (
    VEC_MIN_COMBINATIONS,
    CombinationSweep,
)
from repro.perf import CausalityIndex
from repro.perf.clockmatrix import numpy_available
from repro.predicates import (
    NotSingularError,
    clause,
    cnf,
    local,
    singular_cnf,
)
from repro.reductions import possibly_via_sat
from repro.testkit.oracles import brute_possibly
from repro.trace import BoolVar, grouped_computation


def predicate_for_groups(num_groups, group_size, negate_some=False):
    clauses = []
    for g in range(num_groups):
        literals = []
        for i in range(group_size):
            process = g * group_size + i
            negated = negate_some and (process % 3 == 0)
            literals.append(local(process, "x", negated=negated))
        clauses.append(clause(*literals))
    return singular_cnf(*clauses)


class TestTrueEvents:
    def test_true_events_on_process(self, figure2):
        cl = clause(local(0, "x"), local(1, "x"))
        assert clause_true_events_on(figure2, cl, 0) == [(0, 1)]
        assert clause_true_events_on(figure2, cl, 2) == []

    def test_negated_literal_true_initially(self, figure2):
        cl = clause(local(0, "x", negated=True))
        assert clause_true_events_on(figure2, cl, 0) == [(0, 0)]

    def test_group_true_events_union(self, figure2):
        cl = clause(local(0, "x"), local(3, "x"))
        assert clause_true_events(figure2, cl) == [(0, 1), (3, 1)]

    def test_clause_with_both_polarities_on_one_process(self, figure2):
        cl = clause(local(0, "x"), local(0, "x", negated=True))
        # Tautological per-process: every event of process 0 qualifies.
        assert clause_true_events_on(figure2, cl, 0) == [(0, 0), (0, 1)]


class TestEnginesAgree:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("ordering", [None, "receive", "send"])
    def test_against_sat_oracle(self, seed, ordering):
        comp = grouped_computation(
            2, 2, 4, message_density=0.5, seed=seed,
            variables=[BoolVar("x", 0.3)], ordering=ordering,
        )
        pred = predicate_for_groups(2, 2, negate_some=(seed % 2 == 0))
        oracle = possibly_via_sat(comp, pred) is not None
        by_process = detect_by_process_choice(comp, pred)
        by_chain = detect_by_chain_choice(comp, pred)
        auto = detect_singular(comp, pred, "auto")
        assert by_process.holds == oracle, seed
        assert by_chain.holds == oracle, seed
        assert auto.holds == oracle, seed
        for result in (by_process, by_chain, auto):
            if result.holds:
                assert pred.evaluate(result.witness)

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("ordering", [None, "receive"])
    def test_chain_choice_against_brute_oracle(self, seed, ordering):
        comp = grouped_computation(
            2, 2, 3, message_density=0.5, seed=seed,
            variables=[BoolVar("x", 0.4)], ordering=ordering,
        )
        pred = predicate_for_groups(2, 2)
        CausalityIndex.of(comp)  # warm the memoized index the scan uses
        oracle = brute_possibly(comp, pred.evaluate) is not None
        assert detect_singular(comp, pred, "chain-choice").holds == oracle

    @pytest.mark.parametrize("seed", range(5))
    def test_three_wide_groups(self, seed):
        comp = grouped_computation(
            2, 3, 3, message_density=0.4, seed=seed,
            variables=[BoolVar("x", 0.25)],
        )
        pred = predicate_for_groups(2, 3)
        oracle = possibly_via_sat(comp, pred) is not None
        assert detect_by_chain_choice(comp, pred).holds == oracle
        assert detect_by_process_choice(comp, pred).holds == oracle

    def test_enumerate_strategy(self, figure2):
        pred = singular_cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(2, "x"), local(3, "x")),
        )
        result = detect_singular(figure2, pred, "enumerate")
        assert result.holds
        assert result.algorithm == "cooper-marzullo"

    def test_unknown_strategy_rejected(self, figure2):
        pred = singular_cnf(clause(local(0, "x")))
        with pytest.raises(ValueError):
            detect_singular(figure2, pred, "nonsense")

    def test_non_singular_rejected(self, figure2):
        shared = cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(1, "x"), local(2, "x")),
        )
        with pytest.raises(NotSingularError):
            detect_singular(figure2, shared, "chain-choice")


class TestCombinatorics:
    def test_no_true_events_anywhere(self, figure2):
        pred = singular_cnf(clause(local(0, "missing")))
        result = detect_by_chain_choice(figure2, pred)
        assert not result.holds
        assert result.stats["combinations"] == 0

    def test_chain_choice_combinations_at_most_process_choice(self):
        for seed in range(6):
            comp = grouped_computation(
                2, 3, 4, message_density=0.6, seed=seed,
                variables=[BoolVar("x", 0.5)],
            )
            pred = predicate_for_groups(2, 3)
            chains = detect_by_chain_choice(comp, pred)
            procs = detect_by_process_choice(comp, pred)
            assert (
                chains.stats["combinations"] <= procs.stats["combinations"]
            )

    def test_invocation_counters(self, figure2):
        pred = singular_cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(2, "x"), local(3, "x")),
        )
        result = detect_by_process_choice(figure2, pred)
        assert result.holds
        assert 1 <= result.stats["invocations"] <= result.stats["combinations"]
        assert result.stats["combinations"] == 4


@pytest.mark.skipif(
    not numpy_available(), reason="the batched block kernel needs numpy"
)
class TestBatchedSweep:
    """``CombinationSweep.scan_block`` against the per-rank scan loop.

    Six two-process clauses give exactly 2**6 = 64 process-choice
    combinations, the smallest sweep the engines hand to the block
    kernel; one event per process keeps the brute-force lattice small.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        density=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        message_density=st.sampled_from([0.3, 0.6, 0.9]),
        negated=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    # Every chain non-empty in both: unsatisfiable, and satisfiable only
    # at rank 28.
    @example(seed=0, density=0.5, message_density=0.3, negated=[False] * 12)
    @example(seed=4, density=0.5, message_density=0.3, negated=[False] * 12)
    def test_block_matches_per_rank_scan(
        self, seed, density, message_density, negated
    ):
        comp = grouped_computation(
            6, 2, 1, message_density=message_density, seed=seed,
            variables=[BoolVar("x", density)],
        )
        pred = singular_cnf(
            *(
                clause(
                    local(p, "x", negated=negated[p]),
                    local(p + 1, "x", negated=negated[p + 1]),
                )
                for p in range(0, 12, 2)
            )
        )
        index = CausalityIndex.of(comp)
        per_group = [
            [list(index.clause_true_events_on(cl, p)) for p in (q, q + 1)]
            for cl, q in zip(pred.clauses, range(0, 12, 2))
        ]
        total = math.prod(len(chains) for chains in per_group)
        assert total >= VEC_MIN_COMBINATIONS
        expected_rank = expected_selection = None
        for rank, combo in enumerate(itertools.product(*per_group)):
            selection = SelectionScan(comp, list(combo), index=index).run()
            if selection is not None:
                expected_rank, expected_selection = rank, selection
                break
        rank, selection, _, _ = CombinationSweep(
            comp, per_group, index=index
        ).scan_block(0, total)
        assert rank == expected_rank
        assert selection == expected_selection
        oracle = brute_possibly(comp, pred.evaluate) is not None
        assert (expected_rank is not None) == oracle
        assert detect_by_chain_choice(comp, pred).holds == oracle
        assert detect_by_process_choice(comp, pred).holds == oracle
