"""Tests for the ``repro.perf`` detection-core layer.

The index and interner must be *transparent*: every fast path answers
exactly what the corresponding ``Computation``/``Cut`` method answers,
on arbitrary seeded traces.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.computation import Cut, initial_cut, iter_consistent_cuts
from repro.detection import detect_singular
from repro.obs import Capture
from repro.perf.causality import CausalityIndex
from repro.perf.interning import CutInterner
from repro.predicates import clause, local, singular_cnf
from repro.trace import BoolVar, random_computation

random_comp = st.builds(
    random_computation,
    num_processes=st.integers(2, 5),
    events_per_process=st.integers(0, 5),
    message_density=st.floats(0.0, 0.8),
    seed=st.integers(0, 100_000),
    variables=st.just([BoolVar("x", density=0.4)]),
)


def _all_event_ids(comp):
    return [
        ev.event_id
        for p in range(comp.num_processes)
        for ev in comp.events_of(p)
    ]


class TestCausalityIndex:
    def test_cached_per_computation(self, figure2):
        assert CausalityIndex.of(figure2) is CausalityIndex.of(figure2)

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_matches_computation_queries(self, comp):
        index = CausalityIndex.of(comp)
        ids = _all_event_ids(comp)
        for e in ids:
            assert index.successor(e) == comp.successor(e)
            assert index.clock_tuple(e) == comp.clock(e).components
            for f in ids:
                assert index.happened_before(e, f) == comp.happened_before(
                    e, f
                )
                assert index.leq(e, f) == comp.leq(e, f)
                assert index.pairwise_consistent(
                    e, f
                ) == comp.pairwise_consistent(e, f)

    @settings(max_examples=30, deadline=None)
    @given(random_comp)
    def test_successor_frontiers_match_cut_successors(self, comp):
        index = CausalityIndex.of(comp)
        for cut in iter_consistent_cuts(comp):
            expected = sorted(c.frontier for c in cut.successors())
            assert sorted(index.successor_frontiers(cut.frontier)) == expected

    def test_clause_caches_hit_on_reuse(self, figure2):
        index = CausalityIndex.of(figure2)
        cl = clause(local(0, "x"), local(1, "x"))
        first = index.clause_true_events(cl)
        misses = index.counters["clause_cache.misses"]
        assert index.clause_true_events(cl) is first
        assert index.counters["clause_cache.misses"] == misses
        assert index.counters["clause_cache.hits"] >= 1
        cover = index.chain_cover(cl)
        assert index.chain_cover(cl) is cover
        assert index.counters["chain_cover.hits"] >= 1

    def test_orderedness_memoized(self, figure2):
        index = CausalityIndex.of(figure2)
        groups = ((0, 1), (2, 3))
        first = index.is_receive_ordered(groups)
        misses = index.counters["orderedness.misses"]
        assert index.is_receive_ordered(groups) == first
        assert index.counters["orderedness.misses"] == misses
        assert index.counters["orderedness.hits"] >= 1

    def test_perf_counters_flushed_when_enabled(self, figure2):
        pred = singular_cnf(
            clause(local(0, "x"), local(1, "x")),
            clause(local(2, "x"), local(3, "x")),
        )
        with Capture() as cap:
            detect_singular(figure2, pred, strategy="chain-choice")
            detect_singular(figure2, pred, strategy="chain-choice")
        counters = cap.registry.snapshot()["counters"]
        assert counters.get("perf.clause_cache.misses", 0) >= 1
        # The second query is served straight from the chain-cover cache.
        assert counters.get("perf.chain_cover.misses", 0) >= 1
        assert counters.get("perf.chain_cover.hits", 0) >= 1


class TestCutInterner:
    def test_returns_canonical_cut(self, figure2):
        interner = CutInterner(figure2)
        frontier = initial_cut(figure2).frontier
        first = interner.get(frontier)
        assert isinstance(first, Cut)
        assert interner.get(frontier) is first
        assert interner.hits == 1
        assert interner.misses == 1
        assert len(interner) == 1

    def test_intern_existing_cut(self, figure2):
        interner = CutInterner(figure2)
        cut = initial_cut(figure2)
        assert interner.intern(cut) is cut
        assert interner.get(cut.frontier) is cut
