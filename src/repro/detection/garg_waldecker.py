"""Garg–Waldecker conjunctive predicate detection (CPDHB).

``possibly`` of a conjunctive predicate — a conjunction of local predicates,
one per participating process — is decidable in polynomial time by an
elimination scan (Garg & Waldecker, IEEE TPDS 1994; the tractable cell of
the paper's Figure 1).  The scan keeps one candidate *true event* per
process; whenever two candidates ``e, f`` are inconsistent, one of them
provably belongs to no solution and is advanced past:

    ``succ(e) -> f``  ⟹  ``e`` is inconsistent with ``f`` and with every
    later true event of ``f``'s sequence (they are causally after ``f``),
    so ``e`` can be eliminated.

We implement the scan over *causal chains* rather than processes: a chain
is any sequence of events totally ordered by happened-before.  With one
chain per process (its true events in local order) this is classical
CPDHB; with arbitrary chains it is the engine of the paper's Section 3.3
chain-cover algorithm for singular k-CNF predicates — the elimination
argument is verbatim, since later chain events are causally after the
current one.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from repro.computation import Computation, Cut, least_consistent_cut
from repro.detection.result import DetectionResult
from repro.events import EventId
from repro.obs import StatCounters, span
from repro.obs.progress import tracker
from repro.perf.causality import CausalityIndex
from repro.predicates.conjunctive import ConjunctivePredicate
from repro.predicates.local import true_events

__all__ = ["find_consistent_selection", "detect_conjunctive", "SelectionScan"]


class SelectionScan:
    """Elimination scan finding pairwise-consistent events, one per chain.

    Exposes the number of eliminations performed (``advances``) for the
    benchmarks; the scan performs at most ``sum of chain lengths``
    eliminations, each costing O(number of chains) consistency checks.

    Causality queries read the clock table of the computation's memoized
    :class:`~repro.perf.causality.CausalityIndex`; pass ``index`` to reuse
    one already in hand.
    """

    def __init__(
        self,
        computation: Computation,
        chains: Sequence[Sequence[EventId]],
        index: Optional[CausalityIndex] = None,
    ):
        self._comp = computation
        self._index = index if index is not None else CausalityIndex.of(computation)
        self._chains: List[List[EventId]] = [list(c) for c in chains]
        self.advances = 0
        self.comparisons = 0

    def run(self) -> Optional[List[EventId]]:
        """Return a pairwise-consistent selection, or None if none exists."""
        m = len(self._chains)
        if m == 0:
            return []
        if any(not chain for chain in self._chains):
            return None
        # The scan reads raw clock tuples, with no per-comparison calls.
        # For a non-initial event e' = (p, i), leq(e', f) reduces to f being
        # non-initial with clk(f)[p] > i (the component counts the events
        # of p in f's causal past, including the initial one, so
        # same-process equality is covered too).  Both elimination tests
        # only apply leq to local successors, non-initial by construction.
        clk = self._index._clk
        lengths = self._index._lengths
        chains = self._chains
        cursor = [0] * m
        pending: deque[int] = deque(range(m))
        queued = [True] * m
        advances = 0
        comparisons = 0
        trk = tracker("detect.scan", check_every=512)
        while pending:
            trk.step()
            i = pending.popleft()
            queued[i] = False
            ep, ei = chains[i][cursor[i]]
            ei1 = ei + 1
            e_last = ei1 >= lengths[ep]
            restart = False
            for j in range(m):
                if j == i:
                    continue
                fp, fi = chains[j][cursor[j]]
                comparisons += 1
                if not e_last and fi and clk[fp][fi][ep] > ei1:
                    # succ(e) -> f: e pairs with nothing at or after f.
                    advances += 1
                    cursor[i] += 1
                    if cursor[i] >= len(chains[i]):
                        self.advances = advances
                        self.comparisons = comparisons
                        return None
                    if not queued[i]:
                        pending.append(i)
                        queued[i] = True
                    restart = True
                    break
                fi1 = fi + 1
                if fi1 < lengths[fp] and ei and clk[ep][ei][fp] > fi1:
                    # succ(f) -> e: eliminate f symmetrically.
                    advances += 1
                    cursor[j] += 1
                    if cursor[j] >= len(chains[j]):
                        self.advances = advances
                        self.comparisons = comparisons
                        return None
                    if not queued[j]:
                        pending.append(j)
                        queued[j] = True
            if restart:
                continue
        self.advances = advances
        self.comparisons = comparisons
        return [chains[i][cursor[i]] for i in range(m)]


def find_consistent_selection(
    computation: Computation, chains: Sequence[Sequence[EventId]]
) -> Optional[List[EventId]]:
    """Pairwise-consistent selection of one event per causal chain, or None.

    Each chain must be sorted by happened-before (chains produced by
    :func:`repro.computation.minimum_chain_cover` and per-process true-event
    lists both are).
    """
    return SelectionScan(computation, chains).run()


def detect_conjunctive(
    computation: Computation, predicate: ConjunctivePredicate
) -> DetectionResult:
    """Decide ``possibly`` of a conjunctive predicate by CPDHB.

    Returns a witness cut passing through one true event per conjunct when
    the predicate possibly holds.
    """
    with span("engine.cpdhb", conjuncts=len(predicate.conjuncts)) as sp:
        chains = [
            true_events(computation, conjunct)
            for conjunct in predicate.conjuncts
        ]
        scan = SelectionScan(computation, chains)
        selection = scan.run()
        CausalityIndex.of(computation).maybe_flush_metrics()
        stats = StatCounters("engine.cpdhb")
        stats.set("chains", len(chains))
        stats.inc("advances", scan.advances)
        stats.inc("comparisons", scan.comparisons)
        sp.set(advances=scan.advances, holds=selection is not None)
        if selection is None:
            return DetectionResult(
                holds=False, algorithm="cpdhb", stats=stats.as_dict()
            )
        witness = least_consistent_cut(computation, selection)
        assert witness is not None, "CPDHB selection must admit a consistent cut"
        assert predicate.evaluate(witness)
        return DetectionResult(
            holds=True, witness=witness, algorithm="cpdhb",
            stats=stats.as_dict(),
        )
