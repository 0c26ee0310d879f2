"""Detection of singular k-CNF predicates (paper, Section 3).

A singular k-CNF predicate assigns each clause a *group* of processes, and
no process serves two clauses.  By Observation 1, ``possibly(B)`` holds iff
there are pairwise-consistent *clause-true events*, one per group (an event
is clause-true when it makes some literal of its process true).

The general problem is NP-complete (Theorem 1; see
:mod:`repro.reductions.sat_to_detection`), so this module offers the
paper's full algorithm menu:

* :func:`detect_special_case` — polynomial when the computation is
  receive-ordered or send-ordered with respect to the groups (Section 3.2,
  via the CPDSC meta-process scan);
* :func:`detect_by_process_choice` — Section 3.3, first algorithm: try all
  ``prod |G_j|`` choices of one process per group and run the polynomial
  CPDHB scan on each (at most ``k^m`` invocations);
* :func:`detect_by_chain_choice` — Section 3.3, second algorithm: cover the
  true events of each group with a *minimum* set of causal chains and try
  all chain combinations (at most ``prod c_j`` invocations with
  ``c_j <= |G_j|`` — an exponential reduction whenever chains are fewer
  than processes);
* :func:`detect_singular` — facade choosing the cheapest applicable engine.

All engines return a witness cut when the predicate possibly holds.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.computation import Computation, Cut, least_consistent_cut
from repro.detection.cooper_marzullo import possibly_enumerate
from repro.detection.cpdsc import (
    detect_receive_ordered,
    detect_send_ordered,
)
from repro.detection.garg_waldecker import SelectionScan
from repro.detection.result import DetectionResult
from repro.detection.work_optimal import (
    VEC_CHUNK,
    CombinationSweep,
    use_batched_sweep,
)
from repro.events import EventId
from repro.obs import StatCounters, span
from repro.obs.progress import tracker
from repro.perf.causality import CausalityIndex
from repro.predicates.boolean import Clause, CNFPredicate
from repro.predicates.errors import UnsupportedPredicateError

__all__ = [
    "clause_true_events",
    "clause_true_events_on",
    "detect_special_case",
    "detect_by_process_choice",
    "detect_by_chain_choice",
    "detect_singular",
]


def clause_true_events_on(
    computation: Computation, cl: Clause, process: int
) -> List[EventId]:
    """Events of ``process`` making some literal of the clause true.

    Memoized per (clause, process) on the computation's causality index.
    """
    return list(CausalityIndex.of(computation).clause_true_events_on(cl, process))


def clause_true_events(computation: Computation, cl: Clause) -> List[EventId]:
    """All events (across the clause's group) making the clause true.

    Memoized per clause on the computation's causality index.
    """
    return list(CausalityIndex.of(computation).clause_true_events(cl))


def _groups(predicate: CNFPredicate) -> List[List[int]]:
    predicate.require_singular()
    return [sorted(cl.processes()) for cl in predicate.clauses]


def _witness(
    computation: Computation,
    predicate: CNFPredicate,
    selection: Sequence[EventId],
) -> Cut:
    witness = least_consistent_cut(computation, selection)
    assert witness is not None, "pairwise-consistent selection must admit a cut"
    assert predicate.evaluate(witness), "witness cut must satisfy the predicate"
    return witness


def _choose_special_variant(
    computation: Computation, groups: Sequence[Sequence[int]]
) -> Optional[str]:
    """Which CPDSC variant applies, or None.  Memoized per group structure."""
    index = CausalityIndex.of(computation)
    if index.is_receive_ordered(groups):
        return "receive-ordered"
    if index.is_send_ordered(groups):
        return "send-ordered"
    return None


def _detect_special_given(
    computation: Computation,
    predicate: CNFPredicate,
    groups: Sequence[Sequence[int]],
    variant: str,
) -> DetectionResult:
    """Run the already-chosen CPDSC variant.

    The caller has established applicability; clause-true events are only
    materialized here, after the variant decision, so an inapplicable
    predicate never pays for them.
    """
    with span("engine.cpdsc", groups=len(groups)) as sp:
        index = CausalityIndex.of(computation)
        trues = [
            list(index.clause_true_events(cl)) for cl in predicate.clauses
        ]
        if variant == "receive-ordered":
            selection = detect_receive_ordered(computation, groups, trues)
        else:
            selection = detect_send_ordered(computation, groups, trues)
        stats = StatCounters("engine.cpdsc")
        stats.set("variant", variant)
        stats.inc("scans")
        sp.set(variant=variant, holds=selection is not None)
        index.maybe_flush_metrics()
        if selection is None:
            return DetectionResult(
                holds=False, algorithm="cpdsc", stats=stats.as_dict()
            )
        return DetectionResult(
            holds=True,
            witness=_witness(computation, predicate, selection),
            algorithm="cpdsc",
            stats=stats.as_dict(),
        )


def detect_special_case(
    computation: Computation, predicate: CNFPredicate
) -> DetectionResult:
    """Polynomial detection for receive-ordered / send-ordered computations.

    The orderedness check runs once, up front (and is memoized on the
    computation's causality index, so an ``auto`` dispatch that already
    classified the computation never re-derives the verdict).

    Raises:
        UnsupportedPredicateError: If the computation is neither
            receive-ordered nor send-ordered with respect to the clause
            groups — use one of the general engines then.
    """
    groups = _groups(predicate)
    variant = _choose_special_variant(computation, groups)
    if variant is None:
        raise UnsupportedPredicateError(
            "computation is neither receive-ordered nor send-ordered "
            "with respect to the clause groups; use "
            "detect_by_chain_choice"
        )
    return _detect_special_given(computation, predicate, groups, variant)


def detect_by_process_choice(
    computation: Computation, predicate: CNFPredicate
) -> DetectionResult:
    """Try every one-process-per-group choice; CPDHB on each (Section 3.3a)."""
    groups = _groups(predicate)
    index = CausalityIndex.of(computation)
    per_group_chains: List[List[List[EventId]]] = []
    for cl, group in zip(predicate.clauses, groups):
        per_group_chains.append(
            [list(index.clause_true_events_on(cl, p)) for p in group]
        )
    return _detect_by_combinations(
        computation,
        predicate,
        per_group_chains,
        algorithm="process-choice",
    )


def detect_by_chain_choice(
    computation: Computation, predicate: CNFPredicate
) -> DetectionResult:
    """Try every one-chain-per-group choice; CPDHB on each (Section 3.3b).

    Uses a minimum chain cover of each group's true events (memoized on the
    causality index), so the number of CPDHB invocations is ``prod c_j``
    where ``c_j`` is the width (largest antichain) of group j's true events
    — never more than the process-choice engine, exponentially fewer when
    groups communicate internally.
    """
    _groups(predicate)
    index = CausalityIndex.of(computation)
    per_group_chains: List[List[List[EventId]]] = [
        [list(chain) for chain in index.chain_cover(cl)]
        for cl in predicate.clauses
    ]
    return _detect_by_combinations(
        computation,
        predicate,
        per_group_chains,
        algorithm="chain-choice",
    )


def _detect_by_combinations(
    computation: Computation,
    predicate: CNFPredicate,
    per_group_chains: Sequence[Sequence[List[EventId]]],
    algorithm: str,
) -> DetectionResult:
    """Shared driver: CPDHB over every combination of one chain per group.

    Combinations are ranked in ``itertools.product`` order; the first
    successful rank supplies the witness, whether the sweep runs the
    per-rank scan or the batched block kernel.
    """
    total = math.prod(len(chains) for chains in per_group_chains)
    with span(
        f"engine.{algorithm}",
        groups=len(per_group_chains),
        combinations=total,
    ) as sp:
        index = CausalityIndex.of(computation)
        stats = StatCounters(f"engine.{algorithm}")
        stats.set("combinations", total)
        stats.inc("invocations", 0)
        stats.inc("advances", 0)

        def _finish(
            holds: bool, selection: Optional[Sequence[EventId]] = None
        ) -> DetectionResult:
            sp.set(holds=holds)
            index.maybe_flush_metrics()
            if not holds:
                return DetectionResult(
                    holds=False, algorithm=algorithm, stats=stats.as_dict()
                )
            assert selection is not None
            return DetectionResult(
                holds=True,
                witness=_witness(computation, predicate, selection),
                algorithm=algorithm,
                stats=stats.as_dict(),
            )

        if total == 0:
            # Some group has no true event at all: the clause can never hold.
            return _finish(False)

        trk = tracker("detect.combinations", total=total)
        if use_batched_sweep(total):
            # Large sweeps: score a whole block of ranks per call with the
            # vectorized work-optimal rounds.  Every rank of a consumed
            # block runs to its verdict, so ``invocations`` counts whole
            # blocks.
            sweep = CombinationSweep(
                computation, per_group_chains, index=index
            )
            for start in range(0, total, VEC_CHUNK):
                stop = min(start + VEC_CHUNK, total)
                stats.inc("invocations", stop - start)
                with span("scan.batch", ranks=stop - start) as scan_sp:
                    _, selection, advances, rounds = sweep.scan_block(
                        start, stop
                    )
                    scan_sp.set(advances=advances, rounds=rounds)
                stats.inc("advances", advances)
                trk.step(stop - start)
                if selection is not None:
                    return _finish(True, selection)
            trk.finish()
            return _finish(False)
        for combo in itertools.product(*per_group_chains):
            stats.inc("invocations")
            with span("scan.cpdhb") as scan_sp:
                scan = SelectionScan(computation, list(combo), index=index)
                selection = scan.run()
                scan_sp.set(advances=scan.advances)
            stats.inc("advances", scan.advances)
            trk.step()
            if selection is not None:
                return _finish(True, selection)
        trk.finish()
        return _finish(False)


def detect_singular(
    computation: Computation,
    predicate: CNFPredicate,
    strategy: str = "auto",
) -> DetectionResult:
    """Facade for singular k-CNF ``possibly`` detection.

    Strategies: ``"auto"`` (polynomial special case when applicable, else
    chain-choice), ``"special"``, ``"process-choice"``, ``"chain-choice"``,
    ``"enumerate"`` (Cooper–Marzullo baseline).
    """
    if strategy == "auto":
        groups = _groups(predicate)
        with span("dispatch.singular", strategy="auto", groups=len(groups)):
            # Classify once; the chosen variant is handed to the special
            # engine so it never re-runs the orderedness scan.
            variant = _choose_special_variant(computation, groups)
            if variant is not None:
                return _detect_special_given(
                    computation, predicate, groups, variant
                )
            return detect_by_chain_choice(computation, predicate)
    if strategy == "special":
        return detect_special_case(computation, predicate)
    if strategy == "process-choice":
        return detect_by_process_choice(computation, predicate)
    if strategy == "chain-choice":
        return detect_by_chain_choice(computation, predicate)
    if strategy == "enumerate":
        return possibly_enumerate(computation, predicate)
    raise ValueError(f"unknown strategy {strategy!r}")
