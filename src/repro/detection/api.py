"""One-call detection facade.

:func:`possibly` and :func:`definitely` accept any
:class:`~repro.predicates.base.GlobalPredicate` and dispatch to the fastest
sound engine for its structure:

===========================  =============================================
predicate class              possibly engine
===========================  =============================================
ConjunctivePredicate         Garg–Waldecker CPDHB scan (polynomial)
CNFPredicate, 1-CNF          CPDHB scan via conjunctive view (polynomial)
CNFPredicate, singular       CPDSC special case when receive-/send-ordered,
                             else chain-choice enumeration (Section 3.3)
RelationalSumPredicate       min-cut / Theorem 7 / exact engines (Sec. 4)
SymmetricPredicate           ±1 count algorithm (Section 4.3, polynomial)
OrPredicate                  distribute possibly over the disjuncts
anything else                slice-bounded Cooper–Marzullo enumeration
===========================  =============================================

``definitely`` uses the Theorem 7(2) decomposition for unit-step sum
equality and symmetric singletons, and the exact avoidance search
otherwise.  :func:`detect` returns the full :class:`DetectionResult` with
the witness cut and algorithm statistics.

Every enumeration-based path is **slice-first** by default: the predicate's
conjunctive over-approximation (see :mod:`repro.slicing.dispatch`) bounds
the search to the slice sublattice, falling back to the unsliced engine
when no useful approximation exists.  Pass ``slice=False`` to opt out —
verdicts and witness guarantees are identical either way.

Opaque predicates (``FunctionPredicate``, custom ``evaluate`` overrides)
are **classified first** by default (``infer=True``): the static
classifier of :mod:`repro.analysis.classify` recovers the predicate-class
structure from the callable's source, differentially validates the
rewrite, and dispatch routes through the fast engine of the inferred
class (``algorithm`` prefixed ``classify:``).  Certified-monotone bodies
go to the O(n) stable-predicate engine.  On ``Unclassifiable`` the
enumeration fallback runs unchanged; pass ``infer=False`` to opt out.
"""

from __future__ import annotations

from typing import Optional

from repro.computation import Computation, Cut
from repro.obs import STATE, registry, span
from repro.detection.cooper_marzullo import (
    definitely_enumerate,
    possibly_enumerate,
)
from repro.detection.definitely_conjunctive import definitely_conjunctive
from repro.detection.garg_waldecker import detect_conjunctive
from repro.detection.relational_sum import definitely_sum, possibly_sum
from repro.detection.result import DetectionResult
from repro.detection.singular_cnf import detect_singular
from repro.detection.stable import detect_stable
from repro.detection.stoller_schneider import detect_cnf_by_literal_choice
from repro.detection.symmetric_detect import (
    definitely_symmetric,
    possibly_symmetric,
)
from repro.predicates.base import (
    AndPredicate,
    ConstantPredicate,
    GlobalPredicate,
    NotPredicate,
    OrPredicate,
)
from repro.predicates.boolean import Clause, CNFPredicate
from repro.predicates.channel import InFlightPredicate
from repro.predicates.conjunctive import (
    ConjunctivePredicate,
    conjunctive_from_cnf,
)
from repro.predicates.inequity import InequityPredicate
from repro.predicates.local import LocalPredicate
from repro.predicates.modalities import Modality
from repro.predicates.relational import RelationalSumPredicate
from repro.predicates.symmetric import SymmetricPredicate

__all__ = ["possibly", "definitely", "detect"]

#: Predicate classes dispatch already understands structurally; anything
#: else is *opaque* and eligible for static classification.
_STRUCTURED = (
    AndPredicate,
    CNFPredicate,
    Clause,
    ConjunctivePredicate,
    ConstantPredicate,
    InFlightPredicate,
    InequityPredicate,
    LocalPredicate,
    NotPredicate,
    OrPredicate,
    RelationalSumPredicate,
    SymmetricPredicate,
)


def _is_opaque(predicate: GlobalPredicate) -> bool:
    return not isinstance(predicate, _STRUCTURED)


def detect(
    computation: Computation,
    predicate: GlobalPredicate,
    modality: Modality = Modality.POSSIBLY,
    slice: bool = True,
    infer: bool = True,
) -> DetectionResult:
    """Full detection result for the given predicate and modality.

    ``slice`` (default True) lets enumeration-based paths restrict their
    search to the sublattice of the predicate's conjunctive
    over-approximation; pass False to force the unsliced engines.
    Verdicts are identical either way.

    ``infer`` (default True) lets the static classifier
    (:mod:`repro.analysis.classify`) recover class structure from opaque
    predicates — ``FunctionPredicate`` bodies and custom ``evaluate``
    overrides — and dispatch through the inferred fast engine; the
    certificate is differentially validated before it is trusted, and
    ``Unclassifiable`` bodies fall back to the enumeration engines
    exactly as if ``infer=False``.

    When observability is enabled (:mod:`repro.obs`) every query opens a
    root span ``detect.query`` recording the modality, the predicate
    class, and — once dispatch has chosen — the engine that answered.
    """
    with span(
        "detect.query",
        modality=modality.value,
        predicate=type(predicate).__name__,
    ) as root:
        result = None
        if infer and _is_opaque(predicate):
            result = _inferred(computation, predicate, modality, slice)
        if result is None and modality is Modality.POSSIBLY:
            result = _possibly(
                computation, predicate, use_slice=slice, infer=infer
            )
        elif result is None:
            result = _definitely(
                computation, predicate, use_slice=slice, infer=infer
            )
        root.set(engine=result.algorithm, holds=result.holds)
        if STATE.enabled:
            registry().counter("detect.queries").inc()
            registry().counter(f"detect.engine.{result.algorithm}").inc()
        return result


def possibly(
    computation: Computation,
    predicate: GlobalPredicate,
    slice: bool = True,
    infer: bool = True,
) -> bool:
    """Does some consistent cut of the computation satisfy the predicate?"""
    return detect(
        computation, predicate, Modality.POSSIBLY, slice=slice, infer=infer
    ).holds


def definitely(
    computation: Computation,
    predicate: GlobalPredicate,
    slice: bool = True,
    infer: bool = True,
) -> bool:
    """Does every run of the computation pass through a satisfying cut?"""
    return detect(
        computation, predicate, Modality.DEFINITELY, slice=slice, infer=infer
    ).holds


def _inferred(
    computation: Computation,
    predicate: GlobalPredicate,
    modality: Modality,
    use_slice: bool,
) -> Optional[DetectionResult]:
    """Classify an opaque predicate and dispatch its certificate.

    Returns None when the predicate is unclassifiable, validation
    rejected the certificate, or only a conjunctive over-approximation
    was recovered (the slice-first enumeration path picks that up on its
    own) — the caller then falls back to structural dispatch unchanged.
    """
    from repro.analysis.classify import classification_for

    with span(
        "engine.classify", predicate=type(predicate).__name__
    ) as sp:
        certificate = classification_for(predicate, computation)
        if certificate is None:
            sp.set(outcome="unclassifiable")
            return None
        if certificate.monotone:
            # Syntactic monotonicity proof: the predicate is stable, so
            # both modalities are decided at the final cut in O(n).
            sp.set(outcome="monotone")
            result = detect_stable(computation, predicate)
        elif certificate.rewrite is not None:
            sp.set(
                outcome="rewrite",
                target=type(certificate.rewrite).__name__,
            )
            if modality is Modality.POSSIBLY:
                result = _possibly(
                    computation, certificate.rewrite, use_slice=use_slice
                )
            else:
                result = _definitely(
                    computation, certificate.rewrite, use_slice=use_slice
                )
        else:
            sp.set(outcome="approximation-only")
            return None
        return DetectionResult(
            holds=result.holds,
            witness=result.witness,
            algorithm="classify:" + result.algorithm,
            stats=result.stats,
        )


def _possibly(
    computation: Computation,
    predicate: GlobalPredicate,
    use_slice: bool = True,
    infer: bool = True,
) -> DetectionResult:
    if isinstance(predicate, ConjunctivePredicate):
        return detect_conjunctive(computation, predicate)
    if isinstance(predicate, LocalPredicate):
        return detect_conjunctive(
            computation, ConjunctivePredicate([predicate])
        )
    if isinstance(predicate, CNFPredicate):
        if predicate.is_conjunctive() and predicate.is_singular():
            return detect_conjunctive(
                computation, conjunctive_from_cnf(predicate)
            )
        if predicate.is_singular():
            return detect_singular(computation, predicate, strategy="auto")
        # Non-singular CNF: the Stoller–Schneider decomposition into
        # conjunctive sub-problems (exponential in clauses, but each
        # sub-problem is a linear scan — far cheaper than the lattice).
        return detect_cnf_by_literal_choice(computation, predicate)
    if isinstance(predicate, RelationalSumPredicate):
        return possibly_sum(computation, predicate, use_slice=use_slice)
    if isinstance(predicate, SymmetricPredicate):
        return possibly_symmetric(computation, predicate)
    if isinstance(predicate, OrPredicate):
        # possibly distributes over disjunction (paper, Section 4.3).
        with span("engine.disjunction", parts=len(predicate.parts)):
            explored = 0
            for part in predicate.parts:
                result = _possibly(
                    computation, part, use_slice=use_slice, infer=infer
                )
                explored += int(result.stats.get("cuts_explored", 0))
                if result.holds:
                    return DetectionResult(
                        holds=True,
                        witness=result.witness,
                        algorithm="disjunction:" + result.algorithm,
                        stats=result.stats,
                    )
            return DetectionResult(
                holds=False,
                algorithm="disjunction",
                stats={"cuts_explored": explored},
            )
    if use_slice:
        from repro.slicing.dispatch import sliced_possibly_enumerate

        return sliced_possibly_enumerate(computation, predicate, infer=infer)
    return possibly_enumerate(computation, predicate)


def _definitely(
    computation: Computation,
    predicate: GlobalPredicate,
    use_slice: bool = True,
    infer: bool = True,
) -> DetectionResult:
    if isinstance(predicate, ConjunctivePredicate):
        return definitely_conjunctive(
            computation, predicate, use_slice=use_slice
        )
    if isinstance(predicate, CNFPredicate):
        if predicate.is_conjunctive() and predicate.is_singular():
            return definitely_conjunctive(
                computation,
                conjunctive_from_cnf(predicate),
                use_slice=use_slice,
            )
        if use_slice:
            from repro.slicing.dispatch import sliced_definitely_enumerate

            return sliced_definitely_enumerate(
                computation, predicate, infer=infer
            )
        return definitely_enumerate(computation, predicate)
    if isinstance(predicate, RelationalSumPredicate):
        return definitely_sum(computation, predicate, use_slice=use_slice)
    if isinstance(predicate, SymmetricPredicate):
        return definitely_symmetric(
            computation, predicate, use_slice=use_slice
        )
    if use_slice:
        from repro.slicing.dispatch import sliced_definitely_enumerate

        return sliced_definitely_enumerate(computation, predicate, infer=infer)
    return definitely_enumerate(computation, predicate)
