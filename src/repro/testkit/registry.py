"""Oracle registry: which engines answer which predicate class, and against
which ground truth.

The library has three verdict-producing layers — the detection engines, the
SAT reductions, and the brute-force oracles — plus fast-path variants
(memoized indices, sliced enumeration) that must all agree.  This module
makes the agreement obligation *data*: every predicate class maps to the
full set of applicable engines and to one exponential ground-truth oracle.

The differential fuzzer (:mod:`repro.testkit.fuzz`), the corpus replayer
(:mod:`repro.testkit.corpus`), and the cross-validation tests all consume
the same registry, so adding an engine here automatically enrolls it in
fuzzing, corpus replay, and CI.  See ``docs/TESTING.md`` for the matrix
and for how to register a new engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.computation import Computation
from repro.predicates import Modality
from repro.predicates.base import GlobalPredicate
from repro.predicates.boolean import CNFPredicate, Clause
from repro.predicates.conjunctive import (
    ConjunctivePredicate,
    conjunctive_from_cnf,
)
from repro.predicates.local import Literal
from repro.predicates.relational import RelationalSumPredicate, Relop
from repro.predicates.symmetric import SymmetricPredicate
from repro.testkit.oracles import brute_definitely, brute_possibly

__all__ = [
    "EngineSpec",
    "ClassSpec",
    "OracleRegistry",
    "default_registry",
    "as_cnf",
    "as_conjunctive",
]

#: An engine adapter: (computation, predicate) -> boolean verdict.
EngineFn = Callable[[Computation, GlobalPredicate], bool]


@dataclass(frozen=True)
class EngineSpec:
    """One registered verdict producer.

    Args:
        name: Stable identifier used in fuzz logs and corpus files.
        modality: Which query the engine answers.
        run: Adapter returning the boolean verdict.
        is_oracle: Ground truth for its class (exactly one per class and
            modality).
        max_events: Skip the engine on computations with more non-initial
            events than this (exponential oracles and enumerators).
        applies: Optional extra gate, e.g. "relop is ``==``".
    """

    name: str
    modality: Modality
    run: EngineFn
    is_oracle: bool = False
    max_events: Optional[int] = None
    applies: Optional[Callable[[Computation, GlobalPredicate], bool]] = None

    def applicable(
        self, computation: Computation, predicate: GlobalPredicate
    ) -> bool:
        """Can this engine answer for the given instance?"""
        if self.max_events is not None:
            if computation.total_events() > self.max_events:
                return False
        if self.applies is not None and not self.applies(
            computation, predicate
        ):
            return False
        return True


@dataclass
class ClassSpec:
    """A predicate class: a recognizer plus its engine roster."""

    name: str
    matches: Callable[[GlobalPredicate], bool]
    engines: List[EngineSpec] = field(default_factory=list)

    def engines_for(self, modality: Modality) -> List[EngineSpec]:
        return [e for e in self.engines if e.modality is modality]


class OracleRegistry:
    """Predicate classes -> applicable engines + ground-truth oracle.

    Classification is first-match in registration order, so register more
    specific classes (conjunctive) before general ones (singular CNF).
    """

    def __init__(self) -> None:
        self._classes: List[ClassSpec] = []
        self._by_name: Dict[str, ClassSpec] = {}

    # -- registration ---------------------------------------------------
    def register_class(
        self, name: str, matches: Callable[[GlobalPredicate], bool]
    ) -> ClassSpec:
        """Add a predicate class; returns its (mutable) spec."""
        if name in self._by_name:
            raise ValueError(f"predicate class {name!r} already registered")
        spec = ClassSpec(name=name, matches=matches)
        self._classes.append(spec)
        self._by_name[name] = spec
        return spec

    def register_engine(self, class_name: str, engine: EngineSpec) -> None:
        """Enroll an engine in a class; replaces any same-name engine."""
        spec = self._by_name[class_name]
        if engine.is_oracle:
            for other in spec.engines_for(engine.modality):
                if other.is_oracle and other.name != engine.name:
                    raise ValueError(
                        f"class {class_name!r} already has oracle "
                        f"{other.name!r} for {engine.modality.value}"
                    )
        spec.engines = [e for e in spec.engines if e.name != engine.name] + [
            engine
        ]

    # -- lookup ---------------------------------------------------------
    @property
    def class_names(self) -> List[str]:
        return [spec.name for spec in self._classes]

    def get_class(self, name: str) -> ClassSpec:
        return self._by_name[name]

    def classify(self, predicate: GlobalPredicate) -> Optional[str]:
        """Name of the first class recognizing the predicate, or None."""
        for spec in self._classes:
            if spec.matches(predicate):
                return spec.name
        return None

    def engines_for(
        self,
        predicate: GlobalPredicate,
        computation: Computation,
        modality: Modality = Modality.POSSIBLY,
        include_extra: Sequence[EngineSpec] = (),
    ) -> List[EngineSpec]:
        """All engines applicable to this instance, oracle included."""
        name = self.classify(predicate)
        if name is None:
            return []
        roster = self._by_name[name].engines_for(modality) + list(include_extra)
        return [
            e for e in roster if e.applicable(computation, predicate)
        ]

    def oracle_for(
        self, predicate: GlobalPredicate, modality: Modality
    ) -> Optional[EngineSpec]:
        """The ground-truth oracle of the predicate's class."""
        name = self.classify(predicate)
        if name is None:
            return None
        for engine in self._by_name[name].engines_for(modality):
            if engine.is_oracle:
                return engine
        return None


# ----------------------------------------------------------------------
# Predicate view adapters
# ----------------------------------------------------------------------
def as_cnf(predicate: GlobalPredicate) -> Optional[CNFPredicate]:
    """View a predicate as CNF when a faithful translation exists."""
    if isinstance(predicate, CNFPredicate):
        return predicate
    if isinstance(predicate, ConjunctivePredicate):
        if all(isinstance(c, Literal) for c in predicate.conjuncts):
            return CNFPredicate(
                [Clause([c]) for c in predicate.conjuncts]  # type: ignore[list-item]
            )
    if isinstance(predicate, Literal):
        return CNFPredicate([Clause([predicate])])
    return None


def as_conjunctive(
    predicate: GlobalPredicate,
) -> Optional[ConjunctivePredicate]:
    """View a predicate as conjunctive when a faithful translation exists."""
    if isinstance(predicate, ConjunctivePredicate):
        return predicate
    if isinstance(predicate, CNFPredicate):
        if predicate.is_conjunctive() and predicate.is_singular():
            return conjunctive_from_cnf(predicate)
    return None


def _has_cnf_view(computation: Computation, predicate: GlobalPredicate) -> bool:
    return as_cnf(predicate) is not None


def _is_sum_eq(computation: Computation, predicate: GlobalPredicate) -> bool:
    return (
        isinstance(predicate, RelationalSumPredicate)
        and predicate.relop is Relop.EQ
    )


def _opaquifiable(
    computation: Computation, predicate: GlobalPredicate
) -> bool:
    """Can the predicate be rendered as classifiable Python source?"""
    from repro.analysis.classify import predicate_source
    from repro.predicates import PredicateError

    try:
        predicate_source(predicate)
    except PredicateError:
        return False
    return True


# ----------------------------------------------------------------------
# The default registry: every engine the library ships
# ----------------------------------------------------------------------
#: Instance-size ceiling for exponential oracles/enumerators.  The fuzzer
#: only generates instances below this, so in practice nothing is skipped.
ORACLE_MAX_EVENTS = 22

_DEFAULT: Optional[OracleRegistry] = None


def default_registry() -> OracleRegistry:
    """The registry covering every detection engine in the library.

    Built lazily once per process; mutate only through
    :meth:`OracleRegistry.register_engine` (tests that plant bugs pass the
    planted engine via ``include_extra`` instead of mutating this).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _build_default()
    return _DEFAULT


def _build_default() -> OracleRegistry:
    from repro.detection import (
        definitely_conjunctive,
        definitely_enumerate,
        definitely_sum,
        definitely_symmetric,
        detect_by_chain_choice,
        detect_by_process_choice,
        detect_cnf_by_literal_choice,
        detect_conjunctive,
        detect_singular,
        possibly_enumerate,
        possibly_sum,
        possibly_sum_eq_exact,
        possibly_symmetric,
    )
    from repro.reductions import possibly_via_sat
    from repro.slicing import (
        ConjunctiveSlice,
        sliced_definitely_enumerate,
        sliced_possibly_enumerate,
    )

    P, D = Modality.POSSIBLY, Modality.DEFINITELY

    def oracle_possibly(comp: Computation, pred: GlobalPredicate) -> bool:
        return brute_possibly(comp, pred.evaluate) is not None

    def oracle_definitely(comp: Computation, pred: GlobalPredicate) -> bool:
        return brute_definitely(comp, pred.evaluate)

    registry = OracleRegistry()

    # -- conjunctive (incl. singular 1-CNF) -----------------------------
    def is_conjunctive_class(pred: GlobalPredicate) -> bool:
        return as_conjunctive(pred) is not None

    registry.register_class("conjunctive", is_conjunctive_class)

    def run_cpdhb(comp: Computation, pred: GlobalPredicate) -> bool:
        return detect_conjunctive(comp, as_conjunctive(pred)).holds

    def run_slice(comp: Computation, pred: GlobalPredicate) -> bool:
        return not ConjunctiveSlice(comp, as_conjunctive(pred)).empty

    def run_anchors(comp: Computation, pred: GlobalPredicate) -> bool:
        return definitely_conjunctive(comp, as_conjunctive(pred)).holds

    def run_anchors_noslice(
        comp: Computation, pred: GlobalPredicate
    ) -> bool:
        return definitely_conjunctive(
            comp, as_conjunctive(pred), use_slice=False
        ).holds

    def run_sliced_possibly(
        comp: Computation, pred: GlobalPredicate
    ) -> bool:
        """Slice-bounded enumeration with full parity checks against the
        unsliced engine: equal verdicts, and on True a valid witness of
        the same (minimum) size.  A broken parity raises, which the
        fuzzer records as a crash finding."""
        from repro.detection import possibly_enumerate as plain

        sliced = sliced_possibly_enumerate(comp, pred)
        unsliced = plain(comp, pred)
        assert sliced.holds == unsliced.holds, (
            f"verdict mismatch: sliced={sliced.holds} "
            f"unsliced={unsliced.holds}"
        )
        if sliced.holds:
            assert sliced.witness is not None
            assert sliced.witness.is_consistent()
            assert pred.evaluate(sliced.witness), "invalid sliced witness"
            assert unsliced.witness is not None
            assert sliced.witness.size() == unsliced.witness.size(), (
                f"witness size mismatch: sliced={sliced.witness.size()} "
                f"unsliced={unsliced.witness.size()}"
            )
        return sliced.holds

    def run_sliced_definitely(
        comp: Computation, pred: GlobalPredicate
    ) -> bool:
        from repro.detection import definitely_enumerate as plain

        sliced = sliced_definitely_enumerate(comp, pred)
        unsliced = plain(comp, pred)
        assert sliced.holds == unsliced.holds, (
            f"verdict mismatch: sliced={sliced.holds} "
            f"unsliced={unsliced.holds}"
        )
        return sliced.holds

    def run_clockmatrix_roundtrip(
        comp: Computation, pred: GlobalPredicate
    ) -> bool:
        """Exhaustively cross-check the batched ClockMatrix kernels
        against the per-pair causality index on every event pair and
        every consistent frontier, then return the CPDHB verdict.  Any
        divergence raises — a crash finding for the fuzzer."""
        from repro.computation import initial_cut
        from repro.perf.causality import CausalityIndex

        index = CausalityIndex.of(comp)
        matrix = index.matrix
        events = [
            (p, i)
            for p in range(comp.num_processes)
            for i in range(len(comp.events_of(p)))
        ]
        rows = [matrix.row(e) for e in events]
        flat_a = [ra for ra in rows for _ in rows]
        flat_b = [rb for _ in rows for rb in rows]
        ev_a = [ea for ea in events for _ in events]
        ev_b = [eb for _ in events for eb in events]
        leq = matrix.leq_rows(flat_a, flat_b)
        before = matrix.happened_before_rows(flat_a, flat_b)
        cons = matrix.consistent_rows(flat_a, flat_b)
        for k, (ea, eb) in enumerate(zip(ev_a, ev_b)):
            assert bool(leq[k]) == index.leq(ea, eb), (
                f"leq_rows diverges on {ea} vs {eb}"
            )
            assert bool(before[k]) == index.happened_before(ea, eb), (
                f"happened_before_rows diverges on {ea} vs {eb}"
            )
            assert bool(cons[k]) == index.pairwise_consistent(ea, eb), (
                f"consistent_rows diverges on {ea} vs {eb}"
            )
        start = initial_cut(comp).frontier
        seen = {start}
        wave = [start]
        while wave:
            batched = matrix.successor_frontiers_batch(wave)
            nxt_wave = []
            for frontier, successors in zip(wave, batched):
                assert list(successors) == list(
                    index.successor_frontiers(frontier)
                ), f"successor batch diverges at {frontier}"
                for nxt in successors:
                    if nxt not in seen:
                        seen.add(nxt)
                        nxt_wave.append(nxt)
            wave = nxt_wave
        return run_cpdhb(comp, pred)

    for engine in [
        EngineSpec("cpdhb", P, run_cpdhb),
        EngineSpec("slice", P, run_slice),
        EngineSpec(
            "clockmatrix-roundtrip",
            P,
            run_clockmatrix_roundtrip,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "literal-choice",
            P,
            lambda c, p: detect_cnf_by_literal_choice(c, as_cnf(p)).holds,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "chain-choice",
            P,
            lambda c, p: detect_by_chain_choice(c, as_cnf(p)).holds,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "process-choice",
            P,
            lambda c, p: detect_by_process_choice(c, as_cnf(p)).holds,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "sat",
            P,
            lambda c, p: possibly_via_sat(c, as_cnf(p)) is not None,
            max_events=ORACLE_MAX_EVENTS,
            applies=_has_cnf_view,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-enum",
            P,
            run_sliced_possibly,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec("anchors", D, run_anchors),
        EngineSpec("anchors-noslice", D, run_anchors_noslice),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("conjunctive", engine)

    # -- singular k-CNF (k >= 2) ----------------------------------------
    def is_singular_cnf(pred: GlobalPredicate) -> bool:
        return (
            isinstance(pred, CNFPredicate)
            and pred.is_singular()
            and not pred.is_conjunctive()
        )

    registry.register_class("singular-cnf", is_singular_cnf)
    for engine in [
        EngineSpec(
            "auto", P, lambda c, p: detect_singular(c, p, "auto").holds
        ),
        EngineSpec(
            "chain-choice",
            P,
            lambda c, p: detect_by_chain_choice(c, p).holds,
        ),
        EngineSpec(
            "process-choice",
            P,
            lambda c, p: detect_by_process_choice(c, p).holds,
        ),
        EngineSpec(
            "literal-choice",
            P,
            lambda c, p: detect_cnf_by_literal_choice(c, p).holds,
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "sat",
            P,
            lambda c, p: possibly_via_sat(c, p) is not None,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-enum",
            P,
            run_sliced_possibly,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("singular-cnf", engine)

    # -- general (non-singular) CNF -------------------------------------
    registry.register_class(
        "general-cnf", lambda p: isinstance(p, CNFPredicate)
    )
    for engine in [
        EngineSpec(
            "literal-choice",
            P,
            lambda c, p: detect_cnf_by_literal_choice(c, p).holds,
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "sat",
            P,
            lambda c, p: possibly_via_sat(c, p) is not None,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-enum",
            P,
            run_sliced_possibly,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("general-cnf", engine)

    # -- relational sums ------------------------------------------------
    registry.register_class(
        "relational-sum", lambda p: isinstance(p, RelationalSumPredicate)
    )
    for engine in [
        EngineSpec(
            "sum-dispatch", P, lambda c, p: possibly_sum(c, p).holds
        ),
        EngineSpec(
            "sum-exact",
            P,
            lambda c, p: possibly_sum_eq_exact(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
            applies=_is_sum_eq,
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-enum",
            P,
            run_sliced_possibly,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "sum-definitely", D, lambda c, p: definitely_sum(c, p).holds
        ),
        EngineSpec(
            "sum-definitely-noslice",
            D,
            lambda c, p: definitely_sum(c, p, use_slice=False).holds,
        ),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("relational-sum", engine)

    # -- symmetric predicates -------------------------------------------
    registry.register_class(
        "symmetric", lambda p: isinstance(p, SymmetricPredicate)
    )
    for engine in [
        EngineSpec(
            "count-algorithm", P, lambda c, p: possibly_symmetric(c, p).holds
        ),
        EngineSpec(
            "enumeration",
            P,
            lambda c, p: possibly_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute",
            P,
            oracle_possibly,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "count-definitely",
            D,
            lambda c, p: definitely_symmetric(c, p).holds,
        ),
        EngineSpec(
            "count-definitely-noslice",
            D,
            lambda c, p: definitely_symmetric(
                c, p, use_slice=False
            ).holds,
        ),
        EngineSpec(
            "lattice",
            D,
            lambda c, p: definitely_enumerate(c, p).holds,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "slice-lattice",
            D,
            run_sliced_definitely,
            max_events=ORACLE_MAX_EVENTS,
        ),
        EngineSpec(
            "brute-runs",
            D,
            oracle_definitely,
            is_oracle=True,
            max_events=ORACLE_MAX_EVENTS,
        ),
    ]:
        registry.register_engine("symmetric", engine)

    # -- classifier-dispatched opaque variants --------------------------
    def make_classify(modality: Modality) -> EngineFn:
        """Opaque-wrapped variant of every structured family: render the
        predicate as Python source, wrap it in a ``FunctionPredicate``,
        and let ``detect(..., infer=True)`` recover the class statically.
        Asserts the classifier actually engaged (``classify:`` algorithm
        prefix), verdict parity against the directly dispatched engine,
        and witness validity.  A broken parity raises, which the fuzzer
        records as a crash finding."""

        def run(comp: Computation, pred: GlobalPredicate) -> bool:
            from repro.analysis.classify import opaquify
            from repro.detection import detect

            opaque = opaquify(pred)
            inferred = detect(comp, opaque, modality)
            assert inferred.algorithm.startswith("classify:"), (
                f"classifier fell back to {inferred.algorithm!r} on "
                f"{pred.description()}"
            )
            direct = detect(comp, pred, modality, infer=False)
            assert inferred.holds == direct.holds, (
                f"verdict mismatch: classified={inferred.holds} "
                f"direct={direct.holds}"
            )
            if inferred.holds and inferred.witness is not None:
                assert inferred.witness.is_consistent()
                assert pred.evaluate(inferred.witness), (
                    "classified witness fails the original predicate"
                )
            return inferred.holds

        return run

    classify_engines = [
        EngineSpec(
            "classify-opaque", P, make_classify(P), applies=_opaquifiable
        ),
        EngineSpec(
            "classify-opaque", D, make_classify(D), applies=_opaquifiable
        ),
    ]
    for class_name in (
        "conjunctive",
        "singular-cnf",
        "general-cnf",
        "relational-sum",
        "symmetric",
    ):
        for engine in classify_engines:
            registry.register_engine(class_name, engine)

    return registry
