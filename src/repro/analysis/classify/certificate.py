"""Classification certificates and the precise rejection type.

A :class:`Classification` is the output of the static classifier
(:func:`repro.analysis.classify.classify`): everything the analysis could
prove about an opaque predicate callable — which variables of which
processes it reads, a rewrite into the structured predicate algebra when
the body lies in the supported fragment, a conjunctive over-approximation
for slice-bounded enumeration, and semantic property proofs (process
locality, syntactic monotonicity, conjunctive viewability).

:class:`Unclassifiable` is the one failure mode: it names the *reason*,
the offending AST *node*, and its source *line*, so callers (the CLI, the
CLS4xx lint rules, dispatch) can report precisely why an opaque predicate
stays opaque.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional

from repro.predicates.base import GlobalPredicate
from repro.predicates.boolean import CNFPredicate
from repro.predicates.conjunctive import ConjunctivePredicate
from repro.predicates.local import LocalPredicate
from repro.predicates.modalities import Modality
from repro.predicates.relational import RelationalSumPredicate
from repro.predicates.symmetric import SymmetricPredicate

__all__ = ["Classification", "Unclassifiable"]


class Unclassifiable(Exception):
    """The callable's body is outside the supported fragment.

    Args:
        reason: Human-readable explanation of the rejection.
        node: The AST node that fell outside the fragment, when known.
        line: Source line of the rejection (defaults to ``node.lineno``).
    """

    def __init__(
        self,
        reason: str,
        node: Optional[ast.AST] = None,
        line: Optional[int] = None,
    ):
        self.reason = reason
        self.node = node
        if line is None:
            line = getattr(node, "lineno", None)
        self.line = line
        location = "" if line is None else f"line {line}: "
        super().__init__(f"{location}{reason}")


@dataclass
class Classification:
    """Everything the classifier proved about one opaque predicate.

    ``validated`` starts False: the certificate becomes trustworthy for
    dispatch only after :mod:`repro.analysis.classify.validate` has
    differentially checked the rewrite (and the over-approximation's
    implication) against the original callable on sampled cuts.
    """

    #: The analyzed source text of the callable.
    source: str
    #: The parsed fragment tree (negation normal form) — internal.
    tree: Any
    #: Per-process variable read-sets of explicitly indexed local reads.
    read_sets: Dict[int, FrozenSet[str]]
    #: Variables read across *all* processes (sum/count forms).
    global_reads: FrozenSet[str]
    #: True iff the body inspects channel state (crossing messages).
    touches_channels: bool
    #: Provably equivalent structured predicate, when the whole body
    #: rewrote; verdicts through it match the callable on every cut.
    rewrite: Optional[GlobalPredicate]
    #: Conjunctive B' with ``B ⟹ B'`` extracted from the local conjuncts;
    #: bounds slice-first enumeration even when no full rewrite exists.
    approximation: Optional[ConjunctivePredicate]
    #: True iff the approximation is equivalent to the body (not merely
    #: implied by it).
    approximation_exact: bool
    #: The single process the body reads, or None when it spans several.
    process_local: Optional[int]
    #: Syntactic monotonicity proof: the body is built from cut-lattice
    #: monotone atoms under and/or, hence *stable* on every computation
    #: and eligible for the O(n) final-cut engine.
    monotone: bool
    #: True iff the rewrite is conjunctive-viewable (CPDHB scan
    #: eligible).
    conjunctive_view: bool
    #: Process count the certificate was built for (symmetric/count
    #: rewrites depend on it); None when the body never needed it.
    num_processes: Optional[int]
    #: Set by the cache layer once differential validation passed.
    validated: bool = field(default=False)

    @property
    def actionable(self) -> bool:
        """Can dispatch do anything with this certificate?"""
        return (
            self.rewrite is not None
            or self.monotone
            or self.approximation is not None
        )

    def rewrite_class(self) -> Optional[str]:
        """Paper-taxonomy name of the rewrite's predicate class."""
        rewrite = self.rewrite
        if rewrite is None:
            return None
        if isinstance(rewrite, ConjunctivePredicate):
            return "conjunctive"
        if isinstance(rewrite, LocalPredicate):
            return "local"
        if isinstance(rewrite, CNFPredicate):
            if rewrite.is_conjunctive() and rewrite.is_singular():
                return "conjunctive"
            return "singular-cnf" if rewrite.is_singular() else "general-cnf"
        if isinstance(rewrite, RelationalSumPredicate):
            return "relational-sum"
        if isinstance(rewrite, SymmetricPredicate):
            return "symmetric"
        return type(rewrite).__name__

    def engine_hint(self, modality: Modality = Modality.POSSIBLY) -> str:
        """The engine :func:`repro.detection.api.detect` would choose."""
        if self.monotone:
            return "stable-final-cut"
        cls = self.rewrite_class()
        if cls == "conjunctive" or cls == "local":
            if modality is Modality.POSSIBLY:
                return "garg-waldecker"
            return "definitely-conjunctive"
        if cls == "singular-cnf":
            return "singular-cnf"
        if cls == "general-cnf":
            return "cnf-literal-choice"
        if cls == "relational-sum":
            return "relational-sum"
        if cls == "symmetric":
            return "symmetric"
        if cls is not None:
            return "slice-bounded enumeration"
        if self.approximation is not None:
            return "slice-bounded enumeration"
        return "enumeration"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly certificate view (the ``repro classify`` payload)."""
        return {
            "source": self.source.strip(),
            "read_sets": {
                str(p): sorted(vars_)
                for p, vars_ in sorted(self.read_sets.items())
            },
            "global_reads": sorted(self.global_reads),
            "touches_channels": self.touches_channels,
            "rewrite": (
                None if self.rewrite is None else self.rewrite.description()
            ),
            "rewrite_class": self.rewrite_class(),
            "approximation": (
                None
                if self.approximation is None
                else self.approximation.description()
            ),
            "approximation_exact": self.approximation_exact,
            "process_local": self.process_local,
            "monotone": self.monotone,
            "conjunctive_view": self.conjunctive_view,
            "num_processes": self.num_processes,
            "validated": self.validated,
        }
