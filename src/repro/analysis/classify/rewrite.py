"""Fragment tree → structured predicate algebra.

Given the negation-normal-form tree of :mod:`.fragment`, this module
derives the full :class:`~repro.analysis.classify.certificate
.Classification`:

* an **exact rewrite** into the structured algebra — ``Literal`` /
  ``Clause`` / ``CNFPredicate`` / ``ConjunctivePredicate`` /
  ``RelationalSumPredicate`` / ``SymmetricPredicate`` /
  ``InFlightPredicate`` / disjunctions thereof — when the whole body maps
  onto one of the shapes the fast engines decide;
* a **conjunctive over-approximation** assembled from the process-local
  conjuncts (single-process disjunctions included), which bounds
  slice-first enumeration even when the full rewrite fails;
* **property proofs**: process locality (read-set confined to one
  process), syntactic monotonicity (``cut.size() >= k`` atoms closed
  under and/or are monotone in the cut lattice, hence *stable* —
  ``detect_stable`` eligible), and conjunctive viewability (CPDHB scan
  eligible).

The rewrite realizes exactly the semantics of
:func:`repro.analysis.classify.fragment.evaluate_node`; differential
validation then checks that semantics against the original callable
before dispatch trusts the certificate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.classify.certificate import Classification
from repro.analysis.classify.fragment import (
    And,
    BoolConst,
    ChannelAtom,
    CountAtom,
    LocalAtom,
    Node,
    Or,
    SizeAtom,
    SumAtom,
    describe,
    read_sets,
)
from repro.events import Event
from repro.predicates.base import ConstantPredicate, GlobalPredicate, disjunction
from repro.predicates.boolean import Clause, CNFPredicate
from repro.predicates.channel import InFlightPredicate
from repro.predicates.conjunctive import ConjunctivePredicate
from repro.predicates.local import Literal, LocalPredicate
from repro.predicates.relational import RelationalSumPredicate, Relop
from repro.predicates.symmetric import SymmetricPredicate

__all__ = ["build_classification"]


class _NoRewrite(Exception):
    """Internal: the (sub)tree has no exact structured form."""


# ----------------------------------------------------------------------
# Event-level checks for local atoms (conjunctive merging)
# ----------------------------------------------------------------------
def _event_check(atom: LocalAtom) -> Callable[[Event], bool]:
    if atom.relop is None:
        negated = atom.negated
        variable = atom.variable

        def check(event: Event, _v=variable, _n=negated) -> bool:
            return bool(event.value(_v, False)) != _n

        return check
    relop, variable, constant = atom.relop, atom.variable, atom.constant

    def check(
        event: Event, _v=variable, _op=relop, _k=constant
    ) -> bool:
        return _op.compare(int(event.value(_v, False) or 0), _k)

    return check


def _merged_local(process: int, atoms: List[Node], any_of: bool = False) -> LocalPredicate:
    """One LocalPredicate combining several same-process atoms."""
    checks = [_event_check(a) for a in atoms]
    label = (" or " if any_of else " and ").join(describe(a) for a in atoms)
    if any_of:

        def fn(event: Event, _checks=tuple(checks)) -> bool:
            return any(chk(event) for chk in _checks)

    else:

        def fn(event: Event, _checks=tuple(checks)) -> bool:
            return all(chk(event) for chk in _checks)

    return LocalPredicate(process, fn, f"classified[{label}]")


def _is_bool_literal(node: Node) -> bool:
    return isinstance(node, LocalAtom) and node.relop is None


def _as_literal(node: LocalAtom) -> Literal:
    return Literal(node.process, node.variable, node.negated)


# ----------------------------------------------------------------------
# Exact rewrite
# ----------------------------------------------------------------------
def _rewrite(node: Node, num_processes: Optional[int]) -> GlobalPredicate:
    if isinstance(node, BoolConst):
        return ConstantPredicate(node.value)
    if isinstance(node, LocalAtom):
        if node.relop is None:
            return _as_literal(node)
        return _merged_local(node.process, [node])
    if isinstance(node, SumAtom):
        return RelationalSumPredicate(node.variable, node.relop, node.constant)
    if isinstance(node, CountAtom):
        return _rewrite_count(node, num_processes)
    if isinstance(node, ChannelAtom):
        return InFlightPredicate(node.relop, node.constant)
    if isinstance(node, SizeAtom):
        raise _NoRewrite("cut.size() has no structured predicate form")
    if isinstance(node, And):
        return _rewrite_and(node, num_processes)
    if isinstance(node, Or):
        return _rewrite_or(node, num_processes)
    raise _NoRewrite(f"unknown node {node!r}")


def _rewrite_count(
    node: CountAtom, num_processes: Optional[int]
) -> SymmetricPredicate:
    if num_processes is None:
        raise _NoRewrite(
            "true-count atoms need the process count (pass num_processes)"
        )
    universe = range(num_processes + 1)
    if node.relop is not None:
        counts = [j for j in universe if node.relop.compare(j, node.constant)]
    else:
        members = frozenset(node.counts)
        counts = [j for j in universe if (j in members) != node.negated]
    return SymmetricPredicate(node.variable, num_processes, counts)


def _rewrite_and(node: And, num_processes: Optional[int]) -> GlobalPredicate:
    # Preferred shape: CNF — every child a boolean literal or a clause of
    # boolean literals.  (1-CNF singular CNFs are conjunctive-viewable and
    # dispatch to the Garg–Waldecker scan automatically.)
    clauses: List[Clause] = []
    cnf_shaped = True
    for child in node.children:
        if _is_bool_literal(child):
            clauses.append(Clause([_as_literal(child)]))
        elif isinstance(child, Or) and all(
            _is_bool_literal(c) for c in child.children
        ):
            clauses.append(
                Clause([_as_literal(c) for c in child.children])
            )
        else:
            cnf_shaped = False
            break
    if cnf_shaped:
        return CNFPredicate(clauses)
    # Conjunctive shape: every child local (comparison atoms included);
    # same-process atoms merge into one conjunct.
    if all(isinstance(c, LocalAtom) for c in node.children):
        by_process: Dict[int, List[Node]] = {}
        for child in node.children:
            by_process.setdefault(child.process, []).append(child)
        conjuncts = [
            _merged_local(p, atoms) if len(atoms) > 1 or any(
                a.relop is not None for a in atoms
            ) else _as_literal(atoms[0])
            for p, atoms in sorted(by_process.items())
        ]
        return ConjunctivePredicate(conjuncts)
    raise _NoRewrite(
        "conjunction mixes local and global atoms; no single structured "
        "form exists"
    )


def _rewrite_or(node: Or, num_processes: Optional[int]) -> GlobalPredicate:
    # All-boolean disjunction is a single clause (singular CNF).
    if all(_is_bool_literal(c) for c in node.children):
        return CNFPredicate([Clause([_as_literal(c) for c in node.children])])
    # Otherwise a disjunction of rewritable parts: possibly distributes
    # over OrPredicate in the dispatch layer.
    parts = [_rewrite(c, num_processes) for c in node.children]
    return disjunction(*parts)


# ----------------------------------------------------------------------
# Conjunctive over-approximation
# ----------------------------------------------------------------------
def _approximation(
    node: Node,
) -> Tuple[Optional[ConjunctivePredicate], bool]:
    """``(approximation, exact)`` from the process-local conjuncts."""

    def collect(n: Node) -> Tuple[Dict[int, List[Tuple[bool, List[Node]]]], bool]:
        """Per-process contributions plus a completeness flag.

        Each contribution is ``(any_of, atoms)``: a conjunct requiring
        all (``any_of=False``) or at least one (``any_of=True``) of the
        atoms to hold on that process's frontier event.
        """
        if isinstance(n, LocalAtom):
            return {n.process: [(False, [n])]}, True
        if isinstance(n, BoolConst):
            # True constrains nothing; False is handled by the caller.
            return {}, n.value
        if isinstance(n, And):
            merged: Dict[int, List[Tuple[bool, List[Node]]]] = {}
            complete = True
            for child in n.children:
                contribs, child_complete = collect(child)
                complete = complete and child_complete
                for p, entries in contribs.items():
                    merged.setdefault(p, []).extend(entries)
            return merged, complete
        if isinstance(n, Or):
            procs = {
                c.process
                for c in n.children
                if isinstance(c, LocalAtom)
            }
            if len(procs) == 1 and all(
                isinstance(c, LocalAtom) for c in n.children
            ):
                (p,) = procs
                return {p: [(True, list(n.children))]}, True
            return {}, False
        return {}, False

    contribs, complete = collect(node)
    if not contribs:
        return None, False
    conjuncts: List[LocalPredicate] = []
    for p, entries in sorted(contribs.items()):
        checks: List[Callable[[Event], bool]] = []
        labels: List[str] = []
        for any_of, atoms in entries:
            if any_of:
                sub = _merged_local(p, atoms, any_of=True)
                checks.append(sub.holds_after)
                labels.append(
                    "(" + " or ".join(describe(a) for a in atoms) + ")"
                )
            else:
                for atom in atoms:
                    checks.append(_event_check(atom))
                    labels.append(describe(atom))

        def fn(event: Event, _checks=tuple(checks)) -> bool:
            return all(chk(event) for chk in _checks)

        conjuncts.append(
            LocalPredicate(p, fn, f"approx[{' and '.join(labels)}]")
        )
    return ConjunctivePredicate(conjuncts), complete


# ----------------------------------------------------------------------
# Monotonicity (syntactic stability proof)
# ----------------------------------------------------------------------
def _monotone(node: Node) -> bool:
    """Monotone w.r.t. the cut-lattice order ⇒ stable on every computation.

    ``cut.size()`` grows along every lattice edge, so ``size() > k`` /
    ``size() >= k`` are monotone; monotone predicates are closed under
    conjunction and disjunction.  Variable reads are not monotone (values
    change arbitrarily), so everything else is conservatively rejected.
    """
    if isinstance(node, BoolConst):
        return True
    if isinstance(node, SizeAtom):
        return node.relop in (Relop.GT, Relop.GE)
    if isinstance(node, (And, Or)):
        return all(_monotone(c) for c in node.children)
    return False


# ----------------------------------------------------------------------
# Certificate assembly
# ----------------------------------------------------------------------
def build_classification(
    source: str, tree: Node, num_processes: Optional[int]
) -> Classification:
    """Assemble the full certificate for one parsed fragment tree."""
    per_process, global_reads, channels, _uses_size = read_sets(tree)
    try:
        rewrite: Optional[GlobalPredicate] = _rewrite(tree, num_processes)
    except _NoRewrite:
        rewrite = None
    approximation, approx_exact = _approximation(tree)
    monotone = _monotone(tree)
    process_local: Optional[int] = None
    if len(per_process) == 1 and not global_reads and not channels:
        (process_local,) = per_process.keys()
    conjunctive_view = isinstance(
        rewrite, (ConjunctivePredicate, Literal)
    ) or (
        isinstance(rewrite, CNFPredicate)
        and rewrite.is_conjunctive()
        and rewrite.is_singular()
    )
    needs_n = _needs_process_count(tree)
    return Classification(
        source=source,
        tree=tree,
        read_sets=dict(per_process),
        global_reads=global_reads,
        touches_channels=channels,
        rewrite=rewrite,
        approximation=approximation,
        approximation_exact=approx_exact,
        process_local=process_local,
        monotone=monotone,
        conjunctive_view=conjunctive_view,
        num_processes=num_processes if needs_n else None,
    )


def _needs_process_count(node: Node) -> bool:
    if isinstance(node, CountAtom):
        return True
    if isinstance(node, (And, Or)):
        return any(_needs_process_count(c) for c in node.children)
    return False
