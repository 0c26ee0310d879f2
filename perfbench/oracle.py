"""The benchmark's own answer checker, sharing no code with the program.

It reads the raw trace payload, computes Fidge–Mattern clocks itself,
checks witness cuts for consistency, evaluates the query forms the
benchmark issues on raw event values, and enumerates small lattices by
brute force to obtain expected verdicts that have no certificate.

Frontiers follow the trace format: ``frontier[p]`` counts the events of
process p inside the cut, its initial event included, so the cut's last
event on p has index ``frontier[p] - 1``.
"""

from __future__ import annotations

from itertools import islice
from operator import lt
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Frontier = Tuple[int, ...]


class RawTrace:
    """Event values, message edges and vector clocks of one payload."""

    def __init__(self, payload: dict):
        self.values: List[List[dict]] = [
            [event["values"] for event in events] for events in payload["processes"]
        ]
        self.n = len(self.values)
        self.lengths = [len(events) for events in self.values]
        self.messages = [(tuple(s), tuple(r)) for s, r in payload["messages"]]
        self.clocks = self._clocks()
        self._lattice: Optional[List[Frontier]] = None

    def _clocks(self) -> List[List[Tuple[int, ...]]]:
        """``clocks[p][i][q]``: the highest index of a q-event in the causal
        past of event (p, i), counting the event itself."""
        sources: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for send, recv in self.messages:
            sources.setdefault(recv, []).append(send)
        n = self.n
        clocks: List[List[Tuple[int, ...]]] = [[(0,) * n] for _ in range(n)]
        progressed = True
        while progressed:
            progressed = False
            for p in range(n):
                row = clocks[p]
                while len(row) < self.lengths[p]:
                    i = len(row)
                    deps = sources.get((p, i), ())
                    if any(len(clocks[q]) <= j for q, j in deps):
                        break
                    clock = list(row[-1])
                    for q, j in deps:
                        clock = [max(a, b) for a, b in zip(clock, clocks[q][j])]
                    clock[p] = i
                    row.append(tuple(clock))
                    progressed = True
        if any(len(clocks[p]) != self.lengths[p] for p in range(n)):
            raise ValueError("trace has a causal cycle")
        return clocks

    def consistent(self, frontier: Sequence[int]) -> bool:
        """Is the frontier a downward-closed cut of this trace?"""
        if len(frontier) != self.n:
            return False
        if any(not 1 <= f <= length for f, length in zip(frontier, self.lengths)):
            return False
        for p in range(self.n):
            clock = self.clocks[p][frontier[p] - 1]
            if any(clock[q] > frontier[q] - 1 for q in range(self.n)):
                return False
        return True

    def cut(self, frontier: Sequence[int]) -> "RawCut":
        return RawCut(self, tuple(frontier))

    def cuts(self) -> Iterator[Frontier]:
        """Every consistent cut, level by level from the initial cut."""
        n = self.n
        # Event (p, i) is enabled at frontier f iff f[p] == i and
        # need[p][i][q] < f[q] for every q (its own component is i - 1).
        need = [
            [clock[:p] + (i - 1,) + clock[p + 1:] for i, clock in enumerate(row)]
            for p, row in enumerate(self.clocks)
        ]
        level = {(1,) * n}
        while level:
            yield from sorted(level)
            nxt = set()
            for frontier in level:
                for p in range(n):
                    i = frontier[p]
                    if i < self.lengths[p] and all(map(lt, need[p][i], frontier)):
                        nxt.add(frontier[:p] + (i + 1,) + frontier[p + 1:])
            level = nxt

    def lattice(self, limit: Optional[int] = None) -> Optional[List[Frontier]]:
        """All consistent cuts in level order, enumerated once and kept;
        None when there are more than ``limit``."""
        if self._lattice is None:
            cuts = list(islice(self.cuts(), limit + 1 if limit else None))
            if limit and len(cuts) > limit:
                return None
            self._lattice = cuts
        return self._lattice

    def possibly(self, holds: Callable[["RawCut"], bool]) -> bool:
        """Does some consistent cut satisfy the predicate?  (Brute force.)"""
        return any(holds(self.cut(frontier)) for frontier in self.lattice())

    def definitely(self, holds: Callable[["RawCut"], bool]) -> bool:
        """Does every run pass through a satisfying cut?  (Brute force.)

        A cut is reachable while avoiding the predicate when it does not
        satisfy it and is the initial cut or has such a predecessor;
        ``definitely`` holds iff the final cut is not reachable that way.
        """
        avoiding = set()
        initial = (1,) * self.n
        for frontier in self.lattice():
            if holds(self.cut(frontier)):
                continue
            if frontier == initial or any(
                frontier[:p] + (frontier[p] - 1,) + frontier[p + 1:] in avoiding
                for p in range(self.n)
                if frontier[p] > 1
            ):
                avoiding.add(frontier)
        return tuple(self.lengths) not in avoiding


class RawCut:
    """Read-only view of raw values at a frontier; also serves as the
    ``cut`` argument of the benchmark's lambda predicates."""

    def __init__(self, trace: RawTrace, frontier: Frontier):
        self._trace = trace
        self.frontier = frontier

    def value(self, process: int, name: str, default=None):
        return self._trace.values[process][self.frontier[process] - 1].get(name, default)

    def values(self, name: str, default=None) -> list:
        return [self.value(p, name, default) for p in range(self._trace.n)]

    def variable_sum(self, name: str) -> int:
        return sum(int(v) for v in self.values(name, 0))

    def inflight(self) -> int:
        f = self.frontier
        return sum(
            1
            for (sp, si), (rp, ri) in self._trace.messages
            if si < f[sp] and ri >= f[rp]
        )


# ----------------------------------------------------------------------
# Query forms: each renders to the program's predicate grammar and
# evaluates itself on a RawCut.
# ----------------------------------------------------------------------
class Expr:
    def text(self) -> str:
        raise NotImplementedError

    def holds(self, cut: RawCut) -> bool:
        raise NotImplementedError


class Lit(Expr):
    def __init__(self, process: int, name: str, negated: bool = False):
        self.process, self.name, self.negated = process, name, negated

    def text(self) -> str:
        return ("!" if self.negated else "") + f"{self.name}@{self.process}"

    def holds(self, cut: RawCut) -> bool:
        return bool(cut.value(self.process, self.name)) != self.negated


class And(Expr):
    def __init__(self, *parts: Expr):
        self.parts = parts

    def text(self) -> str:
        return " & ".join(f"({p.text()})" if isinstance(p, Or) else p.text() for p in self.parts)

    def holds(self, cut: RawCut) -> bool:
        return all(p.holds(cut) for p in self.parts)


class Or(Expr):
    def __init__(self, *parts: Expr):
        self.parts = parts

    def text(self) -> str:
        return " | ".join(p.text() for p in self.parts)

    def holds(self, cut: RawCut) -> bool:
        return any(p.holds(cut) for p in self.parts)


_RELOPS: Dict[str, Callable[[int, int], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}


class Sum(Expr):
    def __init__(self, name: str, relop: str, constant: int):
        self.name, self.relop, self.constant = name, relop, constant

    def text(self) -> str:
        return f"sum({self.name}) {self.relop} {self.constant}"

    def holds(self, cut: RawCut) -> bool:
        return _RELOPS[self.relop](cut.variable_sum(self.name), self.constant)


class Count(Expr):
    def __init__(self, name: str, relop: str, constant: int):
        self.name, self.relop, self.constant = name, relop, constant

    def text(self) -> str:
        return f"count({self.name}) {self.relop} {self.constant}"

    def holds(self, cut: RawCut) -> bool:
        count = sum(1 for v in cut.values(self.name) if v)
        return _RELOPS[self.relop](count, self.constant)


class InFlight(Expr):
    def __init__(self, relop: str, constant: int):
        self.relop, self.constant = relop, constant

    def text(self) -> str:
        return f"inflight {self.relop} {self.constant}"

    def holds(self, cut: RawCut) -> bool:
        return _RELOPS[self.relop](cut.inflight(), self.constant)


class Lambda(Expr):
    """An opaque ``lambda cut: ...`` predicate, given by its source."""

    def __init__(self, source: str):
        self.source = source
        self._fn = eval(compile(source, "<perfbench-oracle>", "eval"))

    def text(self) -> str:
        return self.source

    def holds(self, cut: RawCut) -> bool:
        return bool(self._fn(cut))
