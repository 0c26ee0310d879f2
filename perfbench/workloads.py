"""The three workloads, built from a seed into trace files plus a plan.

Why each workload exists:

* ``large-trace`` -- one 32k-event trace (16 processes x 2000 events).
  Ingest (JSON parse, validation, vector clocks) is almost all the cost
  and the engine almost none, so it is where a faster trace loader or a
  single clock array shows up: ``setup_s``, ``cli_detect_s`` and
  ``peak_rss_mb``.  The same trace is replayed through the online monitor
  under a conjunction that is never satisfied, so every observation is
  processed.
* ``query-mix`` -- twelve 8 x 50 traces, each queried with every
  polynomial predicate class (CPDHB, interval-anchor, chain-choice,
  Stoller-Schneider, min-cut / Theorem 7, symmetric, classified opaque
  lambdas), plus one receive-ordered trace (CPDSC) and an unsatisfiable
  chain sweep.  Dispatch, the classifier and the polynomial kernels do the
  work; no lattice is enumerated and ingest is negligible.  The monitor
  replays one 8 x 1000 trace of the same kind.
* ``lattice`` -- 25 traces of 5 x 4 (1500-1750 cuts each) and two of
  6 x 4 (9000-10000 cuts), queried with predicates that reach
  slice-bounded lattice enumeration or cost like it.  ``Cut``
  construction, the lattice walker, slicing and predicate evaluation do
  the work; lattice width versus size shows in ``peak_rss_mb``.

Sizes are chosen so that one pass over a workload's queries takes one to
two seconds, which lets every query be timed about ten times in a run.

Every expected verdict is fixed before the program runs: by construction
(see :mod:`traces`) on ``large-trace`` and ``query-mix``, and by the
benchmark's own brute-force enumeration (:mod:`oracle`) on ``lattice``.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path
from typing import List, Optional, Tuple

from oracle import And, Count, Expr, InFlight, Lambda, Lit, Or, RawTrace, Sum
from traces import chain_groups, random_trace

WORKLOADS = ("large-trace", "query-mix", "lattice")

POSSIBLY, DEFINITELY = "possibly", "definitely"


class Plan:
    """Trace files, queries with expected verdicts, and run settings.

    ``to_json()`` is what the measuring child process reads; the parent
    keeps the raw traces and expressions to check the answers.
    """

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.traces: List[dict] = []
        self.raw: List[RawTrace] = []
        self.queries: List[dict] = []
        self.exprs: List[Expr] = []
        self.cli: Optional[dict] = None
        self.monitors: List[dict] = []
        #: Share of the measured time that each kind of work gets.
        self.shares = {"query": 0.55, "cli": 0.25, "monitor": 0.1, "setup": 0.1}

    def add_trace(
        self, name: str, payload: dict, raw: Optional[RawTrace] = None
    ) -> int:
        """Write a trace file; a ``raw`` passed in has its lattice counted."""
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        self.raw.append(raw or RawTrace(payload))
        self.traces.append(
            {"file": str(path), "lattice_cuts": len(raw.lattice()) if raw else 0}
        )
        return len(self.traces) - 1

    def add_query(
        self, trace: int, expr: Expr, modality: str, expected: Optional[bool] = None
    ) -> int:
        """Add a query; ``expected=None`` takes the brute-force verdict."""
        if expected is None:
            raw = self.raw[trace]
            brute = raw.possibly if modality == POSSIBLY else raw.definitely
            expected = brute(expr.holds)
        self.exprs.append(expr)
        self.queries.append(
            {
                "id": len(self.queries),
                "trace": trace,
                "kind": "lambda" if isinstance(expr, Lambda) else "text",
                "source": expr.text(),
                "modality": modality,
                "expected": expected,
            }
        )
        return len(self.queries) - 1

    def add_monitor(self, trace: int, truth: List[str], expected: bool) -> None:
        """Replay ``trace`` into a monitor of all processes; process p's
        conjunct is its variable ``truth[p]``."""
        raw = self.raw[trace]
        self.monitors.append(
            {
                "trace": trace,
                "truth": truth,
                "expected": expected,
                "observations": sum(raw.lengths),
            }
        )

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "traces": self.traces,
            "queries": self.queries,
            "cli": self.cli,
            "monitors": self.monitors,
            "shares": self.shares,
        }


def build(workload: str, seed: int, workdir: Path) -> Plan:
    plan = Plan(workload, workdir)
    rng = random.Random(f"{workload}/{seed}")
    {"large-trace": _large_trace, "query-mix": _query_mix, "lattice": _lattice}[
        workload
    ](plan, rng)
    return plan


def _subseed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _large_trace(plan: Plan, rng: random.Random) -> None:
    n = 16
    payload, _ = random_trace(
        _subseed(rng), n, 2000, 0.2, bools=("x",), token=True, plant_final=("x",)
    )
    t = plan.add_trace("large", payload)
    del payload
    # Two cost clusters keep the percentiles steady from seed to seed:
    # cheap refutations of token pairs (the median) and conjunctions over
    # nearly every process, true at the planted final cut (the p90).
    pairs = list(combinations(range(n), 2))
    for i, j in rng.sample(pairs, 60):
        plan.add_query(t, And(Lit(i, "tok"), Lit(j, "tok")), POSSIBLY, False)
    for _ in range(10):
        half = sorted(rng.sample(range(n), n // 2))
        plan.add_query(t, And(*(Lit(p, "x") for p in half)), POSSIBLY, True)
    for skip in rng.sample(pairs, 30):
        conj = And(*(Lit(p, "x") for p in range(n) if p not in skip))
        plan.add_query(t, conj, POSSIBLY, True)
    everything = And(*(Lit(p, "x") for p in range(n)))
    plan.cli = {"query": plan.add_query(t, everything, POSSIBLY, True)}
    plan.add_monitor(t, ["tok", "tok"] + ["x"] * (n - 2), False)
    # Loads take about a second each here and CLI calls two; give them time
    # for several samples.
    plan.shares = {"query": 0.3, "cli": 0.4, "monitor": 0.15, "setup": 0.15}


def _query_mix(plan: Plan, rng: random.Random) -> None:
    n = 8
    for a in range(12):
        payload, facts = random_trace(
            _subseed(rng), n, 50, 0.2, bools=("x", "y"), walk="v",
            token=True, plant_final=("x", "y"),
        )
        t = plan.add_trace(f"mix{a}", payload)
        x = [Lit(p, "x") for p in range(n)]
        everything = And(*x)
        # The final cut satisfies every conjunction of x and y (planted);
        # the walk meets every sum in [0, final] on every run, and the
        # x-count every value in [0, n]; no cut holds the token twice.
        # Exact sums in ``possibly`` are the costliest class here; with
        # three of them per trace (counting the opaque one) they make up
        # about the top sixth of the queries, so the p90 sits inside them.
        k = facts["final_sum"] // 2
        i, j = rng.sample(range(n), 2)
        a0, a1, a2, b0, b1 = rng.sample(range(n), 5)
        trio = sorted(rng.sample(range(n), 3))
        plan.add_query(t, Sum("v", "==", k), POSSIBLY, True)
        plan.add_query(t, Sum("v", "==", facts["final_sum"] // 3), POSSIBLY, True)
        plan.add_query(t, Sum("v", "<=", k), POSSIBLY, True)
        plan.add_query(t, Sum("v", "==", k), DEFINITELY, True)
        plan.add_query(t, Sum("v", "<=", k), DEFINITELY, True)
        conj = plan.add_query(t, everything, POSSIBLY, True)
        if a == 0:
            plan.cli = {"query": conj}
        plan.add_query(t, everything, DEFINITELY, True)
        pairs = And(*(Or(x[2 * g], x[2 * g + 1]) for g in range(n // 2)))
        plan.add_query(t, pairs, POSSIBLY, True)
        shared = And(
            Or(Lit(a0, "x"), Lit(a1, "y")),
            Or(Lit(a0, "y"), Lit(a2, "x")),
            Or(Lit(b0, "x"), Lit(b1, "y")),
        )
        plan.add_query(t, shared, POSSIBLY, True)
        plan.add_query(t, Count("x", "==", rng.randrange(n + 1)), POSSIBLY, True)
        plan.add_query(t, Count("x", "==", rng.randrange(n + 1)), DEFINITELY, True)
        plan.add_query(t, Count("tok", ">=", 2), POSSIBLY, False)
        plan.add_query(t, And(Lit(i, "tok"), Lit(j, "tok")), POSSIBLY, False)
        plan.add_query(t, And(Lit(i, "tok"), Lit(j, "tok")), DEFINITELY, False)
        plan.add_query(
            t,
            Lambda(
                "lambda cut: "
                + " and ".join(f'cut.value({p}, "x")' for p in trio)
            ),
            POSSIBLY,
            True,
        )
        plan.add_query(
            t, Lambda(f'lambda cut: cut.variable_sum("v") == {k}'), POSSIBLY, True
        )
        plan.add_query(
            t,
            Lambda(f'lambda cut: cut.value({i}, "tok") and cut.value({j}, "tok")'),
            POSSIBLY,
            False,
        )
        plan.add_query(
            t,
            Lambda(
                'lambda cut: sum(map(bool, cut.values("x"))) in '
                f"({rng.randrange(n + 1)},)"
            ),
            POSSIBLY,
            True,
        )
    # Receive-ordered groups (only each group's first process receives):
    # the singular CNF goes to CPDSC; satisfied at the planted final cut.
    payload, _ = random_trace(
        _subseed(rng), n, 100, 0.2, bools=("x",), plant_final=("x",),
        receive_sites=range(0, n, 2),
    )
    t = plan.add_trace("ordered", payload)
    plan.add_query(
        t,
        And(*(Or(Lit(2 * g, "x"), Lit(2 * g + 1, "x")) for g in range(n // 2))),
        POSSIBLY,
        True,
    )
    # Sequenced chain groups: unsatisfiable, so the chain-choice engine
    # sweeps all 3^6 combinations before refuting.
    groups, size = 6, 3
    t = plan.add_trace("chains", chain_groups(groups, size, 3, 4))
    plan.add_query(
        t,
        And(
            *(
                Or(*(Lit(g * size + m, "x") for m in range(size)))
                for g in range(groups)
            )
        ),
        POSSIBLY,
        False,
    )
    # The monitor replays one longer trace of the same kind, so that its
    # throughput averages over many more events than a query trace has.
    payload, _ = random_trace(_subseed(rng), n, 1000, 0.2, bools=("x",), token=True)
    t = plan.add_trace("stream", payload)
    plan.add_monitor(t, ["tok", "tok"] + ["x"] * (n - 2), False)


#: Opaque lambdas outside the classifier's fragment (products of several
#: processes' values), so they reach unsliced enumeration.  The walk v is
#: never negative and z holds only at each process's last event, so the
#: first holds nowhere and the second at the final cut alone.  Their
#: ``possibly`` and the first one's ``definitely`` walk the whole lattice,
#: the same work for every seed; most of the workload is made of them, so
#: the percentiles sit inside that steady cluster.
_NOWHERE = 'lambda cut: cut.value(0, "v") * cut.value(1, "v") + cut.value(2, "v") < 0'


def _at_top(processes: int) -> str:
    product = " * ".join(f'cut.value({p}, "z")' for p in range(processes))
    return f"lambda cut: {product} == 1"


def _lattice_queries() -> List[Tuple[Expr, str]]:
    """Query kinds on the random x, whose answers and cost vary from one
    trace to the next; each is asked on two traces per seed."""
    x = [Lit(p, "x") for p in range(5)]
    return [
        (And(Or(x[0], x[1]), Or(x[2], x[3])), DEFINITELY),
        (Or(And(x[0], x[1]), And(x[2], x[3])), DEFINITELY),
        (Count("x", "==", 2), DEFINITELY),
        (And(InFlight("==", 0), x[0], x[1]), POSSIBLY),
    ]


def _sized_trace(
    rng: random.Random, processes: int, low: int, high: int
) -> Tuple[dict, RawTrace]:
    """A 4-event-per-process trace whose lattice has low..high cuts, so
    that per-query work is comparable from one seed to the next."""
    while True:
        payload, _ = random_trace(
            _subseed(rng), processes, 4, 0.2, bools=("x",), walk="v",
            plant_final=("z",),
        )
        raw = RawTrace(payload)
        cuts = raw.lattice(limit=high)
        if cuts is not None and len(cuts) >= low:
            return payload, raw


def _lattice(plan: Plan, rng: random.Random) -> None:
    kinds = _lattice_queries()
    z = [Lit(p, "z") for p in range(5)]
    for k in range(25):
        t = plan.add_trace(f"lat{k}", *_sized_trace(rng, 5, 1500, 1750))
        plan.add_query(t, Lambda(_NOWHERE), POSSIBLY, False)
        plan.add_query(t, Lambda(_NOWHERE), DEFINITELY, False)
        plan.add_query(t, Lambda(_at_top(5)), POSSIBLY, True)
        plan.add_query(t, Lambda(_at_top(5)), DEFINITELY, True)
        if k < 2 * len(kinds):
            plan.add_query(t, *kinds[k % len(kinds)])
        if k == 0:
            cli = plan.add_query(t, And(Or(z[0], z[1]), Or(z[2], z[3])), DEFINITELY, True)
            plan.cli = {"query": cli}
        plan.add_monitor(t, ["z"] * 5, True)
    for k in range(2):
        t = plan.add_trace(f"wide{k}", *_sized_trace(rng, 6, 9000, 10000))
        plan.add_query(t, Lambda(_NOWHERE), POSSIBLY, False)
