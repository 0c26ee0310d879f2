"""Seeded trace generation for the benchmark, independent of the program.

Traces are written straight as ``repro-trace-v1`` JSON payloads, so the
program under test only ever sees generated inputs.  Besides random
message traffic the generator plants structure whose consequences are
known by construction, which is where most expected verdicts come from:

* ``plant_final``: the listed boolean variables are true at the last event
  of every process, so the final cut (consistent, and on every run)
  satisfies any conjunction of them.  One not also among the random
  ``bools`` is false everywhere else, so it holds at the final cut only.
* ``tok``: a single token passed by messages.  The holder's send sets
  ``tok`` false, the receiver's receive sets it true, so no consistent cut
  has ``tok`` true on two processes (mutual exclusion).
* ``v``: a walk that changes by at most 1 per event and never drops below
  0, so every sum between the initial and the final sum is met on every
  run (intermediate values).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

FORMAT = "repro-trace-v1"

Endpoint = Tuple[int, int]


def random_trace(
    seed: int,
    processes: int,
    events: int,
    message_density: float = 0.2,
    bools: Sequence[str] = ("x",),
    density: float = 0.3,
    walk: Optional[str] = None,
    token: bool = False,
    token_rate: float = 0.1,
    plant_final: Sequence[str] = (),
    receive_sites: Optional[Sequence[int]] = None,
) -> Tuple[dict, dict]:
    """One random computation and the facts its construction guarantees.

    Returns ``(payload, facts)``; ``facts`` holds the ``final_sum`` of the
    walk, whose initial sum is 0.
    """
    rng = random.Random(seed)
    may_receive = set(range(processes) if receive_sites is None else receive_sites)
    state: List[Dict[str, object]] = []
    for p in range(processes):
        values: Dict[str, object] = {name: False for name in (*bools, *plant_final)}
        if walk:
            values[walk] = 0
        if token:
            values["tok"] = p == 0
        state.append(values)
    procs: List[List[dict]] = [
        [{"kind": "initial", "values": dict(state[p])}] for p in range(processes)
    ]
    schedule = [p for p in range(processes) for _ in range(events)]
    rng.shuffle(schedule)
    done = [0] * processes
    pending: List[Tuple[int, Endpoint]] = []
    messages: List[List[List[int]]] = []
    token_flight: Optional[Endpoint] = None
    for p in schedule:
        done[p] += 1
        here = (p, len(procs[p]))
        values = state[p]
        receives: List[Endpoint] = []
        sends = False
        if token_flight is not None and token_flight[0] != p:
            receives.append(token_flight)
            token_flight = None
            values["tok"] = True
        elif token and values["tok"] and rng.random() < token_rate:
            values["tok"] = False
            token_flight = here
            sends = True
        else:
            if p in may_receive and pending and rng.random() < message_density:
                choices = [i for i, (src, _) in enumerate(pending) if src != p]
                if choices:
                    receives.append(pending.pop(choices[rng.randrange(len(choices))])[1])
            if rng.random() < message_density:
                sends = True
                pending.append((p, here))
        for name in bools:
            values[name] = rng.random() < density
        if walk:
            values[walk] = max(0, int(values[walk]) + rng.choice((-1, 0, 1, 1)))
        if done[p] == events:
            for name in plant_final:
                values[name] = True
        kind = (
            "send_receive" if sends and receives
            else "send" if sends
            else "receive" if receives
            else "internal"
        )
        procs[p].append({"kind": kind, "values": dict(values)})
        for src in receives:
            messages.append([list(src), list(here)])
    final = sum(int(e[-1]["values"][walk]) for e in procs) if walk else 0
    payload = {"format": FORMAT, "processes": procs, "messages": messages}
    return payload, {"final_sum": final}


def chain_groups(
    groups: int, group_size: int, chains: int, events: int
) -> dict:
    """Clause groups whose true events form ``chains`` causal chains each,
    with consecutive groups sequenced through false barrier events.

    Every true event of group g happens before every true event of group
    g+1, so no consistent cut has ``x`` true in two groups and the
    singular CNF "some x in every group" is unsatisfiable for two or more
    groups.  Engines still have to sweep every combination of chain
    choices before refuting it.
    """
    n = groups * group_size
    procs: List[List[dict]] = [
        [{"kind": "initial", "values": {"x": False}}] for _ in range(n)
    ]
    messages: List[List[List[int]]] = []

    def add(p: int, kind: str, x: bool) -> Endpoint:
        procs[p].append({"kind": kind, "values": {"x": x}})
        return (p, len(procs[p]) - 1)

    previous_tails: List[Endpoint] = []
    for g in range(groups):
        members = [g * group_size + i for i in range(group_size)]
        tails: List[Endpoint] = []
        for c in range(chains):
            pipeline = members[c::chains]
            previous_send: Optional[Endpoint] = None
            for rank, p in enumerate(pipeline):
                sources = [previous_send] if previous_send else []
                if rank == 0:
                    sources.extend(previous_tails)
                if sources:
                    gate = add(p, "receive", False)
                    messages.extend([list(s), list(gate)] for s in sources)
                for _ in range(events):
                    add(p, "internal", True)
                if rank < len(pipeline) - 1 or g + 1 < groups:
                    previous_send = add(p, "send", False)
                    if rank == len(pipeline) - 1:
                        tails.append(previous_send)
        previous_tails = tails
    return {"format": FORMAT, "processes": procs, "messages": messages}
