"""Struct-of-arrays vector-clock matrix with batched causality kernels.

Every hot comparison in the detection engines reduces to reading one
component of one Fidge–Mattern clock: with the repo's clock convention
(initial events carry unit vectors, the running clock of each process
starts at all-ones) the *reflexive* causal order is, uniformly and with
no initial-event special cases,

    ``e = (p, i) ⊑ f``   ⟺   ``clk(f)[p] >= i + 1``

and Section 2.2 pairwise consistency of ``e = (p, i)`` and ``f = (q, j)``
is

    ``clk(f)[p] <= i + 1``  ∧  ``clk(e)[q] <= j + 1``

(again with no edge cases: a last event can never be overtaken because no
clock component exceeds the process length, and same-process pairs reduce
to index equality).

:class:`ClockMatrix` stores **all** clocks of a computation in one dense
``(total_events, n)`` integer matrix — rows in process-major order, plus
flat per-row ``proc``/``pos`` arrays (``pos`` is the own-component
``i + 1``) — so those formulas become *batched* array expressions instead
of per-pair Python calls:

* :meth:`leq_rows` / :meth:`happened_before_rows` — element-wise causal
  order over row vectors;
* :meth:`consistent_rows` — element-wise pairwise consistency;
* :meth:`advance_enabled` / :meth:`successor_frontiers_batch` — the
  frontier-consistency kernel: which processes may advance from each of a
  batch of consistent frontiers (the inner loop of every lattice walk);
* :meth:`closure_at_least` — least consistent cut above a frontier with a
  per-process floor, as a vectorized fixpoint.

When numpy is unavailable (or ``REPRO_NO_NUMPY`` is set) every kernel
falls back to pure-Python loops over the same flat arrays, bit-identical
by construction; callers never branch.  Obtain the matrix through
:attr:`repro.perf.causality.CausalityIndex.matrix` so it is built once
per computation; kernel usage is tallied in :attr:`counters` and mirrored
to ``perf.clockmatrix.*`` metrics by the index.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import List, Optional, Sequence, Tuple

__all__ = ["ClockMatrix", "numpy_available", "HAVE_NUMPY"]

EventId = Tuple[int, int]
Frontier = Tuple[int, ...]

try:  # pragma: no cover - exercised via the no-numpy CI job
    if os.environ.get("REPRO_NO_NUMPY"):
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None


def numpy_available() -> bool:
    """True iff the vectorized kernels are active in this process."""
    return HAVE_NUMPY


class ClockMatrix:
    """Dense clock matrix of one computation plus batched kernels.

    Args:
        clocks: ``clocks[p][i]`` is the component tuple of event ``(p, i)``
            (the computation's clock table, as shared by
            :class:`~repro.perf.causality.CausalityIndex`).
        lengths: Events per process, initial event included.
        use_numpy: Force the pure-Python kernels with ``False``; default
            follows :func:`numpy_available`.
    """

    __slots__ = (
        "num_processes",
        "lengths",
        "offsets",
        "total_rows",
        "use_numpy",
        "clk",
        "proc",
        "pos",
        "counters",
    )

    def __init__(
        self,
        clocks: Sequence[Sequence[Tuple[int, ...]]],
        lengths: Sequence[int],
        use_numpy: Optional[bool] = None,
    ):
        n = len(lengths)
        self.num_processes = n
        self.lengths: List[int] = list(lengths)
        offsets: List[int] = []
        total = 0
        for length in self.lengths:
            offsets.append(total)
            total += length
        self.offsets = offsets
        self.total_rows = total
        self.use_numpy = HAVE_NUMPY if use_numpy is None else bool(use_numpy)
        self.counters = {"batch_calls": 0, "rows": 0}
        flat_proc: List[int] = []
        flat_pos: List[int] = []
        for p, length in enumerate(self.lengths):
            flat_proc.extend([p] * length)
            flat_pos.extend(range(1, length + 1))
        # Rows in process-major order, shared with the table (no copies).
        rows = list(chain.from_iterable(clocks))
        if self.use_numpy:
            # Streamed straight into one buffer; np.array would first
            # inspect every row tuple for shape and type.
            self.clk = _np.fromiter(
                chain.from_iterable(rows), dtype=_np.int64, count=total * n
            ).reshape(total, n)
            self.proc = _np.asarray(flat_proc, dtype=_np.int64)
            self.pos = _np.asarray(flat_pos, dtype=_np.int64)
        else:
            self.clk = rows
            self.proc = flat_proc
            self.pos = flat_pos

    # ------------------------------------------------------------------
    # Row addressing
    # ------------------------------------------------------------------
    def row(self, event: EventId) -> int:
        """Matrix row of one event id."""
        return self.offsets[event[0]] + event[1]

    def _tally(self, rows: int) -> None:
        self.counters["batch_calls"] += 1
        self.counters["rows"] += rows

    # ------------------------------------------------------------------
    # Pairwise kernels (element-wise over equal-length row vectors)
    # ------------------------------------------------------------------
    def leq_rows(self, rows_a, rows_b):
        """Element-wise reflexive causal order ``a[k] ⊑ b[k]``."""
        if self.use_numpy:
            a = _np.asarray(rows_a, dtype=_np.int64)
            b = _np.asarray(rows_b, dtype=_np.int64)
            self._tally(a.size)
            return self.clk[b, self.proc[a]] >= self.pos[a]
        self._tally(len(rows_a))
        clk, proc, pos = self.clk, self.proc, self.pos
        return [
            clk[rb][proc[ra]] >= pos[ra] for ra, rb in zip(rows_a, rows_b)
        ]

    def happened_before_rows(self, rows_a, rows_b):
        """Element-wise irreflexive causal order ``a[k] → b[k]``."""
        if self.use_numpy:
            a = _np.asarray(rows_a, dtype=_np.int64)
            b = _np.asarray(rows_b, dtype=_np.int64)
            return self.leq_rows(a, b) & (a != b)
        leq = self.leq_rows(rows_a, rows_b)
        return [
            ok and ra != rb for ok, ra, rb in zip(leq, rows_a, rows_b)
        ]

    def consistent_rows(self, rows_a, rows_b):
        """Element-wise pairwise consistency (Section 2.2)."""
        if self.use_numpy:
            a = _np.asarray(rows_a, dtype=_np.int64)
            b = _np.asarray(rows_b, dtype=_np.int64)
            self._tally(a.size)
            clk, proc, pos = self.clk, self.proc, self.pos
            return (clk[b, proc[a]] <= pos[a]) & (clk[a, proc[b]] <= pos[b])
        self._tally(len(rows_a))
        clk, proc, pos = self.clk, self.proc, self.pos
        return [
            clk[rb][proc[ra]] <= pos[ra] and clk[ra][proc[rb]] <= pos[rb]
            for ra, rb in zip(rows_a, rows_b)
        ]

    # ------------------------------------------------------------------
    # Frontier-consistency kernel (lattice walks)
    # ------------------------------------------------------------------
    def advance_enabled(self, frontiers: Sequence[Frontier]):
        """Which process advances keep each frontier consistent.

        Returns a ``(B, n)`` boolean matrix: entry ``[b, p]`` is True iff
        process ``p`` has a next event at ``frontiers[b]`` and appending
        it yields a consistent frontier again (the next event's clock is
        covered on every *other* component).
        """
        n = self.num_processes
        if self.use_numpy:
            F = _np.asarray(frontiers, dtype=_np.int64)
            self._tally(F.shape[0] * n)
            enabled = _np.zeros(F.shape, dtype=bool)
            for p in range(n):
                exists = F[:, p] < self.lengths[p]
                if not exists.any():
                    continue
                rows = self.offsets[p] + _np.minimum(
                    F[:, p], self.lengths[p] - 1
                )
                covered = self.clk[rows] <= F
                covered[:, p] = True
                enabled[:, p] = exists & covered.all(axis=1)
            return enabled
        self._tally(len(frontiers) * n)
        out = []
        for frontier in frontiers:
            row_flags = []
            for p in range(n):
                nxt = frontier[p]
                if nxt >= self.lengths[p]:
                    row_flags.append(False)
                    continue
                clock = self.clk[self.offsets[p] + nxt]
                row_flags.append(
                    all(
                        clock[q] <= frontier[q]
                        for q in range(n)
                        if q != p
                    )
                )
            out.append(row_flags)
        return out

    def successor_frontiers_batch(
        self, frontiers: Sequence[Frontier]
    ) -> List[List[Frontier]]:
        """Per-input successor frontiers, in process order.

        Batched equivalent of
        :meth:`repro.perf.causality.CausalityIndex.successor_frontiers`
        applied to each input independently.
        """
        enabled = self.advance_enabled(frontiers)
        out: List[List[Frontier]] = []
        for b, frontier in enumerate(frontiers):
            flags = enabled[b]
            out.append(
                [
                    frontier[:p] + (frontier[p] + 1,) + frontier[p + 1 :]
                    for p in range(self.num_processes)
                    if flags[p]
                ]
            )
        return out

    # ------------------------------------------------------------------
    # Closure kernel (interval-anchor handoffs)
    # ------------------------------------------------------------------
    def closure_at_least(
        self, base: Frontier, process: int, minimum: int
    ) -> Frontier:
        """Least consistent frontier >= base with ``f[process] >= minimum``.

        The fixpoint joins, per pass, the clocks of all current frontier
        events into the frontier itself (initial events contribute nothing
        beyond their own unit component, so no rows are skipped).
        """
        if not self.use_numpy:
            frontier = list(base)
            if frontier[process] < minimum:
                frontier[process] = minimum
            clk, offsets = self.clk, self.offsets
            n = self.num_processes
            changed = True
            while changed:
                changed = False
                for p in range(n):
                    clock = clk[offsets[p] + frontier[p] - 1]
                    for q in range(n):
                        if clock[q] > frontier[q]:
                            frontier[q] = clock[q]
                            changed = True
            return tuple(frontier)
        frontier = _np.asarray(base, dtype=_np.int64).copy()
        if frontier[process] < minimum:
            frontier[process] = minimum
        offsets = _np.asarray(self.offsets, dtype=_np.int64)
        while True:
            self._tally(self.num_processes)
            joined = self.clk[offsets + frontier - 1].max(axis=0)
            merged = _np.maximum(frontier, joined)
            if (merged == frontier).all():
                return tuple(int(v) for v in frontier)
            frontier = merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backend = "numpy" if self.use_numpy else "python"
        return (
            f"ClockMatrix(processes={self.num_processes}, "
            f"rows={self.total_rows}, backend={backend})"
        )
