"""Batched combination sweep for the Section 3.3 engines (arXiv 2008.12516).

The process-choice and chain-choice engines of
:mod:`repro.detection.singular_cnf` run the CPDHB elimination once per
combination of one chain per group.  :class:`CombinationSweep` scores a
whole block of combination ranks at once with Garg's work-optimal
*rounds* instead of ``B`` interpreted
:class:`~repro.detection.garg_waldecker.SelectionScan` runs.  Each round,
for every live combination:

1. **join** — compute the *need* vector, the componentwise join of the
   clocks of the currently selected candidates
   (``need[p] = max_f clk(f)[p]``);
2. **eliminate** — a candidate ``e = (p, i)`` survives iff
   ``need[p] <= i + 1``: a violation means some other selected ``f`` has
   ``clk(f)[p] > i + 1``, i.e. ``succ(e) ⊑ f``, the classical CPDHB
   elimination (``e`` can pair with nothing at or after ``f``);
3. **advance** — every eliminated chain moves its cursor to the first
   later event that satisfies the round's need vector (every skipped
   event is eliminated by the same witness ``f``).

A round with no eliminations is a fixpoint, which is exactly pairwise
consistency of the selection; an exhausted chain kills the combination.
The rounds converge to the **least** consistent selection, so verdict
*and* witness equal the per-rank CPDHB scan.  Cross-process chain-cover
chains may hop processes, so each candidate is re-checked against the
need vector at its own process; the own-chain contribution to *need* can
never eliminate a later event of the same chain (its clock is dominated
by theirs).

Clock reads go through the computation's
:class:`~repro.perf.clockmatrix.ClockMatrix` and need numpy; without it
the engines keep the per-rank scan (:func:`use_batched_sweep`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.computation import Computation
from repro.events import EventId
from repro.perf.causality import CausalityIndex
from repro.perf.clockmatrix import numpy_available

__all__ = [
    "CombinationSweep",
    "use_batched_sweep",
    "VEC_MIN_COMBINATIONS",
    "VEC_CHUNK",
]

#: Below this many combinations a per-rank CPDHB scan beats the batched
#: kernel's fixed array overhead.
VEC_MIN_COMBINATIONS = 64
#: Ranks per batched block: bounds the ``(B, m, n)`` working arrays while
#: amortizing the per-call numpy overhead over many ranks.
VEC_CHUNK = 4096


def use_batched_sweep(total: int) -> bool:
    """Should a sweep of ``total`` combinations use the batched kernel?"""
    return numpy_available() and total >= VEC_MIN_COMBINATIONS


class CombinationSweep:
    """Vectorized work-optimal scoring of combination-rank blocks.

    One instance per (computation, per-group chain table); constructing
    it pads each group's chains into dense ``(chains, max_len)`` row /
    process / position arrays.  :meth:`scan_block` then runs the
    elimination rounds for a whole contiguous block of ranks at once:
    cursors live in a ``(B, m)`` matrix, the need vectors in ``(B, n)``,
    and a rank survives (its combination admits a consistent selection)
    iff its row reaches a round with no eliminations.

    Requires numpy (gate with :func:`use_batched_sweep`); results —
    verdict, winning rank, selection — equal the per-rank
    :class:`~repro.detection.garg_waldecker.SelectionScan` loop by the
    least-fixpoint argument.
    """

    def __init__(
        self,
        computation: Computation,
        per_group_chains: Sequence[Sequence[Sequence[EventId]]],
        index: Optional[CausalityIndex] = None,
    ):
        import numpy as np

        self._np = np
        self._index = (
            index if index is not None else CausalityIndex.of(computation)
        )
        matrix = self._index.matrix
        assert matrix.use_numpy, "CombinationSweep requires numpy kernels"
        self._matrix = matrix
        self._m = len(per_group_chains)
        self._group_sizes = [len(chains) for chains in per_group_chains]
        self._rows: List = []
        self._procs: List = []
        self._pos: List = []
        self._len: List = []
        for chains in per_group_chains:
            count = max(1, len(chains))
            width = max([len(c) for c in chains] + [1])
            rows = np.zeros((count, width), dtype=np.int64)
            procs = np.zeros((count, width), dtype=np.int64)
            pos = np.zeros((count, width), dtype=np.int64)
            lens = np.zeros(count, dtype=np.int64)
            for g, chain in enumerate(chains):
                lens[g] = len(chain)
                for k, (p, i) in enumerate(chain):
                    rows[g, k] = matrix.row((p, i))
                    procs[g, k] = p
                    pos[g, k] = i + 1
            self._rows.append(rows)
            self._procs.append(procs)
            self._pos.append(pos)
            self._len.append(lens)

    def _decode(self, start: int, stop: int):
        """Mixed-radix digits of ranks [start, stop) in product order."""
        np = self._np
        ranks = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((ranks.size, self._m), dtype=np.int64)
        for j in range(self._m - 1, -1, -1):
            size = max(1, self._group_sizes[j])
            digits[:, j] = ranks % size
            ranks = ranks // size
        return digits

    def scan_block(
        self, start: int, stop: int
    ) -> Tuple[Optional[int], Optional[List[EventId]], int, int]:
        """Scan ranks ``[start, stop)``; every rank runs to its verdict.

        Returns ``(winning_rank, selection, advances, rounds)`` with the
        *lowest* successful rank of the block (None when the whole block
        fails).  ``advances`` counts cursor eliminations across all ranks
        of the block — block-partition independent, since each rank's
        round evolution never depends on its neighbours.
        """
        np = self._np
        matrix = self._matrix
        m, B = self._m, stop - start
        digits = self._decode(start, stop)
        cur = np.zeros((B, m), dtype=np.int64)
        active = np.ones(B, dtype=bool)
        for j in range(m):
            active &= self._len[j][digits[:, j]] > 0
        success = np.zeros(B, dtype=bool)
        advances = 0
        rounds = 0
        matrix._tally(B * m)
        while active.any():
            rounds += 1
            idx = np.nonzero(active)[0]
            A = idx.size
            sel_rows = np.empty((A, m), dtype=np.int64)
            sel_pos = np.empty((A, m), dtype=np.int64)
            sel_proc = np.empty((A, m), dtype=np.int64)
            for j in range(m):
                dj = digits[idx, j]
                cj = cur[idx, j]
                sel_rows[:, j] = self._rows[j][dj, cj]
                sel_pos[:, j] = self._pos[j][dj, cj]
                sel_proc[:, j] = self._procs[j][dj, cj]
            need = matrix.clk[sel_rows].max(axis=1)
            elim = (
                need[np.arange(A)[:, None], sel_proc] > sel_pos
            )
            stable = ~elim.any(axis=1)
            success[idx[stable]] = True
            active[idx[stable]] = False
            pair_a, pair_j = np.nonzero(elim)
            if pair_a.size == 0:
                continue
            # Advance every eliminated cursor to the first chain event
            # satisfying this round's need vector, in one vectorized pass
            # per group: an event at offset k survives iff
            # ``pos[k] >= need[proc[k]]`` (chain-cover chains may hop
            # processes, hence the per-event process gather), every
            # skipped event counts as one advance, and running off the
            # chain kills the combination.
            for j in range(m):
                mask = pair_j == j
                if not mask.any():
                    continue
                sel = pair_a[mask]
                eb = idx[sel]
                dj = digits[eb, j]
                cj = cur[eb, j]
                lens = self._len[j][dj]
                pos_rows = self._pos[j][dj]
                proc_rows = self._procs[j][dj]
                ok = pos_rows >= need[
                    sel[:, None], proc_rows
                ]
                ks = np.arange(pos_rows.shape[1])[None, :]
                viable = ok & (ks > cj[:, None]) & (ks < lens[:, None])
                alive = viable.any(axis=1)
                new_cur = np.where(alive, viable.argmax(axis=1), lens)
                advances += int((new_cur - cj).sum())
                cur[eb, j] = new_cur
                if not alive.all():
                    active[eb[~alive]] = False
        if not success.any():
            return None, None, advances, rounds
        first = int(np.nonzero(success)[0][0])
        selection: List[EventId] = []
        for j in range(m):
            d = int(digits[first, j])
            c = int(cur[first, j])
            selection.append(
                (
                    int(self._procs[j][d, c]),
                    int(self._pos[j][d, c]) - 1,
                )
            )
        return start + first, selection, advances, rounds
