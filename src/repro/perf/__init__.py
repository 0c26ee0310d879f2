"""Performance core for the detection engines (substrate S13).

Three pieces, layered under :mod:`repro.detection`:

* :class:`~repro.perf.causality.CausalityIndex` — per-computation
  memoized causality queries (raw-clock ``leq`` fast path, precomputed
  successor arrays, cached per-clause true events / chain covers /
  orderedness verdicts);
* :class:`~repro.perf.clockmatrix.ClockMatrix` — every vector clock in
  one struct-of-arrays matrix with batched causality kernels, built
  once per computation as ``CausalityIndex.matrix``;
* :class:`~repro.perf.interning.CutInterner` — one canonical ``Cut``
  per frontier tuple, so lattice walks track plain tuples.

Cache behaviour is observable through the ``perf.*`` metrics documented
in ``docs/OBSERVABILITY.md``.
"""

from repro.perf.causality import CausalityIndex
from repro.perf.interning import CutInterner

__all__ = ["CausalityIndex", "CutInterner"]
