"""Batched traced execution: one scalar trace per distinct cost path.

Every kernel in this library is *data-oblivious up to branch direction*: its
instruction tally depends only on which traced branches fire, never on the
arithmetic values flowing through them (each ISA op charges a fixed slot
cost).  A method that can name the branch set an input takes (the keys of
``Method.classify_paths``) therefore only needs ONE scalar trace per
distinct path; every other element on that path charges the bit-identical
tally.  :func:`tally_from_keys` turns keys into the aggregate, the exact
integer sum

    total = sum over paths of (path_tally * path_count)

with no sampling and no floating-point scaling, and the per-element slots
array falls out of the same keys for free.

:func:`scalar_tally` is the oracle's tally form: every element traced in a
scalar loop that reuses one :class:`~repro.isa.CycleCounter`.  The oracle
harness (``tests/test_oracle.py``) holds every launch path to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.isa.counter import CycleCounter, Tally
from repro.obs import metrics as _metrics

__all__ = [
    "CostPath",
    "BatchResult",
    "tally_from_keys",
    "scalar_tally",
]

_F32 = np.float32


@dataclass(frozen=True)
class CostPath:
    """One distinct traced control-flow path through a method."""

    key: int                 # opaque classification key
    representative: float    # one input that takes this path
    count: int               # elements of the batch on this path
    tally: Tally             # traced tally of the representative


@dataclass
class BatchResult:
    """Aggregate traced cost of a method over an input array."""

    n: int                   # number of elements
    tally: Tally             # exact aggregate (integer fields)
    slots: np.ndarray        # per-element instruction slots (int64)
    paths: List[CostPath]    # distinct paths by key (none from scalar_tally)


def scalar_tally(method, xs: np.ndarray) -> BatchResult:
    """Every element of ``xs`` traced through ``method.evaluate`` (one
    reused CycleCounter): the oracle's aggregate and per-element slots."""
    ctx = CycleCounter(method.costs)
    total = Tally()
    slots = np.empty(xs.size, dtype=np.int64)
    for i, x in enumerate(xs):
        method.evaluate(ctx, float(x))
        tally = ctx.reset()
        slots[i] = tally.slots
        total.add(tally)
    _metrics.inc("batch.scalar_fallbacks")
    _metrics.inc("batch.elements", int(xs.size))
    return BatchResult(n=int(xs.size), tally=total, slots=slots, paths=[])


def tally_from_keys(method, xs: np.ndarray, keys: np.ndarray,
                    tally_cache: Optional[Dict[int, Tally]] = None,
                    unique: Optional[tuple] = None) -> BatchResult:
    """The exact cost aggregate of ``xs`` from its path keys.

    Traces one representative per distinct key (the first element with
    it) and sums ``path_tally * path_count``: bit-identical to tracing
    every element, at a cost proportional to the number of distinct paths
    instead of the array length.  The products are summed in key order
    straight into one accumulator, so the aggregate's op counts list each
    op name where its first path does.  ``tally_cache`` maps path key ->
    traced Tally across calls: equal key implies a bit-identical tally, so
    cache hits skip scalar tracing without changing any reported number.
    ``unique`` optionally carries a precomputed
    ``np.unique(keys, return_index/inverse/counts)`` tuple so memoized
    launches (:mod:`repro.batch.vec`) skip the sort as well.
    """
    if unique is None:
        unique = np.unique(keys, return_index=True, return_inverse=True,
                           return_counts=True)
    uniq, first, inverse, path_counts = unique

    ctx = CycleCounter(method.costs)
    total = Tally()
    counts = total.counts
    paths: List[CostPath] = []
    path_slots: List[int] = []
    traced = hits = 0
    for key, rep, count in zip(uniq.tolist(), xs[first].tolist(),
                               path_counts.tolist()):
        tally = None if tally_cache is None else tally_cache.get(key)
        if tally is None:
            method.evaluate(ctx, rep)
            tally = ctx.reset()
            traced += 1
            if tally_cache is not None:
                tally_cache[key] = tally
        else:
            hits += 1
        path_slots.append(tally.slots)
        total.slots += tally.slots * count
        total.dma_transactions += tally.dma_transactions * count
        total.dma_bytes += tally.dma_bytes * count
        total.dma_latency += tally.dma_latency * count
        for name, n in tally.counts.items():
            counts[name] = counts.get(name, 0) + n * count
        paths.append(CostPath(key, rep, count, tally))
    if traced and tally_cache is not None:
        _metrics.inc("batch.tally_cache.misses", traced)
    if hits:
        _metrics.inc("batch.tally_cache.hits", hits)
    if _metrics.active_metrics() is not None:
        # Per-path cycle attribution: hit counts and the exact
        # path_tally x path_count slot products the aggregate is built of.
        _metrics.inc("batch.calls")
        _metrics.inc("batch.elements", int(xs.size))
        _metrics.inc("batch.paths_traced", traced)
        for p in paths:
            _metrics.inc(f"batch.path[{p.key}].count", p.count)
            _metrics.inc(f"batch.path[{p.key}].slots",
                         p.tally.slots * p.count)
    return BatchResult(n=int(xs.size), tally=total,
                       slots=np.asarray(path_slots, dtype=np.int64)[inverse],
                       paths=paths)
