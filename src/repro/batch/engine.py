"""Batched traced execution: one scalar trace per distinct cost path.

Every kernel in this library is *data-oblivious up to branch direction*: its
instruction tally depends only on which traced branches fire, never on the
arithmetic values flowing through them (each ISA op charges a fixed slot
cost).  A method that can name the branch set an input takes — via
``Method.classify_paths`` — therefore only needs ONE scalar trace per
distinct path; every other element on that path charges the bit-identical
tally.  The aggregate over an array is the exact integer sum

    total = sum over paths of (path_tally * path_count)

with no sampling and no floating-point scaling, and the per-element slots
array falls out of the same classification for free.

When a method (or a custom kernel) cannot classify, :func:`batch_tally`
falls back to an element-by-element scalar loop that reuses a single
:class:`~repro.isa.CycleCounter` — same results, no speedup.  The
differential harness in ``tests/batch/`` asserts bit-equality of the two
paths for every registered (function, method) pair.
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
    "enumerate_paths",
    "batch_tally",
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
    paths: List[CostPath]    # distinct paths, by first occurrence
    batched: bool            # False when the scalar fallback ran


def enumerate_paths(method, xs: np.ndarray,
                    keys: np.ndarray) -> List[CostPath]:
    """Trace one representative per distinct key; return the path list."""
    uniq, first, counts = np.unique(keys, return_index=True,
                                    return_counts=True)
    ctx = CycleCounter(method.costs)
    paths = []
    for key, idx, count in zip(uniq, first, counts):
        rep = float(xs[idx])
        method.evaluate(ctx, rep)
        paths.append(CostPath(key=int(key), representative=rep,
                              count=int(count), tally=ctx.reset()))
    return paths


def scalar_tally(method, xs: np.ndarray) -> BatchResult:
    """Element-by-element traced fallback (one reused CycleCounter)."""
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
    return BatchResult(n=int(xs.size), tally=total, slots=slots,
                       paths=[], batched=False)


def batch_tally(method, xs: np.ndarray,
                tally_cache: Optional[Dict[int, Tally]] = None) -> BatchResult:
    """Exact aggregate tally of ``method.evaluate`` over ``xs``.

    Classifies the array into cost paths, scalar-traces one representative
    per path, and sums ``path_tally * path_count`` — bit-identical to
    tracing every element, at a cost proportional to the number of distinct
    paths (typically < 10) instead of the array length.  An unclassifiable
    method runs the scalar loop instead (:func:`scalar_tally` forces it).

    This is the reference engine — launches go through the launch
    evaluator (:mod:`repro.batch.vec`), which aggregates through the same
    :func:`tally_from_keys`.  ``tally_cache`` maps path key -> traced
    Tally across calls: equal key implies a bit-identical tally — the
    invariant the batch differential harness enforces — so cache hits skip
    scalar tracing entirely without changing any reported number.
    """
    xs = np.asarray(xs, dtype=_F32).ravel()
    if xs.size == 0:
        # An empty batch is a valid boundary case (sharded dispatch splits,
        # coalesced serving batches): zero elements, zero cost, no paths.
        return BatchResult(n=0, tally=Tally(),
                           slots=np.empty(0, dtype=np.int64),
                           paths=[], batched=True)
    keys = method.classify_paths(xs)
    if keys is None:
        return scalar_tally(method, xs)
    return tally_from_keys(method, xs, keys, tally_cache=tally_cache)


def tally_from_keys(method, xs: np.ndarray, keys: np.ndarray,
                    tally_cache: Optional[Dict[int, Tally]] = None,
                    unique: Optional[tuple] = None) -> BatchResult:
    """The engine's back half: a BatchResult from precomputed path keys.

    Split out of :func:`batch_tally` so the launch evaluator
    (:mod:`repro.batch.vec`) aggregates its keys through the exact same
    code path — bit-identity with the traced engine by construction.
    ``unique`` optionally carries a precomputed
    ``np.unique(keys, return_index/inverse/counts)`` tuple so memoized
    launches skip the sort as well.
    """
    if unique is None:
        unique = np.unique(keys, return_index=True, return_inverse=True,
                           return_counts=True)
    uniq, first, inverse, counts = unique

    ctx = CycleCounter(method.costs)
    total = Tally()
    paths: List[CostPath] = []
    path_slots = np.empty(uniq.size, dtype=np.int64)
    traced = 0
    for j, (key, count) in enumerate(zip(uniq, counts)):
        rep = float(xs[first[j]])
        tally = None if tally_cache is None else tally_cache.get(int(key))
        if tally is None:
            method.evaluate(ctx, rep)
            tally = ctx.reset()
            traced += 1
            if tally_cache is not None:
                tally_cache[int(key)] = tally
                _metrics.inc("batch.tally_cache.misses")
        else:
            _metrics.inc("batch.tally_cache.hits")
        path_slots[j] = tally.slots
        total.add(tally.scaled(int(count)))
        paths.append(CostPath(key=int(key), representative=rep,
                              count=int(count), tally=tally))
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
                       slots=path_slots[inverse], paths=paths, batched=True)
