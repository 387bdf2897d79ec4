"""The launch evaluator: one keyed array pass, memoized, then tallied.

A plan launch needs the float32 values of its sampled inputs and their
exact traced cost aggregate.  Both come from one call of
``Method.array_pass(xs, keys=True)``: the method's own range reduction and
address generation yield the values and every element's cost-path key
together, and :func:`~repro.batch.engine.tally_from_keys` turns the keys
into the aggregate with one scalar trace per distinct path.
``Method.evaluate_vec`` and ``Method.classify_paths`` are views of that
same pass, so the values and keys here equal theirs by construction.

A :class:`VecEvaluator` adds the digest memo around the pass: the
``(values, keys, unique)`` triple is cached by input digest, so a table
image launched again over the same sample (its WRAM and MRAM plans draw
identical samples) pays the array pass once.  Where the pass abstains (a
``None`` key), :meth:`VecEvaluator.run` returns ``None`` and the launch
traces every element in the scalar loop
(:meth:`~repro.pim.dpu.DPU.run_kernel`).

Evaluators ship with plans to worker pools; pickling drops the memo
(``__getstate__``), and workers rebuild their own locality.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.batch.engine import BatchResult, tally_from_keys
from repro.isa.counter import Tally
from repro.obs import metrics as _metrics

__all__ = ["VecResult", "VecEvaluator", "array_digest"]

_F32 = np.float32

#: Memoized launch passes per evaluator (least recently used go first).
_LAUNCH_MEMO_SIZE = 8


def array_digest(xs: np.ndarray) -> bytes:
    """Content digest of an array's raw buffer: the one input hash.

    Every memo keyed by array content (the evaluator's launch passes, the
    plan's launch results, the sweep's accuracy pass) hashes through
    here.  sha256 rather than blake2b: it is typically hardware-accelerated
    (SHA CPU extensions), which makes it the faster of the two on large
    buffers.  The digest covers bytes only, so callers that accept several
    shapes add the shape to their key.
    """
    return hashlib.sha256(np.ascontiguousarray(xs)).digest()


@dataclass
class VecResult:
    """One launch evaluation: values plus the exact traced aggregate."""

    values: np.ndarray       # evaluate_vec-identical outputs
    batch: BatchResult       # the scalar trace's exact cost aggregate


class VecEvaluator:
    """The memoized launch pass of one built method.

    ``run`` returns values bit-identical to ``method.evaluate_vec`` and a
    :class:`~repro.batch.engine.BatchResult` bit-identical to tracing
    every element (:func:`~repro.batch.engine.scalar_tally`), or ``None``
    when the method abstains from path classification (callers fall back
    to the scalar loop).  The oracle harness (``tests/test_oracle.py``)
    holds both to ``Method.evaluate``.  The per-digest memo caches the
    placement-independent ``(values, keys, unique)`` triple; per-path
    tallies always go through the caller's ``tally_cache`` so
    placement-specific costs stay exact.
    """

    def __init__(self, method):
        self.method = method
        self._memo: OrderedDict = OrderedDict()
        _metrics.inc("batch.vec.compiles")

    def __getstate__(self):
        # The memo is pure locality, never semantics: drop it so pickled
        # plans stay small and workers build their own.
        return dict(vars(self), _memo=OrderedDict())

    def run(self, xs: np.ndarray,
            tally_cache: Optional[Dict[int, Tally]] = None
            ) -> Optional[VecResult]:
        """Values and cost aggregate of ``xs``; ``None`` means fall back."""
        m = self.method
        m._require_ready()
        xs = np.asarray(xs, dtype=_F32).ravel()
        if xs.size == 0:
            return VecResult(
                values=np.empty(0, dtype=_F32),
                batch=BatchResult(n=0, tally=Tally(),
                                  slots=np.empty(0, dtype=np.int64),
                                  paths=[]))
        entry = self._entry(xs)
        if entry is None:
            # Memoized abstain: repeated unclassifiable batches skip the
            # array pass and go straight to the scalar loop.
            return None
        values, keys, unique = entry
        batch = tally_from_keys(m, xs, keys, tally_cache=tally_cache,
                                unique=unique)
        _metrics.inc("batch.vec.runs")
        return VecResult(values=values, batch=batch)

    def _entry(self, xs: np.ndarray) -> Optional[tuple]:
        """Digest-memoized (values, keys, unique); None means abstain."""
        digest = array_digest(xs)
        if digest in self._memo:
            self._memo.move_to_end(digest)
            _metrics.inc("batch.vec.memo.hits")
            return self._memo[digest]
        _metrics.inc("batch.vec.memo.misses")
        values, keys = self.method.array_pass(xs, keys=True)
        entry = None
        if keys is not None:
            unique = np.unique(keys, return_index=True, return_inverse=True,
                               return_counts=True)
            values.flags.writeable = False   # memoized: guard cache integrity
            keys.flags.writeable = False
            entry = (values, keys, unique)
        self._memo[digest] = entry
        while len(self._memo) > _LAUNCH_MEMO_SIZE:
            self._memo.popitem(last=False)
        return entry
