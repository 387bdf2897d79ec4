"""Batched traced-execution engine (see :mod:`repro.batch.engine`) and
the memoized launch evaluator layered on it (:mod:`repro.batch.vec`)."""

from repro.batch.engine import (
    BatchResult,
    CostPath,
    batch_tally,
    enumerate_paths,
    scalar_tally,
    tally_from_keys,
)
from repro.batch.vec import VecEvaluator, VecResult, array_digest

__all__ = [
    "BatchResult",
    "CostPath",
    "VecEvaluator",
    "VecResult",
    "array_digest",
    "batch_tally",
    "enumerate_paths",
    "scalar_tally",
    "tally_from_keys",
]
