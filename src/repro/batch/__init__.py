"""Traced cost aggregation (see :mod:`repro.batch.engine`) and the
memoized launch evaluator built on it (:mod:`repro.batch.vec`)."""

from repro.batch.engine import (
    BatchResult,
    CostPath,
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
    "scalar_tally",
    "tally_from_keys",
]
