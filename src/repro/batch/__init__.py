"""Batched traced-execution engine (see :mod:`repro.batch.engine`) and
the array-compiled fused evaluators layered on it (:mod:`repro.batch.vec`)."""

from repro.batch.engine import (
    BatchResult,
    CostPath,
    batch_tally,
    enumerate_paths,
    scalar_tally,
    tally_from_keys,
)
from repro.batch.vec import VecEvaluator, VecResult, array_digest, compile_vec

__all__ = [
    "BatchResult",
    "CostPath",
    "VecEvaluator",
    "VecResult",
    "array_digest",
    "batch_tally",
    "compile_vec",
    "enumerate_paths",
    "scalar_tally",
    "tally_from_keys",
]
