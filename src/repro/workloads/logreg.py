"""Logistic-regression inference on PIM (extension beyond the paper's three
workloads, directly from its motivation).

Section 1 motivates TransPimLib with sigmoid's role in logistic regression.
This workload runs the full inference pipeline on the simulated PIM system:
per sample a ``d``-feature dot product (native multiply-accumulate work the
PIM core does anyway) followed by one sigmoid — measuring how much of the
end-to-end time the transcendental actually costs, and how the Figure 1(b)
deployment (ship logits to the host for the sigmoid) compares with the
Figure 1(c) one (TransPimLib on the PIM core).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api import make_method
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.pim.system import PIMSystem, SystemRunResult
from repro.workloads import polynomial as poly

__all__ = ["VARIANTS", "LogisticRegression", "generate_dataset",
           "reference_probabilities", "LogRegRunResult"]

_F32 = np.float32

VARIANTS = ("poly", "llut_i", "host_sigmoid")


def generate_dataset(n_samples: int, n_features: int = 16,
                     seed: int = 2023):
    """Synthetic feature matrix and a trained-looking weight vector."""
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1.0, (n_samples, n_features)).astype(_F32)
    weights = rng.normal(0.0, n_features ** -0.5, n_features).astype(_F32)
    bias = _F32(rng.normal(0.0, 0.1))
    return features, weights, bias


def reference_probabilities(features, weights, bias) -> np.ndarray:
    """Float64 ground-truth class probabilities."""
    logits = features.astype(np.float64) @ weights.astype(np.float64) + float(bias)
    return 1.0 / (1.0 + np.exp(-logits))


#: Host-side scalar sigmoid cost per element (single thread), used for the
#: Figure 1(b) deployment where logits are shipped to the CPU.
HOST_SIGMOID_SEC_1T = 30e-9
_HOST_THREADS = 32
_HOST_EFFICIENCY = 0.85


@dataclass
class LogRegRunResult:
    """Timing of PIM inference, with the sigmoid's share broken out."""

    run: SystemRunResult
    sigmoid_slots: float
    dot_slots: float
    #: Extra transfer time the Figure 1(b) host-sigmoid deployment pays.
    host_roundtrip_seconds: float
    #: Host CPU time spent applying the sigmoid in that deployment.
    host_compute_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (self.run.total_seconds + self.host_roundtrip_seconds
                + self.host_compute_seconds)

    @property
    def sigmoid_share(self) -> float:
        total = self.sigmoid_slots + self.dot_slots
        return self.sigmoid_slots / total if total else 0.0


class LogisticRegression:
    """Logistic-regression inference with a configurable sigmoid backend."""

    def __init__(self, variant: str = "llut_i", n_features: int = 16,
                 costs: OpCosts = UPMEM_COSTS):
        if variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown LogisticRegression variant {variant!r}; "
                f"options: {VARIANTS}"
            )
        self.variant = variant
        self.n_features = n_features
        self.costs = costs
        self._weights: Optional[np.ndarray] = None
        self._bias = _F32(0.0)
        self._method = None
        self._ready = False

    def setup(self, weights: np.ndarray, bias: float) -> "LogisticRegression":
        """Install the trained model and build the sigmoid backend."""
        if weights.shape != (self.n_features,):
            raise ConfigurationError(
                f"weights must have shape ({self.n_features},)"
            )
        self._weights = weights.astype(_F32)
        self._bias = _F32(bias)
        if self.variant == "llut_i":
            self._method = make_method(
                "sigmoid", "llut_i", density_log2=12,
                assume_in_range=False, costs=self.costs,
            ).setup()
        self._ready = True
        return self

    def _require_ready(self) -> None:
        if not self._ready:
            raise ConfigurationError("call setup() before running")

    # ------------------------------------------------------------------
    # traced kernel

    def _dot(self, ctx: CycleCounter, row) -> np.float32:
        acc = self._bias
        for j in range(self.n_features):
            prod = ctx.fmul(_F32(row[j]), self._weights[j])
            acc = ctx.fadd(acc, prod)
        return acc

    def kernel(self, ctx: CycleCounter, row) -> np.float32:
        """One sample: dot product + sigmoid (unless host-deployed)."""
        self._require_ready()
        logit = self._dot(ctx, row)
        if self.variant == "host_sigmoid":
            return logit  # Figure 1(b): the host applies the sigmoid
        if self.variant == "poly":
            return poly.poly_sigmoid(ctx, logit)
        return self._method.evaluate(ctx, logit)  # direct sigmoid table

    # ------------------------------------------------------------------
    # vectorized accuracy twin

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        """Vectorized class probabilities for the feature matrix."""
        self._require_ready()
        logits = (features.astype(_F32) @ self._weights
                  + self._bias).astype(_F32)
        if self.variant == "host_sigmoid":
            # The host computes in double precision.
            return (1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
                    ).astype(_F32)
        if self.variant == "poly":
            return poly.poly_sigmoid_vec(logits)
        return self._method.evaluate_vec(logits)

    # ------------------------------------------------------------------

    def run(
        self,
        features: np.ndarray,
        system: PIMSystem,
        tasklets: int = 16,
        virtual_n: Optional[int] = None,
        shards: int = 1,
        overlap: bool = False,
    ) -> LogRegRunResult:
        """Simulate whole-system inference over the feature matrix.

        ``shards > 1`` dispatches across disjoint DPU groups (optionally
        ``overlap``-ped); the wrapped ``run`` is then a
        :class:`~repro.plan.dispatch.ShardedRunResult`.
        """
        self._require_ready()
        bytes_in = self.n_features * 4
        res = system.run(
            self.kernel, features, tasklets=tasklets, sample_size=24,
            bytes_in_per_element=bytes_in, bytes_out_per_element=4,
            virtual_n=virtual_n, shards=shards, overlap=overlap,
        )

        # Split the per-element slots into dot-product vs sigmoid work.
        ctx = CycleCounter(self.costs)
        self._dot(ctx, features[0])
        dot_slots = ctx.reset().slots
        sigmoid_slots = max(
            0.0, res.per_dpu.per_element_tally.slots - dot_slots
        )

        # Figure 1(b) deployment: logits leave the PIM, host computes the
        # sigmoid, probabilities may flow back for downstream PIM stages.
        n = virtual_n if virtual_n is not None else features.shape[0]
        if self.variant == "host_sigmoid":
            roundtrip = (system.config.pim_to_host_seconds(n * 4)
                         + system.config.host_to_pim_seconds(n * 4))
            host_compute = (n * HOST_SIGMOID_SEC_1T
                            / (_HOST_THREADS * _HOST_EFFICIENCY))
        else:
            roundtrip = 0.0
            host_compute = 0.0
        return LogRegRunResult(
            run=res,
            sigmoid_slots=sigmoid_slots,
            dot_slots=dot_slots,
            host_roundtrip_seconds=roundtrip,
            host_compute_seconds=host_compute,
        )
