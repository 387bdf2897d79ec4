"""Seeded inputs for every workload, generated by the benchmark itself.

The program receives only arrays.  Each workload draws them from
``numpy.random.default_rng`` seeded with the workload seed, before timing
starts, so one seed always gives the same inputs.

Requests take their values as slices at random offsets of a large
per-domain pool.  Two requests therefore never carry the same array, so
no digest-keyed memo in the program can answer one request from another,
yet no time is spent drawing random numbers while the clock runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = ["Kernel", "SERVE_MIX", "POOL_KERNELS", "SIN_RANGE",
           "RequestStream", "draw_stream", "domain_pools", "sine_inputs"]

_F32 = np.float32

#: The sine sweep's input range: ``[0, 2*pi)``, the natural range of sin.
SIN_RANGE = (0.0, 2.0 * math.pi)


@dataclass(frozen=True)
class Kernel:
    """One served kernel: function, method, traffic weight, input domain."""

    function: str
    method: str
    weight: float
    domain: Tuple[float, float]

    @property
    def label(self) -> str:
        return f"{self.method}:{self.function}"


#: The six-kernel serving mix, weighted 3:2:2:2:1:1.  Default precision
#: knobs; inputs span each function's benchmark domain, so range reduction
#: runs as it would for a caller that has not pre-reduced its data.
SERVE_MIX: Tuple[Kernel, ...] = (
    Kernel("sin", "llut_i", 3.0, SIN_RANGE),
    Kernel("sin", "llut_fx", 2.0, SIN_RANGE),
    Kernel("tanh", "dlut", 2.0, (-8.0, 8.0)),
    Kernel("gelu", "dlut_i", 2.0, (-8.0, 8.0)),
    Kernel("sin", "cordic", 1.0, SIN_RANGE),
    Kernel("exp", "slut_i", 1.0, (-10.0, 10.0)),
)

#: The four kernels installed for the pooled sharding workload: the CORDIC
#: methods, the compute-heavy end of the paper's methods, so a launch's time
#: is set by the workers' compute rather than by shipping its inputs (with
#: LUT kernels the transfer took half to two thirds of a launch, and its cost
#: moved by 2-3x between minutes on the VM the benchmark was written on).
POOL_KERNELS: Tuple[Kernel, ...] = (
    Kernel("sin", "cordic", 1.0, SIN_RANGE),
    Kernel("tanh", "cordic", 1.0, (-8.0, 8.0)),
    Kernel("exp", "cordic", 1.0, (-10.0, 10.0)),
    Kernel("sin", "cordic_lut", 1.0, SIN_RANGE),
)


def sine_inputs(seed: int, n: int = 1 << 16) -> np.ndarray:
    """The sweep's inputs: ``n`` uniform float32 draws over ``SIN_RANGE``.

    Seed 7 gives the array ``repro.analysis.sweep.default_inputs("sin")``
    returns, from which the committed Figure 5 artifacts were made.
    """
    lo, hi = SIN_RANGE
    return np.random.default_rng(seed).uniform(lo, hi, n).astype(_F32)


def domain_pools(rng: np.random.Generator, kernels, size: int
                 ) -> Dict[Tuple[float, float], np.ndarray]:
    """One read-only uniform float32 pool of ``size`` values per domain."""
    pools: Dict[Tuple[float, float], np.ndarray] = {}
    for k in kernels:
        if k.domain not in pools:
            lo, hi = k.domain
            pool = rng.uniform(lo, hi, size).astype(_F32)
            pool.flags.writeable = False
            pools[k.domain] = pool
    return pools


@dataclass
class RequestStream:
    """The i-th request's kernel index, element count and pool offset."""

    kernel: np.ndarray
    size: np.ndarray
    offset: np.ndarray

    def __len__(self) -> int:
        return int(self.kernel.size)


def draw_stream(rng: np.random.Generator, kernels, length: int,
                size_range: Tuple[int, int], log_sizes: bool,
                pool_size: int) -> RequestStream:
    """``length`` requests over ``kernels`` by weight.

    Sizes are uniform integers over ``size_range`` (inclusive), or
    log-uniform over it when ``log_sizes`` is set.
    """
    weights = np.array([k.weight for k in kernels], dtype=float)
    kernel = rng.choice(len(kernels), size=length, p=weights / weights.sum())
    lo, hi = size_range
    if log_sizes:
        size = np.exp(rng.uniform(math.log(lo), math.log(hi + 1), length))
        size = np.minimum(size.astype(np.int64), hi)
    else:
        size = rng.integers(lo, hi + 1, length)
    offset = rng.integers(0, pool_size - size)
    return RequestStream(kernel=kernel.astype(np.int8),
                         size=size.astype(np.int32),
                         offset=offset.astype(np.int32))
