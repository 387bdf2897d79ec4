"""Accuracy/performance parameter sweeps (the engine behind Figures 5-7).

For each (function, method, precision parameter) configuration the sweep
measures, exactly as the paper's microbenchmarks do (Section 4.1.1):

* RMSE / max error against the host libm over 2^16 uniform random inputs
  (vectorized float32 path — a genuine measurement, not a model);
* execution cycles per element on one PIM core with 16 tasklets, through the
  traced path and the pipeline model, including the streaming loop;
* modeled host setup time;
* PIM memory consumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import make_method
from repro.batch.vec import array_digest
from repro.core.accuracy import max_abs_error, rmse
from repro.core.functions.registry import get_function
from repro.core.setup_model import DEFAULT_SETUP_MODEL, SetupTimeModel
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.obs import metrics as _metrics
from repro.obs.tracer import span as _span
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.cache import PlanCache
from repro.plan.plan import LaunchConfig, compile_plan

__all__ = ["SweepPoint", "sweep_method", "SINE_SWEEPS", "default_inputs"]

_F32 = np.float32

#: Usable WRAM for tables after operand buffers and stack (of 64 KB total).
WRAM_TABLE_BUDGET = 48 * 1024


@dataclass(frozen=True)
class SweepPoint:
    """One measured configuration of one method."""

    function: str
    method: str
    placement: str
    param: str
    rmse: float
    max_error: float
    cycles_per_element: float
    setup_seconds: float
    table_bytes: int

    def row(self) -> tuple:
        """Cells for tabular reports."""
        return (
            self.method, self.placement, self.param, self.rmse,
            self.cycles_per_element, self.setup_seconds, self.table_bytes,
        )


def default_inputs(function: str, n: int = 1 << 16, seed: int = 7,
                   in_natural_range: bool = True) -> np.ndarray:
    """The paper's microbenchmark input array: 2^16 uniform random floats."""
    spec = get_function(function)
    lo, hi = spec.natural_range if in_natural_range else spec.bench_domain
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n).astype(_F32)


def sweep_method(
    function: str,
    method: str,
    param_name: str,
    param_values: Sequence[int],
    placement: str = "mram",
    assume_in_range: bool = True,
    inputs: Optional[np.ndarray] = None,
    tasklets: int = 16,
    sample_size: int = 32,
    costs: OpCosts = UPMEM_COSTS,
    setup_model: SetupTimeModel = DEFAULT_SETUP_MODEL,
    extra_params: Optional[Dict[str, int]] = None,
    plan_cache: Optional[PlanCache] = None,
) -> List[SweepPoint]:
    """Sweep one method's precision parameter and measure every point.

    A point whose table another placement can reuse compiles through a
    :class:`~repro.plan.cache.PlanCache` (``plan_cache`` when given, a
    sweep-local one otherwise).  Its method pool shares built tables
    across placements and calls: table contents are placement-independent,
    so a pool hit retargets the method with :meth:`Method.set_placement`
    instead of rebuilding.  Each image memoizes its accuracy as
    ``(rmse, max_error)``, keyed by the content of ``inputs``, so calls
    sharing one cache may pass different inputs.

    A table planned larger than :data:`WRAM_TABLE_BUDGET` serves only
    MRAM, since WRAM skips it before building it.  Its point compiles its
    own plan with :func:`~repro.plan.plan.compile_plan` and frees the
    table once measured, so a repeat MRAM call on the same cache rebuilds
    it.  A table whose size is known only after its build is pooled.
    """
    if inputs is None:
        inputs = default_inputs(function)
    reference = get_function(function).reference(inputs.astype(np.float64))
    errors_key = ("sweep_errors", array_digest(inputs), inputs.shape,
                  inputs.dtype.str)

    cache = plan_cache if plan_cache is not None else PlanCache(maxsize=256)
    # One representative core: sweeps measure per-element cycles, so the
    # rest of the system (DPU count, host links) never enters the numbers.
    system = PIMSystem(SystemConfig(n_dpus=1), costs)
    launch = LaunchConfig(tasklets=tasklets, sample_size=sample_size)

    def measure(value: int) -> Optional[SweepPoint]:
        # The point's method and plan live only in this frame, so a table
        # the cache does not hold is freed before the next point builds.
        params = dict(extra_params or {})
        params[param_name] = value
        with _span("sweep.point", function=function, method=method,
                   placement=placement,
                   param=f"{param_name}={value}") as point_sp:
            with _span("sweep.build"):
                m = make_method(
                    function, method,
                    placement=placement,
                    assume_in_range=assume_in_range,
                    costs=costs,
                    **params,
                )
                planned = m.planned_table_bytes()
                oversized = planned is not None and planned > WRAM_TABLE_BUDGET
                if placement == "wram" and oversized:
                    # known oversized before building: skip the build
                    _metrics.inc("sweep.skipped_oversized")
                    point_sp.set(skipped="oversized_wram")
                    return None
                # A table WRAM cannot hold serves this point alone, so it
                # gets its own plan.  Any other compiles through the pool
                # (hit: an equivalent built table — any placement — is
                # retargeted; miss: the table builds here).
                plan = compile_plan(system, m, launch) if oversized \
                    else cache.plan(system, m, launch)
                m = plan.method
            if placement == "wram" and plan.table_bytes > WRAM_TABLE_BUDGET:
                # the paper's WRAM curves stop where tables no longer fit
                _metrics.inc("sweep.skipped_oversized")
                point_sp.set(skipped="oversized_wram")
                return None
            errors = plan.memo.get(errors_key)
            if errors is None:
                with _span("sweep.rmse"):
                    approx = plan.values(inputs).astype(np.float64)
                errors = plan.memo[errors_key] = (
                    rmse(approx, reference), max_abs_error(approx, reference))
            result = plan.execute(inputs).per_dpu
            _metrics.inc("sweep.points")
            point_sp.set(cycles_per_element=result.cycles_per_element)
        return SweepPoint(
            function=function,
            method=method,
            placement=placement,
            param=f"{param_name}={value}",
            rmse=errors[0],
            max_error=errors[1],
            cycles_per_element=result.cycles_per_element,
            setup_seconds=setup_model.seconds(m.host_entries(), m.table_bytes()),
            table_bytes=m.table_bytes(),
        )

    points = (measure(value) for value in param_values)
    return [point for point in points if point is not None]


#: The Figure 5-7 sine sweep: every implementation method, float and fixed,
#: with the precision knob swept to span RMSE ~1e-4 .. ~1e-9.
SINE_SWEEPS: Dict[str, dict] = {
    "cordic": dict(param_name="iterations",
                   param_values=(8, 12, 16, 20, 24, 28, 32)),
    "cordic_lut": dict(param_name="iterations",
                       param_values=(12, 16, 20, 24, 28, 32),
                       extra_params={"lut_bits": 8}),
    "mlut": dict(param_name="size",
                 param_values=tuple((1 << k) for k in (12, 14, 16, 18, 20, 22))),
    "mlut_i": dict(param_name="size",
                   param_values=tuple((1 << k) + 1 for k in (5, 7, 9, 11, 13, 15))),
    "llut": dict(param_name="density_log2",
                 param_values=(10, 12, 14, 16, 18, 20, 22)),
    "llut_i": dict(param_name="density_log2",
                   param_values=(3, 5, 7, 9, 11, 13)),
    "llut_fx": dict(param_name="density_log2",
                    param_values=(10, 12, 14, 16, 18, 20, 22)),
    "llut_i_fx": dict(param_name="density_log2",
                      param_values=(3, 5, 7, 9, 11, 13)),
    "poly": dict(param_name="degree",
                 param_values=(6, 8, 10, 12, 14, 16)),
}


def sine_sweep(costs: OpCosts = UPMEM_COSTS) -> List[SweepPoint]:
    """Run the full Figure 5-7 sweep for the sine function."""
    inputs = default_inputs("sin")
    points: List[SweepPoint] = []
    cache = PlanCache(maxsize=256)
    for method, cfg in SINE_SWEEPS.items():
        for placement in ("mram", "wram"):
            points.extend(sweep_method(
                "sin", method, placement=placement, inputs=inputs,
                costs=costs, plan_cache=cache, **cfg,
            ))
    return points
