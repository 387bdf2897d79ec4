"""Host runtime: install TransPimLib functions into a PIM system and call them.

This is the deployment-shaped API a downstream user works with: a
:class:`PIMRuntime` owns a simulated system, `install()` performs the
host-side setup (table generation, memory placement in every core's WRAM or
MRAM, transfer-time accounting), and the returned
:class:`InstalledFunction` evaluates arrays bit-exactly while exposing the
simulated execution time of whole-system runs.

Example::

    from repro.pim.host import PIMRuntime
    from repro import make_method

    rt = PIMRuntime()
    sin = rt.install(make_method("sin", "llut_i", density_log2=12,
                                 assume_in_range=False))
    y = sin(x)                      # values
    t = sin.run(x).total_seconds    # simulated whole-system time
    print(rt.memory_report())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.report import format_table
from repro.core.method import Method
from repro.core.setup_model import DEFAULT_SETUP_MODEL, SetupTimeModel
from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs.tracer import span as _span
from repro.pim.system import PIMSystem

__all__ = ["PIMRuntime", "InstalledFunction"]


@dataclass
class InstalledFunction:
    """A method set up and resident in every PIM core of a runtime."""

    method: Method
    runtime: "PIMRuntime"
    setup_seconds: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate values (bit-exact float32 path)."""
        return self.method.evaluate_vec(np.asarray(x, dtype=np.float32))

    def run(self, x: np.ndarray, tasklets: int = 16,
            virtual_n: Optional[int] = None, shards: int = 1,
            overlap: bool = False, workers: Optional[int] = None,
            pool=None, start_method: Optional[str] = None,
            timeout: Optional[float] = None):
        """Simulate a whole-system evaluation over ``x``.

        Launches go through the runtime's plan cache, so repeated calls are
        PlanCache-warm (no table rebuild, no re-tracing of seen cost paths)
        yet return numbers bit-identical to ``PIMSystem.run``.
        ``shards``/``overlap`` dispatch across disjoint DPU groups and
        return a :class:`~repro.plan.dispatch.ShardedRunResult` instead;
        ``workers``/``pool`` run those shards on a multiprocess pool
        (:mod:`repro.plan.pool`) with bit-identical results.
        """
        from repro.plan.plan import LaunchConfig

        with _span("host.run", function=self.name) as sp:
            plan = self.runtime.plan(self.name,
                                     LaunchConfig(tasklets=tasklets))
            x = np.asarray(x, dtype=np.float32)
            if shards > 1:
                from repro.plan.dispatch import execute_sharded
                result = execute_sharded(plan, x, n_shards=shards,
                                         overlap=overlap,
                                         virtual_n=virtual_n,
                                         workers=workers, pool=pool,
                                         start_method=start_method,
                                         timeout=timeout)
            else:
                result = plan.execute(x, virtual_n=virtual_n,
                                      span_name="system.run")
            sp.set(sim_seconds=result.total_seconds,
                   n_elements=result.n_elements)
        return result

    @property
    def name(self) -> str:
        return f"{self.method.method_name}:{self.method.spec.name}"

    @property
    def table_bytes(self) -> int:
        return self.method.table_bytes()


class PIMRuntime:
    """Owns a PIM system and the functions installed into its cores."""

    def __init__(self, system: Optional[PIMSystem] = None,
                 setup_model: SetupTimeModel = DEFAULT_SETUP_MODEL):
        self.system = system or PIMSystem()
        self.setup_model = setup_model
        self._installed: Dict[str, InstalledFunction] = {}
        self._plans = None  # lazily-created PlanCache

    def install(self, method: Method) -> InstalledFunction:
        """Set up ``method`` and place its tables in the cores' memory.

        Raises :class:`~repro.errors.MemoryLayoutError` when the tables no
        longer fit the chosen region (every installed function shares the
        per-core WRAM/MRAM with everything installed before it).
        """
        # Validate the name before touching the cores: a rejected install
        # must not leave tables allocated in every core's region (or bump
        # the memory gauges) for a function the runtime refuses to own.
        name = f"{method.method_name}:{method.spec.name}"
        if name in self._installed:
            raise ConfigurationError(
                f"{name} is already installed in this runtime"
            )
        region = (self.system.dpu.wram if method.placement == "wram"
                  else self.system.dpu.mram)
        with _span("host.install", method=name) as sp:
            with _span("table_build") as build_sp:
                method.setup(region)
                build_sp.set(table_bytes=method.table_bytes(),
                             entries=method.host_entries())
            fn = InstalledFunction(
                method=method,
                runtime=self,
                setup_seconds=self.setup_model.seconds(
                    method.host_entries(), method.table_bytes()
                ),
            )
            sp.set(sim_seconds=fn.setup_seconds, placement=method.placement)
            _metrics.inc(f"memory.{region.name.lower()}_bytes",
                         method.table_bytes())
        self._installed[fn.name] = fn
        return fn

    @property
    def plan_cache(self):
        """The runtime's PlanCache (created on first use)."""
        if self._plans is None:
            from repro.plan.cache import PlanCache
            self._plans = PlanCache()
        return self._plans

    def plan(self, name: str, config=None):
        """Compiled :class:`~repro.plan.plan.ExecutionPlan` for an
        installed function under ``config`` (a
        :class:`~repro.plan.plan.LaunchConfig`, default when omitted),
        cached across calls."""
        from repro.plan.plan import LaunchConfig

        return self.plan_cache.plan(
            self.system, self[name].method,
            config if config is not None else LaunchConfig())

    def __getitem__(self, name: str) -> InstalledFunction:
        try:
            return self._installed[name]
        except KeyError:
            installed = ", ".join(sorted(self._installed)) or "(none)"
            raise ConfigurationError(
                f"{name!r} is not installed; installed: {installed}"
            ) from None

    @property
    def functions(self) -> List[str]:
        return sorted(self._installed)

    @property
    def total_setup_seconds(self) -> float:
        return sum(f.setup_seconds for f in self._installed.values())

    def memory_report(self) -> str:
        """Per-core memory usage of everything installed so far."""
        dpu = self.system.dpu
        rows = []
        for region in (dpu.wram, dpu.mram):
            for alloc in region.allocations:
                rows.append((region.name, alloc.label, alloc.nbytes))
            rows.append((region.name, "(free)", region.free_bytes))
        return ("PIM core memory layout\n"
                + format_table(["region", "allocation", "bytes"], rows))
