"""The full PIM system: many PIM cores plus host transfer links.

Workloads in the paper (Figure 9) run on 2545 PIM cores with 16 tasklets
each.  Work is distributed evenly across cores (SPMD), inputs are scattered
host->PIM, results gathered PIM->host, and the kernel time is the slowest
core's time — with even distribution, the representative core's time.

Execution is plan-based (:mod:`repro.plan`): :meth:`PIMSystem.run` compiles
a throwaway :class:`~repro.plan.plan.ExecutionPlan` per call and executes
it (the oracle harness, ``tests/test_oracle.py``, holds it to the same
launch of the raw scalar kernel).  Callers that launch repeatedly
should compile once via :meth:`PIMSystem.plan` or a
:class:`~repro.plan.cache.PlanCache` and call ``execute`` on the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.obs import metrics as _metrics
from repro.pim.config import SystemConfig, UPMEM_SYSTEM
from repro.pim.dpu import DPU, Kernel, KernelResult

__all__ = ["PIMSystem", "SystemRunResult"]


@dataclass
class SystemRunResult:
    """Timing breakdown for a whole-system kernel launch.

    The trailing fields echo the launch's configuration so traces and bench
    snapshots are self-describing: a persisted result names its straggler
    factor, virtual sizing, and transfer mode instead of losing them.
    """

    n_elements: int
    n_dpus_used: int
    tasklets: int
    kernel_seconds: float        # time on the (representative) slowest core
    host_to_pim_seconds: float   # scattering inputs
    pim_to_host_seconds: float   # gathering outputs
    launch_seconds: float        # fixed launch overhead
    per_dpu: KernelResult
    imbalance: float = 0.0           # straggler factor this run modeled
    virtual_n: Optional[int] = None  # requested virtual sizing (None: actual)
    include_transfers: bool = True   # False: Figure 1(c) resident operands
    balanced_transfers: bool = True  # False: serialized single-bank copies

    @property
    def total_seconds(self) -> float:
        return (
            self.kernel_seconds
            + self.host_to_pim_seconds
            + self.pim_to_host_seconds
            + self.launch_seconds
        )

    @property
    def compute_only_seconds(self) -> float:
        """Kernel time excluding transfers (the Figure 1(c) deployment)."""
        return self.kernel_seconds + self.launch_seconds


class PIMSystem:
    """A collection of identical PIM cores fed by a host processor."""

    def __init__(
        self,
        config: SystemConfig = UPMEM_SYSTEM,
        costs: OpCosts = UPMEM_COSTS,
    ):
        self.config = config
        self.costs = costs
        #: Representative core used for SPMD timing and table placement.
        self.dpu = DPU(config.dpu, costs)
        #: Shard sub-systems by DPU range or count (:meth:`shard_system`).
        self._shards: Dict[Union[int, Tuple[int, int]], "PIMSystem"] = {}

    def __getstate__(self):
        # Shard sub-systems are a cache: a shipped system rebuilds its own.
        return dict(vars(self), _shards={})

    def shard_system(self, n_dpus: int,
                     dpu_range: Optional[Tuple[int, int]] = None
                     ) -> "PIMSystem":
        """The sub-system one shard of a sharded launch runs on.

        With ``dpu_range`` (rank-aligned dispatch) it is the usable DPUs
        ``[start, stop)``, keeping their rank structure
        (:meth:`SystemConfig.subrange`); without, the first ``n_dpus``
        (``replace(config, n_dpus=n_dpus)``).  Each is built once per
        range and reused by every later launch, inline or in a pool
        worker, so no launch re-derives a topology.
        """
        key = dpu_range if dpu_range is not None else n_dpus
        sub = self._shards.get(key)
        if sub is None:
            config = self.config.subrange(*dpu_range) \
                if dpu_range is not None \
                else replace(self.config, n_dpus=n_dpus)
            sub = self._shards[key] = PIMSystem(config, self.costs)
        _metrics.inc("topology.subranges")
        return sub

    def elements_per_dpu(self, n_elements: int) -> int:
        """Even SPMD split, rounded up (the slowest core's share)."""
        return -(-n_elements // self.config.n_dpus)

    def plan(self, target, config=None):
        """Compile ``target`` (a Method or raw kernel) into a reusable plan.

        ``config`` is the plan's :class:`~repro.plan.plan.LaunchConfig`
        (the default one when omitted).
        """
        from repro.plan.plan import LaunchConfig, compile_plan
        return compile_plan(self, target,
                            config if config is not None else LaunchConfig())

    def run(
        self,
        kernel: Kernel,
        inputs: Sequence[float],
        tasklets: int = 16,
        sample_size: int = 64,
        bytes_in_per_element: int = 4,
        bytes_out_per_element: int = 4,
        include_transfers: bool = True,
        balanced_transfers: bool = True,
        imbalance: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        virtual_n: Optional[int] = None,
        shards: int = 1,
        overlap: bool = False,
    ):
        """Simulate a whole-system run of ``kernel`` over ``inputs``.

        ``include_transfers=False`` models the in-PIM-pipeline deployment of
        Figure 1(c), where operands already live in the PIM cores' banks.
        ``virtual_n`` treats ``inputs`` as a sample standing in for that many
        elements (e.g. the paper's 10M options traced from a 10k sample).
        ``balanced_transfers=False`` models unequal per-bank buffers, which
        the hardware cannot scatter/gather in parallel (Section 2.1) — they
        serialize at the single-bank bandwidth.  ``imbalance`` models uneven
        work distribution: the slowest core receives ``(1 + imbalance)``
        times the fair share, and the whole launch waits for it (SPMD
        barrier at the gather).

        ``shards > 1`` splits the run across that many disjoint DPU groups
        and returns a :class:`~repro.plan.dispatch.ShardedRunResult`;
        ``overlap=True`` double-buffers them (one shard's transfers overlap
        other shards' kernels).  With ``shards=1`` the result is a
        :class:`SystemRunResult`.

        This is sugar over the plan/execute split: the keywords build one
        :class:`~repro.plan.plan.LaunchConfig` and a throwaway plan is
        compiled and simulated per call (no launch memo — nothing would
        read it again).  Repeated launches should hold a plan
        (:meth:`plan` or a PlanCache) and ``execute`` it instead.
        """
        from repro.plan.dispatch import execute_sharded
        from repro.plan.plan import (ExecutionPlan, LaunchConfig,
                                     TransferSchedule)

        plan = ExecutionPlan(self, kernel, LaunchConfig(
            tasklets=tasklets, sample_size=sample_size,
            transfers=TransferSchedule(
                bytes_in_per_element=bytes_in_per_element,
                bytes_out_per_element=bytes_out_per_element,
                include_transfers=include_transfers,
                balanced=balanced_transfers,
            ),
            imbalance=imbalance,
        ))
        if shards > 1:
            return execute_sharded(plan, inputs, n_shards=shards,
                                   overlap=overlap, virtual_n=virtual_n,
                                   rng=rng)
        return plan.simulate(inputs, virtual_n=virtual_n, rng=rng,
                             span_name="system.run")
