"""Serving sessions: many kernels, one set of resident tables.

A production deployment (ROADMAP north star) installs a handful of
transcendental functions once and then serves a stream of launches against
them — different functions, different batch sizes, interleaved.
:class:`PlanSession` models that call stream: it owns a
:class:`~repro.pim.host.PIMRuntime` (whose per-core WRAM/MRAM the installed
tables genuinely share) and compiles through that runtime's
:class:`~repro.plan.cache.PlanCache`, so the first launch of each function
compiles its plan and every later launch — including sharded/overlapped
ones, and the runtime's own ``run`` calls — is PlanCache-warm.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Deque, Dict, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.core.method import Method
from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.obs.tracer import span as _span
from repro.pim.system import SystemRunResult

if TYPE_CHECKING:  # imported lazily at runtime (host imports this package)
    from repro.pim.host import InstalledFunction, PIMRuntime
from repro.plan.dispatch import (ShardedRunResult, execute_sharded,
                                 shard_ranges, shard_split)
from repro.plan.plan import LaunchConfig
from repro.plan.schedule import PipelineSchedule, StageItem, schedule_pipeline

__all__ = ["PlanSession", "LaunchRecord", "StreamResult"]

_F32 = np.float32

#: Launch records a session keeps: the most recent ones, so a long-lived
#: server's history stays bounded.  Totals come from the running stats.
_HISTORY = 1024


@dataclass
class LaunchRecord:
    """One completed launch in a session's stream."""

    function: str
    n_elements: int
    shards: int
    overlap: bool
    simulated_seconds: float


@dataclass
class StreamResult:
    """A pipelined multi-launch stream's timeline and per-launch results.

    ``results`` holds each launch's own result (``SystemRunResult`` or
    ``ShardedRunResult``) exactly as a lone :meth:`PlanSession.launch`
    would have returned it; ``schedule`` is the interleaved
    h2p/kernel/p2h timeline of every (launch, shard) stage on the shared
    host links and DPU groups.
    """

    records: List[LaunchRecord]
    results: List[Union[SystemRunResult, ShardedRunResult]]
    schedule: PipelineSchedule

    @property
    def pipelined_seconds(self) -> float:
        """Simulated stream makespan with stages interleaved."""
        return self.schedule.makespan

    @property
    def serial_seconds(self) -> float:
        """What the same launches cost issued strictly back to back."""
        return self.schedule.serial_seconds

    @property
    def saving_seconds(self) -> float:
        """Simulated time the pipelining hides."""
        return self.schedule.saving_seconds


@dataclass
class _FunctionStats:
    launches: int = 0
    elements: int = 0
    simulated_seconds: float = 0.0


class PlanSession:
    """A multi-kernel call stream over one runtime's resident tables."""

    def __init__(self, runtime: Optional["PIMRuntime"] = None,
                 config: LaunchConfig = LaunchConfig()):
        from repro.pim.host import PIMRuntime

        self.runtime = runtime if runtime is not None else PIMRuntime()
        #: The runtime's plan cache: one compiled plan and one table image
        #: per installed function, whichever of the two launches it.
        self.plans = self.runtime.plan_cache
        #: The launch configuration every plan of this session compiles
        #: under.
        self.config = config
        #: The most recent launches, oldest first (at most ``_HISTORY``).
        self.launches: Deque[LaunchRecord] = deque(maxlen=_HISTORY)
        self._stats: Dict[str, _FunctionStats] = {}
        #: Every launch of the session, summed in launch order.
        self._total = _FunctionStats()

    # ------------------------------------------------------------------

    def install(self, method: Method) -> InstalledFunction:
        """Install a function (tables built and placed in every core)."""
        return self.runtime.install(method)

    @property
    def functions(self) -> List[str]:
        return self.runtime.functions

    def launch(
        self,
        name: str,
        inputs,
        *,
        shards: int = 1,
        overlap: bool = False,
        virtual_n: Optional[int] = None,
        pool=None,
        rank_aligned: bool = False,
    ) -> Union[SystemRunResult, ShardedRunResult]:
        """Launch installed function ``name`` over ``inputs``.

        ``shards``/``overlap`` route through the sharded dispatcher;
        plans (and their path-tally caches) persist across launches, so a
        steady-state stream never re-traces or rebuilds anything.
        ``pool`` (a caller-owned :class:`~repro.plan.pool.ShardPool`) runs
        the shards on its warm worker processes with bit-identical
        results.  ``rank_aligned`` splits shards along the system
        topology's rank boundaries (see
        :func:`~repro.plan.dispatch.execute_sharded`).
        """
        plan = self.plans.plan(self.runtime.system,
                               self.runtime[name].method, self.config)
        return self.execute_plan(
            name, plan, inputs, shards=shards, overlap=overlap,
            virtual_n=virtual_n, pool=pool, rank_aligned=rank_aligned,
        )

    def execute_plan(
        self,
        label: str,
        plan,
        inputs,
        *,
        shards: int = 1,
        overlap: bool = False,
        virtual_n: Optional[int] = None,
        pool=None,
        rank_aligned: bool = False,
    ) -> Union[SystemRunResult, ShardedRunResult]:
        """Execute an already-compiled plan under this session's accounting.

        The dispatch half of :meth:`launch`, exposed so callers that obtain
        plans elsewhere — the serving front end compiles through its
        single-flight path before dispatching coalesced batches here — still
        land in the session's launch records, per-function stats, and
        ``session.*`` metrics.  ``label`` names the launch in those records.
        """
        with _span("session.launch", function=label, shards=shards) as sp:
            if shards > 1:
                result = execute_sharded(
                    plan, inputs, n_shards=shards, overlap=overlap,
                    virtual_n=virtual_n, pool=pool, rank_aligned=rank_aligned,
                )
            else:
                result = plan.execute(
                    np.asarray(inputs, dtype=_F32), virtual_n=virtual_n)
            sp.set(sim_seconds=result.total_seconds,
                   n_elements=result.n_elements)
        self._record(label, result, shards, overlap)
        return result

    def _record(self, name: str, result, shards: int,
                overlap: bool) -> LaunchRecord:
        record = LaunchRecord(
            function=name, n_elements=result.n_elements, shards=shards,
            overlap=overlap, simulated_seconds=result.total_seconds,
        )
        self.launches.append(record)
        for stats in (self._stats.setdefault(name, _FunctionStats()),
                      self._total):
            stats.launches += 1
            stats.elements += result.n_elements
            stats.simulated_seconds += result.total_seconds
        _metrics.inc("session.launches")
        _metrics.inc("session.elements", result.n_elements)
        return record

    def launch_stream(
        self,
        requests: Sequence[Tuple[str, Sequence[float]]],
        *,
        shards: int = 1,
        virtual_n: Optional[int] = None,
        rank_aligned: bool = False,
    ) -> StreamResult:
        """Run a stream of launches as one interleaved pipeline.

        ``requests`` is a sequence of ``(function_name, inputs)`` pairs.
        Each launch still runs exactly as :meth:`launch` would (same
        results, same records), but the stream's timeline interleaves the
        h2p/kernel/p2h stages of *every* launch — and, with ``shards >
        1``, of every shard of every launch — on the shared host links
        and DPU groups via :func:`~repro.plan.schedule.schedule_pipeline`:
        launch ``j+1``'s scatter overlaps launch ``j``'s kernel, kernels
        of overlapping DPU ranges serialize, gathers drain FIFO.  Every
        shard runs inline.
        """
        requests = list(requests)
        if not requests:
            raise SimulationError("cannot pipeline an empty launch stream")
        system = self.runtime.system
        if shards > 1:
            if rank_aligned:
                # The dispatcher's rank-aligned DPU groups are input-size
                # independent, so the stream's stage ranges match every
                # launch's shard ranges exactly.
                ranges = system.config.topology.split_ranks(shards)
            else:
                ranges = shard_ranges(
                    shard_split(shards, system.config.n_dpus, shards))
        else:
            ranges = [None]  # whole system: every kernel stage conflicts
        results: List[Union[SystemRunResult, ShardedRunResult]] = []
        records: List[LaunchRecord] = []
        items: List[StageItem] = []
        with _span("session.stream", launches=len(requests),
                   shards=shards) as sp:
            for j, (name, inputs) in enumerate(requests):
                plan = self.plans.plan(
                    system, self.runtime[name].method, self.config)
                if shards > 1:
                    result = execute_sharded(
                        plan, inputs, n_shards=shards, overlap=False,
                        virtual_n=virtual_n, rank_aligned=rank_aligned,
                    )
                    for k, shard in enumerate(result.shards):
                        r = shard.result
                        items.append(StageItem(
                            key=f"{j}:{name}:{k}",
                            h2p=r.host_to_pim_seconds,
                            launch=r.launch_seconds,
                            kernel=r.kernel_seconds,
                            p2h=r.pim_to_host_seconds,
                            dpu_range=ranges[k],
                        ))
                else:
                    result = plan.execute(
                        np.asarray(inputs, dtype=_F32), virtual_n=virtual_n)
                    items.append(StageItem(
                        key=f"{j}:{name}",
                        h2p=result.host_to_pim_seconds,
                        launch=result.launch_seconds,
                        kernel=result.kernel_seconds,
                        p2h=result.pim_to_host_seconds,
                        dpu_range=None,
                    ))
                results.append(result)
                records.append(
                    self._record(name, result, shards, overlap=False))
            schedule = schedule_pipeline(items)
            sp.set(sim_seconds=schedule.makespan,
                   serial_seconds=schedule.serial_seconds,
                   saving_seconds=schedule.saving_seconds)
        _metrics.inc("session.streams")
        _metrics.observe("session.stream_saving_seconds",
                         schedule.saving_seconds)
        return StreamResult(records=records, results=results,
                            schedule=schedule)

    # ------------------------------------------------------------------

    @property
    def total_simulated_seconds(self) -> float:
        return self._total.simulated_seconds

    def summary(self) -> str:
        """Per-function launch statistics for the whole session."""
        from repro.analysis.report import format_table

        rows = [
            (name, s.launches, s.elements, f"{s.simulated_seconds:.6f}")
            for name, s in sorted(self._stats.items())
        ]
        cache = self.plans.stats()
        return (
            f"plan session: {self._total.launches} launches, "
            f"{self.total_simulated_seconds:.6f} s simulated, "
            f"{cache['hits']}/{cache['hits'] + cache['misses']} "
            "plan-cache hits\n"
            + format_table(["function", "launches", "elements", "sim_s"],
                           rows)
        )
