"""Plan/execute split: compile-once ExecutionPlans and sharded dispatch.

The execution stack's host-side setup (table build, placement, classifier
binding, transfer schedule, SPMD split) compiles once into an
:class:`ExecutionPlan`; launches are then `execute(plan, inputs)` calls that
never rebuild or re-trace what a previous launch already paid for.

* :mod:`repro.plan.plan` — :class:`ExecutionPlan`, :class:`LaunchConfig`,
  :class:`TransferSchedule`, :func:`compile_plan`; ``PIMSystem.run`` is a
  bit-identical wrapper over these.
* :mod:`repro.plan.cache` — :class:`PlanCache`, the LRU keyed off
  :class:`PlanKey` (table key, placement, system, op costs and
  :class:`LaunchConfig`), with a placement-sharing built-table pool.
* :mod:`repro.plan.dispatch` — :func:`execute_sharded`: inputs split across
  disjoint DPU groups with per-shard imbalance and optional double-buffered
  (overlapped) host<->PIM transfers.
* :mod:`repro.plan.schedule` — :func:`schedule_pipeline`: the general
  h2p/kernel/p2h pipeline timeline over any stream of launches or shards.
* :mod:`repro.plan.pool` — :class:`ShardPool`: a caller-owned pool of warm
  worker processes that runs the shards of any launch passed it as
  ``pool=``, bit-identical to the inline path, with plans shipped once per
  pool through shared memory.
* :mod:`repro.plan.session` — :class:`PlanSession`: multi-kernel serving
  streams against one runtime's resident tables, pipelined via
  :meth:`PlanSession.launch_stream`.
"""

from repro.plan.cache import PlanCache, PlanKey, key_for, table_key
from repro.plan.dispatch import (
    ShardedRunResult,
    ShardResult,
    execute_sharded,
    shard_ranges,
    shard_split,
)
from repro.plan.plan import (ExecutionPlan, LaunchConfig, TransferSchedule,
                             compile_plan)
from repro.plan.pool import PlanShipment, ShardPool, ShardTask
from repro.plan.schedule import (
    PipelineSchedule,
    ScheduledItem,
    StageItem,
    schedule_pipeline,
)
from repro.plan.session import LaunchRecord, PlanSession, StreamResult

__all__ = [
    "ExecutionPlan", "LaunchConfig", "TransferSchedule", "compile_plan",
    "PlanCache", "PlanKey", "key_for", "table_key",
    "ShardResult", "ShardedRunResult", "shard_split", "shard_ranges",
    "execute_sharded",
    "StageItem", "ScheduledItem", "PipelineSchedule", "schedule_pipeline",
    "ShardPool", "PlanShipment", "ShardTask",
    "PlanSession", "LaunchRecord", "StreamResult",
]
