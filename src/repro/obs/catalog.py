"""The declared metric namespace: every counter and gauge the code emits.

:mod:`repro.obs.metrics` creates metrics on first use, which keeps the
emit sites cheap but means a typo (``plancache.hit`` vs ``plancache.hits``)
silently splits a metric into two series that no dashboard ever joins.
This catalog is the contract the ``obs-contract`` lint pass enforces: every
``inc``/``observe`` call in the instrumented tree must name a metric
declared here with the matching kind, and every declaration must be
emitted somewhere — so the namespace below is, verifiably, the complete
observability surface.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["COUNTERS", "COUNTER_PATTERNS", "GAUGES", "metric_kind",
           "pattern_kind"]

#: Monotonic counters (emitted via :func:`repro.obs.metrics.inc`).
COUNTERS: Dict[str, str] = {
    # batch engine
    "batch.calls": "batch_tally invocations",
    "batch.elements": "elements classified by the batch engine",
    "batch.paths_traced": "distinct cost paths scalar-traced",
    "batch.scalar_fallbacks": "inputs that fell back to the scalar loop",
    "batch.tally_cache.hits": "path tallies served from a plan's cache",
    "batch.tally_cache.misses": "path tallies traced and cached",
    # launch evaluators (memoized keyed array passes)
    "batch.vec.compiles": "launch evaluators built",
    "batch.vec.runs": "launch evaluations served (values + aggregate)",
    "batch.vec.memo.hits": "launch (values, keys, unique) memo hits",
    "batch.vec.memo.misses": "keyed array passes computed and memoized",
    "batch.vec.fallbacks": "launches the evaluator abstained on (scalar)",
    # per-core simulation
    "dpu.kernel_runs": "DPU.run_kernel invocations",
    "dpu.dma_bytes": "MRAM DMA bytes moved by kernels",
    # sharded dispatch
    "dispatch.runs": "execute_sharded invocations",
    "dispatch.shards": "shard launches across all dispatches",
    "dispatch.rank_aligned": "dispatches split along rank boundaries",
    # multiprocess pool dispatch
    "dispatch.pool.dispatches": "pooled execute_sharded invocations",
    "dispatch.pool.tasks": "shard tasks run on pool workers",
    "dispatch.pool.shipments": "plan payloads shipped to worker pools",
    "dispatch.pool.pinned": "shard tasks run on CPU-pinned workers",
    # topology model
    "topology.subranges": "topology slices carved for shard sub-systems",
    # compiled plans
    "plan.compiles": "ExecutionPlans compiled",
    "plan.executions": "plan launches (execute and simulate)",
    "plan.launch_memo.hits": "top-level launches served from the result memo",
    "plan.launch_memo.misses": "top-level launches simulated and memoized",
    # plan cache
    "plancache.hits": "compiled plans served from the LRU",
    "plancache.misses": "plan compilations on cache miss",
    "plancache.evictions": "plans evicted from the LRU",
    "plancache.table_hits": "table images reused from the method pool",
    "plancache.table_misses": "table images built into the method pool",
    "plancache.table_evictions": "method-pool evictions",
    # serving sessions
    "session.launches": "PlanSession.launch calls",
    "session.elements": "elements served across session launches",
    "session.streams": "PlanSession.launch_stream calls",
    # async serving front end
    "serve.requests": "requests admitted by the serving front end",
    "serve.requests_shed": "requests shed at the hard queue-depth limit",
    "serve.backpressure_waits": "submits that awaited admission capacity",
    "serve.batches": "coalesced batches dispatched",
    "serve.batch_requests": "requests carried by coalesced batches",
    "serve.elements": "elements dispatched through coalesced batches",
    "serve.singleflight.leaders": "plan builds run as single-flight leaders",
    "serve.singleflight.followers":
        "plan builds avoided by awaiting an in-flight leader",
    # sweep engine
    "sweep.points": "sweep configurations evaluated",
    "sweep.skipped_oversized": "sweep points skipped for table size",
}

#: Dynamic counter families: names built with one interpolated component
#: (``*``).  The obs-contract pass matches an f-string emit site against
#: these patterns — any other dynamic name is a finding.
COUNTER_PATTERNS: Dict[str, str] = {
    "batch.path[*].count": "per-cost-path element hit count",
    "batch.path[*].slots": "per-cost-path tally x count slot product",
    "memory.*_bytes": "table bytes placed per memory region (wram/mram)",
}

#: Gauges (emitted via :func:`repro.obs.metrics.observe`).
GAUGES: Dict[str, str] = {
    "dispatch.overlap_saving_seconds":
        "simulated seconds hidden by double-buffered dispatch",
    "dispatch.pool.worker_utilization":
        "fraction of pool wall-time the workers spent on shard tasks",
    "session.stream_saving_seconds":
        "simulated seconds hidden by pipelining a launch stream",
    "serve.queue_depth":
        "pending + waiting requests at the latest admission",
    "serve.coalesce_ratio":
        "requests per dispatched batch over a server's lifetime",
    "serve.latency_p50_seconds": "load-generator median request latency",
    "serve.latency_p95_seconds": "load-generator p95 request latency",
    "serve.latency_p99_seconds": "load-generator p99 request latency",
    "dpu.dma_hidden_fraction":
        "fraction of DMA time hidden behind compute",
    "topology.transfer_rank_parallelism":
        "rank fan-out applied to an unbalanced transfer's serialization",
}


def metric_kind(name: str) -> Optional[str]:
    """``"counter"``, ``"gauge"``, or ``None`` when undeclared."""
    if name in COUNTERS:
        return "counter"
    if name in GAUGES:
        return "gauge"
    return None


def pattern_kind(pattern: str) -> Optional[str]:
    """Kind of a declared dynamic-name family, or ``None``.

    ``pattern`` is the emit site's f-string with every interpolated field
    replaced by ``*`` — the exact form the keys above use.
    """
    if pattern in COUNTER_PATTERNS:
        return "counter"
    return None
