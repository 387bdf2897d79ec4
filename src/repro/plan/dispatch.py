"""Sharded dispatch: one plan, many DPU groups, optionally overlapped.

Real UPMEM deployments reach peak throughput by splitting work across rank
groups and overlapping each group's host<->PIM transfers with other groups'
kernels ("UPMEM Unleashed", PAPERS.md).  This module models that on top of
compiled plans: :func:`execute_sharded` splits the input across ``n_shards``
disjoint DPU groups, launches the same :class:`~repro.plan.plan.ExecutionPlan`
on each group (sub-plans share the parent's table image, so tracing is paid
once), and assembles a timeline —

* ``overlap=False``: shards launch back to back, exactly like calling
  ``run()`` once per slice; the total is the bit-exact running sum of the
  per-shard totals.
* ``overlap=True``: double-buffered.  Scatters serialize on the host->PIM
  link, each shard's kernel starts as soon as its scatter lands (kernels of
  different groups run concurrently — disjoint cores), and gathers serialize
  on the PIM->host link:

      h2p_done[i] = h2p_done[i-1] + h2p[i]
      k_done[i]   = h2p_done[i] + launch[i] + kernel[i]
      p2h_done[i] = max(k_done[i], p2h_done[i-1]) + p2h[i]
      total       = p2h_done[last]

Per-shard ``shard`` spans carry the four phase times and the timeline
offsets, so the emitted trace reconciles bit for bit with ``total_seconds``
(asserted in ``tests/plan/test_dispatch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.obs import metrics as _metrics
from repro.obs.tracer import span as _span
from repro.pim.dpu import trace_sample
from repro.pim.system import PIMSystem, SystemRunResult
from repro.plan.plan import ExecutionPlan
from repro.plan.schedule import StageItem, schedule_pipeline

__all__ = ["ShardResult", "ShardedRunResult", "shard_split", "shard_ranges",
           "spawn_shard_rngs", "execute_sharded"]

_F32 = np.float32


def spawn_shard_rngs(
    rng: Optional[np.random.Generator], n_shards: int,
) -> List[Optional[np.random.Generator]]:
    """Independent per-shard generators derived from one parent seed.

    Handing the *same* generator to every shard couples them through shared
    state: each shard's draw depends on how many shards ran before it, so
    results change under reordering or a process pool.  Spawning child
    generators up front makes every shard reproducible from the single
    parent seed regardless of execution order — the property the
    determinism lint pass (``unthreaded-rng``) enforces statically.
    """
    if rng is None:
        return [None] * n_shards
    if hasattr(rng, "spawn"):  # numpy >= 1.25
        return list(rng.spawn(n_shards))
    seeds = rng.integers(0, 2**63 - 1, size=n_shards)
    return [np.random.default_rng(int(s)) for s in seeds]


def shard_split(n_elements: int, n_dpus: int, n_shards: int, *,
                topology=None) -> List[Tuple[int, int]]:
    """Even (elements, dpus) split of a launch over ``n_shards`` groups.

    Remainders go to the lowest-indexed shards, mirroring the SPMD
    round-up in :meth:`PIMSystem.elements_per_dpu`.

    With ``topology`` (a :class:`~repro.pim.topology.Topology` covering
    exactly ``n_dpus`` usable DPUs) the split is **rank-aligned**: shard
    boundaries come from :meth:`Topology.split_ranks`, so no shard's DPU
    group ever straddles a rank, and element counts follow each group's
    DPU share proportionally.  Rank-aligned groups are what let a shard's
    unbalanced transfers serialize per rank and the pool pin shards to
    their channel's workers.
    """
    if n_shards < 1:
        raise SimulationError("need at least one shard")
    if n_shards > n_dpus:
        raise SimulationError(
            f"{n_shards} shards over {n_dpus} DPUs: every shard needs "
            "its own DPU group")
    if n_shards > n_elements:
        raise SimulationError(
            f"{n_shards} shards over {n_elements} elements: every shard "
            "needs at least one element")
    if topology is not None:
        if topology.n_dpus != n_dpus:
            raise SimulationError(
                f"topology covers {topology.n_dpus} usable DPUs, "
                f"expected {n_dpus}")
        spans = topology.split_ranks(n_shards)
        dpus = [stop - start for start, stop in spans]
        # Elements proportional to each group's DPU share, by cumulative
        # boundaries so the counts always sum exactly to n_elements.
        bounds, acc = [0], 0
        for d in dpus:
            acc += d
            bounds.append(n_elements * acc // n_dpus)
        counts = [bounds[i + 1] - bounds[i] for i in range(n_shards)]
        if min(counts) == 0:
            # Degenerate proportionality (tiny inputs over skewed rank
            # groups): fall back to the even element split, keeping the
            # rank-aligned DPU groups.
            eq, er = divmod(n_elements, n_shards)
            counts = [eq + (1 if i < er else 0) for i in range(n_shards)]
        return list(zip(counts, dpus))
    eq, er = divmod(n_elements, n_shards)
    dq, dr = divmod(n_dpus, n_shards)
    return [(eq + (1 if i < er else 0), dq + (1 if i < dr else 0))
            for i in range(n_shards)]


def shard_ranges(split: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Half-open DPU index ranges of a contiguous shard allocation.

    Shard ``i`` occupies the DPUs directly after shard ``i-1``'s; the
    ranges feed :class:`~repro.plan.schedule.StageItem.dpu_range` so the
    pipeline scheduler knows the shards' kernels never contend.
    """
    ranges, offset = [], 0
    for _, dpus in split:
        ranges.append((offset, offset + dpus))
        offset += dpus
    return ranges


@dataclass
class ShardResult:
    """One DPU group's launch plus its position on the dispatch timeline."""

    index: int
    n_elements: int
    n_dpus: int
    result: SystemRunResult
    start_seconds: float    # when this shard's scatter begins
    finish_seconds: float   # when its gather completes


@dataclass
class ShardedRunResult:
    """Timing of a sharded (optionally overlapped) whole-system dispatch.

    Mirrors enough of :class:`SystemRunResult`'s surface (``total_seconds``,
    phase sums, ``per_dpu`` of the slowest shard) that workload result
    wrappers and the energy model can consume either shape.
    """

    n_elements: int
    n_shards: int
    overlap: bool
    tasklets: int
    shards: List[ShardResult]
    total_seconds: float

    @property
    def serial_seconds(self) -> float:
        """What the same shards would take launched strictly back to back."""
        total = 0.0
        for s in self.shards:
            total += s.result.total_seconds
        return total

    @property
    def overlap_saving_seconds(self) -> float:
        """Time the double-buffered timeline hides (0 when not overlapped)."""
        return self.serial_seconds - self.total_seconds

    # -- SystemRunResult-shaped conveniences ----------------------------

    @property
    def n_dpus_used(self) -> int:
        return sum(s.result.n_dpus_used for s in self.shards)

    @property
    def kernel_seconds(self) -> float:
        """The slowest shard's kernel time (groups run concurrently)."""
        return max(s.result.kernel_seconds for s in self.shards)

    @property
    def host_to_pim_seconds(self) -> float:
        return sum(s.result.host_to_pim_seconds for s in self.shards)

    @property
    def pim_to_host_seconds(self) -> float:
        return sum(s.result.pim_to_host_seconds for s in self.shards)

    @property
    def launch_seconds(self) -> float:
        return sum(s.result.launch_seconds for s in self.shards)

    @property
    def per_dpu(self):
        """Representative per-core result: the slowest shard's."""
        slowest = max(self.shards, key=lambda s: s.result.kernel_seconds)
        return slowest.result.per_dpu

    @property
    def compute_only_seconds(self) -> float:
        """Slowest shard's kernel plus its launch (Figure 1(c) view)."""
        slowest = max(self.shards, key=lambda s: s.result.kernel_seconds)
        return slowest.result.compute_only_seconds


def _shard_samples(inputs: np.ndarray, counts: Sequence[int],
                   virtual_n: Optional[int], sample_size: int,
                   rngs: Sequence[Optional[np.random.Generator]],
                   ) -> List[Tuple[np.ndarray, Optional[int]]]:
    """Per-shard (trace sample, virtual_n) pairs, drawn here.

    Each shard draws with its own generator from its contiguous slice, or,
    with ``virtual_n``, from the whole array (a distribution sample every
    shard reuses while sizing itself virtually).  The draw is the one the
    shard's own launch would make, so a shard launches over its sample and
    element count alone: no slice and no generator reach the shard.
    """
    if virtual_n is not None:
        return [(trace_sample(inputs, sample_size, r), c)
                for c, r in zip(counts, rngs)]
    out, offset = [], 0
    for c, r in zip(counts, rngs):
        out.append((trace_sample(inputs[offset:offset + c], sample_size, r),
                    None))
        offset += c
    return out


def _pooled_shard_runs(plan, split, samples, imbalances, *,
                       workers, pool, start_method, timeout,
                       dpu_ranges=None, channels=None):
    """Run every shard on a worker pool; graft traces, merge metrics.

    Returns ``(handles, runs)`` in shard order — the same pair the inline
    loop produces, so timeline assembly downstream is path-agnostic.
    ``dpu_ranges``/``channels`` (rank-aligned dispatch only) give each
    shard its usable-DPU slice and home channel, which the pool uses for
    topology-faithful sub-systems and channel-affine worker routing.
    """
    from repro.obs.metrics import active_metrics
    from repro.obs.tracer import active_tracer
    from repro.plan import pool as _pool_mod

    tracer = active_tracer()
    registry = active_metrics()
    owned = pool is None
    shard_pool = pool if pool is not None else _pool_mod.ShardPool(
        workers if workers is not None else len(split),
        start_method=start_method, timeout=timeout,
    )
    specs = [
        (dpus_i, sample_i, n_i, vn_i, imbalances[i])
        for i, ((n_i, dpus_i), (sample_i, vn_i))
        in enumerate(zip(split, samples))
    ]
    try:
        outcomes, _wall = shard_pool.run_shards(
            plan, specs,
            capture_trace=tracer is not None,
            capture_metrics=registry is not None,
            timeout=timeout,
            dpu_ranges=dpu_ranges,
            channels=channels,
        )
    finally:
        if owned:
            shard_pool.close()
    handles, runs = [], []
    for i, out in enumerate(outcomes):
        n_i, dpus_i = split[i]
        attrs = {}
        if channels is not None:
            attrs["channel"] = channels[i]
        if getattr(shard_pool, "pin", False):
            attrs["pinned"] = True
        with _span("shard", index=i, n_elements=n_i, n_dpus=dpus_i,
                   worker=out.worker_pid, **attrs) as ssp:
            if tracer is not None:
                for subtree in out.spans:
                    tracer.graft(subtree)
        handles.append(ssp)
        runs.append(out.result)
    if registry is not None:
        # Shard order, so merged counters land exactly like inline emits.
        for out in outcomes:
            if out.metrics is not None:
                registry.merge_snapshot(out.metrics)
    return handles, runs


def execute_sharded(
    plan: ExecutionPlan,
    inputs: Sequence[float],
    *,
    n_shards: int = 2,
    overlap: bool = False,
    virtual_n: Optional[int] = None,
    imbalance: Union[None, float, Sequence[float]] = None,
    rng: Optional[np.random.Generator] = None,
    workers: Optional[int] = None,
    pool=None,
    start_method: Optional[str] = None,
    timeout: Optional[float] = None,
    rank_aligned: bool = False,
) -> ShardedRunResult:
    """Dispatch ``plan`` over ``n_shards`` disjoint DPU groups.

    ``imbalance`` may be a scalar (every shard's straggler factor) or a
    per-shard sequence of length ``n_shards``; ``None`` uses the plan's.
    All shard sub-plans share the parent plan's table image, so the scalar
    tracing cost of a cold plan is paid once, not per shard; their
    launches skip the launch memo.

    A caller ``rng`` seeds the whole dispatch: it is split into independent
    per-shard child generators (:func:`spawn_shard_rngs`), so every shard's
    sample draw is reproducible from the single seed and independent of
    shard execution order.  The draws happen here, before any shard runs
    (:func:`~repro.pim.dpu.trace_sample`, the draw a plain launch makes),
    and each shard then launches over its trace sample and element count.
    That is all ``workers``/``pool`` ship to a ``multiprocessing`` pool
    (:mod:`repro.plan.pool`): at most ``sample_size`` rows per shard and
    no generator, with bit-identical results.

    ``workers > 1`` runs the shards on a throwaway pool of that many
    processes (``start_method`` picks fork/spawn/forkserver, ``timeout``
    bounds the dispatch in wall seconds); passing an existing
    :class:`~repro.plan.pool.ShardPool` as ``pool`` reuses warm workers and
    ships the plan only once across dispatches.  Either way the returned
    :class:`ShardedRunResult`, the ``dispatch.*`` spans and metrics, and
    every phase number reconcile bit for bit with the inline path.

    ``rank_aligned=True`` splits along the system topology's rank
    boundaries instead of evenly: no shard's DPU group straddles a rank,
    each shard's sub-system keeps its slice's true rank structure (so
    rank-parallel unbalanced transfers price correctly per shard), and
    pooled dispatch routes each shard to a worker by its home channel.
    """
    inputs = np.asarray(inputs, dtype=_F32)
    n = int(virtual_n if virtual_n is not None else inputs.shape[0])
    if n == 0 or inputs.shape[0] == 0:
        raise SimulationError("cannot dispatch over empty input")
    system = plan.system
    topo = system.config.topology if rank_aligned else None
    split = shard_split(n, system.config.n_dpus, n_shards, topology=topo)
    dpu_ranges = shard_ranges(split) if rank_aligned else None
    channels = [topo.channel_of_range(lo, hi) for lo, hi in dpu_ranges] \
        if rank_aligned else None
    if imbalance is None or isinstance(imbalance, (int, float)):
        imbalances = [imbalance] * n_shards
    else:
        imbalances = list(imbalance)
        if len(imbalances) != n_shards:
            raise SimulationError(
                f"got {len(imbalances)} imbalance factors for "
                f"{n_shards} shards")

    samples = _shard_samples(inputs, [ne for ne, _ in split], virtual_n,
                             plan.config.sample_size,
                             spawn_shard_rngs(rng, n_shards))
    pooled = pool is not None or (workers is not None and workers > 1)

    shards: List[ShardResult] = []
    with _span("dispatch.run", n_shards=n_shards, overlap=overlap,
               n_elements=n) as dsp:
        if rank_aligned:
            dsp.set(rank_aligned=True)
        if pooled:
            dsp.set(pooled=True)
            handles, runs = _pooled_shard_runs(
                plan, split, samples, imbalances,
                workers=workers, pool=pool, start_method=start_method,
                timeout=timeout, dpu_ranges=dpu_ranges, channels=channels,
            )
        else:
            handles, runs = [], []
            for i, ((n_i, dpus_i), (sample_i, vn_i)) in enumerate(
                    zip(split, samples)):
                if rank_aligned:
                    lo, hi = dpu_ranges[i]
                    sub = PIMSystem(system.config.subrange(lo, hi),
                                    system.costs)
                    attrs = {"channel": channels[i]}
                else:
                    sub = PIMSystem(replace(system.config, n_dpus=dpus_i),
                                    system.costs)
                    attrs = {}
                with _span("shard", index=i, n_elements=n_i,
                           n_dpus=dpus_i, **attrs) as ssp:
                    r = plan.for_system(sub)._simulate_sample(
                        sample_i, n_i, virtual_n=vn_i,
                        imbalance=imbalances[i], span_name="shard.execute",
                    )
                handles.append(ssp)
                runs.append(r)

        # Timeline assembly: pure arithmetic over the per-shard results,
        # shared by the inline and pooled paths so both reconcile
        # identically.  The overlapped timeline goes through the general
        # pipeline scheduler; disjoint shard ranges collapse it bit for
        # bit to the original double-buffered recurrence.
        if overlap:
            ranges = shard_ranges(split)
            sched = schedule_pipeline([
                StageItem(key=str(i), h2p=r.host_to_pim_seconds,
                          launch=r.launch_seconds, kernel=r.kernel_seconds,
                          p2h=r.pim_to_host_seconds, dpu_range=ranges[i])
                for i, r in enumerate(runs)
            ])
            offsets = [(s.start_seconds, s.finish_seconds)
                       for s in sched.items]
            total = sched.makespan
        else:
            offsets = []
            serial_done = 0.0
            for r in runs:
                nxt = serial_done + r.total_seconds
                offsets.append((serial_done, nxt))
                serial_done = nxt
            total = serial_done

        for i, (ssp, r) in enumerate(zip(handles, runs)):
            start, finish = offsets[i]
            ssp.set(sim_seconds=r.total_seconds,
                    host_to_pim=r.host_to_pim_seconds,
                    kernel=r.kernel_seconds,
                    pim_to_host=r.pim_to_host_seconds,
                    launch=r.launch_seconds,
                    start_seconds=start,
                    finish_seconds=finish)
            shards.append(ShardResult(
                index=i, n_elements=split[i][0], n_dpus=split[i][1],
                result=r, start_seconds=start, finish_seconds=finish,
            ))
        result = ShardedRunResult(
            n_elements=n, n_shards=n_shards, overlap=overlap,
            tasklets=plan.config.tasklets, shards=shards, total_seconds=total,
        )
        dsp.set(sim_seconds=total,
                serial_seconds=result.serial_seconds)
    _metrics.inc("dispatch.runs")
    _metrics.inc("dispatch.shards", n_shards)
    if rank_aligned:
        _metrics.inc("dispatch.rank_aligned")
    if pooled:
        _metrics.inc("dispatch.pool.dispatches")
    if overlap:
        _metrics.observe("dispatch.overlap_saving_seconds",
                         result.overlap_saving_seconds)
    return result
