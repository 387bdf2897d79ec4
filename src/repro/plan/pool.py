"""Multiprocess shard execution: one plan, many worker processes.

:mod:`repro.plan.dispatch` models a sharded launch; this module actually
*runs* the shards in parallel on a ``multiprocessing`` worker pool so a
full-rank (2545-DPU) simulation uses the host's cores instead of iterating
shards in one process.

The contract is bit-exactness: a pooled dispatch must return values,
slots, tallies, and span-reconciled timings identical to the inline path
(``tests/plan/test_pool.py`` holds both paths equal across the
``METHOD_SUPPORT`` matrix under both ``fork`` and ``spawn``).  That works
because each shard's execution is a pure function of (plan, shard system,
trace sample, element count): the parent draws every shard's trace sample
with that shard's spawned generator before any task ships, so no
generator crosses the process boundary and a task replays bit-identically
by construction.

Shipping protocol
-----------------
A plan crosses the process boundary **once per pool**, not once per shard:

* the plan graph is pickled with every large ``numpy`` array (table
  images, CORDIC angle tables...) extracted into a single
  ``multiprocessing.shared_memory`` segment — workers map the segment and
  reconstruct the arrays as zero-copy read-only views;
* each shard task then carries only a tiny :class:`PlanShipment`
  descriptor (segment name + array offsets) plus its trace sample (at
  most ``sample_size`` rows, whatever the shard's element count) and
  that count; the first task a worker sees for a given shipment
  unpickles and caches the plan, later tasks reuse it.

Failure discipline
------------------
A worker that raises ships a structured failure back; a worker that dies
or hangs is caught by the pool's broken-executor detection or the
dispatch ``timeout``.  Either way the parent raises a clean
:class:`repro.errors.PoolError` / :class:`~repro.errors.PoolTimeoutError`,
unlinks every shared-memory segment it created (``active_segments()`` is
the test hook proving no orphans), and never returns a half-aggregated
result.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import time
import weakref
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from multiprocessing import get_context, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, PoolError, PoolTimeoutError
from repro.obs import metrics as _metrics
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.tracer import Span, Tracer, tracing

__all__ = ["PlanShipment", "ShardTask", "ShardOutcome", "ShardPool",
           "active_segments", "ship_plan", "load_shipment"]

#: Arrays at least this large leave the pickle stream for shared memory.
SHM_ARRAY_MIN_BYTES = 2048

#: Byte alignment of each array blob inside the segment.
_ALIGN = 64

#: Shared-memory segments this process created and has not yet unlinked.
#: Fault-injection tests assert this drains even on error paths.
_LIVE_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}

_TOKENS = itertools.count()


def active_segments() -> List[str]:
    """Names of shared-memory segments currently owned by this process."""
    return sorted(_LIVE_SEGMENTS)


# ----------------------------------------------------------------------
# Shipping: plan -> (shared-memory segment, small descriptor)

@dataclass(frozen=True)
class _ArraySpec:
    """Where one extracted array lives inside the shipment segment."""

    offset: int
    dtype: str
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class PlanShipment:
    """Everything a worker needs to reconstruct a shipped plan.

    Small enough to ride along in every task; the heavy bytes (the plan
    pickle and the extracted arrays) live in the named segment.
    """

    token: str
    segment: str
    plan_bytes: int           # plan pickle occupies segment[0:plan_bytes]
    arrays: Tuple[_ArraySpec, ...]


class _ArrayExtractor(pickle.Pickler):
    """Pickler that spills large arrays out of the stream by reference."""

    def __init__(self, buffer: io.BytesIO):
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: List[np.ndarray] = []
        self._index: Dict[int, int] = {}

    def persistent_id(self, obj: Any) -> Optional[Tuple[str, int]]:
        if isinstance(obj, np.ndarray) and obj.dtype != object \
                and obj.nbytes >= SHM_ARRAY_MIN_BYTES:
            key = id(obj)  # lint: allow(dedupe within one pickling pass, never persisted)
            if key not in self._index:
                self._index[key] = len(self.arrays)
                self.arrays.append(np.ascontiguousarray(obj))
            return ("repro-shm-array", self._index[key])
        return None


class _ArrayResolver(pickle.Unpickler):
    """Unpickler that resolves spilled arrays against mapped views."""

    def __init__(self, buffer: io.BytesIO, arrays: Sequence[np.ndarray]):
        super().__init__(buffer)
        self._arrays = arrays

    def persistent_load(self, pid: Tuple[str, int]) -> np.ndarray:
        tag, index = pid
        if tag != "repro-shm-array":
            raise pickle.UnpicklingError(f"unknown persistent id {tag!r}")
        return self._arrays[index]


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def ship_plan(plan) -> PlanShipment:
    """Serialize ``plan`` into a fresh shared-memory segment.

    The caller owns the segment and must eventually :func:`unlink_shipment`
    it (a :class:`ShardPool` does both).
    """
    buffer = io.BytesIO()
    extractor = _ArrayExtractor(buffer)
    try:
        extractor.dump(plan)
    except Exception as exc:
        raise PoolError(
            f"plan cannot be shipped to workers: {type(exc).__name__}: "
            f"{exc}") from exc
    plan_blob = buffer.getvalue()

    specs: List[_ArraySpec] = []
    offset = _aligned(len(plan_blob))
    for arr in extractor.arrays:
        specs.append(_ArraySpec(offset=offset, dtype=arr.dtype.str,
                                shape=tuple(arr.shape)))
        offset = _aligned(offset + arr.nbytes)

    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1)
                                     if offset else len(plan_blob) or 1)
    try:
        shm.buf[:len(plan_blob)] = plan_blob
        for spec, arr in zip(specs, extractor.arrays):
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                              offset=spec.offset)
            view[...] = arr
    except Exception:
        shm.close()
        shm.unlink()
        raise
    _LIVE_SEGMENTS[shm.name] = shm
    token = f"{os.getpid()}-{next(_TOKENS)}"
    return PlanShipment(token=token, segment=shm.name,
                        plan_bytes=len(plan_blob), arrays=tuple(specs))


def unlink_shipment(shipment: PlanShipment) -> None:
    """Release the shipment's segment (idempotent, owner side)."""
    shm = _LIVE_SEGMENTS.pop(shipment.segment, None)
    if shm is None:
        return
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


# ----------------------------------------------------------------------
# Worker side

#: Per-worker shipment cache: token -> (plan, mapped segment).
_WORKER_PLANS: Dict[str, Tuple[Any, shared_memory.SharedMemory]] = {}


def load_shipment(shipment: PlanShipment):
    """The shipped plan, unpickled once per process and cached.

    Attaching re-registers the segment with the (shared) resource
    tracker; that is a set-dedup no-op, and ownership — the unlink duty —
    stays with the shipping process, which is why nothing is unregistered
    here (an unregister would strip the owner's entry and make its later
    ``unlink`` warn).
    """
    cached = _WORKER_PLANS.get(shipment.token)
    if cached is not None:
        return cached[0]
    shm = shared_memory.SharedMemory(name=shipment.segment)
    arrays = []
    for spec in shipment.arrays:
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                          buffer=shm.buf, offset=spec.offset)
        view.flags.writeable = False  # tables are shared across workers
        arrays.append(view)
    resolver = _ArrayResolver(
        io.BytesIO(bytes(shm.buf[:shipment.plan_bytes])), arrays)
    plan = resolver.load()
    # Keep the mapping alive as long as the plan's arrays view it.
    _WORKER_PLANS[shipment.token] = (plan, shm)
    return plan


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order, shipped to a worker per dispatch.

    ``sample`` is the shard's trace sample, drawn by the dispatcher, and
    ``n_elements`` the element count it stands for; ``virtual_n`` is only
    recorded on the result (``None`` for a real slice).
    """

    shipment: PlanShipment
    index: int
    n_dpus: int
    sample: np.ndarray
    n_elements: int
    virtual_n: Optional[int]
    imbalance: Optional[float]
    capture_trace: bool
    capture_metrics: bool
    #: Usable-DPU slice this shard owns (rank-aligned dispatch only).
    #: The worker carves its sub-system with
    #: :meth:`SystemConfig.subrange` so the slice keeps its true rank
    #: structure; ``None`` falls back to a flat ``n_dpus`` sub-system.
    dpu_range: Optional[Tuple[int, int]] = None


@dataclass
class ShardOutcome:
    """What a worker sends back for one completed shard."""

    index: int
    result: Any                       # SystemRunResult
    spans: List[Span]                 # the shard.execute subtree(s)
    metrics: Optional[Dict[str, Any]]  # MetricsRegistry.to_dict() snapshot
    worker_pid: int
    busy_seconds: float               # wall time the worker spent executing


@dataclass
class _ShardFailure:
    """A worker-side exception, marshalled as data (always picklable)."""

    index: int
    exc_type: str
    message: str


def _run_shard_task(task: ShardTask):
    """Worker entry point: execute one shard of the shipped plan."""
    from repro.pim.system import PIMSystem

    try:
        plan = load_shipment(task.shipment)
        if task.dpu_range is not None:
            cfg = plan.system.config.subrange(*task.dpu_range)
        else:
            cfg = replace(plan.system.config, n_dpus=task.n_dpus)
        sub = PIMSystem(cfg, plan.system.costs)
        tracer = Tracer() if task.capture_trace else None
        registry = MetricsRegistry() if task.capture_metrics else None
        t0 = time.perf_counter()
        with tracing(tracer) if tracer is not None else _nullcontext():
            with collecting(registry) if registry is not None \
                    else _nullcontext():
                result = plan.for_system(sub)._simulate_sample(
                    task.sample, task.n_elements, virtual_n=task.virtual_n,
                    imbalance=task.imbalance, span_name="shard.execute",
                )
        busy = time.perf_counter() - t0
        for root in (tracer.roots if tracer is not None else []):
            root.set(worker=os.getpid())
        return ShardOutcome(
            index=task.index, result=result,
            spans=tracer.roots if tracer is not None else [],
            metrics=registry.to_dict() if registry is not None else None,
            worker_pid=os.getpid(), busy_seconds=busy,
        )
    except Exception as exc:  # marshal any worker error as plain data
        return _ShardFailure(index=task.index,
                             exc_type=type(exc).__name__, message=str(exc))


class _nullcontext:
    """Tiny local nullcontext (keeps the worker function self-contained)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return None


def _pin_worker(cpus: Tuple[int, ...]) -> None:
    """Worker initializer: restrict this process to its group's CPUs.

    Models NUMA placement — each channel group's workers stay on one CPU
    block so the host-side halves of that channel's transfers keep their
    cache/memory locality.  Best-effort: platforms without
    ``sched_setaffinity`` (or with a shrunken cpuset) run unpinned.
    """
    if not cpus:
        return
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # pragma: no cover - platform-dependent
        pass


# ----------------------------------------------------------------------
# Parent side: the pool

class ShardPool:
    """A reusable multiprocess pool for sharded plan dispatch.

    Create one per serving process and pass it to
    :func:`~repro.plan.dispatch.execute_sharded` (or hand ``workers=`` and
    let the dispatcher manage a throwaway pool).  Plans are shipped once
    per pool; every dispatch against the same plan object reuses the
    worker-side caches.

    ``start_method`` picks the ``multiprocessing`` context (``"fork"``,
    ``"spawn"``, ``"forkserver"``; ``None`` uses the platform default).
    ``timeout`` is the per-dispatch default deadline in wall seconds —
    exceeded deadlines raise :class:`~repro.errors.PoolTimeoutError`.

    Passing ``topology`` makes the pool NUMA-aware: workers default to
    one per memory channel, they are partitioned into one executor group
    per channel, and rank-aligned dispatches route each shard to its home
    channel's group (``shard -> worker affinity by channel``).  ``pin``
    additionally restricts each group's workers to a contiguous block of
    the host's CPUs (``sched_setaffinity``), modeling socket locality.
    Without ``topology`` the pool is a single flat group, exactly as
    before.

    A dispatch error closes the pool: worker state is unknown after a
    crash, and leaving segments mapped would leak them.
    """

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 timeout: Optional[float] = None, *,
                 topology=None, pin: bool = False):
        if workers is None:
            if topology is None:
                raise ConfigurationError(
                    "ShardPool needs workers >= 1 (or a topology to "
                    "default one worker per channel)")
            workers = topology.channels
        if workers < 1:
            raise ConfigurationError("ShardPool needs workers >= 1")
        self.workers = workers
        self.start_method = start_method
        self.timeout = timeout
        self.topology = topology
        self.pin = bool(pin)
        n_groups = 1 if topology is None else min(workers, topology.channels)
        ctx = get_context(start_method) if start_method else None
        cpus = self._host_cpus() if self.pin else ()
        wq, wr = divmod(workers, n_groups)
        self._executors: List[ProcessPoolExecutor] = []
        for g in range(n_groups):
            if self.pin and cpus:
                # Contiguous CPU blocks per group, remainders to the low
                # groups — the same convention as the shard splitter.
                cq, cr = divmod(len(cpus), n_groups)
                lo = g * cq + min(g, cr)
                block = tuple(cpus[lo:lo + cq + (1 if g < cr else 0)])
                init, initargs = _pin_worker, (block,)
            else:
                init, initargs = None, ()
            self._executors.append(ProcessPoolExecutor(
                max_workers=wq + (1 if g < wr else 0),
                mp_context=ctx,
                initializer=init, initargs=initargs,
            ))
        self._shipments: "weakref.WeakKeyDictionary[Any, PlanShipment]" \
            = weakref.WeakKeyDictionary()
        self._owned: List[PlanShipment] = []

    @staticmethod
    def _host_cpus() -> Tuple[int, ...]:
        """CPUs available to this process, in stable sorted order."""
        try:
            return tuple(sorted(os.sched_getaffinity(0)))
        except (AttributeError, OSError):  # pragma: no cover
            return tuple(range(os.cpu_count() or 1))

    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return not self._executors

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, kill: bool = False) -> None:
        """Shut the workers down and unlink every shipped segment.

        ``kill=True`` (the error path) terminates worker processes
        outright instead of letting them drain: a hung or crashed worker
        must not outlive the dispatch that abandoned it.
        """
        executors, self._executors = self._executors, []
        for executor in executors:
            if kill:
                procs = list(getattr(executor, "_processes", {}).values())
                executor.shutdown(wait=False, cancel_futures=True)
                for proc in procs:
                    if proc.is_alive():
                        proc.terminate()
            else:
                executor.shutdown(wait=True, cancel_futures=True)
        for shipment in self._owned:
            unlink_shipment(shipment)
        self._owned.clear()
        self._shipments = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------

    def ship(self, plan) -> PlanShipment:
        """The plan's shipment, created on first use per pool."""
        shipment = self._shipments.get(plan)
        if shipment is None:
            shipment = ship_plan(plan)
            self._shipments[plan] = shipment
            self._owned.append(shipment)
            _metrics.inc("dispatch.pool.shipments")
        return shipment

    def run_shards(
        self,
        plan,
        specs: Sequence[Tuple[int, np.ndarray, int, Optional[int],
                              Optional[float]]],
        *,
        capture_trace: bool = False,
        capture_metrics: bool = False,
        timeout: Optional[float] = None,
        dpu_ranges: Optional[Sequence[Tuple[int, int]]] = None,
        channels: Optional[Sequence[int]] = None,
    ) -> Tuple[List[ShardOutcome], float]:
        """Run one shard task per spec on the workers.

        Each spec is ``(n_dpus, sample, n_elements, virtual_n,
        imbalance)``: a shard of ``n_elements`` on ``n_dpus`` DPUs, priced
        from the trace ``sample`` its dispatcher drew, with ``virtual_n``
        recorded on the result and ``imbalance`` overriding the plan's.
        Returns the outcomes in shard order plus the parent-side wall
        seconds of the whole fan-out (for the utilization gauge).  Raises
        :class:`PoolError` on any worker failure after cancelling the
        rest and closing the pool — no partial results ever escape.

        ``dpu_ranges`` gives each shard its usable-DPU slice (workers
        build topology-faithful sub-systems from it); ``channels`` gives
        each shard's home channel, routing it to that channel's executor
        group on a topology-aware pool.
        """
        if not self._executors:
            raise PoolError("ShardPool is closed")
        deadline = timeout if timeout is not None else self.timeout
        shipment = self.ship(plan)
        tasks = [
            ShardTask(shipment=shipment, index=i, n_dpus=n_dpus,
                      sample=sample, n_elements=n_elements,
                      virtual_n=virtual_n, imbalance=imbalance,
                      capture_trace=capture_trace,
                      capture_metrics=capture_metrics,
                      dpu_range=dpu_ranges[i] if dpu_ranges is not None
                      else None)
            for i, (n_dpus, sample, n_elements, virtual_n, imbalance)
            in enumerate(specs)
        ]
        n_groups = len(self._executors)
        t0 = time.perf_counter()
        try:
            futs: List[Future] = [
                self._executors[
                    (channels[task.index] if channels is not None
                     else task.index) % n_groups
                ].submit(_run_shard_task, task)
                for task in tasks
            ]
        except BrokenExecutor as exc:
            self.close()
            raise PoolError(
                f"worker pool is broken: {type(exc).__name__}: {exc}"
            ) from exc
        outcomes: List[ShardOutcome] = []
        for i, fut in enumerate(futs):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - (time.perf_counter() - t0))
            try:
                got = fut.result(timeout=remaining)
            except FutureTimeoutError:
                self.close(kill=True)
                raise PoolTimeoutError(
                    f"shard {i} did not complete within {deadline:g}s "
                    "(worker hung or died mid-shard)", shard_index=i,
                ) from None
            except BrokenExecutor as exc:
                self.close(kill=True)
                raise PoolError(
                    f"worker running shard {i} died mid-shard: "
                    f"{type(exc).__name__}: {exc}", shard_index=i,
                ) from exc
            if isinstance(got, _ShardFailure):
                self.close(kill=True)
                raise PoolError(
                    f"shard {got.index} raised in its worker: "
                    f"{got.exc_type}: {got.message}",
                    shard_index=got.index,
                )
            outcomes.append(got)
        wall = time.perf_counter() - t0
        _metrics.inc("dispatch.pool.tasks", len(tasks))
        if self.pin:
            _metrics.inc("dispatch.pool.pinned", len(tasks))
        busy = sum(o.busy_seconds for o in outcomes)
        if wall > 0.0:
            _metrics.observe("dispatch.pool.worker_utilization",
                             min(1.0, busy / (wall * self.workers)))
        return outcomes, wall
