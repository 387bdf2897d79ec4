"""The asyncio serving front end: coalesce, single-flight, dispatch, scatter.

The paper's central performance fact is that PIM transcendental kernels
amortize: setup (table build, plan compile) is paid once per kernel
configuration, and per-element cost falls as launches grow.  A service
that forwards each request to :meth:`~repro.pim.system.PIMSystem.run`
individually forfeits both halves — it re-pays setup per cold kernel
burst and launches tiny batches.  :class:`Server` recovers them:

coalescing
    Requests are queued per *lane*, keyed by the
    :class:`~repro.plan.cache.PlanKey` their normalized spec
    (:mod:`repro.serve.keys`) compiles to.
    A per-lane flusher concatenates every request that arrives within a
    micro-batching window (``max_wait`` seconds, capped at ``max_batch``
    requests) into one numpy batch and dispatches it through a single
    compiled :class:`~repro.plan.plan.ExecutionPlan`.

single-flight plan builds
    The plan for a lane is compiled through :class:`.SingleFlight` at
    submit time, so N concurrent identical cold requests trigger exactly
    one table build and one plan compile — the rest await the shared
    future, and the build overlaps the batching window.

admission control
    An :class:`.AdmissionController` bounds pending depth: submits above
    ``max_pending`` await capacity (backpressure) and are shed with
    :class:`~repro.errors.ServerOverloadedError` at ``hard_limit``.

scatter-back
    Each request's :class:`ServeResult` carries the slice of the batch's
    values corresponding to its own inputs — bit-identical to evaluating
    the request alone, because ``evaluate_vec`` is elementwise.

Dispatch runs inline on the event loop: the simulator is CPU-bound pure
python/numpy and the tracer/metric registries are process-global, so a
thread pool would serialize on them anyway; inline dispatch keeps results
and metrics deterministic while arrivals naturally accumulate into the
next window.  A Server binds to the event loop of its first submit — use
one server per :func:`asyncio.run`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.method import Method
from repro.errors import ConfigurationError, ServerClosedError
from repro.obs import metrics as _metrics
from repro.plan.cache import PlanKey, key_for
from repro.plan.plan import ExecutionPlan
from repro.plan.session import PlanSession
from repro.serve.admission import AdmissionController
from repro.serve.keys import RequestSpec, normalize_request, spec_method
from repro.serve.singleflight import SingleFlight

__all__ = ["ServeConfig", "ServeResult", "Server"]

_F32 = np.float32


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving loop (batching window, admission bounds)."""

    #: Most requests one coalesced batch may carry.
    max_batch: int = 256
    #: Micro-batching window in seconds: how long a flusher holds the
    #: first request of a batch for others to join.  ``0.0`` still
    #: coalesces everything submitted in the same event-loop tick.
    max_wait: float = 0.0
    #: Soft pending-request bound — submits above it await capacity.
    max_pending: int = 1024
    #: Hard bound — submits at it are shed with ServerOverloadedError.
    hard_limit: int = 4096
    #: Shards per dispatched batch (>1 routes through execute_sharded).
    shards: int = 1
    #: Split sharded dispatches along the system topology's rank
    #: boundaries (no shard straddles a rank); only meaningful with
    #: ``shards > 1``.
    rank_aligned: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("ServeConfig needs max_batch >= 1")
        if self.max_wait < 0:
            raise ConfigurationError("ServeConfig needs max_wait >= 0")
        if self.shards < 1:
            raise ConfigurationError("ServeConfig needs shards >= 1")


@dataclass
class ServeResult:
    """One request's completed slice of a coalesced batch."""

    #: float32 results for this request's inputs, in submission order.
    values: np.ndarray
    #: ``method:function`` label of the lane that served it.
    label: str
    #: Elements this request contributed.
    n_elements: int
    #: Requests the carrying batch coalesced (1 = no coalescing).
    batch_requests: int
    #: Elements the carrying batch dispatched in one plan launch.
    batch_elements: int
    #: Simulated seconds of the carrying batch's launch.
    simulated_seconds: float


@dataclass
class _Pending:
    """One admitted request waiting in a lane."""

    spec: RequestSpec
    xs: np.ndarray
    future: "asyncio.Future[ServeResult]"


@dataclass
class _Lane:
    """Per-PlanKey request queue: its method, flusher and compiled plan."""

    key: PlanKey
    label: str
    #: The (un-setup until compiled) Method the lane's plan builds from.
    method: Method
    items: List[_Pending] = field(default_factory=list)
    #: Set whenever items is non-empty (wakes an idle flusher).
    event: asyncio.Event = field(default_factory=asyncio.Event)
    #: Pulsed on every enqueue (extends the micro-batching window).
    arrival: asyncio.Event = field(default_factory=asyncio.Event)
    plan: Optional[ExecutionPlan] = None
    task: Optional["asyncio.Task"] = None


class Server:
    """Async front end coalescing requests onto compiled execution plans."""

    def __init__(self, session: Optional[PlanSession] = None,
                 config: Optional[ServeConfig] = None):
        self.session = session if session is not None else PlanSession()
        self.config = config if config is not None else ServeConfig()
        self.system = self.session.runtime.system
        self._admission = AdmissionController(
            max_pending=self.config.max_pending,
            hard_limit=self.config.hard_limit)
        self._flights = SingleFlight()
        self._lanes: Dict[PlanKey, _Lane] = {}
        #: spec -> its lane; specs that normalize to one key share a lane.
        self._spec_lanes: Dict[RequestSpec, _Lane] = {}
        self._outstanding: Dict["asyncio.Future[ServeResult]", None] = {}
        self._closed = False
        #: Lifetime coalescing tallies (also in ``repro.obs.metrics``).
        self.batches = 0
        self.batched_requests = 0
        self.batched_elements = 0

    # -- request identity ----------------------------------------------

    def _lane_for(self, spec: RequestSpec) -> _Lane:
        lane = self._spec_lanes.get(spec)
        if lane is None:
            method = spec_method(spec)
            key = key_for(self.system, method, self.session.config)
            lane = self._lanes.get(key)
            if lane is None:
                lane = _Lane(key=key, label=spec.label, method=method)
                self._lanes[key] = lane
            self._spec_lanes[spec] = lane
        return lane

    # -- plan builds (single-flight) -----------------------------------

    async def _plan_for(self, lane: _Lane) -> ExecutionPlan:
        if lane.plan is not None:
            return lane.plan

        async def build() -> ExecutionPlan:
            # Yield once so every submit already scheduled in this burst
            # reaches the single-flight gate and joins as a follower
            # before the (synchronous) compile runs.
            await asyncio.sleep(0)
            return self.session.plans.plan(self.system, lane.method,
                                           self.session.config)

        plan = await self._flights.run(lane.key, build)
        lane.plan = plan
        return plan

    # -- submission ----------------------------------------------------

    async def submit(
        self,
        function: str,
        method: str,
        values,
        params: Optional[dict] = None,
        *,
        placement: str = "mram",
        assume_in_range: bool = False,
    ) -> ServeResult:
        """Serve one request; returns when its coalesced batch lands."""
        spec = normalize_request(
            function, method, params, placement=placement,
            assume_in_range=assume_in_range)
        return await self.submit_spec(spec, values)

    async def submit_spec(self, spec: RequestSpec, values) -> ServeResult:
        """Serve one request for an already-normalized spec.

        Admission may await (backpressure) or raise
        :class:`~repro.errors.ServerOverloadedError` /
        :class:`~repro.errors.ServerClosedError`; afterwards the request
        rides a coalesced batch and resolves with its own value slice.
        """
        xs = np.asarray(values, dtype=_F32).ravel()
        if xs.size == 0:
            raise ConfigurationError("cannot serve an empty input array")
        if self._closed:
            raise ServerClosedError("server is closed to new requests")
        await self._admission.admit()
        enqueued = False
        try:
            lane = self._lane_for(spec)
            await self._plan_for(lane)
            loop = asyncio.get_running_loop()
            pending = _Pending(spec=spec, xs=xs, future=loop.create_future())
            lane.items.append(pending)
            lane.event.set()
            lane.arrival.set()
            self._outstanding[pending.future] = None
            pending.future.add_done_callback(self._outstanding.pop)
            if lane.task is None or lane.task.done():
                lane.task = loop.create_task(self._flush_loop(lane))
            enqueued = True
        finally:
            if not enqueued:
                self._admission.release(1)
        return await pending.future

    async def submit_many(
        self, requests: Iterable[Tuple[RequestSpec, object]],
    ) -> List[ServeResult]:
        """Submit ``(spec, values)`` pairs concurrently; results in order."""
        return list(await asyncio.gather(
            *(self.submit_spec(spec, values) for spec, values in requests)))

    # -- the flusher ---------------------------------------------------

    async def _flush_loop(self, lane: _Lane) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        while True:
            if not lane.items:
                lane.event.clear()
                await lane.event.wait()
            if cfg.max_wait > 0:
                deadline = loop.time() + cfg.max_wait
                while len(lane.items) < cfg.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    lane.arrival.clear()
                    try:
                        await asyncio.wait_for(lane.arrival.wait(),
                                               timeout=remaining)
                    except asyncio.TimeoutError:
                        break
            else:
                # Zero-window mode still coalesces a whole event-loop
                # tick: every submit scheduled before this yield enqueues.
                await asyncio.sleep(0)
            batch = lane.items[:cfg.max_batch]
            del lane.items[:cfg.max_batch]
            if batch:
                await self._run_batch(lane, batch)

    async def _run_batch(self, lane: _Lane, batch: List[_Pending]) -> None:
        xs = np.concatenate([p.xs for p in batch])
        try:
            values, result = await self._dispatch_batch(lane, xs)
        except asyncio.CancelledError:
            self._fail_batch(batch, ServerClosedError(
                "server closed while a batch was in flight"))
            raise
        except Exception as exc:
            self._fail_batch(batch, exc)
            return
        self.batches += 1
        self.batched_requests += len(batch)
        self.batched_elements += int(xs.size)
        _metrics.inc("serve.batches")
        _metrics.inc("serve.batch_requests", len(batch))
        _metrics.inc("serve.elements", int(xs.size))
        _metrics.observe("serve.coalesce_ratio",
                         self.batched_requests / self.batches)
        offset = 0
        for p in batch:
            n = int(p.xs.size)
            # Copy the slice: a view would pin the whole batch array for
            # the lifetime of one request's result.
            out = np.array(values[offset:offset + n], dtype=_F32)
            offset += n
            if not p.future.done():
                p.future.set_result(ServeResult(
                    values=out, label=lane.label, n_elements=n,
                    batch_requests=len(batch),
                    batch_elements=int(xs.size),
                    simulated_seconds=float(result.total_seconds)))
        self._admission.release(len(batch))

    def _fail_batch(self, batch: List[_Pending], exc: BaseException) -> None:
        for p in batch:
            if not p.future.done():
                p.future.set_exception(exc)
                # Mark retrieved: a submitter cancelled mid-await would
                # otherwise leave a never-retrieved exception at GC time.
                p.future.exception()
        self._admission.release(len(batch))

    async def _dispatch_batch(self, lane: _Lane, xs: np.ndarray):
        """Run one coalesced batch; returns ``(values, timing_result)``.

        Override point for tests (e.g. delaying completion to exercise
        out-of-order scatter-back); the default evaluates bit-exact values
        through the plan (:meth:`~repro.plan.plan.ExecutionPlan.values`) and
        books the launch timing through the session
        (:meth:`~repro.plan.session.PlanSession.execute_plan`), sharded when
        configured.
        """
        plan = lane.plan
        values = plan.values(xs)
        result = self.session.execute_plan(
            lane.label, plan, xs, shards=self.config.shards,
            rank_aligned=self.config.rank_aligned)
        return values, result

    # -- lifecycle -----------------------------------------------------

    async def close(self, *, drain: bool = True) -> None:
        """Stop accepting requests; drain or drop the queued ones.

        With ``drain=True`` (default) every already-admitted request
        completes before the flushers stop.  With ``drain=False`` queued
        requests fail with :class:`~repro.errors.ServerClosedError`; a
        batch already dispatching still completes (the simulator cannot
        be preempted mid-launch).
        """
        if self._closed:
            return
        self._closed = True
        self._admission.close()
        if drain:
            while self._outstanding:
                await asyncio.gather(*list(self._outstanding),
                                     return_exceptions=True)
        for lane in self._lanes.values():
            if lane.task is not None:
                lane.task.cancel()
        for lane in self._lanes.values():
            if lane.task is not None:
                try:
                    await lane.task
                except asyncio.CancelledError:
                    pass
                lane.task = None
        if not drain:
            dropped = 0
            for lane in self._lanes.values():
                for p in lane.items:
                    if not p.future.done():
                        p.future.set_exception(ServerClosedError(
                            "server closed without draining"))
                        p.future.exception()
                    dropped += 1
                lane.items.clear()
            if dropped:
                self._admission.release(dropped)

    async def __aenter__(self) -> "Server":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=exc_type is None)

    # -- introspection -------------------------------------------------

    @property
    def coalesce_ratio(self) -> float:
        """Lifetime requests per dispatched batch (1.0 = none coalesced)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    def stats(self) -> Dict[str, object]:
        """Snapshot across admission, single-flight, and coalescing."""
        return {
            "admission": self._admission.stats(),
            "singleflight": self._flights.stats(),
            "plancache": self.session.plans.stats(),
            "lanes": len(self._lanes),
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "batched_elements": self.batched_elements,
            "coalesce_ratio": self.coalesce_ratio,
        }
