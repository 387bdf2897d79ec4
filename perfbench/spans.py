"""Outside-in layer trace: spans recorded around the program's entry points.

The benchmark never edits the program.  For a traced run it replaces each
boundary in :data:`BOUNDARIES` -- a function or method, at every place its
callers look it up -- with a wrapper.  While the :class:`Recorder` is on,
the wrapper records a span; while it is off, it calls straight through.

Wrappers are installed before the workload builds anything.  A plan keeps
its kernel as a bound ``Method.evaluate``, and ``DPU.run_kernel`` routes a
kernel to the batch engine only when that kernel *is* ``Method.evaluate``;
installing first keeps that identity intact.  Forked pool workers inherit
the wrappers with the recorder off, so they pass straight through.

Busy time is self time: a span's duration minus the time its child spans
cover.  A coroutine boundary (``serve.submit``, ``serve.admit``) counts as
busy only while one of its steps runs on the event loop, not while it
waits, so the sum of self times plus the loop's idle time and the
unattributed rest adds up to the wall time of the traced phase.

A boundary whose module or attribute a later version removes is reported
in :attr:`Installation.absent` and its metrics read 0; nothing raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import selectors
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BOUNDARIES", "Recorder", "Installation", "install",
           "IdleTimingSelector", "layer_metrics", "percentile"]

#: (boundary, sites): every ``(module, attribute path)`` where callers look
#: the boundary up.  ``tally_from_keys`` is bound by name in both batch
#: modules and ``execute_sharded`` in the session module, so each is wrapped
#: where it is read, not only where it is defined.
BOUNDARIES: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("core.setup", (("repro.core.method", "Method.setup"),)),
    ("core.evaluate_vec", (("repro.core.method", "Method.evaluate_vec"),)),
    ("isa.trace", (("repro.core.method", "Method.evaluate"),)),
    ("batch.vec.run", (("repro.batch.vec", "VecEvaluator.run"),)),
    ("batch.vec.values", (("repro.batch.vec", "VecEvaluator.values"),)),
    ("batch.tally", (("repro.batch.vec", "tally_from_keys"),
                     ("repro.batch.engine", "tally_from_keys"))),
    ("pim.run_kernel", (("repro.pim.dpu", "DPU.run_kernel"),)),
    ("plan.cache", (("repro.plan.cache", "PlanCache.plan"),)),
    ("plan.values", (("repro.plan.plan", "ExecutionPlan.values"),)),
    ("plan.execute", (("repro.plan.plan", "ExecutionPlan.execute"),)),
    ("plan.session", (("repro.plan.session", "PlanSession.execute_plan"),)),
    ("plan.dispatch", (("repro.plan.session", "execute_sharded"),
                       ("repro.plan.dispatch", "execute_sharded"))),
    ("plan.pool.run_shards", (("repro.plan.pool", "ShardPool.run_shards"),)),
    ("plan.pool.ship", (("repro.plan.pool", "ShardPool.ship"),)),
    ("serve.submit", (("repro.serve.server", "Server.submit_spec"),)),
    ("serve.admit", (("repro.serve.admission", "AdmissionController.admit"),)),
    ("analysis.sweep", (("repro.analysis.sweep", "sweep_method"),)),
)

#: Index of each field in a recorded span tuple.
SID, PARENT, NAME, START, END, BUSY, SELF, ATTRS, OK = range(9)


class Recorder:
    """In-memory span store plus the open-span stack of the main thread.

    Spans are tuples ``(id, parent id, name, start, end, busy, self, attrs,
    ok)``; ``parent`` is -1 for a span opened outside every other span.
    Only the main thread records: pool workers are other processes, and
    the asyncio loop runs one step at a time, so one stack suffices.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._ids = 0
        #: Request id the next ``serve.submit`` span is tagged with; the
        #: client sets it in the same loop step that calls submit.
        self.request_id: Optional[int] = None
        #: plan id -> attrs of its latest ``plan.values`` span, so the
        #: ``plan.session`` call of the same batch can tag both.
        self.last_values: Dict[int, dict] = {}
        #: lane label -> batches seen so far.
        self.lane_seq: Dict[str, int] = {}

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def call(self, name: str, hooks: "_Hooks", fn: Callable, args, kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [0.0, self._new_id()]
        attrs = hooks.opened(self, args, kwargs)
        stack.append(frame)
        ok = False
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[0] += dur
            if ok:
                attrs = hooks.closed(attrs, args, kwargs, result)
            self.spans.append((frame[1], parent[1] if parent else -1, name,
                               start, end, dur, dur - frame[0], attrs, ok))


class _TimedAwait:
    """Drives one coroutine step by step, timing each step as busy time."""

    __slots__ = ("rec", "name", "coro", "attrs")

    def __init__(self, rec: Recorder, name: str, coro, attrs) -> None:
        self.rec = rec
        self.name = name
        self.coro = coro
        self.attrs = attrs

    def __await__(self):
        rec, coro = self.rec, self.coro
        stack = rec._stack
        parent = stack[-1] if stack else None
        frame = [0.0, rec._new_id()]
        busy = 0.0
        ok = False
        send: Any = None
        exc: Optional[BaseException] = None
        start = perf_counter()
        try:
            while True:
                t0 = perf_counter()
                stack.append(frame)
                try:
                    if exc is None:
                        yielded = coro.send(send)
                    else:
                        yielded = coro.throw(exc)
                except StopIteration as stop:
                    ok = True
                    return stop.value
                finally:
                    stack.pop()
                    step = perf_counter() - t0
                    busy += step
                    if stack:
                        stack[-1][0] += step
                try:
                    send, exc = (yield yielded), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as err:  # delivered into the coroutine
                    send, exc = None, err
        finally:
            rec.spans.append((frame[1], parent[1] if parent else -1,
                              self.name, start, perf_counter(), busy,
                              busy - frame[0], self.attrs, ok))


def _arg(args, kwargs, index: Optional[int], name: str):
    """Argument ``name`` (positional ``index``) of a call, or None."""
    if name in kwargs:
        return kwargs[name]
    if index is not None and index < len(args):
        return args[index]
    return None


class _Hooks:
    """Per-boundary span attributes, read from a call's arguments/result."""

    def __init__(self, boundary: str, fn: Callable) -> None:
        self.boundary = boundary
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        self.index = {p: i for i, p in enumerate(params)}

    def _get(self, args, kwargs, name: str):
        return _arg(args, kwargs, self.index.get(name), name)

    def opened(self, rec: Recorder, args, kwargs) -> Optional[dict]:
        b = self.boundary
        if b in ("batch.vec.run", "batch.vec.values"):
            xs = self._get(args, kwargs, "xs")
            return {"elements": int(getattr(xs, "size", 0) or 0)}
        if b == "plan.values":
            attrs = {"lane": None, "seq": None}
            if args:
                rec.last_values[id(args[0])] = attrs
            return attrs
        if b == "plan.session":
            label = self._get(args, kwargs, "label")
            plan = self._get(args, kwargs, "plan")
            if label is None:
                return None
            seq = rec.lane_seq.get(label, 0)
            rec.lane_seq[label] = seq + 1
            attrs = {"lane": label, "seq": seq}
            values = rec.last_values.pop(id(plan), None)
            if values is not None:
                values.update(attrs)
            return attrs
        if b == "plan.pool.run_shards":
            specs = self._get(args, kwargs, "specs") or ()
            task_bytes = 0
            for spec in specs:
                for part in (spec if isinstance(spec, tuple) else (spec,)):
                    if isinstance(part, np.ndarray):
                        task_bytes += part.nbytes
            workers = getattr(args[0], "workers", 0) if args else 0
            return {"task_bytes": task_bytes, "workers": workers}
        if b == "serve.submit":
            return {"request": rec.request_id}
        return None

    def closed(self, attrs, args, kwargs, result):
        b = self.boundary
        if b == "core.setup":
            try:
                return {"table_bytes": int(result.table_bytes())}
            except AttributeError:  # setup no longer returns the method
                return {"table_bytes": 0}
        if b in ("batch.vec.run", "batch.vec.values"):
            attrs["fallback"] = result is None
            return attrs
        if b == "plan.pool.run_shards":
            outcomes, wall = result if isinstance(result, tuple) \
                else (result, 0.0)
            attrs["worker_busy"] = float(sum(
                getattr(o, "busy_seconds", 0.0) for o in outcomes or ()))
            attrs["parent_wait"] = float(wall)
            return attrs
        if b == "plan.pool.ship":
            size = int(getattr(result, "plan_bytes", 0))
            for spec in getattr(result, "arrays", ()):
                size += int(np.prod(spec.shape, dtype=np.int64)) \
                    * np.dtype(spec.dtype).itemsize
            return {"shipment": getattr(result, "token", id(result)),
                    "bytes": size}
        return attrs


def _sync_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    hooks = _Hooks(name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        return rec.call(name, hooks, fn, args, kwargs)

    return wrapper


def _async_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    hooks = _Hooks(name, fn)

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not rec.on:
            return await fn(*args, **kwargs)
        attrs = hooks.opened(rec, args, kwargs)
        return await _TimedAwait(rec, name, fn(*args, **kwargs), attrs)

    return wrapper


class Installation:
    """The wrappers put in place by :func:`install`; undone by :meth:`remove`."""

    def __init__(self) -> None:
        #: (owner object, attribute, original value) for every patched site.
        self.patched: List[Tuple[Any, str, Any]] = []
        #: Boundaries found at no site (removed or renamed by the program).
        self.absent: List[str] = []

    def remove(self) -> None:
        """Restore every original attribute, newest first."""
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def _resolve(module: str, path: str):
    """``(owner, attribute, value)`` for ``module:path``, or None."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def install(rec: Recorder,
            boundaries: Sequence = BOUNDARIES) -> Installation:
    """Wrap every boundary; call before the workload builds anything."""
    inst = Installation()
    for name, sites in boundaries:
        wrapped: Dict[int, Callable] = {}
        found = False
        for module, path in sites:
            got = _resolve(module, path)
            if got is None or not callable(got[2]):
                continue
            owner, attr, fn = got
            found = True
            wrapper = wrapped.get(id(fn))
            if wrapper is None:
                make = _async_wrapper if inspect.iscoroutinefunction(fn) \
                    else _sync_wrapper
                wrapper = wrapped[id(fn)] = make(rec, name, fn)
            inst.patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        if not found:
            inst.absent.append(name)
    return inst


class IdleTimingSelector(selectors.DefaultSelector):
    """The default selector, plus the seconds the event loop spent blocked."""

    def __init__(self) -> None:
        super().__init__()
        self.idle_s = 0.0

    def select(self, timeout=None):
        t0 = perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += perf_counter() - t0


def percentile(values, q: float) -> float:
    """``np.percentile`` that reads 0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(rec: Recorder, counters: Dict[str, float],
                  wall_s: float, idle_s: float) -> Dict[str, tuple]:
    """Per-boundary calls/busy plus the layer extras derived from spans.

    Returns ``name -> (value, unit)``.  ``counters`` is the flat counter
    map of the ``repro.obs.metrics`` registry attached during the traced
    phase; a counter the program never emitted reads 0.  The serving
    figures built from client latencies (queue wait, loop time) read 0
    here; the serve workloads fill them in.
    """
    spans = rec.spans
    by_name: Dict[str, List[tuple]] = {name: [] for name, _ in BOUNDARIES}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    names = {s[SID]: s[NAME] for s in spans}
    out: Dict[str, tuple] = {}
    self_total = 0.0
    for name, _ in BOUNDARIES:
        group = by_name[name]
        busy = sum(s[SELF] for s in group)
        self_total += busy
        out[f"{name}.calls"] = (len(group), "count")
        out[f"{name}.busy_s"] = (busy, "s")

    def c(key: str) -> float:
        return float(counters.get(key, 0))

    def hit_ratio(prefix: str, hits: str, misses: str) -> None:
        lookups = c(hits) + c(misses)
        out[f"{prefix}.lookups"] = (lookups, "count")
        out[f"{prefix}.hit_ratio"] = (_ratio(c(hits), lookups), "ratio")

    setups = by_name["core.setup"]
    top_setups = [s for s in setups
                  if names.get(s[PARENT]) != "core.setup"]
    out["core.table_mib"] = (sum(
        (s[ATTRS] or {}).get("table_bytes", 0) for s in top_setups) / 2**20,
        "MiB")
    out["core.setup.ms_p50"] = (percentile(
        [(s[END] - s[START]) * 1e3 for s in setups], 50), "ms")
    hit_ratio("core.tablecache", "tablecache.hits", "tablecache.misses")

    vec = by_name["batch.vec.run"] + by_name["batch.vec.values"]
    elements = sum((s[ATTRS] or {}).get("elements", 0) for s in vec)
    out["batch.vec.elements"] = (elements, "count")
    out["batch.vec.ns_per_elem"] = (_ratio(
        sum(s[SELF] for s in vec) * 1e9, elements), "ns")
    hit_ratio("batch.vec.memo", "batch.vec.memo.hits",
              "batch.vec.memo.misses")
    out["batch.vec.fallbacks"] = (sum(
        1 for s in vec if (s[ATTRS] or {}).get("fallback")), "count")
    hit_ratio("batch.tally_cache", "batch.tally_cache.hits",
              "batch.tally_cache.misses")
    hit_ratio("plan.cache", "plancache.hits", "plancache.misses")
    hit_ratio("plan.launch_memo", "plan.launch_memo.hits",
              "plan.launch_memo.misses")

    runs = by_name["plan.pool.run_shards"]
    run_attrs = [s[ATTRS] or {} for s in runs]
    worker_busy = sum(a.get("worker_busy", 0.0) for a in run_attrs)
    parent_wait = sum(a.get("parent_wait", 0.0) for a in run_attrs)
    workers = max((a.get("workers", 0) for a in run_attrs), default=0)
    out["plan.pool.run_shards.ms_p50"] = (percentile(
        [(s[END] - s[START]) * 1e3 for s in runs], 50), "ms")
    out["plan.pool.worker_busy_s"] = (worker_busy, "s")
    out["plan.pool.parent_wait_s"] = (parent_wait, "s")
    out["plan.pool.workers"] = (workers, "count")
    out["plan.pool.utilization"] = (
        _ratio(worker_busy, parent_wait * workers), "ratio")
    shipments = {}
    for s in by_name["plan.pool.ship"]:
        a = s[ATTRS] or {}
        shipments[a.get("shipment")] = a.get("bytes", 0)
    out["plan.pool.ship_mib"] = (sum(shipments.values()) / 2**20, "MiB")
    out["plan.pool.task_mib"] = (sum(
        a.get("task_bytes", 0) for a in run_attrs) / 2**20, "MiB")
    out["plan.pool.failed"] = (sum(1 for s in runs if not s[OK]), "count")

    # Serving counters; the serve workloads add the span-derived figures.
    batches = c("serve.batches")
    out["serve.requests"] = (c("serve.requests"), "count")
    out["serve.batches"] = (batches, "count")
    out["serve.coalesce_ratio"] = (
        _ratio(c("serve.batch_requests"), batches), "req/batch")
    for name, unit in (("serve.failed", "count"), ("serve.loop_busy_s", "s"),
                       ("serve.admit_wait_ms_p99", "ms"),
                       ("serve.batch_ms_p50", "ms"),
                       ("serve.batch_ms_p99", "ms"),
                       ("serve.queue_wait_ms_p50", "ms"),
                       ("serve.queue_wait_ms_p99", "ms"),
                       ("serve.queue_wait.samples", "count")):
        out[name] = (0.0, unit)

    out["analysis.sweep.points"] = (c("sweep.points"), "count")
    out["analysis.sweep.skipped"] = (c("sweep.skipped_oversized"), "count")

    out["obs.spans"] = (len(spans), "count")
    out["obs.traced_wall_s"] = (wall_s, "s")
    out["obs.loop_idle_s"] = (idle_s, "s")
    out["unattributed.busy_s"] = (wall_s - idle_s - self_total, "s")
    return out
