"""The four workloads: inputs, set-up, measured windows, checks, close.

Each workload drives the program only through its public entry points:
``sweep_method`` with a ``PlanCache``; ``normalize_request`` and
``Server.submit_spec``; ``PlanSession.install``/``launch`` with a
``ShardPool``.  It passes no ``batch=``/``vec=`` keyword and no
``ServeConfig.vec`` and reads no private attribute, so a change that keeps
those entry points cannot break it.

A workload's life, driven by :mod:`perfbench.harness`:

* ``__init__`` draws every input from the seed and allocates the
  benchmark's own per-request arrays, before the memory baseline is read;
* ``setup`` builds the program's side (server, plans, pool), repeatably;
* ``start``/``window``/``finish`` measure one phase as a series of windows
  (the harness times the machine's speed between windows);
* ``check`` verifies outputs after the clock stopped; ``close`` releases.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pathlib
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks
from perfbench.spans import (ATTRS, END, NAME, PARENT, SID, START, Recorder,
                             percentile)
from perfbench.traffic import (POOL_KERNELS, SERVE_MIX, domain_pools,
                               draw_stream, sine_inputs)

__all__ = ["Measurement", "Fig5Sweep", "Serve", "PoolSharded", "WORKLOADS",
           "make_workload"]

#: Committed Figure 5 artifacts, relative to the checkout root.
FIG5_OUT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "out"

#: The workload seed whose sweep must reproduce the committed artifacts.
FIG5_ARTIFACT_SEED = 7

#: Options of every served and installed kernel, and of its oracle.  Inputs
#: span whole benchmark domains, so the kernels must reduce their range
#: (``make_method`` alone assumes pre-reduced inputs).
REQUEST_OPTIONS = {"placement": "mram", "assume_in_range": False}


@dataclass
class Measurement:
    """One measured phase: what was attempted, what completed, and when."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Wall seconds inside the workload's windows (reference bursts excluded).
    wall_s: float = 0.0
    ops: int = 0
    #: Per-op latency in wall seconds.
    latency_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Reference seconds per wall second over the phase (see reference.py),
    #: and the median unit time of each reference part.
    scale: float = 1.0
    ref_units: dict = field(default_factory=dict)
    #: Workload-specific data the checks and the trace analysis read.
    data: dict = field(default_factory=dict)


class Fig5Sweep:
    """The Figure 5-7 sine sweep from a cold ``PlanCache``, repeated.

    A window is one whole sweep.  An op is a sweep point for throughput
    and a whole sweep for latency: its user waits for the whole sweep.
    """

    name = "fig5_sweep"
    #: Table builds and value passes are NumPy passes over large arrays.
    reference = {"vec": 1.0}
    setup_reps = 1
    window_s = 0.0
    workers = 0
    #: Simulated elements per sweep point (the sweep's input size).
    elements = 1 << 16

    def __init__(self, seed: int) -> None:
        from repro.analysis import sweep

        self.seed = seed
        self.inputs = sine_inputs(seed, self.elements)
        self.configs = dict(sweep.SINE_SWEEPS)

    def setup(self) -> None:
        """Nothing to build: every sweep starts from a cold ``PlanCache``."""

    def sweep_once(self) -> list:
        """One full sweep, as ``sine_sweep`` runs it, on a cold cache."""
        from repro.analysis.sweep import sweep_method
        from repro.plan.cache import PlanCache

        cache = PlanCache(maxsize=256)
        points = []
        for method, cfg in self.configs.items():
            for placement in ("mram", "wram"):
                points.extend(sweep_method(
                    "sin", method, placement=placement, inputs=self.inputs,
                    plan_cache=cache, **cfg))
        return points

    def start(self) -> None:
        self.sweeps: List[list] = []
        self.walls: List[float] = []

    def window(self, seconds: float, rec: Optional[Recorder] = None) -> float:
        t0 = perf_counter()
        self.sweeps.append(self.sweep_once())
        self.walls.append(perf_counter() - t0)
        return self.walls[-1]

    def finish(self) -> Measurement:
        points = sum(len(p) for p in self.sweeps)
        return Measurement(attempted=points, ops=points,
                           latency_s=np.asarray(self.walls),
                           data={"sweeps": self.sweeps})

    def sim_us_per_op(self, run: Measurement) -> float:
        """Modelled kernel time of one point: its 2^16 elements on one DPU."""
        from repro.pim.config import UPMEM_DPU

        points = run.data["sweeps"][0]
        cycles = statistics.fmean(p.cycles_per_element for p in points)
        return cycles * self.elements / UPMEM_DPU.frequency_hz * 1e6

    def check(self, runs: List[Measurement]) -> Tuple[List[str], int]:
        sweeps = [pts for r in runs for pts in r.data["sweeps"]]
        failures = checks.same_points(sweeps)
        failed = len(failures) * len(sweeps[0])
        rmse = checks.sweep_rmse(sweeps[0], self.inputs, self.configs)
        failures += rmse
        failed += len(rmse)
        if self.seed == FIG5_ARTIFACT_SEED:
            art = checks.fig5_artifacts(sweeps[0], FIG5_OUT)
            failures += art
            failed += len(art)
        return failures, failed

    def teardown(self) -> List[str]:
        return []

    def close(self) -> List[str]:
        return []

    def trace_extras(self, rec, run, wall_s, idle_s) -> dict:
        return {}


@dataclass(frozen=True)
class ServeShape:
    """A closed-loop traffic shape: client count and request sizes."""

    clients: int
    size_range: Tuple[int, int]
    log_sizes: bool
    pool_size: int
    stream_len: int
    #: Reference parts that time the machine for this shape, with the
    #: share of its time each stands for (reference.py).
    reference: Dict[str, float]


class Serve:
    """Closed-loop clients on the server's own event loop.

    A window runs the clients until its deadline and waits for the requests
    in flight, so the machine-speed bursts between windows stall nobody.
    """

    setup_reps = 3
    window_s = 2.0
    workers = 0
    #: Warm-up requests per kernel in set-up, each a fresh 64-value array,
    #: so the plan's cost-path tallies are traced before timing starts.
    warm_requests = 16
    #: Served requests per kernel whose values are checked bit for bit.
    samples_per_kernel = 16

    def __init__(self, name: str, shape: ServeShape, seed: int,
                 selector=None) -> None:
        self.name = name
        self.shape = shape
        self.reference = shape.reference
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pools = domain_pools(rng, SERVE_MIX, shape.pool_size)
        self.stream = draw_stream(rng, SERVE_MIX, shape.stream_len,
                                  shape.size_range, shape.log_sizes,
                                  shape.pool_size)
        # Request i is the stream's i-th entry.  Its times land in arrays
        # allocated and touched here, before the memory baseline, so the
        # benchmark's own memory does not count toward the program's peak.
        self.sent, self.done, self.sim = (
            np.full(shape.stream_len, np.nan) for _ in range(3))
        self.next = 0
        self.loop = asyncio.SelectorEventLoop(selector) \
            if selector is not None else asyncio.new_event_loop()
        self.server = None

    def setup(self) -> None:
        from repro.plan.session import PlanSession
        from repro.serve.keys import normalize_request
        from repro.serve.server import ServeConfig, Server

        self.specs = [normalize_request(k.function, k.method,
                                        **REQUEST_OPTIONS)
                      for k in SERVE_MIX]
        self.server = Server(PlanSession(), ServeConfig())
        self.loop.run_until_complete(
            self._warm(np.random.default_rng([self.seed, 1])))

    async def _warm(self, rng: np.random.Generator) -> None:
        for k, spec in zip(SERVE_MIX, self.specs):
            pool = self.pools[k.domain]
            for off in rng.integers(0, pool.size - 64, self.warm_requests):
                await self.server.submit_spec(spec, pool[off:off + 64].copy())

    def start(self) -> None:
        self.first = self.next
        self.failed = 0
        self.errors: List[str] = []
        self.samples: List[tuple] = []
        self.per_kernel = [0] * len(SERVE_MIX)

    def window(self, seconds: float, rec: Optional[Recorder] = None) -> float:
        t0 = perf_counter()
        self.loop.run_until_complete(self._clients(t0 + seconds, rec))
        return perf_counter() - t0

    async def _clients(self, deadline: float, rec: Optional[Recorder]
                       ) -> None:
        server, specs, stream = self.server, self.specs, self.stream
        pools = [self.pools[k.domain] for k in SERVE_MIX]
        sent, done, sim = self.sent, self.done, self.sim
        cap = len(stream)

        async def client() -> None:
            while perf_counter() < deadline and self.next < cap:
                i = self.next
                self.next += 1
                k = int(stream.kernel[i])
                off = int(stream.offset[i])
                xs = pools[k][off:off + int(stream.size[i])].copy()
                if rec is not None:
                    rec.request_id = i
                t0 = perf_counter()
                try:
                    res = await server.submit_spec(specs[k], xs)
                except Exception as exc:  # shed, closed or raised: failed
                    self.failed += 1
                    self.errors.append(f"{SERVE_MIX[k].label}: "
                                       f"{type(exc).__name__}: {exc}")
                    continue
                done[i] = perf_counter()
                sent[i] = t0
                sim[i] = res.simulated_seconds / res.batch_requests
                if i % 61 == 0 and \
                        self.per_kernel[k] < self.samples_per_kernel:
                    self.per_kernel[k] += 1
                    self.samples.append((SERVE_MIX[k].label, xs, res.values))

        await asyncio.gather(*(client() for _ in range(self.shape.clients)))

    def finish(self) -> Measurement:
        lo, hi = self.first, self.next
        m = Measurement(attempted=hi - lo, failed=self.failed,
                        errors=self.errors)
        if hi >= len(self.stream):
            m.errors.append(f"request stream of {hi} exhausted")
            m.failed += 1
        index = lo + np.flatnonzero(~np.isnan(self.done[lo:hi]))
        m.ops = int(index.size)
        m.latency_s = self.done[index] - self.sent[index]
        m.data.update(samples=self.samples, index=index,
                      sim=self.sim[index])
        return m

    def sim_us_per_op(self, run: Measurement) -> float:
        return float(np.mean(run.data["sim"])) * 1e6

    def oracles(self) -> Dict[str, object]:
        """A set-up method per kernel label, built apart from the server's."""
        from repro.api import make_method

        return {k.label: make_method(k.function, k.method,
                                     **REQUEST_OPTIONS).setup()
                for k in SERVE_MIX}

    def check(self, runs: List[Measurement]) -> Tuple[List[str], int]:
        oracles = self.oracles()
        wrong = [bad for r in runs
                 for bad in checks.served_values(r.data["samples"], oracles)]
        errors = [e for r in runs for e in r.errors[:5]]
        return errors + wrong, len(wrong)

    def teardown(self) -> List[str]:
        """Drain and close the server of the latest set-up."""
        if self.server is not None:
            self.loop.run_until_complete(self.server.close())
            self.server = None
        return []

    def close(self) -> List[str]:
        failures = self.teardown()
        self.loop.close()
        return failures

    def trace_extras(self, rec: Recorder, run: Measurement, wall_s: float,
                     idle_s: float) -> Dict[str, tuple]:
        """Queue wait, batch compute and loop time from the traced spans.

        A request's carrying batch is the last batch of its lane that ended
        before the request's client resumed: the server resolves a batch's
        futures before its flusher can start the lane's next batch.
        """
        submit_span: Dict[int, int] = {}
        admit_wall: Dict[int, float] = {}
        batches: Dict[tuple, List[float]] = {}
        compute = 0.0
        for s in rec.spans:
            name, attrs = s[NAME], s[ATTRS] or {}
            if name == "serve.submit":
                submit_span[attrs.get("request")] = s[SID]
            elif name == "serve.admit":
                admit_wall[s[PARENT]] = s[END] - s[START]
            elif name in ("plan.values", "plan.session"):
                if s[PARENT] == -1:
                    compute += s[END] - s[START]
                if attrs.get("lane") is not None:
                    b = batches.setdefault((attrs["lane"], attrs["seq"]),
                                           [s[START], s[END]])
                    b[0] = min(b[0], s[START])
                    b[1] = max(b[1], s[END])
        lanes: Dict[str, tuple] = {}
        for (lane, _), (start, end) in batches.items():
            lanes.setdefault(lane, []).append((end, start))
        for lane, items in lanes.items():
            items.sort()
            lanes[lane] = ([e for e, _ in items], [s for _, s in items])
        queue = []
        for i in run.data["index"].tolist():
            sid = submit_span.get(i)
            ends_starts = lanes.get(SERVE_MIX[int(self.stream.kernel[i])].label)
            if sid is None or ends_starts is None:
                continue
            ends, starts = ends_starts
            t0, t1 = self.sent[i], self.done[i]
            j = bisect_right(ends, t1) - 1
            if j < 0:
                continue
            queue.append((t1 - t0) - admit_wall.get(sid, 0.0)
                         - (ends[j] - starts[j]))
        batch_ms = [(b[1] - b[0]) * 1e3 for b in batches.values()]
        queue_ms = np.asarray(queue) * 1e3
        admit_ms = np.asarray(list(admit_wall.values())) * 1e3
        return {
            "serve.failed": (run.failed, "count"),
            "serve.loop_busy_s": (wall_s - idle_s - compute, "s"),
            "serve.admit_wait_ms_p99": (percentile(admit_ms, 99), "ms"),
            "serve.batch_ms_p50": (percentile(batch_ms, 50), "ms"),
            "serve.batch_ms_p99": (percentile(batch_ms, 99), "ms"),
            "serve.queue_wait_ms_p50": (percentile(queue_ms, 50), "ms"),
            "serve.queue_wait_ms_p99": (percentile(queue_ms, 99), "ms"),
            "serve.queue_wait.samples": (len(queue), "count"),
        }


class PoolSharded:
    """Rank-aligned two-shard launches on a warm topology-aware pool.

    Launches carry 2^20 elements, so the workers' compute, not the pickling
    and pipe traffic of a launch, sets its time.
    """

    name = "pool_sharded"
    #: Mostly shipping shards and results, partly the workers' compute.
    reference = {"cpu": 0.25, "ipc": 0.75}
    setup_reps = 3
    window_s = 2.0
    elements = 1 << 20
    pool_size = 1 << 22
    stream_len = 1 << 12
    warm_launches = 2
    samples_per_kernel = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pools = domain_pools(rng, POOL_KERNELS, self.pool_size)
        self.stream = draw_stream(rng, POOL_KERNELS, self.stream_len,
                                  (self.elements, self.elements), False,
                                  self.pool_size)
        self.next = 0
        self.pool = None
        self.session = None
        self.workers = 0

    def setup(self) -> None:
        from repro.api import make_method
        from repro.pim.topology import PAPER_TOPOLOGY
        from repro.plan.pool import ShardPool
        from repro.plan.session import PlanSession

        self.others = {p.pid for p in multiprocessing.active_children()}
        self.session = PlanSession()
        self.names = [self.session.install(
            make_method(k.function, k.method, **REQUEST_OPTIONS)).name
            for k in POOL_KERNELS]
        self.pool = ShardPool(topology=PAPER_TOPOLOGY)
        self.workers = self.pool.workers
        rng = np.random.default_rng([self.seed, 1])
        for k, name in zip(POOL_KERNELS, self.names):
            pool = self.pools[k.domain]
            for off in rng.integers(0, pool.size - self.elements,
                                    self.warm_launches):
                self.launch(name, pool[off:off + self.elements])

    def launch(self, name: str, xs: np.ndarray):
        return self.session.launch(name, xs, shards=2, rank_aligned=True,
                                   pool=self.pool)

    def start(self) -> None:
        self.attempted = self.failed = 0
        self.errors: List[str] = []
        self.latency: List[float] = []
        self.sim: List[float] = []
        self.samples: List[tuple] = []
        self.per_kernel = [0] * len(POOL_KERNELS)

    def window(self, seconds: float, rec: Optional[Recorder] = None) -> float:
        stream, n = self.stream, self.elements
        pools = [self.pools[k.domain] for k in POOL_KERNELS]
        t_start = perf_counter()
        while True:
            j = self.next % len(stream)
            self.next += 1
            k = int(stream.kernel[j])
            off = int(stream.offset[j])
            xs = pools[k][off:off + n]
            self.attempted += 1
            t0 = perf_counter()
            try:
                res = self.launch(self.names[k], xs)
            except Exception as exc:  # a pool error fails this launch
                self.failed += 1
                self.errors.append(f"{self.names[k]}: "
                                   f"{type(exc).__name__}: {exc}")
            else:
                t1 = perf_counter()
                self.latency.append(t1 - t0)
                self.sim.append(res.total_seconds)
                if self.next % 17 == 0 and \
                        self.per_kernel[k] < self.samples_per_kernel:
                    self.per_kernel[k] += 1
                    self.samples.append((self.names[k], xs,
                                         res.total_seconds))
            if perf_counter() - t_start >= seconds:
                return perf_counter() - t_start

    def finish(self) -> Measurement:
        return Measurement(attempted=self.attempted, failed=self.failed,
                           errors=self.errors, ops=len(self.latency),
                           latency_s=np.asarray(self.latency),
                           data={"samples": self.samples, "sim": self.sim})

    def sim_us_per_op(self, run: Measurement) -> float:
        return float(np.mean(run.data["sim"])) * 1e6

    def check(self, runs: List[Measurement]) -> Tuple[List[str], int]:
        def inline(name, xs):
            return self.session.launch(name, xs, shards=2, rank_aligned=True)

        failures: List[str] = []
        failed = 0
        for r in runs:
            failures += r.errors[:5]
            bad = checks.pooled_vs_inline(r.data["samples"], inline)
            failures += bad
            failed += len(bad)
        return failures, failed

    def teardown(self) -> List[str]:
        """Close the pool; no segment or worker may outlive ``close()``."""
        if self.pool is None:
            return []
        children = [p for p in multiprocessing.active_children()
                    if p.pid not in self.others]
        self.pool.close()
        self.pool = None
        return checks.clean_pool_exit(children, self.others)

    def close(self) -> List[str]:
        return self.teardown()

    def trace_extras(self, rec, run, wall_s, idle_s) -> dict:
        return {}


#: serve_small spends its time in interpreter steps on the event loop and
#: in NumPy passes over small arrays; serve_bulk in NumPy passes over
#: batches of up to 256 KiB.
SERVE_SMALL = ServeShape(clients=64, size_range=(8, 96), log_sizes=False,
                         pool_size=1 << 20, stream_len=1 << 21,
                         reference={"cpu": 0.8})
SERVE_BULK = ServeShape(clients=4, size_range=(1 << 10, 1 << 16),
                        log_sizes=True, pool_size=1 << 22,
                        stream_len=1 << 16, reference={"vec": 1.0})

WORKLOADS = ("fig5_sweep", "serve_small", "serve_bulk", "pool_sharded")


def make_workload(name: str, seed: int, selector=None):
    """The named workload with its inputs drawn, not yet set up."""
    if name == "fig5_sweep":
        return Fig5Sweep(seed)
    if name == "serve_small":
        return Serve(name, SERVE_SMALL, seed, selector)
    if name == "serve_bulk":
        return Serve(name, SERVE_BULK, seed, selector)
    if name == "pool_sharded":
        return PoolSharded(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
