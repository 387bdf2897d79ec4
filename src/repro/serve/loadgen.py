"""Deterministic load generator for the serving front end.

Replays seeded mixed-kernel traffic — thousands of concurrent logical
clients submitting small requests — against a :class:`~repro.serve.server
.Server` and reports sustained request rate, latency percentiles, and the
server's coalescing/single-flight statistics.  The traffic *content* is
fully deterministic: each client owns a child generator spawned from one
:class:`numpy.random.SeedSequence`, so the (spec, size, values) stream of
every client is a pure function of ``seed`` regardless of how the event
loop interleaves them.  Only wall-clock figures (latency, req/s) vary
between runs.

``verify=True`` additionally re-evaluates a capped sample of served
requests directly on freshly built methods and counts bitwise mismatches
— the served slice of a coalesced batch must equal evaluating the request
alone.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.functions.registry import get_function
from repro.errors import ServerOverloadedError
from repro.obs import metrics as _metrics
from repro.plan.session import PlanSession
from repro.serve.keys import RequestSpec, normalize_request, spec_method
from repro.serve.server import ServeConfig, Server

__all__ = ["TrafficItem", "TrafficProfile", "LoadReport", "MIXED_PROFILE",
           "FAST_PROFILE", "run_load", "run_load_async"]

_F32 = np.float32


@dataclass(frozen=True)
class TrafficItem:
    """One kernel in a traffic mix, with its weight and request sizing."""

    spec: RequestSpec
    weight: float = 1.0
    min_n: int = 8
    max_n: int = 96


@dataclass(frozen=True)
class TrafficProfile:
    """A named, weighted kernel mix."""

    name: str
    items: Tuple[TrafficItem, ...]

    def weights(self) -> np.ndarray:
        """The items' draw probabilities, normalized to sum to 1."""
        w = np.array([item.weight for item in self.items], dtype=float)
        return w / w.sum()


#: Mixed-kernel profile spanning the implementation families: interpolated
#: and fixed-point L-LUTs, both direct-LUT variants, CORDIC rotation,
#: and the spline table — the serving analogue of the differential suite's
#: FAST_PAIRS.
MIXED_PROFILE = TrafficProfile(name="mixed", items=(
    TrafficItem(normalize_request("sin", "llut_i"), weight=3.0),
    TrafficItem(normalize_request("sin", "llut_fx"), weight=2.0),
    TrafficItem(normalize_request("tanh", "dlut"), weight=2.0),
    TrafficItem(normalize_request("gelu", "dlut_i"), weight=2.0),
    TrafficItem(normalize_request("sin", "cordic"), weight=1.0),
    TrafficItem(normalize_request("exp", "slut_i"), weight=1.0),
))

#: Two-kernel profile for quick CI smoke runs.
FAST_PROFILE = TrafficProfile(name="fast", items=(
    TrafficItem(normalize_request("sin", "llut_i"), weight=2.0),
    TrafficItem(normalize_request("tanh", "dlut"), weight=1.0),
))


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    profile: str
    clients: int
    requests_per_client: int
    seed: int
    requests: int = 0
    completed: int = 0
    shed: int = 0
    wall_seconds: float = 0.0
    req_per_s: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    coalesce_ratio: float = 0.0
    batches: int = 0
    singleflight_leaders: int = 0
    singleflight_followers: int = 0
    plan_builds: int = 0
    verified: int = 0
    mismatches: int = 0
    server_stats: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable multi-line report (the ``repro loadgen`` output)."""
        lines = [
            f"loadgen[{self.profile}]: {self.clients} clients x "
            f"{self.requests_per_client} requests, seed {self.seed}",
            f"  completed {self.completed}/{self.requests} "
            f"({self.shed} shed) in {self.wall_seconds:.3f} s "
            f"-> {self.req_per_s:.0f} req/s",
            f"  latency p50 {self.latency_p50 * 1e3:.2f} ms, "
            f"p95 {self.latency_p95 * 1e3:.2f} ms, "
            f"p99 {self.latency_p99 * 1e3:.2f} ms",
            f"  coalesce ratio {self.coalesce_ratio:.1f} req/batch "
            f"over {self.batches} batches; "
            f"plan builds {self.plan_builds} "
            f"(single-flight {self.singleflight_leaders} leaders / "
            f"{self.singleflight_followers} followers)",
        ]
        if self.verified:
            lines.append(f"  verified {self.verified} requests "
                         f"bit-exact, {self.mismatches} mismatches")
        return "\n".join(lines)


def _draw_request(items: Tuple[TrafficItem, ...], weights: np.ndarray,
                  rng: np.random.Generator) -> Tuple[TrafficItem, np.ndarray]:
    """One (item, inputs) draw — a pure function of the rng state."""
    idx = int(rng.choice(len(items), p=weights))
    item = items[idx]
    n = int(rng.integers(item.min_n, item.max_n + 1))
    lo, hi = get_function(item.spec.function).natural_range
    xs = rng.uniform(lo, hi, size=n).astype(_F32)
    return item, xs


async def _client(server: Server, profile: TrafficProfile,
                  weights: np.ndarray, rng: np.random.Generator,
                  n_requests: int, latencies: List[float],
                  report: LoadReport,
                  verify_log: Optional[List[Tuple[RequestSpec, np.ndarray,
                                                  np.ndarray]]],
                  verify_limit: int) -> None:
    for _ in range(n_requests):
        item, xs = _draw_request(profile.items, weights, rng)
        report.requests += 1
        t0 = perf_counter()
        try:
            result = await server.submit_spec(item.spec, xs)
        except ServerOverloadedError:
            report.shed += 1
            continue
        latencies.append(perf_counter() - t0)
        report.completed += 1
        if verify_log is not None and len(verify_log) < verify_limit:
            verify_log.append((item.spec, xs, result.values))


def _verify(verify_log: List[Tuple[RequestSpec, np.ndarray, np.ndarray]],
            report: LoadReport) -> None:
    """Re-evaluate served slices directly; count bitwise mismatches."""
    methods: Dict[RequestSpec, object] = {}
    for spec, xs, served in verify_log:
        m = methods.get(spec)
        if m is None:
            m = spec_method(spec)
            m.setup()
            methods[spec] = m
        direct = m.evaluate_vec(xs)
        report.verified += 1
        if served.tobytes() != direct.astype(_F32).tobytes():
            report.mismatches += 1


async def run_load_async(
    profile: TrafficProfile = MIXED_PROFILE,
    *,
    clients: int = 64,
    requests_per_client: int = 8,
    seed: int = 2026,
    config: Optional[ServeConfig] = None,
    session: Optional[PlanSession] = None,
    verify: bool = False,
    verify_limit: int = 256,
) -> LoadReport:
    """Drive seeded traffic through a fresh server; return the report."""
    server = Server(session=session,
                    config=config if config is not None else ServeConfig())
    report = LoadReport(profile=profile.name, clients=clients,
                        requests_per_client=requests_per_client, seed=seed)
    weights = profile.weights()
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(clients)]
    latencies: List[float] = []
    verify_log: Optional[List[Tuple[RequestSpec, np.ndarray, np.ndarray]]] \
        = [] if verify else None

    t0 = perf_counter()
    await asyncio.gather(*(
        _client(server, profile, weights, rng, requests_per_client,
                latencies, report, verify_log, verify_limit)
        for rng in rngs))
    await server.close(drain=True)
    report.wall_seconds = perf_counter() - t0

    if latencies:
        arr = np.array(latencies)
        report.latency_p50 = float(np.percentile(arr, 50))
        report.latency_p95 = float(np.percentile(arr, 95))
        report.latency_p99 = float(np.percentile(arr, 99))
        _metrics.observe("serve.latency_p50_seconds", report.latency_p50)
        _metrics.observe("serve.latency_p95_seconds", report.latency_p95)
        _metrics.observe("serve.latency_p99_seconds", report.latency_p99)
    if report.wall_seconds > 0:
        report.req_per_s = report.completed / report.wall_seconds
    report.coalesce_ratio = server.coalesce_ratio
    report.batches = server.batches
    stats = server.stats()
    flight = stats["singleflight"]
    report.singleflight_leaders = flight["leaders"]
    report.singleflight_followers = flight["followers"]
    report.plan_builds = server.session.plans.misses
    report.server_stats = stats
    if verify_log:
        _verify(verify_log, report)
    return report


def run_load(profile: TrafficProfile = MIXED_PROFILE, **kwargs) -> LoadReport:
    """Synchronous wrapper: one fresh event loop per load run."""
    return asyncio.run(run_load_async(profile, **kwargs))
