"""PIM-as-a-service: an asyncio front end over the plan/execute machinery.

Requests name a kernel configuration (function, method, knobs, placement)
and carry a float32 array; the server coalesces concurrent requests with
the same normalized identity into one batch per compiled
:class:`~repro.plan.plan.ExecutionPlan`, builds each plan exactly once
per cold burst (single-flight), bounds its queue with backpressure and
load shedding, and scatters bit-exact per-request slices back.

Entry points: :class:`Server` (+ :class:`ServeConfig`) for embedding,
:func:`repro.serve.loadgen.run_load` for deterministic load generation,
``repro serve`` / ``repro loadgen`` on the command line.
"""

from repro.serve.admission import AdmissionController
from repro.serve.keys import RequestSpec, normalize_request, spec_method
from repro.serve.loadgen import (FAST_PROFILE, MIXED_PROFILE, LoadReport,
                                 TrafficItem, TrafficProfile, run_load,
                                 run_load_async)
from repro.serve.server import ServeConfig, Server, ServeResult
from repro.serve.singleflight import SingleFlight

__all__ = [
    "AdmissionController",
    "FAST_PROFILE",
    "LoadReport",
    "MIXED_PROFILE",
    "RequestSpec",
    "ServeConfig",
    "ServeResult",
    "Server",
    "SingleFlight",
    "TrafficItem",
    "TrafficProfile",
    "normalize_request",
    "run_load",
    "run_load_async",
    "spec_method",
]
