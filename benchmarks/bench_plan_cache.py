"""Plan-cache throughput: warm execute() stream vs repeated cold run().

The point of the plan/execute split is that a Figure-5-style sweep — the
same handful of method configurations launched over and over — stops paying
table generation, path classification, and tracing on every launch.  This
bench pins that with a wall-clock floor: a PlanCache-warm ``execute()``
stream must be at least 5x faster than rebuilding each method and calling
``PIMSystem.run`` per launch, while producing bit-identical timings.
"""

import time

from repro.api import make_method
from repro.analysis.sweep import default_inputs
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.cache import PlanCache

#: Fig5-style points: one method family swept over table densities.
POINTS = [("llut_i", {"density_log2": d}) for d in (6, 9, 12)]
_REPEAT = 8


def _make(method, params):
    return make_method("sin", method, assume_in_range=False, **params)


def test_plan_cache_speedup_floor(bench_seeds, write_report):
    """Warm plans must beat per-launch rebuilds by >= 5x wall-clock.

    Measured margin is ~7-10x (the warm stream still pays method
    construction and its table-key derivation for the cache lookup), so
    the 5x floor leaves headroom for a loaded CI core.
    """
    system = PIMSystem(SystemConfig(n_dpus=64))
    xs = default_inputs("sin", n=4096, seed=bench_seeds["plan_cache"])

    # Warm both code paths (imports, numpy dispatch) outside the timers.
    cache = PlanCache()
    for method, params in POINTS:
        cache.plan(system, _make(method, params)).execute(xs)

    t0 = time.perf_counter()
    cold = []
    for _ in range(_REPEAT):
        for method, params in POINTS:
            m = _make(method, params).setup()
            cold.append(system.run(m.evaluate, xs))
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = []
    for _ in range(_REPEAT):
        for method, params in POINTS:
            plan = cache.plan(system, _make(method, params))
            warm.append(plan.execute(xs))
    t_warm = time.perf_counter() - t0

    # Same simulated numbers, bit for bit — speed must not change physics.
    for a, b in zip(cold, warm):
        assert a.total_seconds == b.total_seconds
        assert a.per_dpu.cycles == b.per_dpu.cycles

    speedup = t_cold / t_warm
    stats = cache.stats()
    launches = _REPEAT * len(POINTS)
    report = "\n".join([
        "plan-cache throughput (fig5-style sweep, "
        f"{launches} launches x {xs.size} elements)",
        f"  cold run() stream : {t_cold * 1e3:9.1f} ms",
        f"  warm execute()    : {t_warm * 1e3:9.1f} ms",
        f"  speedup           : {speedup:9.1f}x (floor: 5x)",
        f"  plan cache        : {stats['hits']} hits, "
        f"{stats['misses']} misses, {stats['plans']} plans",
    ])
    print("\n" + report)
    write_report("plan_cache.txt", report)

    assert speedup >= 5.0, (
        f"warm plans only {speedup:.1f}x faster than cold runs"
    )
