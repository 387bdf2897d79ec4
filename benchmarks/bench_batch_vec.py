"""Launch evaluator throughput vs the traced batch engine.

The point of :mod:`repro.batch.vec` is that a sweep-style workload — the
same large input array launched repeatedly (accuracy sweep + WRAM timing +
MRAM timing of one table image, or repeated figure regeneration) — stops
paying per-launch classification, value evaluation, and path tracing: one
keyed array pass (``Method.array_pass``) computes values and path keys
together once, and the digest memo serves every later launch of the same
array from cache.

This bench pins that with two wall-clock floors on a large-n sweep:

* **steady state** (memo-warm, the sweep regime): >= 10x faster than the
  traced engine's ``batch_tally`` + ``evaluate_vec`` per launch;
* **single shot** (memo-cold first launch): no material regression
  (>= 0.7x) — the keyed pass does the traced engine's two passes (keys,
  then values) as one.

Both paths must produce bit-identical values and tallies — speed must not
change physics.
"""

import time

import numpy as np

from repro.analysis.sweep import default_inputs
from repro.api import make_method
from repro.batch import VecEvaluator, batch_tally

#: One method per family: float interpolated L-LUT, fixed interpolated
#: L-LUT, and the CORDIC rotation (the heaviest pass).
POINTS = [
    ("llut_i", {"density_log2": 10}),
    ("llut_i_fx", {"density_log2": 10}),
    ("cordic", {}),
]
_N = 200_000
_REPEAT = 10

STEADY_FLOOR = 10.0
SINGLE_SHOT_FLOOR = 0.7


def _assert_same_numbers(fused, values, batch):
    assert fused.values.dtype == values.dtype
    np.testing.assert_array_equal(fused.values.view(np.uint32),
                                  values.view(np.uint32))
    assert fused.batch.tally.slots == batch.tally.slots
    assert fused.batch.tally.counts == batch.tally.counts
    np.testing.assert_array_equal(fused.batch.slots, batch.slots)


def test_batch_vec_speedup_floors(bench_seeds, write_report):
    """Launch evaluator: >= 10x steady-state, no single-shot regression.

    Measured steady-state margin is ~20-85x (one memoized array triple
    serves every repeat; path tallies come from the persistent per-plan
    cache on both sides), so the 10x floor leaves headroom for a loaded
    CI core.  CORDIC's ratio is the largest, ~70-85x: its traced side
    runs the same in-place CORDIC array kernel, ~75-95 ms per launch
    here.  The cold first shot measures ~0.7-1.3x — the keyed pass
    shares one reduction between values and keys but still pays the same
    per-path scalar traces.
    """
    rows = []
    worst_steady = float("inf")
    worst_single = float("inf")
    for name, params in POINTS:
        m = make_method("sin", name, assume_in_range=False,
                        **params).setup()
        xs = default_inputs("sin", n=_N,
                            seed=bench_seeds["batch_vec"]).astype(np.float32)

        # Warm imports / numpy dispatch outside the timers, and pin
        # bit-identity once per point.  Both engines run with persistent
        # per-plan tally caches, exactly as plan.execute() drives them —
        # the comparison is classification + value work, not path tracing.
        warm_ev = VecEvaluator(m)
        traced_tc, vec_tc = {}, {}
        _assert_same_numbers(warm_ev.run(xs, tally_cache=vec_tc),
                             m.evaluate_vec(xs),
                             batch_tally(m, xs, tally_cache=traced_tc))

        t0 = time.perf_counter()
        for _ in range(_REPEAT):
            batch_tally(m, xs, tally_cache=traced_tc)
            m.evaluate_vec(xs)
        t_traced = (time.perf_counter() - t0) / _REPEAT

        t0 = time.perf_counter()
        for _ in range(_REPEAT):
            VecEvaluator(m).run(xs, tally_cache={})
        t_cold = (time.perf_counter() - t0) / _REPEAT

        t0 = time.perf_counter()
        for _ in range(_REPEAT):
            warm_ev.run(xs, tally_cache=vec_tc)
        t_warm = (time.perf_counter() - t0) / _REPEAT

        steady = t_traced / t_warm
        single = t_traced / t_cold
        worst_steady = min(worst_steady, steady)
        worst_single = min(worst_single, single)
        rows.append(f"  {name:<10s} traced {t_traced * 1e3:8.1f} ms"
                    f"  cold {t_cold * 1e3:8.1f} ms ({single:4.1f}x)"
                    f"  warm {t_warm * 1e3:8.2f} ms ({steady:5.1f}x)")

    report = "\n".join([
        f"launch evaluator vs traced engine "
        f"({_N} elements x {_REPEAT} launches)",
        *rows,
        f"  worst steady-state speedup : {worst_steady:5.1f}x "
        f"(floor: {STEADY_FLOOR:.0f}x)",
        f"  worst single-shot ratio    : {worst_single:5.1f}x "
        f"(floor: {SINGLE_SHOT_FLOOR:.1f}x)",
    ])
    print("\n" + report)
    write_report("batch_vec.txt", report)

    assert worst_steady >= STEADY_FLOOR, (
        f"steady-state launch evaluation only {worst_steady:.1f}x faster "
        f"than the traced engine (floor {STEADY_FLOOR:.0f}x)"
    )
    assert worst_single >= SINGLE_SHOT_FLOOR, (
        f"cold launch evaluation regressed to {worst_single:.2f}x of the "
        f"traced engine (floor {SINGLE_SHOT_FLOOR:.1f}x)"
    )
