"""Library-level throughput benchmarks (pytest-benchmark proper).

These time the *Python library itself* — vectorized accuracy evaluation and
traced-cost measurement — so regressions in the reproduction's own code show
up as benchmark regressions.
"""

import pytest

from repro.api import make_method
from repro.analysis.sweep import default_inputs

_N = 1 << 16


@pytest.fixture(scope="module")
def inputs(bench_seeds):
    return default_inputs("sin", n=_N, seed=bench_seeds["library_throughput"])


@pytest.mark.parametrize("method,params", [
    ("llut", {"density_log2": 12}),
    ("llut_i", {"density_log2": 12}),
    ("llut_i_fx", {"density_log2": 12}),
    ("mlut_i", {"size": 4097}),
    ("cordic", {"iterations": 24}),
])
def test_vectorized_eval_throughput(benchmark, inputs, method, params):
    m = make_method("sin", method, assume_in_range=True, **params).setup()
    out = benchmark(m.evaluate_vec, inputs)
    assert out.shape == inputs.shape


def test_traced_element_throughput(benchmark, inputs):
    m = make_method("sin", "llut_i", density_log2=12).setup()
    slots = benchmark(m.mean_slots, inputs[:32])
    assert slots > 0


def test_batched_tally_throughput(benchmark, inputs):
    """The launch evaluator over the full 2^16-element array (a fresh
    evaluator per round, so every round pays the keyed array pass)."""
    from repro.batch import VecEvaluator
    m = make_method("sin", "llut_i", density_log2=12).setup()
    res = benchmark(lambda: VecEvaluator(m).run(inputs))
    assert res is not None and res.batch.n == inputs.size


def test_batch_vs_scalar_tally_speedup(inputs):
    """The launch evaluator must beat per-element tracing by >= 10x.

    Both sides produce bit-identical tallies (the oracle harness pins
    that); this pins the point of the engine — wall-clock.  The scalar
    baseline runs on a subset to keep the bench fast; rates are compared
    per element.  Measured margin is ~200-800x, so the 10x floor has
    plenty of headroom even on a loaded CI core.
    """
    import time

    from repro.batch import VecEvaluator, scalar_tally

    m = make_method("sin", "llut_i", density_log2=12).setup()
    VecEvaluator(m).run(inputs[:64])  # warm both code paths
    scalar_tally(m, inputs[:64])

    t0 = time.perf_counter()
    res = VecEvaluator(m).run(inputs)
    t1 = time.perf_counter()
    subset = inputs[:2048]
    t2 = time.perf_counter()
    scalar_tally(m, subset)
    t3 = time.perf_counter()

    assert res is not None
    batch_rate = inputs.size / (t1 - t0)
    scalar_rate = subset.size / (t3 - t2)
    assert batch_rate >= 10 * scalar_rate, (
        f"launch evaluator only {batch_rate / scalar_rate:.1f}x faster"
    )


def test_setup_throughput(benchmark):
    def build():
        return make_method("sin", "llut_i", density_log2=14).setup()

    m = benchmark(build)
    assert m.entries > 0
