"""Differential harness: ``PIMSystem.run`` vs compiled plan execution.

The tentpole guarantee of :mod:`repro.plan` is that the plan/execute split
is pure code motion: for every supported (function, method) pair,
``compile_plan(system, m).execute(xs)`` produces a result bit-identical to
``system.run(m.evaluate, xs)`` — same seconds, same cycles, same slot
counts.  No approx anywhere; every assertion is ``==``.

A fast subset runs in tier-1; the full ``METHOD_SUPPORT`` matrix is
``slow``-marked and runs in CI's differential step.
"""

import numpy as np
import pytest

from repro.analysis.sweep import default_inputs
from repro.api import make_method
from repro.core.functions.registry import get_function
from repro.core.functions.support import METHOD_SUPPORT
from repro.errors import ConfigurationError
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.plan import LaunchConfig, compile_plan

_F32 = np.float32

_SYSTEM = PIMSystem(SystemConfig(n_dpus=64))

# Built methods and compiled plans are reused between the fast and slow
# suites; tables are input-independent, so caching builds is safe.
_CACHE = {}


def _inputs_for(function: str, in_range: bool, n: int) -> np.ndarray:
    spec = get_function(function)
    lo, hi = spec.natural_range if in_range else spec.bench_domain
    xs = default_inputs(function, n=n, seed=11, in_natural_range=in_range)
    # Domain edges only: run() itself rejects non-finite inputs for some
    # methods, and this harness compares plan vs run, not numeric hygiene
    # (the batch differential suite covers adversarial classification).
    edges = [lo, hi, float(np.nextafter(_F32(hi), _F32(lo))),
             (lo + hi) / 2.0]
    return np.concatenate([xs, np.array(edges, dtype=_F32)])


def _get(function: str, method: str, assume_in_range: bool):
    key = (function, method, assume_in_range)
    if key not in _CACHE:
        m = make_method(function, method, assume_in_range=assume_in_range)
        _CACHE[key] = (m, compile_plan(_SYSTEM, m, LaunchConfig(sample_size=48)))
    return _CACHE[key]


def _assert_plan_matches_run(function: str, method_name: str,
                             in_range: bool, n: int) -> None:
    m, plan = _get(function, method_name, in_range)
    xs = _inputs_for(function, in_range, n)

    # Identical seeded generators: both sides sample the same elements.
    a = plan.execute(xs, rng=np.random.default_rng(5))
    b = _SYSTEM.run(m.evaluate, xs, sample_size=48,
                    rng=np.random.default_rng(5))

    assert a.n_elements == b.n_elements == xs.size
    assert a.n_dpus_used == b.n_dpus_used
    assert a.kernel_seconds == b.kernel_seconds
    assert a.host_to_pim_seconds == b.host_to_pim_seconds
    assert a.pim_to_host_seconds == b.pim_to_host_seconds
    assert a.launch_seconds == b.launch_seconds
    assert a.total_seconds == b.total_seconds
    assert a.per_dpu.cycles == b.per_dpu.cycles
    assert a.per_dpu.total_tally.slots == b.per_dpu.total_tally.slots
    assert a.per_dpu.total_tally.counts == b.per_dpu.total_tally.counts
    np.testing.assert_array_equal(a.per_dpu.sample_outputs,
                                  b.per_dpu.sample_outputs)


# ----------------------------------------------------------------------
# Fast tier-1 subset: one pair per method family.

FAST_PAIRS = [
    ("sin", "mlut_i"),
    ("sin", "llut_i"),
    ("sin", "llut_i_fx"),
    ("exp", "slut_i"),
    ("tanh", "dllut_i"),
    ("sin", "cordic"),
    ("tanh", "cordic_lut"),
    ("cos", "poly"),
]


@pytest.mark.parametrize("in_range", [True, False],
                         ids=["natural", "full_domain"])
@pytest.mark.parametrize("function,method", FAST_PAIRS,
                         ids=[f"{m}-{f}" for f, m in FAST_PAIRS])
def test_plan_vs_run_fast(function, method, in_range):
    _assert_plan_matches_run(function, method, in_range, n=120)


# ----------------------------------------------------------------------
# Full matrix: every (method, function) in METHOD_SUPPORT, both range
# assumptions.  Slow-marked; CI runs it in the differential step.

FULL_MATRIX = [
    (method, function)
    for method, functions in sorted(METHOD_SUPPORT.items())
    for function in sorted(functions)
]


@pytest.mark.slow
@pytest.mark.parametrize("in_range", [True, False],
                         ids=["natural", "full_domain"])
@pytest.mark.parametrize("method,function", FULL_MATRIX,
                         ids=[f"{m}-{f}" for m, f in FULL_MATRIX])
def test_plan_vs_run_full_matrix(method, function, in_range):
    try:
        _get(function, method, in_range)
    except ConfigurationError as exc:
        pytest.skip(f"unsupported configuration: {exc}")
    _assert_plan_matches_run(function, method, in_range, n=72)
