"""Differential harness: the batched path engine vs per-element tracing.

The headline guarantee of :mod:`repro.batch` is *bit-exactness*: for every
registered (function, method) pair, the batched aggregate
``sum(path_tally * path_count)`` equals the field-by-field sum of per-element
scalar tallies, and the per-element slots arrays match exactly.  Sampling
error is zero by construction, so every assertion here is ``==``, never
``approx``.

A fast subset — one (function, method) per method family and per classifier
implementation — runs in tier-1.  The full 500+-configuration matrix over
``METHOD_SUPPORT`` is ``slow``-marked and runs in CI's dedicated
differential step.
"""

import numpy as np
import pytest

from repro.analysis.sweep import default_inputs
from repro.api import make_method
from repro.batch import batch_tally, scalar_tally
from repro.core.functions.registry import get_function
from repro.core.functions.support import METHOD_SUPPORT
from repro.errors import ConfigurationError

_F32 = np.float32

#: Adversarial inputs appended to every random batch: domain endpoints,
#: signed zeros, subnormals, non-finites, and near-overflow magnitudes.
#: (Values beyond float32 range fold to +/-inf on the cast, which is the
#: point — the classifier must agree with the scalar trace there too.)
_EDGE_RAW = (0.0, -0.0, 1e-40, -1e-40, float("nan"), float("inf"),
             float("-inf"), 3.5e38, -3.5e38)


def _edge_inputs(function: str, in_range: bool) -> np.ndarray:
    spec = get_function(function)
    lo, hi = spec.natural_range if in_range else spec.bench_domain
    edges = [lo, hi, float(np.nextafter(_F32(hi), _F32(lo))), (lo + hi) / 2.0]
    edges.extend(_EDGE_RAW)
    return np.array(edges, dtype=_F32)


def _inputs_for(function: str, in_range: bool, n: int,
                seed: int = 7) -> np.ndarray:
    xs = default_inputs(function, n=n, seed=seed, in_natural_range=in_range)
    return np.concatenate([xs, _edge_inputs(function, in_range)])


# Methods are reused across the in-range/full-domain variants of one test
# and between the fast and slow suites; tables are placement- and
# input-independent, so caching builds is safe.
_METHOD_CACHE = {}


def _get_method(function: str, method: str, assume_in_range: bool):
    key = (function, method, assume_in_range)
    if key not in _METHOD_CACHE:
        m = make_method(function, method, assume_in_range=assume_in_range)
        planned = m.planned_table_bytes()
        m.setup()
        if planned is not None:
            # Pre-build size prediction must match the built table exactly
            # (the sweep uses it to skip oversized WRAM builds).
            assert planned == m.table_bytes(), (
                f"{method}/{function}: planned_table_bytes {planned} != "
                f"built {m.table_bytes()}"
            )
        _METHOD_CACHE[key] = m
    return _METHOD_CACHE[key]


def _assert_bit_identical(method_name: str, function: str,
                          assume_in_range: bool, n: int) -> None:
    m = _get_method(function, method_name, assume_in_range)
    xs = _inputs_for(function, assume_in_range, n)

    b = batch_tally(m, xs)
    s = scalar_tally(m, xs)

    assert b.batched, (
        f"{method_name}/{function} fell back to the scalar loop — "
        "classify_paths returned None for standard inputs"
    )
    assert b.n == s.n == xs.size
    # Aggregate Tally, field by field — all exact integers.
    assert b.tally.slots == s.tally.slots
    assert b.tally.dma_transactions == s.tally.dma_transactions
    assert b.tally.dma_bytes == s.tally.dma_bytes
    assert b.tally.dma_latency == s.tally.dma_latency
    assert b.tally.counts == s.tally.counts
    # Per-element slots arrays match exactly, element for element.
    np.testing.assert_array_equal(b.slots, s.slots)
    # Path bookkeeping is self-consistent.
    assert sum(p.count for p in b.paths) == xs.size
    assert b.tally.slots == sum(p.tally.slots * p.count for p in b.paths)


# ----------------------------------------------------------------------
# Fast tier-1 subset: every method family and every classifier
# implementation (reducers, CORDIC modes, composites) at least once.

FAST_PAIRS = [
    ("sin", "mlut"),
    ("sin", "mlut_i"),
    ("sin", "llut"),
    ("sin", "llut_i"),
    ("sin", "llut_fx"),
    ("sin", "llut_i_fx"),
    ("exp", "slut_i"),
    ("tanh", "dlut"),
    ("tanh", "dlut_i"),
    ("tanh", "dllut"),
    ("tanh", "dllut_i"),
    ("gelu", "dlut_i"),       # GeluViaTanh-adjacent direct table
    ("tan", "llut_i"),        # TanQuotientLUT composite
    ("sin", "cordic"),        # circular rotation
    ("tan", "cordic"),        # circular rotation + quadrant parity
    ("atan", "cordic"),       # circular vectoring (float recurrence)
    ("exp", "cordic"),        # hyperbolic rotation
    ("log", "cordic"),        # hyperbolic vectoring
    ("tanh", "cordic"),       # hyperbolic rotation + exp residual split
    ("sin", "cordic_lut"),    # hybrid circular
    ("tanh", "cordic_lut"),   # hybrid hyperbolic
    ("sin", "cordic_fx"),     # fixed-point rotation
    ("cos", "poly"),
]


@pytest.mark.parametrize("in_range", [True, False],
                         ids=["natural", "full_domain"])
@pytest.mark.parametrize("function,method", FAST_PAIRS,
                         ids=[f"{m}-{f}" for f, m in FAST_PAIRS])
def test_differential_fast(function, method, in_range):
    _assert_bit_identical(method, function, in_range, n=160)


# ----------------------------------------------------------------------
# Full matrix: every (method, function) in METHOD_SUPPORT, both range
# assumptions.  Slow-marked; CI runs it as its own step.

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
def test_differential_full_matrix(method, function, in_range):
    try:
        _get_method(function, method, in_range)
    except ConfigurationError as exc:
        pytest.skip(f"unsupported configuration: {exc}")
    _assert_bit_identical(method, function, in_range, n=96)


# ----------------------------------------------------------------------
# The engine's contract details.

def test_scalar_fallback_for_unclassifiable_kernels():
    """A method without core_path_vec must fall back, bit-identically."""

    m = make_method("sin", "llut_i", density_log2=8).setup()
    xs = _inputs_for("sin", True, 64)
    forced = scalar_tally(m, xs)
    auto = batch_tally(m, xs)
    assert not forced.batched and auto.batched
    assert forced.tally.slots == auto.tally.slots
    assert forced.tally.counts == auto.tally.counts
    np.testing.assert_array_equal(forced.slots, auto.slots)


def test_nonfinite_lanes_key_by_their_traced_branches():
    """Equal key must mean equal tally on non-finite lanes too.

    The traced periodic fold maps a non-finite quotient's floor to 0, so
    +inf stays +inf and takes the L-LUT's high guard, while -NaN takes the
    low one: the two lanes must key apart.
    """
    xs = np.array([-np.nan, np.inf, np.nan, -np.inf, 1.0], dtype=_F32)
    for name in ("llut", "llut_i"):
        m = make_method("sin", name, assume_in_range=False).setup()
        b, s = batch_tally(m, xs), scalar_tally(m, xs)
        assert b.batched
        assert b.tally.counts == s.tally.counts, name
        np.testing.assert_array_equal(b.slots, s.slots)


def test_empty_batch_is_empty_result():
    """An empty input is a valid boundary split: zero cost, no paths."""
    m = make_method("sin", "llut_i", density_log2=8).setup()
    r = batch_tally(m, np.empty(0, dtype=_F32))
    assert r.n == 0 and r.batched
    assert r.tally.slots == 0 and r.tally.counts == {}
    assert r.slots.size == 0 and r.slots.dtype == np.int64
    assert r.paths == []


def test_cost_paths_api():
    """Method.cost_paths exposes the enumerated paths directly."""
    m = make_method("sin", "llut_i", density_log2=8,
                    assume_in_range=False).setup()
    xs = _inputs_for("sin", False, 128)
    paths = m.cost_paths(xs)
    assert paths is not None and len(paths) >= 1
    assert sum(p.count for p in paths) == xs.size
    # Representatives really take the path they represent.
    for p in paths:
        solo = scalar_tally(m, np.array([p.representative], dtype=_F32))
        assert solo.tally.slots == p.tally.slots
        assert solo.tally.counts == p.tally.counts
