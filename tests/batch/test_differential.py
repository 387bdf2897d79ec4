"""Array passes and their cost-path keys, held to the scalar oracle by
the harness's ``check_array_pass`` (``tests/test_oracle.py``) over its
fast subset and its ``slow`` full matrix."""

import numpy as np
import pytest

from repro.api import make_method
from repro.batch import VecEvaluator, scalar_tally, tally_from_keys
from repro.isa.counter import Tally
from tests.test_oracle import (
    FAST_IDS,
    FAST_PAIRS,
    FULL_MATRIX,
    MATRIX_IDS,
    RANGES,
    assert_config,
    check_array_pass,
    check_evaluator,
    standard_inputs,
    trace,
)

_F32 = np.float32


@RANGES
@pytest.mark.parametrize("function,method", FAST_PAIRS, ids=FAST_IDS)
def test_differential_fast(function, method, in_range):
    assert_config(check_array_pass, function, method, in_range)


@pytest.mark.slow
@RANGES
@pytest.mark.parametrize("method,function", FULL_MATRIX, ids=MATRIX_IDS)
def test_differential_full_matrix(method, function, in_range):
    assert_config(check_array_pass, function, method, in_range)


def test_scalar_fallback_for_unclassifiable_kernels():
    """``mean_slots`` falls back to ``scalar_tally`` where the launch
    evaluator abstains, and agrees with it where it does not."""
    m = make_method("sin", "cordic").setup()
    xs = np.array([1.0e6, 0.5, -3.0], dtype=_F32)
    assert VecEvaluator(m).run(xs) is None
    assert m.mean_slots(xs) == scalar_tally(m, xs).tally.slots / xs.size
    xs = standard_inputs("sin", True, 64)
    assert VecEvaluator(m).run(xs) is not None
    assert m.mean_slots(xs) == scalar_tally(m, xs).tally.slots / xs.size


def test_nonfinite_lanes_key_by_their_traced_branches():
    """Equal key must mean equal tally on non-finite lanes too.

    The traced periodic fold maps a non-finite quotient's floor to 0, so
    +inf stays +inf and takes the L-LUT's high guard, while -NaN takes the
    low one: the two lanes must key apart.
    """
    xs = np.array([-np.nan, np.inf, np.nan, -np.inf, 1.0], dtype=_F32)
    for name in ("llut", "llut_i"):
        m = make_method("sin", name, assume_in_range=False).setup()
        oracle = trace(m, xs)
        check_array_pass(m, xs, oracle, standard=True)
        check_evaluator(m, xs, oracle, standard=True)


def test_empty_batch_is_empty_result():
    """An empty input is a valid boundary split: zero cost, no paths."""
    m = make_method("sin", "llut_i", density_log2=8).setup()
    xs = np.empty(0, dtype=_F32)
    r = tally_from_keys(m, xs, m.classify_paths(xs))
    assert r.n == 0 and r.tally == Tally()
    assert r.slots.size == 0 and r.slots.dtype == np.int64
    assert r.paths == []
