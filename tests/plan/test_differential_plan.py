"""Launches on the flat system, held to the scalar oracle by the
harness's ``check_launches`` (``tests/test_oracle.py``) over its fast
subset and its ``slow`` full matrix."""

import pytest

from tests.test_oracle import (
    FAST_IDS,
    FAST_PAIRS,
    FULL_MATRIX,
    MATRIX_IDS,
    RANGES,
    assert_launches,
)


@RANGES
@pytest.mark.parametrize("function,method", FAST_PAIRS, ids=FAST_IDS)
def test_plan_vs_run_fast(function, method, in_range):
    assert_launches(function, method, in_range)


@pytest.mark.slow
@RANGES
@pytest.mark.parametrize("method,function", FULL_MATRIX, ids=MATRIX_IDS)
def test_plan_vs_run_full_matrix(method, function, in_range):
    assert_launches(function, method, in_range)
