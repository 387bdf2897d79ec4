"""The launch evaluator, held to the scalar oracle by the harness's
``check_evaluator`` (``tests/test_oracle.py``) over its fast subset and
its ``slow`` full matrix, and the evaluator's contract: memo, pickling,
one pass and the scalar fallback."""

import functools
import pickle

import numpy as np
import pytest

from repro.api import make_method
from repro.batch import VecEvaluator, tally_from_keys
from repro.core.functions.support import METHOD_SUPPORT
from repro.core.method import Method
from repro.obs.metrics import collecting
from repro.pim.config import SystemConfig
from repro.pim.dpu import DPU
from repro.pim.system import PIMSystem
from repro.plan.plan import compile_plan
from tests.test_oracle import (
    FAST_IDS,
    FAST_PAIRS,
    FULL_MATRIX,
    MATRIX_IDS,
    RANGES,
    assert_bits_equal,
    assert_config,
    assert_fields_equal,
    check_evaluator,
    config,
    standard_inputs,
)

_F32 = np.float32

@RANGES
@pytest.mark.parametrize("function,method", FAST_PAIRS, ids=FAST_IDS)
def test_vec_differential_fast(function, method, in_range):
    assert_config(check_evaluator, function, method, in_range)


@pytest.mark.slow
@RANGES
@pytest.mark.parametrize("method,function", FULL_MATRIX, ids=MATRIX_IDS)
def test_vec_differential_full_matrix(method, function, in_range):
    assert_config(check_evaluator, function, method, in_range)


def test_full_matrix_covers_method_support():
    """The slow matrix really spans every registered method family."""
    assert {m for m, _ in FULL_MATRIX} == set(METHOD_SUPPORT)


# ----------------------------------------------------------------------
# Evaluator contract details.

def test_memo_serves_repeat_batches():
    m = config("sin", "llut_i_fx", True).method
    xs = standard_inputs("sin", True, 128)
    ev = VecEvaluator(m)
    first = ev.run(xs)
    second = ev.run(xs)
    # Identity, not just equality: the second run is the memoized triple.
    assert second.values is first.values
    assert len(ev._memo) == 1
    assert not first.values.flags.writeable
    assert first.batch.tally.counts == second.batch.tally.counts
    np.testing.assert_array_equal(first.batch.slots, second.batch.slots)


def test_memo_is_bounded_lru(monkeypatch):
    monkeypatch.setattr("repro.batch.vec._LAUNCH_MEMO_SIZE", 2)
    m = config("sin", "llut_i", True).method
    ev = VecEvaluator(m)
    for seed in range(4):
        ev.run(standard_inputs("sin", True, 32, seed=seed))
    assert len(ev._memo) == 2


def test_values_skips_aggregation():
    """Plan values are evaluate_vec alone: no array pass, digest or path
    keys reach the evaluator, and its aggregating run() gives equal bits."""
    m = config("sin", "llut_i", True).method
    xs = standard_inputs("sin", True, 64)
    plan = compile_plan(PIMSystem(SystemConfig(n_dpus=4)), m)
    vals = plan.values(xs)
    assert_bits_equal(vals, m.evaluate_vec(xs), "values()")
    ev = plan.image.evaluator
    assert len(ev._memo) == 0
    assert_bits_equal(ev.run(xs).values, vals, "run() values")


def test_empty_batch_is_empty_result():
    m = config("sin", "llut_i", True).method
    r = VecEvaluator(m).run(np.empty(0, dtype=_F32))
    assert r.batch.n == 0
    assert r.batch.tally.slots == 0 and r.batch.paths == []
    assert r.values.size == 0 and r.values.dtype == _F32
    assert r.batch.slots.size == 0 and r.batch.slots.dtype == np.int64


def test_abstain_falls_back_bit_identically():
    """CORDIC abstains beyond the fx_mul overflow bound; the launch degrades
    to the scalar loop without changing numbers."""
    m = config("sin", "cordic", True).method
    xs = np.array([1.0e6, 0.5, -3.0], dtype=_F32)
    ev = VecEvaluator(m)
    assert ev.run(xs) is None
    got = DPU().run_kernel(m.evaluate, xs, evaluator=ev)
    ref = DPU().run_kernel(functools.partial(Method.evaluate, m), xs)
    assert_fields_equal(got, ref, "fallback")
    # The abstain itself is memoized — no array passes on repeat calls.
    assert len(ev._memo) == 1


def test_run_kernel_uses_evaluator_when_classifiable():
    m = config("sin", "llut_fx", True).method
    xs = standard_inputs("sin", True, 48)
    with collecting() as reg:
        got = DPU().run_kernel(m.evaluate, xs)
    assert reg.value("batch.vec.runs") == 1
    assert reg.value("batch.vec.fallbacks") == 0
    ref = DPU().run_kernel(functools.partial(Method.evaluate, m), xs)
    assert_fields_equal(got, ref, "run_kernel")


def _spy(monkeypatch, obj, name: str, calls: list) -> None:
    """Record each call of ``obj.name`` in ``calls``.  Instance-level, so
    spy only on objects the test owns (not the shared method cache)."""
    real = getattr(obj, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, spy)


def _assert_one_pass(monkeypatch, ev, xs) -> None:
    """One evaluator run is one reducer pass plus one core pass."""
    calls: list = []
    _spy(monkeypatch, ev.method.reducer, "reduce_vec", calls)
    _spy(monkeypatch, ev.method, "core_vec", calls)
    assert ev.run(xs, tally_cache={}) is not None
    assert calls == ["reduce_vec", "core_vec"]


def test_evaluator_pickles_without_memo(monkeypatch):
    """Plans ship to worker pools; the evaluator must pickle cleanly and
    drop its memo (pure locality, rebuilt on the worker)."""
    m = make_method("sin", "llut_i", density_log2=8).setup()
    ev = VecEvaluator(m)
    xs = np.linspace(0.0, 1.0, 64, dtype=_F32)
    ev.run(xs)
    assert len(ev._memo) == 1
    clone = pickle.loads(pickle.dumps(ev))
    assert len(clone._memo) == 0
    _assert_one_pass(monkeypatch, clone, xs)
    r = clone.run(xs)
    assert_bits_equal(r.values, ev.run(xs).values, "pickled clone values")


def test_mlut_family_uses_fused_kernels(monkeypatch):
    """An M-LUT launch is one reducer pass and one core pass: values and
    keys share the range reduction and the address generation."""
    for name in ("mlut", "mlut_i"):
        m = make_method("sin", name, assume_in_range=False).setup()
        _assert_one_pass(monkeypatch, VecEvaluator(m),
                         standard_inputs("sin", False, 64))


def test_tally_cache_shared_with_traced_engine():
    """A tally cache filled by ``tally_from_keys`` over ``classify_paths``
    serves the evaluator without divergence."""
    m = config("sin", "cordic", False).method
    xs = standard_inputs("sin", False, 128)
    cache: dict = {}
    traced = tally_from_keys(m, xs, m.classify_paths(xs), tally_cache=cache)
    fused = VecEvaluator(m).run(xs, tally_cache=cache)
    assert fused.batch.tally == traced.tally
    np.testing.assert_array_equal(fused.batch.slots, traced.slots)
    # Every fused path key was already cached by the traced run.
    assert {p.key for p in fused.batch.paths} <= set(cache)
