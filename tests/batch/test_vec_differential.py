"""Differential harness: the fused array evaluators vs the unfused paths.

:mod:`repro.batch.vec` promises that one fused structure-of-arrays pass is
bit-identical to ``Method.evaluate_vec`` (values) plus
:func:`~repro.batch.batch_tally` (aggregate, per-element slots, path list)
for every classifiable method.  Values are compared at the *bit* level —
NaN payloads and signed zeros included — because the fused kernels
replicate the unfused expressions rather than approximating them.

The evaluator must also abstain exactly where ``classify_paths`` does —
the property that lets a launch fall straight back to the scalar loop —
and an abstaining launch must equal the scalar oracle (a raw-kernel plan of
``Method.evaluate``); every harness case also probes non-finites, signed
zeros and out-of-range magnitudes for that.

A fast subset mirrors ``test_differential.FAST_PAIRS`` in tier-1; the full
``METHOD_SUPPORT`` matrix is ``slow``-marked and runs in CI's differential
step.
"""

import functools
import pickle

import numpy as np
import pytest

from repro.api import make_method
from repro.batch import batch_tally, compile_vec
from repro.core.functions.support import METHOD_SUPPORT
from repro.core.method import Method
from repro.errors import ConfigurationError
from repro.obs.metrics import collecting
from repro.pim.config import SystemConfig
from repro.pim.dpu import DPU
from repro.pim.system import PIMSystem
from repro.plan.plan import compile_plan
from tests.batch.test_differential import (
    FAST_PAIRS,
    FULL_MATRIX,
    _get_method,
    _inputs_for,
)

_F32 = np.float32


def _assert_bits_equal(a: np.ndarray, b: np.ndarray, msg: str) -> None:
    """Exact bit-pattern equality (NaN payloads, signed zeros and all)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"{msg}: dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{msg}: shape {a.shape} != {b.shape}"
    np.testing.assert_array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
        err_msg=msg,
    )


#: Non-finites, signed zeros, and magnitudes past the CORDIC fx_mul bound
#: (a Q3.28 raw word of at least 2**35: |x| >= 128 when range reduction is
#: skipped).
_ABSTAIN_PROBES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 128.0,
                            -128.0, 1.0e6], dtype=_F32)


def _assert_abstains_like_classifier(m, xs: np.ndarray) -> None:
    """The evaluator abstains exactly where ``classify_paths`` does, and an
    abstaining launch equals the scalar oracle (``xs`` fits one sample)."""
    name = f"{m.method_name}/{m.spec.name}"
    try:
        fused = compile_vec(m).run(xs, tally_cache={})
    except Exception as exc:
        with pytest.raises(type(exc)):   # evaluate_vec's own limitation
            m.evaluate_vec(xs)
        return
    assert (fused is None) == (m.classify_paths(xs) is None), name
    if fused is None:
        system = PIMSystem(SystemConfig(n_dpus=4))
        a = compile_plan(system, m).execute(xs)
        oracle = functools.partial(Method.evaluate, m)
        b = compile_plan(system, oracle).execute(xs)
        assert a.total_seconds == b.total_seconds, name
        assert a.per_dpu.total_tally.slots == b.per_dpu.total_tally.slots
        assert a.per_dpu.total_tally.counts == b.per_dpu.total_tally.counts
        _assert_bits_equal(a.per_dpu.sample_outputs,
                           b.per_dpu.sample_outputs, f"{name} outputs")


def _assert_vec_identical(method_name: str, function: str,
                          assume_in_range: bool, n: int) -> None:
    m = _get_method(function, method_name, assume_in_range)
    xs = _inputs_for(function, assume_in_range, n)
    _assert_abstains_like_classifier(
        m, np.concatenate([xs[:32], _ABSTAIN_PROBES]))

    evaluator = compile_vec(m)
    try:
        ref_values = m.evaluate_vec(xs)
    except Exception as exc:
        # Pre-existing upstream limitation: some value paths (e.g. the
        # hybrid hyperbolic table rotation) raise on non-finite lanes even
        # though the classifier handles them.  The fused evaluator must
        # reproduce the same failure, not paper over it.
        with pytest.raises(type(exc)):
            evaluator.run(xs, tally_cache={})
        return
    fused = evaluator.run(xs, tally_cache={})
    ref_batch = batch_tally(m, xs)

    assert fused is not None, (
        f"{method_name}/{function} abstained in the fused evaluator but "
        "classifies in the traced engine"
    )
    _assert_bits_equal(fused.values, ref_values,
                       f"{method_name}/{function} values")
    b, r = fused.batch, ref_batch
    assert b.n == r.n == xs.size
    assert b.batched and r.batched
    assert b.tally.slots == r.tally.slots
    assert b.tally.dma_transactions == r.tally.dma_transactions
    assert b.tally.dma_bytes == r.tally.dma_bytes
    assert b.tally.dma_latency == r.tally.dma_latency
    assert b.tally.counts == r.tally.counts
    np.testing.assert_array_equal(b.slots, r.slots)
    assert [(p.key, p.count, p.tally.slots) for p in b.paths] == \
        [(p.key, p.count, p.tally.slots) for p in r.paths]


# ----------------------------------------------------------------------
# Fast tier-1 subset (same coverage axes as the traced-engine harness).

@pytest.mark.parametrize("in_range", [True, False],
                         ids=["natural", "full_domain"])
@pytest.mark.parametrize("function,method", FAST_PAIRS,
                         ids=[f"{m}-{f}" for f, m in FAST_PAIRS])
def test_vec_differential_fast(function, method, in_range):
    _assert_vec_identical(method, function, in_range, n=160)


# ----------------------------------------------------------------------
# Full matrix, slow-marked: every (method, function) in METHOD_SUPPORT.

@pytest.mark.slow
@pytest.mark.parametrize("in_range", [True, False],
                         ids=["natural", "full_domain"])
@pytest.mark.parametrize("method,function", FULL_MATRIX,
                         ids=[f"{m}-{f}" for m, f in FULL_MATRIX])
def test_vec_differential_full_matrix(method, function, in_range):
    try:
        _get_method(function, method, in_range)
    except ConfigurationError as exc:
        pytest.skip(f"unsupported configuration: {exc}")
    _assert_vec_identical(method, function, in_range, n=96)


def test_full_matrix_covers_method_support():
    """The slow matrix really spans every registered method family."""
    assert {m for m, _ in FULL_MATRIX} == set(METHOD_SUPPORT)


# ----------------------------------------------------------------------
# Evaluator contract details.

def test_memo_serves_repeat_batches():
    m = _get_method("sin", "llut_i_fx", True)
    xs = _inputs_for("sin", True, 128)
    ev = compile_vec(m)
    first = ev.run(xs)
    second = ev.run(xs)
    # Identity, not just equality: the second run is the memoized triple.
    assert second.values is first.values
    assert len(ev._memo) == 1
    assert not first.values.flags.writeable
    assert first.batch.tally.counts == second.batch.tally.counts
    np.testing.assert_array_equal(first.batch.slots, second.batch.slots)


def test_memo_is_bounded_lru():
    m = _get_method("sin", "llut_i", True)
    ev = compile_vec(m, memo_size=2)
    for seed in range(4):
        ev.run(_inputs_for("sin", True, 32, seed=seed))
    assert len(ev._memo) == 2


def test_values_skips_aggregation():
    """Plan values are evaluate_vec alone: no array pass, digest or path
    keys reach the evaluator, and its aggregating run() gives equal bits."""
    m = _get_method("sin", "llut_i", True)
    xs = _inputs_for("sin", True, 64)
    plan = compile_plan(PIMSystem(SystemConfig(n_dpus=4)), m)
    vals = plan.values(xs)
    _assert_bits_equal(vals, m.evaluate_vec(xs), "values()")
    ev = plan.image.evaluator
    assert len(ev._memo) == 0
    _assert_bits_equal(ev.run(xs).values, vals, "run() values")


def test_empty_batch_is_empty_result():
    m = _get_method("sin", "llut_i", True)
    r = compile_vec(m).run(np.empty(0, dtype=_F32))
    assert r.batch.n == 0 and r.batch.batched
    assert r.batch.tally.slots == 0 and r.batch.paths == []
    assert r.values.size == 0 and r.values.dtype == _F32
    assert r.batch.slots.size == 0 and r.batch.slots.dtype == np.int64


def test_abstain_falls_back_bit_identically():
    """CORDIC abstains beyond the fx_mul overflow bound; the launch degrades
    to the scalar loop without changing numbers."""
    m = _get_method("sin", "cordic", True)
    xs = np.array([1.0e6, 0.5, -3.0], dtype=_F32)
    ev = compile_vec(m)
    assert ev.run(xs) is None
    got = DPU().run_kernel(m.evaluate, xs, evaluator=ev)
    ref = DPU().run_kernel(functools.partial(Method.evaluate, m), xs)
    assert got.total_tally.slots == ref.total_tally.slots
    assert got.total_tally.counts == ref.total_tally.counts
    _assert_bits_equal(got.sample_outputs, ref.sample_outputs,
                       "fallback outputs")
    # The abstain itself is memoized — no array passes on repeat calls.
    assert len(ev._memo) == 1


def test_run_kernel_uses_evaluator_when_classifiable():
    m = _get_method("sin", "llut_fx", True)
    xs = _inputs_for("sin", True, 48)
    with collecting() as reg:
        got = DPU().run_kernel(m.evaluate, xs)
    assert reg.value("batch.vec.runs") == 1
    assert reg.value("batch.vec.fallbacks") == 0
    ref = DPU().run_kernel(functools.partial(Method.evaluate, m), xs)
    assert got.cycles == ref.cycles
    assert got.total_tally.counts == ref.total_tally.counts
    _assert_bits_equal(got.sample_outputs, m.evaluate_vec(xs),
                       "run_kernel outputs")


def test_evaluator_pickles_without_memo():
    """Plans ship to worker pools; the evaluator must pickle cleanly and
    drop its memo (pure locality, rebuilt on the worker)."""
    m = make_method("sin", "llut_i", density_log2=8).setup()
    ev = compile_vec(m)
    xs = np.linspace(0.0, 1.0, 64, dtype=_F32)
    ev.run(xs)
    assert len(ev._memo) == 1
    clone = pickle.loads(pickle.dumps(ev))
    assert clone.mode == ev.mode
    assert len(clone._memo) == 0
    r = clone.run(xs)
    _assert_bits_equal(r.values, ev.run(xs).values, "pickled clone values")


def test_mlut_family_uses_fused_kernels():
    """The M-LUT family dispatches onto its dedicated fused kernels, not
    the generic per-stage fallback."""
    assert compile_vec(_get_method("sin", "mlut", False)).mode == "mlut"
    assert compile_vec(_get_method("sin", "mlut_i", False)).mode == "mlut_i"


def test_tally_cache_shared_with_traced_engine():
    """Vec and traced launches share one tally cache without divergence."""
    m = _get_method("sin", "cordic", False)
    xs = _inputs_for("sin", False, 128)
    cache: dict = {}
    traced = batch_tally(m, xs, tally_cache=cache)
    fused = compile_vec(m).run(xs, tally_cache=cache)
    assert fused.batch.tally.slots == traced.tally.slots
    assert fused.batch.tally.counts == traced.tally.counts
    # Every fused path key was already cached by the traced run.
    assert {p.key for p in fused.batch.paths} <= set(cache)
