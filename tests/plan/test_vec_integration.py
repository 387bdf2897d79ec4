"""Plan integration of the fused array evaluator (:mod:`repro.batch.vec`).

The evaluator is an acceleration, never a semantic change: a plan must
produce the same :class:`SystemRunResult` as the scalar oracle (a plan over
a raw-kernel wrapper of ``Method.evaluate``, which traces every sampled
element), ``values`` must equal ``evaluate_vec`` without touching the
evaluator, and the compiled evaluator must live in the pooled table image
so WRAM and MRAM plans of one geometry share it.
"""

import functools

import numpy as np
import pytest

from repro.api import make_method
from repro.core.method import Method
from repro.obs.metrics import collecting
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.cache import PlanCache
from repro.plan.plan import LaunchConfig, compile_plan
from tests.test_oracle import assert_fields_equal

_F32 = np.float32


def _method(method="llut_i", **kw):
    kw.setdefault("density_log2", 8)
    kw.setdefault("assume_in_range", False)
    return make_method("sin", method, **kw)


def _oracle(system, method, config=LaunchConfig()):
    """The scalar oracle: a raw-kernel plan tracing every sampled element."""
    kernel = functools.partial(Method.evaluate, method.setup())
    return compile_plan(system, kernel, config)


@pytest.fixture
def system():
    return PIMSystem(SystemConfig(n_dpus=32))


@pytest.fixture
def xs():
    rng = np.random.default_rng(11)
    return rng.uniform(-4.0, 4.0, 512).astype(_F32)


class TestExecuteEquivalence:
    def test_vec_and_traced_runs_identical(self, system, xs):
        config = LaunchConfig(sample_size=64)
        a = compile_plan(system, _method(), config).execute(xs)
        b = _oracle(system, _method(), config).execute(xs)
        assert_fields_equal(a, b, "execute")

    def test_vec_and_traced_runs_identical_cordic(self, system, xs):
        a = compile_plan(system, make_method("sin", "cordic")).execute(xs)
        b = _oracle(system, make_method("sin", "cordic")).execute(xs)
        assert_fields_equal(a, b, "execute")

    def test_abstaining_method_still_executes(self, system):
        # Inputs past the CORDIC fx_mul overflow bound: the evaluator
        # abstains and execute() silently runs the scalar loop.
        m = make_method("sin", "cordic", assume_in_range=True)
        huge = np.array([1.0e6] * 8 + [0.5] * 8, dtype=_F32)
        with collecting() as reg:
            a = compile_plan(system, m).execute(huge)
        assert reg.value("batch.vec.fallbacks") == 1
        b = _oracle(system, m).execute(huge)
        assert_fields_equal(a, b, "execute")

    def test_vec_runs_counted(self, system, xs):
        plan = compile_plan(system, _method())
        with collecting() as reg:
            plan.execute(xs)
        assert reg.counter("batch.vec.runs").value == 1


class TestValues:
    def test_values_match_evaluate_vec(self, system, xs):
        plan = compile_plan(system, _method())
        got = plan.values(xs)
        ref = plan.method.evaluate_vec(xs)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got.view(np.uint32),
                                      ref.view(np.uint32))

    def test_values_preserve_shape(self, system, xs):
        plan = compile_plan(system, _method())
        grid = xs.reshape(32, 16)
        out = plan.values(grid)
        assert out.shape == grid.shape
        np.testing.assert_array_equal(out.ravel(), plan.values(xs))

    def test_no_vec_values_still_exact(self, system):
        # values() is evaluate_vec alone: no digest, no path keys, and
        # exact even where the evaluator would abstain.
        plan = compile_plan(system, make_method("sin", "cordic",
                                                assume_in_range=True))
        huge = np.array([1.0e6, 0.5, -3.0], dtype=_F32)
        with collecting() as reg:
            got = plan.values(huge)
        assert not [n for n in reg.to_dict()["metrics"]
                    if n.startswith("batch.")]
        ref = plan.method.evaluate_vec(huge)
        np.testing.assert_array_equal(got.view(np.uint32),
                                      ref.view(np.uint32))


class TestEvaluatorSharing:
    def test_shared_across_placements(self, system, xs):
        # One table image, two placements: the evaluator rides the pooled
        # image, so the second placement pays no compile and reuses the
        # memoized array passes for equal inputs.
        cache = PlanCache()
        wram = cache.plan(system, _method(placement="wram"))
        wram.execute(xs)
        ev = wram.image.evaluator
        mram = cache.plan(system, _method(placement="mram"))
        assert cache.table_hits == 1
        assert mram.image is wram.image
        with collecting() as reg:
            mram.execute(xs)
        assert mram.image.evaluator is ev
        # Same digest -> memo hit, no second fused pass.
        assert reg.counter("batch.vec.memo.misses").value == 0
        assert reg.counter("batch.vec.memo.hits").value == 1

    def test_placements_still_tally_faithfully(self, system, xs):
        # Sharing the evaluator must not share placement-dependent costs.
        cache = PlanCache()
        wram = cache.plan(system, _method(placement="wram")).execute(xs)
        mram = cache.plan(system, _method(placement="mram")).execute(xs)
        assert (wram.per_dpu.total_tally.slots
                != mram.per_dpu.total_tally.slots)

    def test_describe_reports_vec(self, system):
        # The kernel row names the launch path: a Method plan launches
        # through its evaluator, a raw kernel through the scalar loop.
        plan = compile_plan(system, _method()).describe()
        raw = _oracle(system, _method()).describe()
        assert "Method.evaluate" in plan and "llut_i" in plan
        assert "raw callable" in raw and "Method.evaluate" not in raw
        assert "vec evaluator" not in plan + raw
