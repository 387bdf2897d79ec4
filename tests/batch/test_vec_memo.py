"""Path-tally reuse across plans, and the D-LUT family's launch passes.

A path's tally depends on the method and its placement, never on the input
values, so one trace serves every later launch of that path.  The one memo
of that fact is the path-tally dict a :class:`~repro.plan.cache.PlanCache`
keeps per (table image, placement): every plan it compiles for the pair —
any tasklet count, any system — and their ``for_system`` clones share it,
while ad-hoc plans own a fresh one and the evaluator keeps none.
Correctness is anchored by the oracle harness — these tests pin the
*reuse* semantics: what a new plan finds, that reuse changes no numbers,
what survives pickling, and that placements never mix.
"""

import pickle

import numpy as np
import pytest

from repro.api import make_method
from repro.batch import VecEvaluator
from repro.obs.metrics import collecting
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.cache import PlanCache
from repro.plan.plan import LaunchConfig, compile_plan
from tests.test_oracle import check_evaluator, trace

_F32 = np.float32


def _method(function="tanh", method="dlut", **kwargs):
    return make_method(function, method, **kwargs).setup()


def _inputs(n, seed, lo=-6.0, hi=6.0):
    return np.random.default_rng(seed).uniform(lo, hi, n).astype(_F32)


def _fields(r):
    d = r.per_dpu
    return (r.total_seconds, d.cycles, d.total_tally.slots,
            d.total_tally.counts, d.sample_outputs.tobytes())


@pytest.fixture
def system():
    return PIMSystem(SystemConfig(n_dpus=32))


def _count_calls(monkeypatch, obj, calls):
    """Record each ``obj.core_vec`` call in ``calls`` (a fresh ``obj``)."""
    real = obj.core_vec

    def spy(u, keys):
        calls.append(obj.method_name)
        return real(u, keys)

    monkeypatch.setattr(obj, "core_vec", spy)


class TestFusedDLUTModes:
    def test_dlut_family_classifies_into_fused_kernels(self, monkeypatch):
        # A direct table's launch is one core pass; the composite DL-LUT
        # delegates to one pass of each sub-table over its own lanes.
        for fn, meth in [("tanh", "dlut"), ("gelu", "dlut_i")]:
            m = _method(fn, meth)
            calls = []
            _count_calls(monkeypatch, m, calls)
            VecEvaluator(m).run(_inputs(64, seed=5), tally_cache={})
            assert calls == [meth]
        m = _method("tanh", "dllut")
        calls = []
        for part in (m, m.low, m.high):
            _count_calls(monkeypatch, part, calls)
        xs = np.concatenate([_inputs(64, seed=5),
                             np.ldexp(_inputs(8, seed=6, lo=0.0, hi=1.0),
                                      -20).astype(_F32)])
        assert np.any(np.abs(xs) < m.boundary)
        VecEvaluator(m).run(xs, tally_cache={})
        assert calls == ["dllut", "dlut", "llut"]

    def test_fused_dlut_values_bit_identical(self):
        for fn, meth in [("tanh", "dlut"), ("gelu", "dlut_i")]:
            m = _method(fn, meth)
            xs = _inputs(256, seed=3)
            check_evaluator(m, xs, trace(m, xs), standard=True)


class TestTallyMemo:
    def test_cold_external_cache_is_prefilled_from_memo(self, system):
        # Two plans of one table image and placement (different tasklets)
        # share one tally dict: the second starts with every path the
        # first traced, and its first launch traces none.
        cache = PlanCache()
        xs = _inputs(400, seed=1)
        a = cache.plan(system, _method(), LaunchConfig(tasklets=16))
        b = cache.plan(system, _method(), LaunchConfig(tasklets=4))
        assert a is not b and a.tally_cache is b.tally_cache
        assert a.tally_cache is a.image.tallies["mram"]
        a.execute(xs)
        n_paths = len(b.tally_cache)
        assert n_paths > 0 and b.executions == 0
        with collecting() as reg:
            b.execute(xs)
        assert reg.value("batch.paths_traced") == 0
        assert reg.value("batch.tally_cache.hits") > 0
        assert len(b.tally_cache) == n_paths
        # Retargeted clones share it too.
        assert b.for_system(PIMSystem(SystemConfig(n_dpus=4))).tally_cache \
            is b.tally_cache

    def test_memo_reuse_is_bit_identical_to_fresh_trace(self, system):
        cache = PlanCache()
        cache.plan(system, _method(), LaunchConfig(tasklets=16)).execute(
            _inputs(400, seed=10))                        # populate
        xs = _inputs(400, seed=11)
        reused = cache.plan(system, _method(), LaunchConfig(tasklets=4))
        served = reused.execute(xs)                       # memo-assisted
        fresh = compile_plan(system, _method(), LaunchConfig(tasklets=4))
        assert fresh.tally_cache is not reused.tally_cache
        assert not fresh.tally_cache                      # full re-trace
        assert _fields(served) == _fields(fresh.execute(xs))

    def test_memo_is_per_placement(self, system):
        cache = PlanCache()
        xs = _inputs(64, seed=9)
        mram = cache.plan(system, _method(placement="mram"))
        wram = cache.plan(system, _method(placement="wram"))
        mram.execute(xs)
        wram.execute(xs)
        # One pooled image, one tally dict per placement.
        assert mram.image is wram.image
        assert set(mram.image.tallies) == {"mram", "wram"}
        assert mram.tally_cache is not wram.tally_cache
        # Placement changes traced load costs; a shared key differs.
        k = next(iter(mram.tally_cache))
        assert mram.tally_cache[k].counts != wram.tally_cache[k].counts

    def test_pickle_drops_the_tally_memo(self, system):
        # The evaluator holds no tallies of its own: a pickled clone
        # traces every path into the caller's dict, bit-identically.
        ev = VecEvaluator(_method())
        xs = _inputs(64, seed=13)
        warm = {}
        first = ev.run(xs, tally_cache=warm)
        clone = pickle.loads(pickle.dumps(ev))
        assert len(clone._memo) == 0
        cold = {}
        with collecting() as reg:
            again = clone.run(xs, tally_cache=cold)
        assert reg.value("batch.paths_traced") == len(warm) > 0
        assert cold.keys() == warm.keys()
        assert again.batch.tally.counts == first.batch.tally.counts
        assert again.values.tobytes() == first.values.tobytes()
        # A shipped plan carries its tallies in its image instead.
        plan = PlanCache().plan(system, _method())
        plan.execute(xs)
        shipped = pickle.loads(pickle.dumps(plan))
        assert shipped.tally_cache is shipped.image.tallies["mram"]
        assert shipped.tally_cache.keys() == plan.tally_cache.keys()
        assert len(shipped.image.evaluator._memo) == 0
