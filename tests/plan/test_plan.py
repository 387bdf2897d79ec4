"""Tests for ExecutionPlan compilation and execution."""

import functools
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.api import make_method
from repro.core.method import Method
from repro.errors import SimulationError
from repro.obs.tracer import Tracer, tracing
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.cache import PlanCache, PlanKey
from repro.plan.plan import LaunchConfig, TransferSchedule, compile_plan

_F32 = np.float32


def identity_kernel(ctx, x):
    return ctx.fadd(x, 0.0)


@pytest.fixture
def system():
    return PIMSystem(SystemConfig(n_dpus=64))


@pytest.fixture
def method():
    return make_method("sin", "llut_i", density_log2=8,
                       assume_in_range=False)


class TestCompile:
    def test_compile_builds_tables_once(self, system, method):
        assert not method._ready
        plan = compile_plan(system, method)
        assert method._ready
        assert plan.method is method
        assert plan.table_bytes == method.table_bytes()

    def test_compile_accepts_prebuilt_method(self, system, method):
        method.setup()
        plan = compile_plan(system, method)
        assert plan.method is method

    def test_compile_accepts_raw_kernel(self, system):
        plan = compile_plan(system, identity_kernel)
        assert plan.method is None
        assert plan.table_bytes == 0
        r = plan.execute(np.ones(100, dtype=_F32))
        assert r.total_seconds > 0

    def test_compile_bound_evaluate_detects_method(self, system, method):
        method.setup()
        plan = compile_plan(system, method.evaluate)
        assert plan.method is method

    def test_compile_emits_spans(self, system, method):
        tracer = Tracer()
        with tracing(tracer):
            compile_plan(system, method)
        compile_span = tracer.find("plan.compile")
        assert compile_span is not None
        build = compile_span.find("plan.table_build")
        assert build is not None
        assert build.attrs["table_bytes"] == method.table_bytes()


class TestExecute:
    def test_execute_matches_run(self, system, method, rng):
        xs = rng.uniform(-4, 4, 3000).astype(_F32)
        plan = compile_plan(system, method)
        a = plan.execute(xs)
        b = system.run(method.evaluate, xs)
        assert a.kernel_seconds == b.kernel_seconds
        assert a.total_seconds == b.total_seconds
        assert a.per_dpu.cycles == b.per_dpu.cycles

    def test_repeated_execute_uses_tally_cache(self, system, method, rng):
        xs = rng.uniform(-4, 4, 3000).astype(_F32)
        plan = compile_plan(system, method)
        # Explicit rng bypasses the launch memo, so the second call really
        # re-simulates — hitting the path-tally cache, not the memo.
        first = plan.execute(xs, rng=np.random.default_rng(1))
        assert len(plan.tally_cache) > 0
        cached_paths = len(plan.tally_cache)
        second = plan.execute(xs, rng=np.random.default_rng(1))
        # Bit-identical results, no new paths traced.
        assert second is not first
        assert second.total_seconds == first.total_seconds
        assert second.per_dpu.cycles == first.per_dpu.cycles
        assert len(plan.tally_cache) == cached_paths
        assert plan.executions == 2

    def test_launch_memo_caches_deterministic_launches(self, system,
                                                       method, rng):
        from repro.obs.metrics import collecting

        xs = rng.uniform(-4, 4, 3000).astype(_F32)
        plan = compile_plan(system, method)
        with collecting() as reg:
            first = plan.execute(xs)
            second = plan.execute(xs)
        # Same content, no caller rng: the whole launch is memoized.
        assert second is first
        assert plan.executions == 2
        assert reg.value("plan.launch_memo.misses") == 1
        assert reg.value("plan.launch_memo.hits") == 1
        # Different content or per-launch knobs miss.
        assert plan.execute(xs + 1.0) is not first
        assert plan.execute(xs, imbalance=0.5) is not first

    def test_scalar_oracle_skips_tally_cache(self, system, method, rng):
        # A raw-kernel wrapper of Method.evaluate is the scalar oracle: it
        # traces every sampled element and caches no path tallies.
        xs = rng.uniform(-4, 4, 500).astype(_F32)
        kernel = functools.partial(Method.evaluate, method.setup())
        oracle = compile_plan(system, kernel)
        r = oracle.execute(xs)
        assert oracle.method is None and len(oracle.tally_cache) == 0
        assert r.total_seconds == system.run(method.evaluate,
                                             xs).total_seconds

    def test_per_launch_imbalance_override(self, system, method, rng):
        xs = rng.uniform(-4, 4, 1000).astype(_F32)
        plan = compile_plan(system, method, LaunchConfig(imbalance=0.0))
        base = plan.execute(xs)
        slow = plan.execute(xs, imbalance=0.5)
        assert slow.kernel_seconds == pytest.approx(
            base.kernel_seconds * 1.5, rel=1e-12)
        assert slow.imbalance == 0.5 and base.imbalance == 0.0
        with pytest.raises(SimulationError):
            plan.execute(xs, imbalance=-0.1)

    def test_empty_input_rejected(self, system, method):
        plan = compile_plan(system, method)
        with pytest.raises(SimulationError):
            plan.execute(np.empty(0, dtype=_F32))

    def test_result_records_launch_configuration(self, system, method, rng):
        xs = rng.uniform(-4, 4, 200).astype(_F32)
        sched = TransferSchedule(include_transfers=False, balanced=False)
        plan = compile_plan(system, method, LaunchConfig(transfers=sched))
        r = plan.execute(xs, virtual_n=10_000)
        assert r.virtual_n == 10_000 and r.n_elements == 10_000
        assert r.include_transfers is False
        assert r.balanced_transfers is False
        assert r.imbalance == 0.0

    def test_values_bit_exact(self, system, method, rng):
        xs = rng.uniform(-4, 4, 256).astype(_F32)
        plan = compile_plan(system, method)
        np.testing.assert_array_equal(plan.values(xs),
                                      method.evaluate_vec(xs))

    def test_values_rejected_for_raw_kernel(self, system):
        plan = compile_plan(system, identity_kernel)
        with pytest.raises(SimulationError):
            plan.values(np.ones(4, dtype=_F32))


class TestTransferSchedule:
    def test_disabled_transfers_are_free(self):
        cfg = SystemConfig()
        sched = TransferSchedule(include_transfers=False)
        assert sched.scatter_seconds(cfg, 1000) == 0.0
        assert sched.gather_seconds(cfg, 1000) == 0.0

    def test_unbalanced_serializes(self):
        cfg = SystemConfig()
        fast = TransferSchedule()
        slow = TransferSchedule(balanced=False)
        assert slow.scatter_seconds(cfg, 1000) > fast.scatter_seconds(cfg, 1000)


class TestForSystem:
    def test_clone_shares_tally_cache(self, system, method, rng):
        xs = rng.uniform(-4, 4, 500).astype(_F32)
        plan = compile_plan(system, method)
        plan.execute(xs)
        other = plan.for_system(PIMSystem(SystemConfig(n_dpus=8)))
        assert other.tally_cache is plan.tally_cache
        assert other.memo is plan.memo
        r = other.execute(xs)
        # Fewer cores -> more elements per core -> more kernel time.
        assert r.kernel_seconds > plan.execute(xs).kernel_seconds


class TestDescribe:
    def test_describe_mentions_key_facts(self, system, method):
        plan = compile_plan(system, method)
        text = plan.describe(n_elements=1000, shards=4)
        assert "llut_i" in text
        assert "MRAM" in text
        assert "shard split" in text

    def test_describe_raw_kernel(self, system):
        plan = compile_plan(system, identity_kernel)
        assert "raw callable" in plan.describe()


#: ExecutionPlan attribute -> the PlanKey fields that key it.
_KEYED_ATTRS = {
    "kernel": ("table_key",),
    "image": ("table_key",),
    "method": ("table_key",),
    "placement": ("placement",),
    "system": ("system", "costs"),
    "config": ("config",),
}
#: Caches of exact results and counters: they never change a number.
_STATE_ATTRS = {"tally_cache", "memo", "executions", "_launch_memo"}

#: One non-default value per LaunchConfig field.
_CONFIG_VARIANTS = {
    "tasklets": 4,
    "sample_size": 16,
    "transfers": TransferSchedule(include_transfers=False),
    "imbalance": 0.5,
}
#: TransferSchedule field -> (base schedule, schedule varying that field).
#: Rank-parallel transfers only relax unbalanced copies.
_TRANSFER_VARIANTS = {
    "bytes_in_per_element": ({}, {"bytes_in_per_element": 8}),
    "bytes_out_per_element": ({}, {"bytes_out_per_element": 8}),
    "include_transfers": ({}, {"include_transfers": False}),
    "balanced": ({}, {"balanced": False}),
    "rank_parallel": ({"balanced": False},
                      {"balanced": False, "rank_parallel": True}),
}


def _numbers(result):
    return (result.total_seconds, result.kernel_seconds,
            result.host_to_pim_seconds, result.pim_to_host_seconds,
            result.per_dpu.cycles)


class TestPlanIdentity:
    """The plan key covers every input of a plan, and only inputs."""

    @pytest.fixture(scope="class")
    def paper_system(self):
        # Thousands of DPUs over many ranks, so every transfer knob shows.
        return PIMSystem()

    @pytest.fixture(scope="class")
    def xs(self):
        # Spans several reduction quadrants: a multi-path input.
        return np.linspace(-6.0, 6.0, 4096, dtype=_F32)

    def _simulate(self, system, config, xs):
        m = make_method("sin", "llut_i", density_log2=8,
                        assume_in_range=False)
        return _numbers(compile_plan(system, m, config).simulate(xs))

    def test_plan_attributes_are_keyed(self, system, method):
        cache = PlanCache()
        config = LaunchConfig(tasklets=8)
        plan = cache.plan(system, method, config)
        assert set(vars(plan)) == set(_KEYED_ATTRS) | _STATE_ATTRS
        assert {f for fs in _KEYED_ATTRS.values() for f in fs} == {
            f.name for f in fields(PlanKey)}
        (key,) = cache._plans
        assert plan.config is key.config
        clone = plan.for_system(PIMSystem(SystemConfig(n_dpus=8)))
        assert set(vars(clone)) == set(vars(plan))
        assert clone.config is plan.config

    @pytest.mark.parametrize("name", [f.name for f in fields(LaunchConfig)])
    def test_config_field_changes_numbers(self, paper_system, xs, name):
        base = self._simulate(paper_system, LaunchConfig(), xs)
        varied = self._simulate(
            paper_system,
            replace(LaunchConfig(), **{name: _CONFIG_VARIANTS[name]}), xs)
        assert varied != base

    @pytest.mark.parametrize("name",
                             [f.name for f in fields(TransferSchedule)])
    def test_transfer_field_changes_numbers(self, paper_system, xs, name):
        base_kw, varied_kw = _TRANSFER_VARIANTS[name]
        base = self._simulate(paper_system, LaunchConfig(
            transfers=TransferSchedule(**base_kw)), xs)
        varied = self._simulate(paper_system, LaunchConfig(
            transfers=TransferSchedule(**varied_kw)), xs)
        assert varied != base
