"""Tests for the sharded dispatcher and its overlap timeline."""

import numpy as np
import pytest

from repro.api import make_method
from repro.errors import SimulationError
from repro.obs.metrics import collecting
from repro.obs.tracer import Tracer, tracing
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.dispatch import execute_sharded, shard_split, spawn_shard_rngs
from repro.plan.plan import compile_plan

_F32 = np.float32


@pytest.fixture
def system():
    return PIMSystem(SystemConfig(n_dpus=64))


@pytest.fixture
def plan(system):
    m = make_method("sin", "llut_i", density_log2=8, assume_in_range=False)
    return compile_plan(system, m)


@pytest.fixture
def xs(rng):
    return rng.uniform(-4, 4, 4000).astype(_F32)


class TestShardSplit:
    def test_even_split(self):
        assert shard_split(100, 64, 4) == [(25, 16)] * 4

    def test_remainders_go_to_low_shards(self):
        assert shard_split(10, 7, 3) == [(4, 3), (3, 2), (3, 2)]

    def test_totals_preserved(self):
        for n, d, s in ((1000, 64, 5), (17, 13, 13), (2545, 2545, 7)):
            split = shard_split(n, d, s)
            assert sum(ne for ne, _ in split) == n
            assert sum(nd for _, nd in split) == d

    def test_validation(self):
        with pytest.raises(SimulationError):
            shard_split(100, 64, 0)
        with pytest.raises(SimulationError):
            shard_split(100, 4, 5)  # more shards than DPUs
        with pytest.raises(SimulationError):
            shard_split(3, 64, 4)  # more shards than elements


class TestSerialDispatch:
    def test_single_shard_matches_plain_execute(self, plan, xs):
        direct = plan.execute(xs)
        sharded = execute_sharded(plan, xs, n_shards=1)
        assert sharded.total_seconds == direct.total_seconds
        assert sharded.kernel_seconds == direct.kernel_seconds
        assert sharded.n_dpus_used == direct.n_dpus_used

    def test_total_is_exact_running_sum(self, plan, xs):
        r = execute_sharded(plan, xs, n_shards=3, overlap=False)
        total = 0.0
        for s in r.shards:
            assert s.start_seconds == total
            total += s.result.total_seconds
            assert s.finish_seconds == total
        assert r.total_seconds == total
        assert r.serial_seconds == total
        assert r.overlap_saving_seconds == 0.0

    def test_duck_typed_result_surface(self, plan, xs):
        r = execute_sharded(plan, xs, n_shards=4)
        assert r.n_elements == len(xs)
        assert r.n_dpus_used == sum(s.result.n_dpus_used for s in r.shards)
        assert r.kernel_seconds == max(s.result.kernel_seconds
                                       for s in r.shards)
        assert r.host_to_pim_seconds == sum(s.result.host_to_pim_seconds
                                            for s in r.shards)
        assert r.pim_to_host_seconds == sum(s.result.pim_to_host_seconds
                                            for s in r.shards)
        slowest = max(r.shards, key=lambda s: s.result.kernel_seconds)
        assert r.per_dpu is slowest.result.per_dpu
        assert r.compute_only_seconds == slowest.result.compute_only_seconds


class TestOverlapDispatch:
    def test_overlap_recurrence(self, plan, xs):
        r = execute_sharded(plan, xs, n_shards=4, overlap=True)
        h2p_done = p2h_done = 0.0
        for s in r.shards:
            assert s.start_seconds == h2p_done
            h2p_done += s.result.host_to_pim_seconds
            k_done = (h2p_done + s.result.launch_seconds
                      + s.result.kernel_seconds)
            p2h_done = max(k_done, p2h_done) + s.result.pim_to_host_seconds
            assert s.finish_seconds == p2h_done
        assert r.total_seconds == p2h_done

    def test_overlap_saves_time(self, plan, xs):
        serial = execute_sharded(plan, xs, n_shards=4, overlap=False)
        pipelined = execute_sharded(plan, xs, n_shards=4, overlap=True)
        assert pipelined.total_seconds < serial.total_seconds
        assert pipelined.overlap_saving_seconds > 0.0
        # Overlap can never beat the slowest single resource chain.
        assert pipelined.total_seconds >= pipelined.host_to_pim_seconds
        assert pipelined.total_seconds >= pipelined.pim_to_host_seconds


class TestImbalance:
    def test_per_shard_imbalance(self, plan, xs):
        base = execute_sharded(plan, xs, n_shards=2)
        skew = execute_sharded(plan, xs, n_shards=2, imbalance=[0.0, 0.5])
        assert (skew.shards[0].result.kernel_seconds
                == base.shards[0].result.kernel_seconds)
        assert skew.shards[1].result.kernel_seconds == pytest.approx(
            base.shards[1].result.kernel_seconds * 1.5, rel=1e-12)

    def test_scalar_imbalance_applies_everywhere(self, plan, xs):
        r = execute_sharded(plan, xs, n_shards=2, imbalance=0.25)
        assert all(s.result.imbalance == 0.25 for s in r.shards)

    def test_wrong_length_rejected(self, plan, xs):
        with pytest.raises(SimulationError):
            execute_sharded(plan, xs, n_shards=3, imbalance=[0.1, 0.2])


class TestSharedTracing:
    def test_shards_share_parent_tally_cache(self, plan, xs):
        assert len(plan.tally_cache) == 0
        execute_sharded(plan, xs, n_shards=4)
        paths = len(plan.tally_cache)
        assert paths > 0
        # A second dispatch re-traces nothing.
        execute_sharded(plan, xs, n_shards=4)
        assert len(plan.tally_cache) == paths

    def test_virtual_n_sharding(self, plan, rng):
        sample = rng.uniform(-4, 4, 512).astype(_F32)
        r = execute_sharded(plan, sample, n_shards=3, virtual_n=90_000)
        assert r.n_elements == 90_000
        assert sum(s.n_elements for s in r.shards) == 90_000
        # Every shard saw the whole sample, virtually sized.
        assert all(s.result.virtual_n == s.n_elements for s in r.shards)

    def test_record_inputs_shard_along_rows(self, system, rng):
        def first_field(ctx, row):
            return ctx.fadd(row[0], 1.0)

        records = rng.uniform(0, 1, (600, 5)).astype(_F32)
        plan = compile_plan(system, first_field)
        r = execute_sharded(plan, records, n_shards=3)
        assert r.n_elements == 600
        assert [s.n_elements for s in r.shards] == [200, 200, 200]

    def test_empty_input_rejected(self, plan):
        with pytest.raises(SimulationError):
            execute_sharded(plan, np.empty(0, dtype=_F32), n_shards=2)


class TestRngThreading:
    """Per-shard generators: one seed reproduces the whole dispatch."""

    def test_spawn_none_passthrough(self):
        assert spawn_shard_rngs(None, 3) == [None, None, None]

    def test_spawn_children_are_independent_and_reproducible(self):
        a = spawn_shard_rngs(np.random.default_rng(7), 3)
        b = spawn_shard_rngs(np.random.default_rng(7), 3)
        draws_a = [g.integers(0, 1 << 30, size=4).tolist() for g in a]
        draws_b = [g.integers(0, 1 << 30, size=4).tolist() for g in b]
        assert draws_a == draws_b  # same parent seed -> same children
        assert len({tuple(d) for d in draws_a}) == 3  # distinct streams

    def test_same_seed_reproduces_sharded_dispatch(self, plan, xs):
        r1 = execute_sharded(plan, xs, n_shards=4,
                             rng=np.random.default_rng(11))
        r2 = execute_sharded(plan, xs, n_shards=4,
                             rng=np.random.default_rng(11))
        assert r1.total_seconds == r2.total_seconds
        for s1, s2 in zip(r1.shards, r2.shards):
            assert s1.result.kernel_seconds == s2.result.kernel_seconds

    def test_shard_result_independent_of_sibling_shards(self, plan, xs):
        # Regression: the dispatcher used to forward ONE generator into
        # every shard, so shard i's sample draw depended on how many
        # shards ran before it.  With spawned children, shard i run in
        # isolation is bit-identical to shard i inside the dispatch — the
        # property a process pool requires.
        from dataclasses import replace

        n_shards = 3
        r = execute_sharded(plan, xs, n_shards=n_shards,
                            rng=np.random.default_rng(23))
        split = shard_split(len(xs), plan.system.config.n_dpus, n_shards)
        children = spawn_shard_rngs(np.random.default_rng(23), n_shards)
        offset = 0
        for i, (n_i, dpus_i) in enumerate(split):
            sub = PIMSystem(replace(plan.system.config, n_dpus=dpus_i),
                            plan.system.costs)
            alone = plan.for_system(sub).execute(
                xs[offset:offset + n_i], rng=children[i])
            offset += n_i
            assert alone.kernel_seconds == r.shards[i].result.kernel_seconds
            assert alone.total_seconds == r.shards[i].result.total_seconds


class TestObservability:
    def test_spans_reconcile_with_totals(self, plan, xs):
        tracer = Tracer()
        with tracing(tracer):
            r = execute_sharded(plan, xs, n_shards=3, overlap=True)
        dsp = tracer.find("dispatch.run")
        assert dsp is not None
        assert dsp.attrs["sim_seconds"] == r.total_seconds
        assert dsp.attrs["serial_seconds"] == r.serial_seconds
        shard_spans = [c for c in dsp.children if c.name == "shard"]
        assert len(shard_spans) == 3
        for sp, s in zip(shard_spans, r.shards):
            assert sp.attrs["index"] == s.index
            assert sp.attrs["sim_seconds"] == s.result.total_seconds
            assert sp.attrs["start_seconds"] == s.start_seconds
            assert sp.attrs["finish_seconds"] == s.finish_seconds
            assert sp.find("shard.execute") is not None

    def test_metrics(self, plan, xs):
        with collecting() as reg:
            execute_sharded(plan, xs, n_shards=4, overlap=True)
        assert reg.value("dispatch.runs") == 1
        assert reg.value("dispatch.shards") == 4
        g = reg.gauge("dispatch.overlap_saving_seconds")
        assert g.count == 1 and g.last > 0.0


class _StubPlan:
    """A plan whose shard executions return pre-crafted timing results.

    Lets the overlap arithmetic be checked against a hand-computed
    timeline with exactly-representable floats, independent of any
    kernel simulation.
    """

    def __init__(self, system, queued):
        self.system = system
        self.tasklets = 12
        self._queued = list(queued)

    def for_system(self, sub):
        return self

    def simulate(self, xs, *, virtual_n=None, rng=None, imbalance=None,
                 span_name="plan.execute"):
        return self._queued.pop(0)


def _stub_result(h2p, launch, kernel, p2h):
    from repro.isa.counter import Tally
    from repro.pim.dpu import KernelResult
    per_dpu = KernelResult(
        n_elements=1, tasklets=12, per_element_tally=Tally(),
        total_tally=Tally(), cycles=0.0, seconds=kernel,
        sample_outputs=np.zeros(1, dtype=_F32),
    )
    from repro.pim.system import SystemRunResult
    return SystemRunResult(
        n_elements=4, n_dpus_used=32, tasklets=12,
        kernel_seconds=kernel, host_to_pim_seconds=h2p,
        pim_to_host_seconds=p2h, launch_seconds=launch, per_dpu=per_dpu,
    )


class TestOverlapExactArithmetic:
    """Hand-computed two-shard timeline, checked with exact equality.

    shard 0: h2p=1.0,  launch=0.25, kernel=2.0, p2h=0.5
    shard 1: h2p=0.75, launch=0.25, kernel=1.5, p2h=0.5

        h2p_done = [1.0, 1.75]
        k_done   = [1.0+0.25+2.0, 1.75+0.25+1.5] = [3.25, 3.5]
        p2h_done = [max(3.25,0)+0.5, max(3.5, 3.75)+0.5] = [3.75, 4.25]

    so total = 4.25, serial = 3.75 + 3.0 = 6.75 and the gather queueing
    delay makes the saving exactly 6.75 - 4.25 = 2.5.  Every number is a
    small dyadic rational, exact in float64.
    """

    def test_two_shard_timeline(self, system):
        plan = _StubPlan(system, [
            _stub_result(1.0, 0.25, 2.0, 0.5),
            _stub_result(0.75, 0.25, 1.5, 0.5),
        ])
        xs = np.linspace(0.0, 1.0, 8, dtype=_F32)
        with collecting() as reg:
            r = execute_sharded(plan, xs, n_shards=2, overlap=True)
        assert r.total_seconds == 4.25
        assert r.serial_seconds == 6.75
        assert r.overlap_saving_seconds == 2.5
        assert (r.shards[0].start_seconds, r.shards[0].finish_seconds) \
            == (0.0, 3.75)
        assert (r.shards[1].start_seconds, r.shards[1].finish_seconds) \
            == (1.0, 4.25)
        g = reg.gauge("dispatch.overlap_saving_seconds")
        assert g.count == 1 and g.last == 2.5

    def test_serial_dispatch_is_running_sum(self, system):
        plan = _StubPlan(system, [
            _stub_result(1.0, 0.25, 2.0, 0.5),
            _stub_result(0.75, 0.25, 1.5, 0.5),
        ])
        xs = np.linspace(0.0, 1.0, 8, dtype=_F32)
        r = execute_sharded(plan, xs, n_shards=2, overlap=False)
        assert r.total_seconds == 6.75
        assert r.overlap_saving_seconds == 0.0
        assert (r.shards[0].start_seconds, r.shards[0].finish_seconds) \
            == (0.0, 3.75)
        assert (r.shards[1].start_seconds, r.shards[1].finish_seconds) \
            == (3.75, 6.75)
