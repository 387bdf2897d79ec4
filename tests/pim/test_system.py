"""Tests for the multi-core PIM system model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.pim.config import DPUConfig, SystemConfig
from repro.pim.system import PIMSystem


def identity_kernel(ctx, x):
    return ctx.fadd(x, 0.0)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = SystemConfig()
        assert cfg.n_dpus == 2545
        assert cfg.dpu.frequency_mhz == 350.0

    def test_invalid_dpus(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n_dpus=0)

    def test_invalid_frequency(self):
        with pytest.raises(ConfigurationError):
            DPUConfig(frequency_mhz=0)

    def test_transfer_seconds(self):
        cfg = SystemConfig(host_to_pim_bw=1e9, pim_to_host_bw=2e9)
        assert cfg.host_to_pim_seconds(1_000_000) == pytest.approx(1e-3)
        assert cfg.pim_to_host_seconds(1_000_000) == pytest.approx(0.5e-3)


class TestElementsPerDpu:
    def test_even_split(self):
        sys_ = PIMSystem(SystemConfig(n_dpus=10))
        assert sys_.elements_per_dpu(100) == 10

    def test_rounds_up(self):
        sys_ = PIMSystem(SystemConfig(n_dpus=10))
        assert sys_.elements_per_dpu(101) == 11

    def test_fewer_elements_than_dpus(self):
        sys_ = PIMSystem(SystemConfig(n_dpus=10))
        assert sys_.elements_per_dpu(3) == 1


class TestRun:
    def test_timing_components(self, rng):
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 10000).astype(np.float32)
        res = sys_.run(identity_kernel, xs)
        assert res.host_to_pim_seconds > 0
        assert res.pim_to_host_seconds > 0
        assert res.kernel_seconds > 0
        assert res.total_seconds == pytest.approx(
            res.kernel_seconds + res.host_to_pim_seconds
            + res.pim_to_host_seconds + res.launch_seconds
        )

    def test_no_transfers_mode(self, rng):
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 10000).astype(np.float32)
        res = sys_.run(identity_kernel, xs, include_transfers=False)
        assert res.host_to_pim_seconds == 0
        assert res.pim_to_host_seconds == 0
        assert res.compute_only_seconds < sys_.run(identity_kernel, xs).total_seconds

    def test_more_dpus_faster_kernel(self, rng):
        xs = rng.uniform(0, 1, 100000).astype(np.float32)
        small = PIMSystem(SystemConfig(n_dpus=100))
        big = PIMSystem(SystemConfig(n_dpus=2000))
        t_small = small.run(identity_kernel, xs).kernel_seconds
        t_big = big.run(identity_kernel, xs).kernel_seconds
        assert t_big < t_small

    def test_empty_raises(self):
        sys_ = PIMSystem()
        with pytest.raises(SimulationError):
            sys_.run(identity_kernel, np.array([], dtype=np.float32))

    def test_kernel_time_scales_with_share(self, rng):
        # With n_dpus=1 the kernel time equals the single-core time.
        xs = rng.uniform(0, 1, 5000).astype(np.float32)
        sys_ = PIMSystem(SystemConfig(n_dpus=1))
        res = sys_.run(identity_kernel, xs)
        assert res.kernel_seconds == pytest.approx(res.per_dpu.seconds)


class TestImbalance:
    def test_straggler_slows_the_launch(self, rng):
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 5000).astype(np.float32)
        even = sys_.run(identity_kernel, xs, virtual_n=10_000_000)
        skewed = sys_.run(identity_kernel, xs, virtual_n=10_000_000,
                          imbalance=0.5)
        assert skewed.kernel_seconds == pytest.approx(
            1.5 * even.kernel_seconds, rel=1e-9)

    def test_transfers_unaffected_by_imbalance(self, rng):
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 5000).astype(np.float32)
        even = sys_.run(identity_kernel, xs)
        skewed = sys_.run(identity_kernel, xs, imbalance=1.0)
        assert skewed.host_to_pim_seconds == even.host_to_pim_seconds

    def test_negative_imbalance_rejected(self, rng):
        from repro.errors import SimulationError
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 100).astype(np.float32)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                sys_.run(identity_kernel, xs, imbalance=bad)


class TestTransferBalance:
    def test_unbalanced_serializes(self, rng):
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 2000).astype(np.float32)
        par = sys_.run(identity_kernel, xs, virtual_n=10_000_000)
        ser = sys_.run(identity_kernel, xs, virtual_n=10_000_000,
                       balanced_transfers=False)
        assert ser.host_to_pim_seconds > 10 * par.host_to_pim_seconds


class TestRunEdgeCases:
    """Edge cases the span instrumentation walks through (PR 3)."""

    def test_virtual_n_with_small_sample(self, rng):
        # 32 materialized elements standing in for 10M: the tally is an
        # extrapolation, the transfers and DPU split reflect the full size.
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 32).astype(np.float32)
        res = sys_.run(identity_kernel, xs, virtual_n=10_000_000)
        assert res.n_elements == 10_000_000
        assert res.n_dpus_used == 2545
        assert res.per_dpu.n_elements == 10_000_000
        small = sys_.run(identity_kernel, xs)
        assert res.kernel_seconds > small.kernel_seconds

    def test_imbalance_interacts_with_n_dpus_used(self, rng):
        # A straggler slows the launch but does not change how many cores
        # received work.
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 300).astype(np.float32)
        even = sys_.run(identity_kernel, xs)
        skew = sys_.run(identity_kernel, xs, imbalance=0.25)
        assert even.n_dpus_used == skew.n_dpus_used == 300
        assert skew.kernel_seconds == pytest.approx(
            1.25 * even.kernel_seconds, rel=1e-9)
        assert skew.total_seconds > even.total_seconds

    def test_no_transfers_plus_energy(self, rng):
        # Figure 1(c) deployment: no transfer seconds, no transfer bytes,
        # and the energy model charges only the used cores' compute.
        from repro.pim.energy import DEFAULT_ENERGY_MODEL
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 500).astype(np.float32)
        res = sys_.run(identity_kernel, xs, include_transfers=False)
        assert res.host_to_pim_seconds == 0
        assert res.pim_to_host_seconds == 0
        assert res.compute_only_seconds == pytest.approx(res.total_seconds)
        rep = DEFAULT_ENERGY_MODEL.pim_energy(res, 0, 0)
        assert rep.transfer_joules == 0
        assert rep.compute_joules == pytest.approx(
            DEFAULT_ENERGY_MODEL.watts_per_dpu * res.n_dpus_used
            * res.compute_only_seconds)


class TestRunSpanAgreement:
    """SystemRunResult fields and the span tree must tell the same story."""

    def _traced_run(self, rng, **kwargs):
        from repro.obs import Tracer, tracing
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 2000).astype(np.float32)
        with tracing(Tracer()) as tracer:
            res = sys_.run(identity_kernel, xs, **kwargs)
        return tracer.find("system.run"), res

    def test_phase_attributions_sum_to_total(self, rng):
        run_span, res = self._traced_run(rng)
        by_name = {c.name: c.attrs["sim_seconds"] for c in run_span.children}
        assert set(by_name) == {"host_to_pim", "kernel", "pim_to_host",
                                "launch"}
        total = (by_name["kernel"] + by_name["host_to_pim"]
                 + by_name["pim_to_host"] + by_name["launch"])
        assert total == res.total_seconds
        assert by_name["kernel"] == res.kernel_seconds
        assert by_name["host_to_pim"] == res.host_to_pim_seconds
        assert by_name["pim_to_host"] == res.pim_to_host_seconds
        assert by_name["launch"] == res.launch_seconds

    def test_span_attrs_match_result_fields(self, rng):
        run_span, res = self._traced_run(rng, virtual_n=1_000_000)
        assert run_span.attrs["n_elements"] == res.n_elements
        assert run_span.attrs["n_dpus_used"] == res.n_dpus_used
        assert run_span.attrs["sim_seconds"] == res.total_seconds
        kernel = run_span.find("kernel")
        assert kernel.attrs["per_dpu_cycles"] == res.per_dpu.cycles
        assert kernel.attrs["slots"] == res.per_dpu.total_tally.slots

    def test_no_transfer_run_attributes_zero_bytes(self, rng):
        run_span, res = self._traced_run(rng, include_transfers=False)
        h2p = run_span.find("host_to_pim")
        assert h2p.attrs["sim_seconds"] == 0.0
        assert h2p.attrs["bytes"] == 0

    def test_untraced_run_is_identical(self, rng):
        # The null fast path must not perturb the numbers.
        sys_ = PIMSystem()
        xs = rng.uniform(0, 1, 1000).astype(np.float32)
        from repro.obs import Tracer, tracing
        plain = sys_.run(identity_kernel, xs)
        with tracing(Tracer()):
            traced = sys_.run(identity_kernel, xs)
        assert traced.total_seconds == plain.total_seconds
        assert traced.per_dpu.cycles == plain.per_dpu.cycles


class TestShardSystems:
    def test_built_once_per_range_and_shaped_like_the_slice(self):
        sys_ = PIMSystem()
        lo, hi = sys_.config.topology.split_ranks(4)[1]
        sub = sys_.shard_system(hi - lo, (lo, hi))
        assert sub is sys_.shard_system(hi - lo, (lo, hi))
        assert sub.config == sys_.config.subrange(lo, hi)
        assert sub.costs is sys_.costs
        flat = sys_.shard_system(100)
        assert flat is sys_.shard_system(100)
        assert flat.config == SystemConfig(n_dpus=100,
                                           topology=sys_.config.topology)

    def test_launches_derive_no_topology_after_the_first(self, rng,
                                                         monkeypatch):
        from repro.pim.topology import Topology
        from repro.plan.dispatch import execute_sharded

        sys_ = PIMSystem()
        plan = sys_.plan(identity_kernel)
        xs = rng.uniform(0, 1, 500).astype(np.float32)
        first = [execute_sharded(plan, xs, n_shards=3, rank_aligned=ra)
                 for ra in (False, True)]
        carved = []
        original = Topology.subrange
        monkeypatch.setattr(Topology, "subrange", lambda self, *a:
                            carved.append(a) or original(self, *a))
        again = [execute_sharded(plan, xs, n_shards=3, rank_aligned=ra)
                 for ra in (False, True)]
        assert carved == []
        assert [r.total_seconds for r in again] == \
            [r.total_seconds for r in first]

    def test_pickling_drops_the_cache(self):
        import pickle

        sys_ = PIMSystem(SystemConfig(n_dpus=64))
        sys_.shard_system(32)
        clone = pickle.loads(pickle.dumps(sys_))
        assert clone._shards == {}
        assert clone.shard_system(32).config == sys_.shard_system(32).config
