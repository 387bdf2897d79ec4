"""Default-topology differential: the refactor must be invisible.

The topology refactor's acceptance bar: with the default (paper) topology
and balanced transfers, every execution surface — ``plan.execute``,
inline and pooled ``execute_sharded``, and the serving front end — is
*bit-identical* to the flat pre-topology model, which a bare
``SystemConfig(n_dpus=2545)`` still reproduces exactly.  Rank-aligned
sharding and rank-parallel transfers are opt-in; their behavior is pinned
separately below.
"""

import asyncio

import numpy as np
import pytest

from repro.api import make_method
from repro.obs.metrics import collecting
from repro.obs.tracer import Tracer, tracing
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.pim.topology import PAPER_TOPOLOGY
from repro.plan.dispatch import execute_sharded, shard_ranges, shard_split
from repro.plan.plan import LaunchConfig, TransferSchedule, compile_plan
from repro.plan.pool import ShardPool

_F32 = np.float32

#: The flat model: exactly what ``SystemConfig()`` meant before the
#: topology existed — 2545 DPUs, no hierarchy.
_FLAT = PIMSystem(SystemConfig(n_dpus=PAPER_TOPOLOGY.n_dpus, topology=None))
#: The refactored default: same count, paper hierarchy underneath.
_TOPO = PIMSystem(SystemConfig())


def _plans(function="sin", method="llut_i"):
    m = make_method(function, method, assume_in_range=False)
    return (compile_plan(_FLAT, m, LaunchConfig(sample_size=48)),
            compile_plan(_TOPO, m, LaunchConfig(sample_size=48)))


def _inputs(n=3000, seed=7):
    return np.random.default_rng(seed).uniform(-4, 4, n).astype(_F32)


def _assert_results_identical(a, b):
    assert a.total_seconds == b.total_seconds
    assert a.kernel_seconds == b.kernel_seconds
    assert a.host_to_pim_seconds == b.host_to_pim_seconds
    assert a.pim_to_host_seconds == b.pim_to_host_seconds
    assert a.n_dpus_used == b.n_dpus_used


class TestDefaultTopologyIsInvisible:
    def test_plan_execute_bit_identical(self):
        flat_plan, topo_plan = _plans()
        xs = _inputs()
        _assert_results_identical(flat_plan.execute(xs),
                                  topo_plan.execute(xs))
        np.testing.assert_array_equal(flat_plan.values(xs),
                                      topo_plan.values(xs))

    def test_sharded_inline_bit_identical(self):
        flat_plan, topo_plan = _plans()
        xs = _inputs()
        a = execute_sharded(flat_plan, xs, n_shards=4, overlap=True)
        b = execute_sharded(topo_plan, xs, n_shards=4, overlap=True)
        assert a.total_seconds == b.total_seconds
        assert a.serial_seconds == b.serial_seconds
        assert a.overlap_saving_seconds == b.overlap_saving_seconds
        for sa, sb in zip(a.shards, b.shards):
            assert sa.start_seconds == sb.start_seconds
            assert sa.finish_seconds == sb.finish_seconds
            _assert_results_identical(sa.result, sb.result)

    def test_sharded_pooled_bit_identical(self):
        flat_plan, topo_plan = _plans("tanh", "dlut_i")
        xs = _inputs(2000, seed=9)
        with ShardPool(2, start_method="fork", timeout=120.0) as pool:
            a = execute_sharded(flat_plan, xs, n_shards=2, pool=pool)
            b = execute_sharded(topo_plan, xs, n_shards=2, pool=pool)
        assert a.total_seconds == b.total_seconds
        for sa, sb in zip(a.shards, b.shards):
            _assert_results_identical(sa.result, sb.result)

    def test_serve_coalescing_bit_identical(self):
        from repro.pim.host import PIMRuntime
        from repro.plan.session import PlanSession
        from repro.serve import Server, normalize_request

        spec = normalize_request("sin", "llut_i")
        inputs = [_inputs(64 + i, seed=20 + i) for i in range(6)]

        def serve_on(system):
            async def main():
                server = Server(PlanSession(PIMRuntime(system=system)))
                results = await server.submit_many(
                    [(spec, xs) for xs in inputs])
                await server.close()
                return results
            return asyncio.run(main())

        for ra, rb in zip(serve_on(_FLAT), serve_on(_TOPO)):
            np.testing.assert_array_equal(ra.values, rb.values)
            assert ra.batch_requests == rb.batch_requests

    def test_plan_keys_differ_only_in_topology_field(self):
        """The two systems are distinct cache entries (equal ``n_dpus``,
        different topologies) even though execution is bit-identical."""
        from repro.plan.cache import key_for

        m = make_method("sin", "llut_i", assume_in_range=False)
        ka = key_for(_FLAT, m)
        kb = key_for(_TOPO, m)
        assert ka != kb
        assert ka.system.n_dpus == kb.system.n_dpus
        assert ka.system.topology.signature() == "1x1x1x2545"
        assert kb.system.topology == PAPER_TOPOLOGY
        assert ka.table_key == kb.table_key
        assert ka.placement == kb.placement
        assert ka.costs == kb.costs


class TestRankAlignedSharding:
    def test_ranges_follow_rank_boundaries(self):
        _, topo_plan = _plans()
        xs = _inputs()
        tracer = Tracer()
        with collecting() as reg, tracing(tracer):
            r = execute_sharded(topo_plan, xs, n_shards=4,
                                rank_aligned=True)
        spans = PAPER_TOPOLOGY.split_ranks(4)
        assert r.n_elements == len(xs)
        assert reg.value("dispatch.rank_aligned") == 1
        assert reg.value("topology.subranges") >= 4
        dsp = tracer.find("dispatch.run")
        assert dsp is not None
        assert dsp.attrs["rank_aligned"] is True
        shard_spans = [c for c in dsp.children if c.name == "shard"]
        # Each shard is granted exactly its whole-rank span of DPUs...
        assert [s.attrs["n_dpus"] for s in shard_spans] == \
            [hi - lo for lo, hi in spans]
        # ...and carries the channel its first rank hangs off.
        channels = [s.attrs["channel"] for s in shard_spans]
        assert channels == [PAPER_TOPOLOGY.channel_of_range(lo, hi)
                            for lo, hi in spans]

    def test_split_matches_topology_split_ranks(self):
        split = shard_split(3000, PAPER_TOPOLOGY.n_dpus, 4,
                            topology=PAPER_TOPOLOGY)
        assert shard_ranges(split) == PAPER_TOPOLOGY.split_ranks(4)
        assert sum(ne for ne, _ in split) == 3000

    def test_pooled_rank_aligned_matches_inline(self):
        """dpu_range ships to the worker, which rebuilds the same
        subrange system the inline path uses."""
        _, topo_plan = _plans()
        xs = _inputs(2000, seed=13)
        inline = execute_sharded(topo_plan, xs, n_shards=2,
                                 rank_aligned=True)
        with ShardPool(2, start_method="fork", timeout=120.0) as pool:
            pooled = execute_sharded(topo_plan, xs, n_shards=2,
                                     rank_aligned=True, pool=pool)
        assert pooled.total_seconds == inline.total_seconds
        for sa, sb in zip(inline.shards, pooled.shards):
            _assert_results_identical(sa.result, sb.result)

    def test_serve_rank_aligned_values_unchanged(self):
        from repro.serve import ServeConfig, Server, normalize_request
        from repro.serve.keys import spec_method

        spec = normalize_request("sin", "llut_i")
        xs = _inputs(512, seed=31)

        async def main():
            server = Server(config=ServeConfig(shards=4, rank_aligned=True))
            result = await server.submit_spec(spec, xs)
            await server.close()
            return result

        result = asyncio.run(main())
        m = spec_method(spec)
        m.setup()
        np.testing.assert_array_equal(result.values, m.evaluate_vec(xs))


def _launch(system, m, xs, **schedule):
    return compile_plan(system, m, LaunchConfig(
        sample_size=48, transfers=TransferSchedule(**schedule))).execute(xs)


class TestRankParallelTransfers:
    def test_unbalanced_scatter_fans_across_ranks(self):
        """Opt-in rank parallelism divides the unbalanced serialization
        by the touched rank count; balanced transfers are untouched."""
        m = make_method("sin", "llut_i", assume_in_range=False)
        xs = _inputs(2000, seed=17)
        serial = _launch(_TOPO, m, xs, balanced=False)
        fanned = _launch(_TOPO, m, xs, balanced=False, rank_parallel=True)
        ranks = PAPER_TOPOLOGY.ranks_in_range(0, serial.n_dpus_used)
        assert ranks > 1
        assert fanned.host_to_pim_seconds == \
            serial.host_to_pim_seconds / ranks
        assert fanned.pim_to_host_seconds == \
            serial.pim_to_host_seconds / ranks
        assert fanned.kernel_seconds == serial.kernel_seconds
        assert fanned.total_seconds < serial.total_seconds

    def test_rank_parallel_noop_on_balanced(self):
        m = make_method("sin", "llut_i", assume_in_range=False)
        xs = _inputs(1500, seed=19)
        base = _launch(_TOPO, m, xs)
        rp = _launch(_TOPO, m, xs, rank_parallel=True)
        _assert_results_identical(base, rp)

    def test_single_rank_fallback_matches_flat(self):
        """A bare-n_dpus system has one rank: rank_parallel changes
        nothing, preserving the flat serialization model."""
        m = make_method("sin", "llut_i", assume_in_range=False)
        xs = _inputs(1000, seed=23)
        sys64 = PIMSystem(SystemConfig(n_dpus=64))
        a = _launch(sys64, m, xs, balanced=False)
        b = _launch(sys64, m, xs, balanced=False, rank_parallel=True)
        _assert_results_identical(a, b)


# ----------------------------------------------------------------------
# Full matrix, slow-marked (CI topology step): the default topology is
# invisible for *every* supported (method, function) pair, not just the
# representative kernels above.

from repro.core.functions.support import METHOD_SUPPORT  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402

FULL_MATRIX = [
    (method, function)
    for method, functions in sorted(METHOD_SUPPORT.items())
    for function in sorted(functions)
]


@pytest.mark.slow
@pytest.mark.parametrize("method,function", FULL_MATRIX,
                         ids=[f"{m}-{f}" for m, f in FULL_MATRIX])
def test_default_topology_invisible_full_matrix(method, function):
    try:
        m = make_method(function, method, assume_in_range=False)
    except ConfigurationError as exc:
        pytest.skip(f"unsupported configuration: {exc}")
    flat_plan = compile_plan(_FLAT, m, LaunchConfig(sample_size=48))
    topo_plan = compile_plan(_TOPO, m, LaunchConfig(sample_size=48))
    xs = _inputs(400, seed=29)
    _assert_results_identical(flat_plan.execute(xs), topo_plan.execute(xs))
    a = execute_sharded(flat_plan, xs, n_shards=2, overlap=True)
    b = execute_sharded(topo_plan, xs, n_shards=2, overlap=True)
    assert a.total_seconds == b.total_seconds
    for sa, sb in zip(a.shards, b.shards):
        _assert_results_identical(sa.result, sb.result)
