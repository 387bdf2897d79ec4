"""Pool-vs-inline differential harness plus pool fault injection.

The tentpole guarantee of :mod:`repro.plan.pool` is that a pooled sharded
dispatch is pure *mechanism*: for every supported (function, method) pair,
``execute_sharded(plan, xs, workers=W)`` produces values, slots, tallies,
and span-reconciled timings bit-identical to the inline shard loop — under
both ``fork`` and ``spawn`` worker start methods.  No approx anywhere;
every assertion is ``==``.

A fast subset runs in tier-1; the full ``METHOD_SUPPORT`` matrix is
``slow``-marked and runs in CI's pool step.  Fault-injection tests drive a
worker that raises, hangs past the dispatch timeout, or dies mid-shard,
and assert the failure surfaces as a clean :class:`repro.errors.PoolError`
with no orphaned shared-memory segments and no half-aggregated result.
"""

import os
import time

import numpy as np
import pytest

from repro.api import make_method
from repro.core.functions.support import METHOD_SUPPORT
from repro.errors import (ConfigurationError, PoolError, PoolTimeoutError,
                          TransPimError)
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.tracer import Tracer, tracing
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.dispatch import execute_sharded, shard_split
from repro.plan.plan import compile_plan
from repro.plan.pool import ShardPool, active_segments
from repro.analysis.sweep import default_inputs

_F32 = np.float32

_SYSTEM = PIMSystem(SystemConfig(n_dpus=64))

START_METHODS = ("fork", "spawn")

# Compiled plans reused across the fast and slow suites (and both start
# methods); plans are launch-configuration state, not per-run state.
_PLANS = {}


def _plan_for(function: str, method: str):
    key = (function, method)
    if key not in _PLANS:
        m = make_method(function, method, assume_in_range=False)
        _PLANS[key] = compile_plan(_SYSTEM, m, sample_size=48)
    return _PLANS[key]


def _inputs_for(function: str, n: int) -> np.ndarray:
    return default_inputs(function, n=n, seed=11, in_natural_range=False)


# Module-scoped pools, one per start method: plans ship once, workers
# stay warm across the whole matrix.
@pytest.fixture(scope="module", params=START_METHODS)
def pool(request):
    p = ShardPool(2, start_method=request.param, timeout=120.0)
    yield p
    p.close()


def _shard_attrs(tracer):
    """The per-shard span attrs that must reconcile, in shard order."""
    keys = ("sim_seconds", "host_to_pim", "kernel", "pim_to_host",
            "launch", "start_seconds", "finish_seconds")
    dispatch = tracer.find("dispatch.run")
    assert dispatch is not None
    out = []
    for child in dispatch.children:
        if child.name == "shard":
            out.append({k: child.attrs[k] for k in keys})
    return out


def _assert_pool_matches_inline(function: str, method: str, pool,
                                n: int = 600, n_shards: int = 4,
                                overlap: bool = True) -> None:
    plan = _plan_for(function, method)
    xs = _inputs_for(function, n)

    tr_i = Tracer()
    with tracing(tr_i):
        inline = execute_sharded(plan, xs, n_shards=n_shards,
                                 overlap=overlap,
                                 rng=np.random.default_rng(5))
    tr_p = Tracer()
    with tracing(tr_p):
        pooled = execute_sharded(plan, xs, n_shards=n_shards,
                                 overlap=overlap,
                                 rng=np.random.default_rng(5), pool=pool)

    # Timings, bit for bit.
    assert pooled.total_seconds == inline.total_seconds
    assert pooled.serial_seconds == inline.serial_seconds
    assert pooled.overlap_saving_seconds == inline.overlap_saving_seconds
    assert pooled.kernel_seconds == inline.kernel_seconds
    assert pooled.host_to_pim_seconds == inline.host_to_pim_seconds
    assert pooled.pim_to_host_seconds == inline.pim_to_host_seconds
    assert pooled.launch_seconds == inline.launch_seconds

    # Per-shard results: values, slots, tallies, timeline offsets.
    assert len(pooled.shards) == len(inline.shards) == n_shards
    for a, b in zip(inline.shards, pooled.shards):
        assert b.n_elements == a.n_elements
        assert b.n_dpus == a.n_dpus
        assert b.start_seconds == a.start_seconds
        assert b.finish_seconds == a.finish_seconds
        ra, rb = a.result, b.result
        assert rb.total_seconds == ra.total_seconds
        assert rb.kernel_seconds == ra.kernel_seconds
        assert rb.per_dpu.cycles == ra.per_dpu.cycles
        assert rb.per_dpu.total_tally.slots == ra.per_dpu.total_tally.slots
        assert rb.per_dpu.total_tally.counts == ra.per_dpu.total_tally.counts
        np.testing.assert_array_equal(rb.per_dpu.sample_outputs,
                                      ra.per_dpu.sample_outputs)

    # Span reconciliation: identical shard attrs, and the grafted worker
    # subtree keeps the inline tree shape (shard > shard.execute).
    assert _shard_attrs(tr_p) == _shard_attrs(tr_i)
    for child in tr_p.find("dispatch.run").children:
        if child.name == "shard":
            assert any(c.name == "shard.execute" for c in child.children)


# ----------------------------------------------------------------------
# Fast tier-1 subset: one pair per method family, both start methods.

FAST_PAIRS = [
    ("sin", "mlut_i"),
    ("exp", "slut_i"),
    ("tanh", "cordic_lut"),
]


@pytest.mark.parametrize("function,method", FAST_PAIRS,
                         ids=[f"{m}-{f}" for f, m in FAST_PAIRS])
def test_pool_matches_inline_fast(function, method, pool):
    _assert_pool_matches_inline(function, method, pool)


def test_pool_serial_dispatch_matches(pool):
    _assert_pool_matches_inline("sin", "mlut_i", pool, overlap=False)


# ----------------------------------------------------------------------
# Full matrix, slow-marked (CI pool step): every supported pair.

FULL_MATRIX = [
    (method, function)
    for method, functions in sorted(METHOD_SUPPORT.items())
    for function in sorted(functions)
]


@pytest.mark.slow
@pytest.mark.parametrize("method,function", FULL_MATRIX,
                         ids=[f"{m}-{f}" for m, f in FULL_MATRIX])
def test_pool_matches_inline_full_matrix(method, function, pool):
    try:
        _plan_for(function, method)
    except ConfigurationError as exc:
        pytest.skip(f"unsupported configuration: {exc}")
    _assert_pool_matches_inline(function, method, pool, n=72)


# ----------------------------------------------------------------------
# Worker-utilization gauge and metric merging.

def test_pool_metrics_and_utilization_gauge(pool):
    plan = _plan_for("sin", "mlut_i")
    xs = _inputs_for("sin", 600)
    reg = MetricsRegistry()
    with collecting(reg):
        execute_sharded(plan, xs, n_shards=4, pool=pool)
    assert reg.value("dispatch.runs") == 1
    assert reg.value("dispatch.shards") == 4
    assert reg.value("dispatch.pool.dispatches") == 1
    assert reg.value("dispatch.pool.tasks") == 4
    # Worker-side counters merged into the parent registry.
    assert reg.value("plan.executions") == 4
    assert reg.value("dpu.kernel_runs") > 0
    util = reg.gauge("dispatch.pool.worker_utilization")
    assert util.count == 1
    assert 0.0 < util.last <= 1.0


def test_shard_sub_launches_skip_the_launch_memo(pool):
    plan = _plan_for("sin", "mlut_i")
    xs = _inputs_for("sin", 601)
    with collecting() as reg:
        execute_sharded(plan, xs, n_shards=4)
        execute_sharded(plan, xs, n_shards=4, pool=pool)
    assert reg.value("plan.executions") == 8
    assert not [n for n in reg.to_dict()["metrics"]
                if n.startswith("plan.launch_memo.")]
    top = plan.for_system(_SYSTEM)   # a clone starts with an empty memo
    with collecting() as reg:        # top-level launches keep their memo
        top.execute(xs)
        top.execute(xs)
    assert reg.value("plan.launch_memo.misses") == 1
    assert reg.value("plan.launch_memo.hits") == 1


def test_plan_ships_once_per_pool():
    plan = _plan_for("sin", "mlut_i")
    xs = _inputs_for("sin", 600)
    reg = MetricsRegistry()
    before = active_segments()
    with ShardPool(2, start_method="fork") as p, collecting(reg):
        execute_sharded(plan, xs, n_shards=2, pool=p)
        execute_sharded(plan, xs, n_shards=4, pool=p)
        assert reg.value("dispatch.pool.shipments") == 1
        assert len(active_segments()) == len(before) + 1
    assert active_segments() == before


# ----------------------------------------------------------------------
# Fault injection.  The kernels live at module level so spawn workers can
# unpickle them by qualified name; each trips on a sentinel input value
# that the tests plant in exactly one shard's contiguous slice.

_BOOM = 999.0   # worker raises
_HANG = 888.0   # worker sleeps past the dispatch timeout
_DIE = 777.0    # worker process exits hard mid-shard


def _fault_kernel(counter, x):
    xf = float(x)
    if xf == _BOOM:
        raise ValueError("injected shard fault")
    if xf == _HANG:
        time.sleep(30.0)
    if xf == _DIE:
        os._exit(13)
    return counter.fadd(x, np.float32(1.0))


def _inputs_with_fault(n: int, n_shards: int, shard_k: int,
                       sentinel: float) -> np.ndarray:
    """Benign inputs with shard ``shard_k``'s whole slice set to sentinel."""
    xs = np.full(n, 0.5, dtype=_F32)
    split = shard_split(n, _SYSTEM.config.n_dpus, n_shards)
    offset = sum(ne for ne, _ in split[:shard_k])
    xs[offset:offset + split[shard_k][0]] = _F32(sentinel)
    return xs


def _fault_plan():
    # sample_size >= per-shard slice so the sentinel always executes.
    return compile_plan(_SYSTEM, _fault_kernel, sample_size=64)


class TestFaultInjection:
    def test_worker_raise_surfaces_as_pool_error(self):
        plan = _fault_plan()
        xs = _inputs_with_fault(64, 4, shard_k=2, sentinel=_BOOM)
        before = active_segments()
        pool = ShardPool(2, start_method="fork")
        with pytest.raises(PoolError) as err:
            execute_sharded(plan, xs, n_shards=4, pool=pool)
        assert err.value.shard_index == 2
        assert "injected shard fault" in str(err.value)
        assert "ValueError" in str(err.value)
        assert pool.closed  # a failed dispatch closes the pool
        assert active_segments() == before  # no orphaned segments

    def test_worker_raise_is_a_transpim_error(self):
        plan = _fault_plan()
        xs = _inputs_with_fault(64, 2, shard_k=0, sentinel=_BOOM)
        before = active_segments()
        with pytest.raises(TransPimError):
            execute_sharded(plan, xs, n_shards=2, workers=2)
        assert active_segments() == before

    def test_worker_hang_times_out(self):
        plan = _fault_plan()
        xs = _inputs_with_fault(64, 2, shard_k=1, sentinel=_HANG)
        before = active_segments()
        pool = ShardPool(2, start_method="fork")
        t0 = time.monotonic()
        with pytest.raises(PoolTimeoutError):
            execute_sharded(plan, xs, n_shards=2, pool=pool,
                            timeout=1.5)
        assert time.monotonic() - t0 < 20.0  # well under the 30s sleep
        assert pool.closed
        assert active_segments() == before

    def test_worker_death_mid_shard(self):
        plan = _fault_plan()
        xs = _inputs_with_fault(64, 2, shard_k=1, sentinel=_DIE)
        before = active_segments()
        pool = ShardPool(2, start_method="fork")
        with pytest.raises(PoolError):
            execute_sharded(plan, xs, n_shards=2, pool=pool)
        assert pool.closed
        assert active_segments() == before

    def test_no_half_aggregated_state_on_failure(self):
        """A failed dispatch must not leak spans, metrics, or records."""
        plan = _fault_plan()
        xs = _inputs_with_fault(64, 4, shard_k=3, sentinel=_BOOM)
        tracer = Tracer()
        reg = MetricsRegistry()
        with tracing(tracer), collecting(reg):
            with pytest.raises(PoolError):
                execute_sharded(plan, xs, n_shards=4, workers=2)
        # No shard results were aggregated: the dispatch-level counters
        # and the reconciliation gauge never fired.
        assert reg.value("dispatch.runs") == 0
        assert reg.value("dispatch.shards") == 0
        dispatch = tracer.find("dispatch.run")
        assert dispatch is not None  # the span closed despite the raise
        assert all(c.name != "shard" for c in dispatch.children)

    def test_closed_pool_refuses_dispatch(self):
        plan = _fault_plan()
        xs = np.full(64, 0.5, dtype=_F32)
        pool = ShardPool(2, start_method="fork")
        pool.close()
        with pytest.raises(PoolError):
            execute_sharded(plan, xs, n_shards=2, pool=pool)


def test_pool_rejects_bad_workers():
    with pytest.raises(ConfigurationError):
        ShardPool(0)


class TestTopologyPlacement:
    """NUMA-aware pool construction: per-channel worker groups, channel
    affinity routing, and best-effort CPU pinning."""

    def test_workers_default_one_per_channel(self):
        from repro.pim.topology import PAPER_TOPOLOGY
        pool = ShardPool(start_method="fork", topology=PAPER_TOPOLOGY)
        try:
            assert pool.workers == PAPER_TOPOLOGY.channels == 2
            assert len(pool._executors) == 2
        finally:
            pool.close()

    def test_workers_required_without_topology(self):
        with pytest.raises(ConfigurationError):
            ShardPool()

    def test_single_group_without_topology(self):
        pool = ShardPool(4, start_method="fork")
        try:
            assert len(pool._executors) == 1
        finally:
            pool.close()

    def test_groups_capped_by_workers(self):
        from repro.pim.topology import PAPER_TOPOLOGY
        pool = ShardPool(1, start_method="fork", topology=PAPER_TOPOLOGY)
        try:
            assert len(pool._executors) == 1
        finally:
            pool.close()

    def test_pinned_dispatch_is_bit_identical_and_counted(self):
        """Pinning is placement-only: results match the unpinned pool
        bit for bit, and every task is counted as pinned."""
        from repro.pim.config import SystemConfig
        from repro.pim.system import PIMSystem
        from repro.plan.plan import compile_plan

        topo_system = PIMSystem(SystemConfig())
        m = make_method("sin", "llut_i", assume_in_range=False)
        plan = compile_plan(topo_system, m, sample_size=48)
        xs = _inputs_for("sin", 1200)
        baseline = execute_sharded(plan, xs, n_shards=2, rank_aligned=True)
        pool = ShardPool(2, start_method="fork", timeout=120.0,
                         topology=topo_system.config.topology, pin=True)
        try:
            with collecting() as reg:
                pinned = execute_sharded(plan, xs, n_shards=2,
                                         rank_aligned=True, pool=pool)
        finally:
            pool.close()
        assert reg.value("dispatch.pool.pinned") == 2
        assert pinned.total_seconds == baseline.total_seconds
        for sa, sb in zip(baseline.shards, pinned.shards):
            assert sa.result.total_seconds == sb.result.total_seconds

    def test_pinned_shard_spans_carry_placement_attrs(self):
        from repro.pim.config import SystemConfig
        from repro.pim.system import PIMSystem
        from repro.plan.plan import compile_plan

        topo_system = PIMSystem(SystemConfig())
        m = make_method("sin", "llut_i", assume_in_range=False)
        plan = compile_plan(topo_system, m, sample_size=48)
        xs = _inputs_for("sin", 1200)
        topo = topo_system.config.topology
        pool = ShardPool(2, start_method="fork", timeout=120.0,
                         topology=topo, pin=True)
        tracer = Tracer()
        try:
            with tracing(tracer):
                execute_sharded(plan, xs, n_shards=2, rank_aligned=True,
                                pool=pool)
        finally:
            pool.close()
        dsp = tracer.find("dispatch.run")
        shard_spans = [c for c in dsp.children if c.name == "shard"]
        spans = topo.split_ranks(2)
        assert [s.attrs["channel"] for s in shard_spans] == \
            [topo.channel_of_range(lo, hi) for lo, hi in spans]
        assert all(s.attrs["pinned"] is True for s in shard_spans)
