"""Pool-vs-inline differential harness plus pool fault injection.

The tentpole guarantee of :mod:`repro.plan.pool` is that a pooled sharded
dispatch is pure *mechanism*: for every supported (function, method) pair,
``execute_sharded(plan, xs, pool=pool)`` produces values, slots, tallies,
and span-reconciled timings bit-identical to the inline shard loop — under
both ``fork`` and ``spawn`` worker start methods.  No approx anywhere;
every assertion is ``==``.

A fast subset runs in tier-1; the full ``METHOD_SUPPORT`` matrix, over the
oracle harness's configurations and built methods
(``tests/test_oracle.py``), is ``slow``-marked.  Fault-injection tests drive a
worker that raises, hangs past the pool's deadline, or dies mid-shard,
and assert the failure surfaces as a clean :class:`repro.errors.PoolError`
with no orphaned shared-memory segments and no half-aggregated result.
A bad pool deadline is refused before any worker starts.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from typing import Optional

import numpy as np
import pytest

from repro.api import make_method
from repro.errors import (ConfigurationError, PoolError, PoolTimeoutError,
                          SimulationError, TransPimError)
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.tracer import Tracer, tracing
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.dispatch import execute_sharded, shard_split
from repro.plan.plan import LaunchConfig, compile_plan
from repro.plan.pool import ShardPool, active_segments
from repro.analysis.sweep import default_inputs
from tests.test_oracle import (FULL_MATRIX, MATRIX_IDS, assert_fields_equal,
                               config)

_F32 = np.float32

_SYSTEM = PIMSystem(SystemConfig(n_dpus=64))

START_METHODS = ("fork", "spawn")

# Compiled plans reused across the fast and slow suites (and both start
# methods); plans are launch-configuration state, not per-run state.
_PLANS = {}


def _plan_for(function: str, method: str):
    key = (function, method)
    if key not in _PLANS:
        m = config(function, method, False).method
        _PLANS[key] = compile_plan(_SYSTEM, m, LaunchConfig(sample_size=48))
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
                                overlap: bool = True,
                                seed: Optional[int] = 5,
                                virtual_n: Optional[int] = None,
                                plan=None, rank_aligned: bool = False
                                ) -> Tracer:
    """Pooled == inline; ``seed=None`` is the default-seed sample draw.

    Returns the pooled dispatch's trace.
    """
    plan = plan if plan is not None else _plan_for(function, method)
    xs = _inputs_for(function, n)

    def rng():
        return None if seed is None else np.random.default_rng(seed)

    tr_i = Tracer()
    with tracing(tr_i):
        inline = execute_sharded(plan, xs, n_shards=n_shards,
                                 overlap=overlap, virtual_n=virtual_n,
                                 rng=rng(), rank_aligned=rank_aligned)
    tr_p = Tracer()
    with tracing(tr_p):
        pooled = execute_sharded(plan, xs, n_shards=n_shards,
                                 overlap=overlap, virtual_n=virtual_n,
                                 rng=rng(), rank_aligned=rank_aligned,
                                 pool=pool)

    # Every field, bit for bit: the timeline and each shard's record
    # (timings, cycles, tallies, sample outputs, and the launch echo:
    # virtual_n, imbalance, ...).
    assert len(inline.shards) == n_shards
    assert_fields_equal(pooled, inline, "pooled")

    # Span reconciliation: identical shard attrs, and the grafted worker
    # subtree keeps the inline tree shape (shard > shard.execute).
    assert _shard_attrs(tr_p) == _shard_attrs(tr_i)
    for child in tr_p.find("dispatch.run").children:
        if child.name == "shard":
            assert any(c.name == "shard.execute" for c in child.children)
    return tr_p


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


@pytest.mark.parametrize("function,method", FAST_PAIRS,
                         ids=[f"{m}-{f}" for f, m in FAST_PAIRS])
def test_pool_matches_inline_fast_default_seed(function, method, pool):
    _assert_pool_matches_inline(function, method, pool, seed=None)


def test_pool_serial_dispatch_matches(pool):
    _assert_pool_matches_inline("sin", "mlut_i", pool, overlap=False)


def test_pool_virtual_n_matches_inline(pool):
    _assert_pool_matches_inline("sin", "mlut_i", pool, n=200,
                                virtual_n=90_000)


def _record_wire(monkeypatch):
    """(tasks the pool ships, rows each in-process launch traces)."""
    from repro.batch.vec import VecEvaluator
    from repro.plan import pool as pool_mod

    tasks, traced = [], []
    send, trace = pool_mod._Worker.send, VecEvaluator.run

    def recording_send(self, task):
        if task is not None:   # None is close()'s stop message
            tasks.append(task)
        return send(self, task)

    def recording_run(self, sample, *args, **kwargs):
        traced.append(np.array(sample, copy=True))
        return trace(self, sample, *args, **kwargs)

    monkeypatch.setattr(pool_mod._Worker, "send", recording_send)
    monkeypatch.setattr(VecEvaluator, "run", recording_run)
    return tasks, traced


@pytest.mark.parametrize("seed", [None, 5], ids=["default-seed", "rng"])
def test_tasks_ship_the_inline_trace_sample(seed, pool, monkeypatch):
    """A shard task is O(sample_size) on the wire and carries exactly the
    rows the inline shard traces, whatever the shard's element count."""
    plan = _plan_for("sin", "mlut_i")
    tasks, traced = _record_wire(monkeypatch)
    sizes = (1 << 12, 1 << 20)
    for n in sizes:
        xs = _inputs_for("sin", n)
        rngs = [None if seed is None else np.random.default_rng(seed)
                for _ in range(2)]
        execute_sharded(plan, xs, n_shards=2, rng=rngs[0])
        execute_sharded(plan, xs, n_shards=2, rng=rngs[1], pool=pool)
    assert len(traced) == len(tasks) == 2 * len(sizes)
    # Only the element count grows: its pickle widens from 2 to 4 bytes.
    for small, big in zip(tasks[:2], tasks[2:]):
        assert len(pickle.dumps(big)) <= len(pickle.dumps(small)) + 2
    for i, (task, rows) in enumerate(zip(tasks, traced)):
        assert task.sample.shape == (plan.config.sample_size,)
        np.testing.assert_array_equal(task.sample, rows)
        assert task.n_elements == sizes[i // 2] // 2


# ----------------------------------------------------------------------
# Full matrix, slow-marked: every supported pair.

@pytest.mark.slow
@pytest.mark.parametrize("method,function", FULL_MATRIX, ids=MATRIX_IDS)
def test_pool_matches_inline_full_matrix(method, function, pool):
    _assert_pool_matches_inline(function, method, pool, n=72)


def test_bad_imbalance_fails_before_dispatch(pool):
    """A bad launch factor raises the inline path's error in the parent,
    before any task ships, and leaves the warm pool serving."""
    plan = _plan_for("sin", "mlut_i")
    xs = _inputs_for("sin", 600)
    for bad in (-1.0, float("nan"), float("inf"), [0.0, -1.0]):
        with pytest.raises(SimulationError):
            execute_sharded(plan, xs, n_shards=2, imbalance=bad, pool=pool)
    assert not pool.closed
    _assert_pool_matches_inline("sin", "mlut_i", pool, n_shards=2)


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
    return compile_plan(_SYSTEM, _fault_kernel, LaunchConfig(sample_size=64))


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
        pool = ShardPool(2, start_method="fork")
        with pytest.raises(TransPimError):
            execute_sharded(plan, xs, n_shards=2, pool=pool)
        assert active_segments() == before

    def test_worker_hang_times_out(self):
        plan = _fault_plan()
        xs = _inputs_with_fault(64, 2, shard_k=1, sentinel=_HANG)
        before = active_segments()
        pool = ShardPool(2, start_method="fork", timeout=1.5)
        t0 = time.monotonic()
        with pytest.raises(PoolTimeoutError):
            execute_sharded(plan, xs, n_shards=2, pool=pool)
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
        pool = ShardPool(2, start_method="fork")
        with tracing(tracer), collecting(reg):
            with pytest.raises(PoolError):
                execute_sharded(plan, xs, n_shards=4, pool=pool)
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


def _pool_processes(pool):
    return [w.process for group in pool._groups for w in group]


def _shard_spans(tracer):
    return [c for c in tracer.find("dispatch.run").children
            if c.name == "shard"]


class TestTransport:
    """Warm workers on one pipe each: scheduling, routing and the ways a
    dispatch can end."""

    def test_worker_killed_while_idle_fails_the_next_dispatch(self):
        plan = _plan_for("sin", "mlut_i")
        xs = _inputs_for("sin", 600)
        before = active_segments()
        pool = ShardPool(2, start_method="fork", timeout=60.0)
        procs = _pool_processes(pool)
        first = execute_sharded(plan, xs, n_shards=2, pool=pool)
        assert first.total_seconds == \
            execute_sharded(plan, xs, n_shards=2).total_seconds
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[0].join(timeout=10.0)
        assert not procs[0].is_alive()
        t0 = time.monotonic()
        with pytest.raises(PoolError) as err:
            execute_sharded(plan, xs, n_shards=2, pool=pool)
        assert time.monotonic() - t0 < 30.0   # found, not timed out
        assert not isinstance(err.value, PoolTimeoutError)
        assert err.value.shard_index in (0, 1)
        assert pool.closed
        assert active_segments() == before
        assert not any(p.is_alive() for p in procs)

    def test_eight_shards_over_two_workers_match_inline(self, pool):
        tracer = _assert_pool_matches_inline("sin", "mlut_i", pool,
                                             n_shards=8)
        pids = {p.pid for p in _pool_processes(pool)}
        workers = [s.attrs["worker"] for s in _shard_spans(tracer)]
        assert len(workers) == 8 and set(workers) <= pids

    def test_rank_aligned_shards_run_on_their_channel_group(self):
        from repro.pim.topology import PAPER_TOPOLOGY

        plan = compile_plan(PIMSystem(SystemConfig()),
                            make_method("sin", "llut_i",
                                        assume_in_range=False),
                            LaunchConfig(sample_size=48))
        with ShardPool(2, start_method="fork", timeout=120.0,
                       topology=PAPER_TOPOLOGY) as pool:
            home = [[w.process.pid for w in group] for group in pool._groups]
            procs = _pool_processes(pool)
            tracer = _assert_pool_matches_inline(
                "sin", "llut_i", pool, n=1200, n_shards=8, plan=plan,
                rank_aligned=True)
        assert not any(p.is_alive() for p in procs)
        shards = _shard_spans(tracer)
        assert len(shards) == 8
        assert [s.attrs["channel"] for s in shards] == [
            PAPER_TOPOLOGY.channel_of_range(lo, hi)
            for lo, hi in PAPER_TOPOLOGY.split_ranks(8)]
        assert {s.attrs["channel"] for s in shards} == {0, 1}
        assert home[0] != home[1]
        for s in shards:
            assert [s.attrs["worker"]] == home[s.attrs["channel"]]

    def test_timeout_with_shards_queued_names_lowest_unfinished(self):
        """Worker A finishes shard 0 and then hangs on shard 2, worker B
        hangs on shard 1, and shards 3-5 are still queued."""
        plan = _fault_plan()
        n, n_shards = 96, 6
        xs = np.full(n, 0.5, dtype=_F32)
        split = shard_split(n, _SYSTEM.config.n_dpus, n_shards)
        starts = np.cumsum([0] + [ne for ne, _ in split])
        for k in (1, 2):
            xs[starts[k]:starts[k + 1]] = _F32(_HANG)
        before = active_segments()
        pool = ShardPool(2, start_method="fork", timeout=1.5)
        procs = _pool_processes(pool)
        t0 = time.monotonic()
        with pytest.raises(PoolTimeoutError) as err:
            execute_sharded(plan, xs, n_shards=n_shards, pool=pool)
        assert time.monotonic() - t0 < 20.0  # well under the 30s sleep
        assert err.value.shard_index == 1
        assert "shard 1 " in str(err.value)
        assert pool.closed
        assert active_segments() == before
        assert not any(p.is_alive() for p in procs)


def _record_process_starts(monkeypatch):
    """Every child process started from here on, by any context."""
    import multiprocessing.process as mp_process

    started, start = [], mp_process.BaseProcess.start

    def recording_start(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(mp_process.BaseProcess, "start", recording_start)
    return started


def test_fork_pool_shares_the_resource_tracker():
    """A fork-started pool's workers register the shipped segment with the
    parent's tracker, so no worker-side tracker warns at exit about a
    segment the owner already unlinked."""
    import repro

    script = textwrap.dedent("""
        import numpy as np
        from repro.api import make_method
        from repro.pim.config import SystemConfig
        from repro.pim.system import PIMSystem
        from repro.plan.dispatch import execute_sharded
        from repro.plan.plan import LaunchConfig, compile_plan
        from repro.plan.pool import ShardPool, active_segments

        plan = compile_plan(PIMSystem(SystemConfig(n_dpus=64)),
                            make_method("sin", "mlut_i"),
                            LaunchConfig(sample_size=48))
        xs = np.linspace(0.0, 6.0, 600, dtype=np.float32)
        with ShardPool(2, start_method="fork", timeout=60.0) as pool:
            execute_sharded(plan, xs, n_shards=4, pool=pool)
        assert active_segments() == []
        print("ok")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    assert "resource_tracker" not in proc.stderr, proc.stderr


def test_pool_rejects_bad_workers():
    with pytest.raises(ConfigurationError):
        ShardPool(0)


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"),
                                     float("-inf"), 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
def test_pool_rejects_bad_deadline(timeout, monkeypatch):
    """A deadline that is not a finite number above 0 is refused where it
    is set, before any worker starts."""
    started = _record_process_starts(monkeypatch)
    with pytest.raises(ConfigurationError):
        ShardPool(2, start_method="fork", timeout=timeout)
    assert started == []


class TestTopologyPlacement:
    """Channel-aware pool construction: per-channel worker groups."""

    def test_workers_default_one_per_channel(self):
        from repro.pim.topology import PAPER_TOPOLOGY
        pool = ShardPool(start_method="fork", topology=PAPER_TOPOLOGY)
        try:
            assert pool.workers == PAPER_TOPOLOGY.channels == 2
            assert [len(group) for group in pool._groups] == [1, 1]
        finally:
            pool.close()

    def test_workers_required_without_topology(self):
        with pytest.raises(ConfigurationError):
            ShardPool()

    def test_single_group_without_topology(self):
        pool = ShardPool(4, start_method="fork")
        try:
            assert [len(group) for group in pool._groups] == [4]
        finally:
            pool.close()

    def test_groups_capped_by_workers(self):
        from repro.pim.topology import PAPER_TOPOLOGY
        pool = ShardPool(1, start_method="fork", topology=PAPER_TOPOLOGY)
        try:
            assert [len(group) for group in pool._groups] == [1]
        finally:
            pool.close()
