"""Topology bench: rank-parallel unbalanced transfers vs the flat model.

The flat pre-topology model serializes an *unbalanced* scatter/gather for
the whole system at the single-bank bandwidth (Section 2.1) — one stream
of bytes, no matter how many ranks the transfer actually touches.  The
hierarchical topology model fans the serialization across the touched
ranks ("UPMEM Unleashed", PAPERS.md): each rank's burst is independent,
so an unbalanced transfer over the full 2545-DPU paper system completes
``n_ranks``-fold faster.

Committed floors (simulated time — deterministic, asserted on any host):

* the transfer components speed up *exactly* by the touched-rank count
  (40 on the full paper system);
* end-to-end, an unbalanced transfer-heavy launch is >= 4x faster with
  rank-parallel transfers than under the flat serial model;
* a rank-aligned sharded dispatch preserves the win: its unbalanced
  transfer time also beats the flat serial model by >= 4x in aggregate.
"""

import math

from repro.analysis.sweep import default_inputs
from repro.api import make_method
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.pim.topology import PAPER_TOPOLOGY
from repro.plan.dispatch import execute_sharded
from repro.plan.plan import LaunchConfig, TransferSchedule, compile_plan

#: Transfer-heavy sweep points: cheap kernels, so the unbalanced
#: scatter/gather dominates the flat serial launch.
POINTS = [
    ("sin", "llut_i", {"density_log2": 10}),
    ("sin", "mlut", {}),
    ("tanh", "dlut_i", {}),
]
_N = 1_000_000
_SHARDS = 8
#: End-to-end floor: the full system spans 40 ranks, so the transfer
#: terms shrink 40x; >= 4x total holds with huge margin whenever
#: transfers are a material part of the launch.
_FLOOR = 4.0


def _execute(system, method, rank_parallel, xs):
    plan = compile_plan(system, method, LaunchConfig(
        sample_size=64,
        transfers=TransferSchedule(balanced=False,
                                   rank_parallel=rank_parallel)))
    return plan.execute(xs, virtual_n=_N)


def test_rank_parallel_transfer_floor(bench_seeds, write_report):
    """Unbalanced transfers: rank fan-out exact, end-to-end >= 4x."""
    system = PIMSystem(SystemConfig())
    ranks = PAPER_TOPOLOGY.ranks_in_range(0, system.config.n_dpus)
    rows = [f"paper topology: {PAPER_TOPOLOGY.signature()} "
            f"({ranks} ranks, {system.config.n_dpus} usable DPUs)",
            "",
            "point              flat_s      ranked_s    speedup  fanout"]
    speedups = []
    for fn, meth, knobs in POINTS:
        m = make_method(fn, meth, assume_in_range=False, **knobs)
        xs = default_inputs(fn, n=8192, seed=bench_seeds["topology"])
        flat = _execute(system, m, False, xs)
        ranked = _execute(system, m, True, xs)
        # The fan-out is exact arithmetic (up to one float divide), not a
        # tuning outcome.
        assert math.isclose(ranked.host_to_pim_seconds * ranks,
                            flat.host_to_pim_seconds, rel_tol=1e-12)
        assert math.isclose(ranked.pim_to_host_seconds * ranks,
                            flat.pim_to_host_seconds, rel_tol=1e-12)
        assert ranked.kernel_seconds == flat.kernel_seconds
        speedup = flat.total_seconds / ranked.total_seconds
        speedups.append(speedup)
        rows.append(f"{fn + ':' + meth:<16} {flat.total_seconds:>10.6f}  "
                    f"{ranked.total_seconds:>10.6f}  {speedup:>6.2f}x  "
                    f"{ranks:>5}x")
    floor = min(speedups)
    rows.append("")
    rows.append(f"worst end-to-end speedup: {floor:.2f}x "
                f"(committed floor {_FLOOR:.1f}x)")
    report = "\n".join(rows)
    print("\n" + report)
    write_report("topology_transfers.txt", report)
    assert floor >= _FLOOR


def test_rank_aligned_sharded_floor(bench_seeds, write_report):
    """Rank-aligned sharding keeps the rank-parallel transfer win."""
    system = PIMSystem(SystemConfig())
    m = make_method("sin", "llut_i", density_log2=10,
                    assume_in_range=False)
    xs = default_inputs("sin", n=65536, seed=bench_seeds["topology"])

    def dispatch(rank_parallel):
        plan = compile_plan(system, m, LaunchConfig(
            sample_size=64,
            transfers=TransferSchedule(balanced=False,
                                       rank_parallel=rank_parallel)))
        return execute_sharded(plan, xs, n_shards=_SHARDS, overlap=True,
                               rank_aligned=True)

    flat = dispatch(False)
    ranked = dispatch(True)
    # Every shard is a whole-rank span, so each shard's fan-out equals
    # its own rank count and no shard straddles a rank boundary.
    spans = PAPER_TOPOLOGY.split_ranks(_SHARDS)
    for s, (lo, hi) in zip(ranked.shards, spans):
        shard_ranks = PAPER_TOPOLOGY.ranks_in_range(lo, hi)
        assert shard_ranks >= 1
    transfer_flat = sum(s.result.host_to_pim_seconds
                        + s.result.pim_to_host_seconds
                        for s in flat.shards)
    transfer_ranked = sum(s.result.host_to_pim_seconds
                          + s.result.pim_to_host_seconds
                          for s in ranked.shards)
    speedup = transfer_flat / transfer_ranked
    report = (f"rank-aligned {_SHARDS}-shard dispatch over "
              f"{PAPER_TOPOLOGY.signature()}\n"
              f"unbalanced transfer seconds: flat {transfer_flat:.6f}  "
              f"ranked {transfer_ranked:.6f}  speedup {speedup:.2f}x "
              f"(committed floor {_FLOOR:.1f}x)\n"
              f"end-to-end: flat {flat.total_seconds:.6f}  "
              f"ranked {ranked.total_seconds:.6f}")
    print("\n" + report)
    write_report("topology_sharded.txt", report)
    assert speedup >= _FLOOR
    assert ranked.total_seconds < flat.total_seconds
