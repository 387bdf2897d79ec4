"""Command-line interface: regenerate the paper's evaluation from a shell.

Usage::

    python -m repro table2
    python -m repro fig5 [--quick]
    python -m repro fig6 [--quick]
    python -m repro fig7 [--quick]
    python -m repro fig8
    python -m repro fig9
    python -m repro explore FUNCTION
    python -m repro recommend FUNCTION [--rmse 1e-6] [--evals N] [--memory B]
    python -m repro breakdown FUNCTION METHOD [knob=value ...]
    python -m repro lint [--json] [--strict] [--passes ast,contracts]
    python -m repro trace FUNCTION METHOD [knob=value ...] [--json FILE]
    python -m repro bench [--emit FILE] [--quick] [--check-fig5]
    python -m repro plan FUNCTION METHOD [knob=value ...] [--n N --shards S]
                        [--ranks R --dimms D]
    python -m repro run FUNCTION METHOD [--n N --repeat R --shards S --overlap]
                        [--workers W --start-method fork|spawn --timeout S]
                        [--ranks R --dimms D --rank-aligned]
    python -m repro serve FUNCTION METHOD [--requests R --max-batch B
                        --max-wait S] [--ranks R --dimms D --rank-aligned]
    python -m repro loadgen [--profile mixed|fast --clients C --requests R
                        --seed N --verify]
    python -m repro topology [--channels C --dimms D --ranks R
                        --dpus-per-rank N]
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _sweep_points(quick: bool):
    from repro.analysis.figures import fig5_data
    from repro.analysis.sweep import SINE_SWEEPS, default_inputs, sweep_method
    if not quick:
        return fig5_data()
    inputs = default_inputs("sin", n=4096)
    points = []
    for method, cfg in SINE_SWEEPS.items():
        cfg = dict(cfg)
        cfg["param_values"] = cfg["param_values"][::2]
        points.extend(sweep_method("sin", method, inputs=inputs,
                                   sample_size=12, **cfg))
    return points


def _cmd_fig(args) -> int:
    from repro.analysis import figures
    if args.command == "fig8":
        print(figures.fig8_report(figures.fig8_data()))
        return 0
    if args.command == "fig9":
        print(figures.fig9_report(figures.fig9_data(trace_elements=2000)))
        return 0
    points = _sweep_points(args.quick)
    report = {
        "fig5": figures.fig5_report,
        "fig6": figures.fig6_report,
        "fig7": figures.fig7_report,
    }[args.command](points)
    print(report)
    return 0


def _cmd_pareto(args) -> int:
    from repro.analysis.pareto import frontier_report
    points = _sweep_points(args.quick)
    print(frontier_report([p for p in points if p.placement == "mram"]))
    return 0


def _cmd_validate(args) -> int:
    from repro.analysis.report import format_table
    from repro.api import make_method
    from repro.isa.counter import CycleCounter, Tally
    from repro.pim.config import UPMEM_DPU
    from repro.pim.exec import simulate, trace_to_program
    from repro.pim.pipeline import PipelineModel

    m = make_method("sin", "llut_i", density_log2=10).setup()
    trace = []
    ctx = CycleCounter(trace_ops=trace)
    for x in (0.3, 1.1, 2.2, 3.3, 4.4, 5.5):
        m.evaluate(ctx, x)
    prog = trace_to_program(trace)
    tally = ctx.reset()
    model = PipelineModel(UPMEM_DPU)
    rows = []
    for t in (1, 4, 11, 16):
        sim = simulate([list(prog)] * t)
        analytic = model.cycles(
            Tally(slots=tally.slots * t, dma_latency=tally.dma_latency * t), t
        )
        rows.append((t, sim.cycles, f"{analytic:.0f}",
                     f"{(analytic / sim.cycles - 1) * 100:+.2f}%"))
    print("analytic pipeline model vs cycle-accurate simulation")
    print(format_table(["tasklets", "simulated", "analytic", "error"], rows))
    return 0


def _cmd_table2(args) -> int:
    from repro.analysis.figures import table2_report
    print(table2_report())
    return 0


def _cmd_explore(args) -> int:
    import importlib
    explorer = importlib.import_module("examples.method_explorer")
    explorer.main(args.function)
    return 0


def _cmd_recommend(args) -> int:
    from repro.analysis.recommend import Requirements, recommend
    from repro.analysis.report import format_table
    recs = recommend(args.function, Requirements(
        rmse_target=args.rmse,
        evaluations=args.evals,
        memory_budget=args.memory,
    ))
    rows = [
        (i + 1, r.method, r.param, f"{r.rmse:.2e}",
         f"{r.cycles_per_element:.0f}", f"{r.total_seconds * 1e3:.3f} ms",
         r.rationale)
        for i, r in enumerate(recs)
    ]
    print(f"recommended methods for {args.function!r} "
          f"(rmse<={args.rmse:g}, {args.evals} evals, "
          f"{args.memory} B budget):")
    print(format_table(
        ["#", "method", "param", "rmse", "cycles/elem", "total", "why"], rows
    ))
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis.profile import profile_report
    from repro.api import make_method
    params = {}
    for item in args.knobs:
        key, _, value = item.partition("=")
        params[key] = int(value)
    m = make_method(args.function, args.method, assume_in_range=False,
                    **params).setup()
    print(profile_report(m, n_bins=args.bins))
    return 0


def _cmd_listing(args) -> int:
    from repro.analysis.listing import listing_report
    from repro.api import make_method
    params = {}
    for item in args.knobs:
        key, _, value = item.partition("=")
        params[key] = int(value)
    m = make_method(args.function, args.method, assume_in_range=False,
                    **params).setup()
    print(listing_report(m, args.x))
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.errors import ConfigurationError
    from repro.lint import (
        ALL_PASSES,
        apply_baseline,
        load_baseline,
        run_lint,
        write_baseline,
    )

    passes = tuple(p.strip() for p in args.passes.split(",") if p.strip()) \
        if args.passes else ALL_PASSES
    try:
        report = run_lint(passes=passes,
                          extra_modules=tuple(args.extra_module))
        if args.baseline:
            apply_baseline(report, load_baseline(args.baseline))
    except ConfigurationError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        n = write_baseline(report, args.write_baseline)
        print(f"repro lint: wrote {n} accepted fingerprint(s) to "
              f"{args.write_baseline}")
        return 0
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())
    return report.exit_code(strict=args.strict)


def _cmd_trace(args) -> int:
    import json

    from repro.obs import trace_run

    params = {}
    for item in args.knobs:
        key, _, value = item.partition("=")
        params[key] = int(value)
    tracer, registry, result = trace_run(
        args.function, args.method, n=args.n, tasklets=args.tasklets,
        params=params,
    )
    print(f"traced whole-system run: {args.function}:{args.method} "
          f"over {result.n_elements} elements "
          f"({result.n_dpus_used} cores x {result.tasklets} tasklets, "
          f"{result.total_seconds * 1e3:.3f} ms simulated)")
    print()
    print(tracer.tree())
    print()
    print("metrics:")
    print(registry.report())
    if args.json:
        with open(args.json, "w") as f:
            json.dump(tracer.to_chrome_trace(), f, indent=2)
        print(f"\nChrome trace written to {args.json} "
              f"(open in chrome://tracing or Perfetto)")
    return 0


def _cmd_bench(args) -> int:
    from repro.obs import bench_summary, check_fig5_artifacts, emit_bench, \
        run_bench

    code = 0
    if args.check_fig5:
        status = check_fig5_artifacts()
        for name, state in status.items():
            print(f"fig5 artifact {name}: {state}")
        if any(state != "fresh" for state in status.values()):
            print("stale fig5 artifacts — regenerate with "
                  "`pytest benchmarks/bench_fig5_cycles.py` or "
                  "repro.obs.regenerate_fig5_artifacts()", file=sys.stderr)
            code = 1
        if not args.emit:
            return code
    if args.emit:
        snapshot = emit_bench(args.emit, quick=args.quick)
        print(bench_summary(snapshot))
        print(f"snapshot written to {args.emit}")
    elif not args.check_fig5:
        print(bench_summary(run_bench(quick=args.quick)))
    return code


def _parse_knobs(items) -> dict:
    params = {}
    for item in items:
        key, _, value = item.partition("=")
        params[key] = int(value)
    return params


def _topology_from_args(args):
    """The hierarchy override from --channels/--dimms/--ranks, or None.

    Unset dimensions fall back to the paper topology's shape; an override
    models a clean machine (no defective DPUs), since the defect mask is
    specific to the paper's physical system.
    """
    dims = (getattr(args, "channels", None), getattr(args, "dimms", None),
            getattr(args, "ranks", None), getattr(args, "dpus_per_rank", None))
    if all(d is None for d in dims):
        return None
    from repro.pim.topology import Topology
    channels, dimms, ranks, dpus = dims
    return Topology(
        channels=channels if channels is not None else 2,
        dimms_per_channel=dimms if dimms is not None else 10,
        ranks_per_dimm=ranks if ranks is not None else 2,
        dpus_per_rank=dpus if dpus is not None else 64,
    )


def _system_from_args(args):
    """A PIMSystem honoring any topology overrides on the command line."""
    from repro.pim.config import SystemConfig
    from repro.pim.system import PIMSystem
    topo = _topology_from_args(args)
    if topo is None:
        return PIMSystem()
    return PIMSystem(SystemConfig(topology=topo))


def _add_topology_args(p) -> None:
    p.add_argument("--channels", type=int, default=None,
                   help="memory channels (default: paper topology's 2)")
    p.add_argument("--dimms", type=int, default=None,
                   help="DIMMs per channel (default: 10)")
    p.add_argument("--ranks", type=int, default=None,
                   help="ranks per DIMM (default: 2)")
    p.add_argument("--dpus-per-rank", type=int, default=None,
                   help="DPUs per rank (default: 64)")


def _cmd_topology(args) -> int:
    from repro.pim.topology import PAPER_TOPOLOGY
    topo = _topology_from_args(args)
    if topo is None:
        topo = PAPER_TOPOLOGY
    print(topo.describe())
    return 0


def _cmd_plan(args) -> int:
    from repro.api import make_method
    from repro.plan.cache import PlanCache
    from repro.plan.plan import LaunchConfig

    m = make_method(args.function, args.method, assume_in_range=False,
                    placement=args.placement, **_parse_knobs(args.knobs))
    plan = PlanCache().plan(_system_from_args(args), m,
                            LaunchConfig(tasklets=args.tasklets))
    print(plan.describe(n_elements=args.n, shards=args.shards))
    return 0


def _cmd_run(args) -> int:
    from repro.analysis.report import format_table
    from repro.api import make_method
    from repro.core.functions.registry import get_function
    from repro.plan.cache import PlanCache
    from repro.plan.dispatch import execute_sharded
    from repro.plan.plan import LaunchConfig

    m = make_method(args.function, args.method, assume_in_range=False,
                    placement=args.placement, **_parse_knobs(args.knobs))
    lo, hi = get_function(args.function).bench_domain
    xs = np.random.default_rng(0).uniform(lo, hi, args.n).astype(np.float32)

    system = _system_from_args(args)
    plan = PlanCache().plan(system, m, LaunchConfig(tasklets=args.tasklets))
    pool = None
    if args.shards > 1 and args.workers is not None and args.workers > 1:
        # One pool for every --repeat launch: the plan ships to the
        # workers once, later launches reuse the warm worker caches.
        from repro.plan.pool import ShardPool
        pool = ShardPool(args.workers, start_method=args.start_method,
                         timeout=args.timeout)
    rows = []
    try:
        for i in range(args.repeat):
            if args.shards > 1:
                r = execute_sharded(plan, xs, n_shards=args.shards,
                                    overlap=args.overlap, pool=pool,
                                    rank_aligned=args.rank_aligned)
                extra = (f"{r.n_shards} shards"
                         + (" rank-aligned" if args.rank_aligned else "")
                         + (f" x {args.workers} workers" if pool else "")
                         + (f", saved {r.overlap_saving_seconds * 1e3:.3f} ms"
                            if args.overlap else ""))
            else:
                r = plan.execute(xs)
                extra = ""
            rows.append((i, f"{r.total_seconds * 1e3:.3f} ms",
                         f"{r.kernel_seconds * 1e3:.3f} ms",
                         r.n_dpus_used, extra))
    finally:
        if pool is not None:
            pool.close()
    print(f"{args.function}:{args.method} over {args.n} elements, "
          f"{args.repeat} launch(es) on one compiled plan "
          f"({len(plan.tally_cache)} cached cost paths)")
    print(format_table(["launch", "total", "kernel", "dpus", "notes"], rows))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.core.functions.registry import get_function
    from repro.serve import ServeConfig, Server, normalize_request

    spec = normalize_request(args.function, args.method,
                             _parse_knobs(args.knobs),
                             placement=args.placement)
    lo, hi = get_function(args.function).natural_range
    rng = np.random.default_rng(args.seed)
    requests = [
        (spec, rng.uniform(lo, hi,
                           int(rng.integers(8, args.n + 1))
                           ).astype(np.float32))
        for _ in range(args.requests)
    ]

    async def drive():
        from repro.pim.host import PIMRuntime
        from repro.plan.session import PlanSession
        session = PlanSession(PIMRuntime(system=_system_from_args(args)))
        server = Server(session=session, config=ServeConfig(
            max_batch=args.max_batch, max_wait=args.max_wait,
            shards=args.shards, rank_aligned=args.rank_aligned))
        results = await server.submit_many(requests)
        await server.close()
        return server, results

    server, results = asyncio.run(drive())
    stats = server.stats()
    total = sum(r.n_elements for r in results)
    print(f"served {len(results)} concurrent {spec.label} requests "
          f"({total} elements) in {server.batches} coalesced batch(es)")
    print(f"  coalesce ratio {server.coalesce_ratio:.1f} req/batch; "
          f"plan builds {server.session.plans.misses} "
          f"(single-flight {stats['singleflight']['leaders']} leaders / "
          f"{stats['singleflight']['followers']} followers)")
    print(f"  simulated batch time "
          f"{sum(r.simulated_seconds for r in results[:1]) * 1e3:.3f} ms; "
          f"session: {server.session.launches[-1].n_elements} elements "
          f"in last launch")
    return 0


def _cmd_loadgen(args) -> int:
    from repro.serve import ServeConfig
    from repro.serve.loadgen import FAST_PROFILE, MIXED_PROFILE, run_load

    profile = {"mixed": MIXED_PROFILE, "fast": FAST_PROFILE}[args.profile]
    report = run_load(
        profile,
        clients=args.clients,
        requests_per_client=args.requests,
        seed=args.seed,
        config=ServeConfig(max_batch=args.max_batch,
                           max_wait=args.max_wait,
                           max_pending=args.max_pending,
                           hard_limit=args.hard_limit),
        verify=args.verify,
    )
    print(report.summary())
    if args.verify and report.mismatches:
        print(f"repro loadgen: {report.mismatches} served slices were NOT "
              "bit-identical to direct evaluation", file=sys.stderr)
        return 1
    return 0


def _cmd_breakdown(args) -> int:
    from repro.analysis.breakdown import breakdown_report
    from repro.api import make_method
    from repro.core.functions.registry import get_function
    params = {}
    for item in args.knobs:
        key, _, value = item.partition("=")
        params[key] = int(value)
    m = make_method(args.function, args.method, assume_in_range=False,
                    **params).setup()
    spec = get_function(args.function)
    lo, hi = spec.bench_domain
    xs = np.random.default_rng(0).uniform(lo, hi, 64).astype(np.float32)
    print(breakdown_report(m, xs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TransPimLib reproduction: regenerate the evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for fig in ("fig5", "fig6", "fig7"):
        p = sub.add_parser(fig, help=f"regenerate {fig}")
        p.add_argument("--quick", action="store_true",
                       help="coarser sweep for a faster run")
        p.set_defaults(func=_cmd_fig)
    for fig in ("fig8", "fig9"):
        p = sub.add_parser(fig, help=f"regenerate {fig}")
        p.set_defaults(func=_cmd_fig)

    p = sub.add_parser("table2", help="print the support matrix")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("pareto", help="Pareto frontier of the sine sweep")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("validate",
                       help="pipeline model vs cycle-accurate simulation")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("explore", help="method tradeoffs for a function")
    p.add_argument("function")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("recommend", help="pick a method for requirements")
    p.add_argument("function")
    p.add_argument("--rmse", type=float, default=1e-6)
    p.add_argument("--evals", type=int, default=1_000_000)
    p.add_argument("--memory", type=int, default=1 << 20)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("breakdown", help="instruction breakdown of a method")
    p.add_argument("function")
    p.add_argument("method")
    p.add_argument("knobs", nargs="*", help="precision knobs, e.g. density_log2=12")
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("profile", help="binned error profile of a method")
    p.add_argument("function")
    p.add_argument("method")
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("knobs", nargs="*", help="precision knobs")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("lint",
                       help="statically verify kernel cost contracts and "
                            "whole-program plan/obs invariants")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures")
    p.add_argument("--passes", default="",
                   help="comma-separated subset of passes "
                        "(ast,contracts,intervals,memory,"
                        "determinism,parallel-safety,obs-contract)")
    p.add_argument("--extra-module", action="append", default=[],
                   metavar="MODULE",
                   help="also lint kernels in this importable module "
                        "(repeatable)")
    p.add_argument("--baseline", metavar="FILE",
                   help="subtract the accepted findings recorded in FILE; "
                        "only new findings affect the exit code")
    p.add_argument("--write-baseline", metavar="FILE",
                   help="snapshot the current findings to FILE as the "
                        "accepted set, then exit 0")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("trace",
                       help="span tree + metrics of one whole-system run")
    p.add_argument("function")
    p.add_argument("method")
    p.add_argument("knobs", nargs="*", help="precision knobs")
    p.add_argument("--n", type=int, default=4096,
                   help="number of input elements")
    p.add_argument("--tasklets", type=int, default=16)
    p.add_argument("--json", metavar="FILE",
                   help="also write Chrome trace-event JSON to FILE")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("bench",
                       help="emit a schema-versioned perf snapshot "
                            "(BENCH_*.json)")
    p.add_argument("--emit", metavar="FILE",
                   help="write the snapshot JSON to FILE")
    p.add_argument("--quick", action="store_true",
                   help="smaller sweeps for a faster run")
    p.add_argument("--check-fig5", action="store_true",
                   help="re-derive the fig5 rows and fail if the "
                        "committed benchmarks/out/ artifacts are stale")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("plan",
                       help="compile and describe an execution plan")
    p.add_argument("function")
    p.add_argument("method")
    p.add_argument("knobs", nargs="*", help="precision knobs")
    p.add_argument("--placement", choices=("mram", "wram"), default="mram")
    p.add_argument("--tasklets", type=int, default=16)
    p.add_argument("--n", type=int, default=None,
                   help="also show the shard split for N elements")
    p.add_argument("--shards", type=int, default=1)
    _add_topology_args(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run",
                       help="repeated launches through one compiled plan")
    p.add_argument("function")
    p.add_argument("method")
    p.add_argument("knobs", nargs="*", help="precision knobs")
    p.add_argument("--placement", choices=("mram", "wram"), default="mram")
    p.add_argument("--n", type=int, default=1 << 16,
                   help="number of input elements")
    p.add_argument("--repeat", type=int, default=1,
                   help="how many launches to run on the plan")
    p.add_argument("--tasklets", type=int, default=16)
    p.add_argument("--shards", type=int, default=1,
                   help="dispatch across this many disjoint DPU groups")
    p.add_argument("--overlap", action="store_true",
                   help="double-buffer: overlap transfers across shards")
    p.add_argument("--workers", type=int, default=None,
                   help="run the shards on a multiprocess pool of this "
                        "many workers (bit-identical to inline)")
    p.add_argument("--start-method", default=None,
                   choices=("fork", "spawn", "forkserver"),
                   help="worker start method (default: platform default)")
    p.add_argument("--timeout", type=float, default=None,
                   help="the pool's per-dispatch deadline in wall seconds "
                        "(finite, above 0)")
    p.add_argument("--rank-aligned", action="store_true",
                   help="split shards along rank boundaries (no shard "
                        "straddles a rank of the topology)")
    _add_topology_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("serve",
                       help="demonstrate the async serving front end: "
                            "coalesce concurrent requests onto one plan")
    p.add_argument("function")
    p.add_argument("method")
    p.add_argument("knobs", nargs="*", help="precision knobs")
    p.add_argument("--placement", choices=("mram", "wram"), default="mram")
    p.add_argument("--requests", type=int, default=32,
                   help="concurrent requests to submit")
    p.add_argument("--n", type=int, default=256,
                   help="max elements per request")
    p.add_argument("--max-batch", type=int, default=256,
                   help="most requests one coalesced batch may carry")
    p.add_argument("--max-wait", type=float, default=0.0,
                   help="micro-batching window in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1,
                   help="shards per dispatched batch")
    p.add_argument("--rank-aligned", action="store_true",
                   help="split sharded batches along rank boundaries")
    _add_topology_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("loadgen",
                       help="seeded mixed-kernel load generation against "
                            "the serving front end")
    p.add_argument("--profile", choices=("mixed", "fast"), default="mixed")
    p.add_argument("--clients", type=int, default=64,
                   help="concurrent logical clients")
    p.add_argument("--requests", type=int, default=8,
                   help="requests per client")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--max-batch", type=int, default=256)
    p.add_argument("--max-wait", type=float, default=0.0,
                   help="micro-batching window in seconds")
    p.add_argument("--max-pending", type=int, default=1024,
                   help="soft pending bound (backpressure above)")
    p.add_argument("--hard-limit", type=int, default=4096,
                   help="hard pending bound (shed at)")
    p.add_argument("--verify", action="store_true",
                   help="re-evaluate served slices directly and fail on "
                        "any bitwise mismatch")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("topology",
                       help="describe the modeled channel/DIMM/rank "
                            "hierarchy (paper system by default)")
    _add_topology_args(p)
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("listing",
                       help="pseudo-assembly listing of one evaluation")
    p.add_argument("function")
    p.add_argument("method")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("knobs", nargs="*", help="precision knobs")
    p.set_defaults(func=_cmd_listing)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # piping into head etc. is fine
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
