"""Bench emission: run the evaluation under the tracer, emit ``BENCH_*.json``.

CI needs a perf trajectory: a schema-versioned JSON snapshot per PR with
wall seconds, simulated cycles, the batch-vs-scalar speedup, and the
per-phase breakdown, so regressions show up as diffs between artifacts
rather than anecdotes.  :func:`run_bench` produces that snapshot;
``repro bench --emit BENCH_obs.json`` writes it.

This module also hosts the Figure 5 staleness guard
(:func:`check_fig5_artifacts`): it re-derives the fig5 sweep with the exact
rendering the benchmark harness uses (shared via :func:`fig5_artifact_texts`)
and diffs the result against ``benchmarks/out/`` — the committed artifacts
can no longer drift silently from the code that claims to produce them.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.tracer import Tracer, tracing

__all__ = [
    "BENCH_SCHEMA", "FIG5_ARTIFACTS",
    "run_bench", "emit_bench", "trace_run",
    "fig5_artifact_texts", "check_fig5_artifacts",
]

#: Version tag of the emitted bench JSON; bump on breaking layout changes.
BENCH_SCHEMA = "repro-bench/1"

#: The committed Figure 5 artifact files the staleness guard re-derives.
FIG5_ARTIFACTS = ("fig5_cycles.txt", "fig5_cycles.json", "fig5_cycles.csv")

_F32 = np.float32


# ----------------------------------------------------------------------
# Traced single-run harness (powers `repro trace`)


def trace_run(function: str, method: str, n: int = 4096,
              tasklets: int = 16, seed: int = 7,
              params: Optional[Dict[str, int]] = None):
    """Install ``method`` and run it whole-system under tracer + metrics.

    Returns ``(tracer, metrics, system_result)`` — the span tree covers
    table build / host->PIM / kernel / PIM->host, the metrics registry the
    cost-path and cache activity underneath.
    """
    from repro.api import make_method
    from repro.core.functions.registry import get_function
    from repro.pim.host import PIMRuntime

    spec = get_function(function)
    lo, hi = spec.bench_domain
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, n).astype(_F32)

    tracer = Tracer()
    registry = MetricsRegistry()
    with tracing(tracer), collecting(registry):
        runtime = PIMRuntime()
        fn = runtime.install(make_method(function, method,
                                         assume_in_range=False,
                                         **(params or {})))
        result = fn.run(xs, tasklets=tasklets)
    return tracer, registry, result


# ----------------------------------------------------------------------
# Bench sections


def _bench_fig5(quick: bool) -> Dict[str, Any]:
    """The fig5 sine sweep: wall time plus every (method, param) row."""
    from repro.analysis.figures import fig5_data
    from repro.analysis.sweep import SINE_SWEEPS, default_inputs, sweep_method

    t0 = time.perf_counter()
    if quick:
        inputs = default_inputs("sin", n=4096)
        points = []
        for method, cfg in SINE_SWEEPS.items():
            cfg = dict(cfg)
            cfg["param_values"] = cfg["param_values"][::2]
            points.extend(sweep_method("sin", method, inputs=inputs,
                                       sample_size=12, **cfg))
    else:
        points = fig5_data()
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "n_points": len(points),
        "rows": [
            {"method": p.method, "placement": p.placement, "param": p.param,
             "rmse": p.rmse, "cycles_per_element": p.cycles_per_element}
            for p in points
        ],
    }


def _bench_fig9(quick: bool) -> Dict[str, Any]:
    """The fig9 workload table: simulated seconds per configuration."""
    from repro.analysis.figures import fig9_data

    t0 = time.perf_counter()
    rows = fig9_data(trace_elements=1000 if quick else 10_000)
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "rows": [{"workload": r.workload, "config": r.config,
                  "simulated_seconds": r.seconds} for r in rows],
    }


def _bench_batch_speedup(quick: bool) -> Dict[str, Any]:
    """Launch-evaluator vs scalar-loop tracing rate (elements per wall-second).

    The same measurement as the >=10x floor bench in ``benchmarks/``; here
    it feeds the trajectory so the margin itself is tracked over PRs.
    """
    from repro.analysis.sweep import default_inputs
    from repro.api import make_method
    from repro.batch import VecEvaluator, scalar_tally

    m = make_method("sin", "llut_i", density_log2=12).setup()
    xs = default_inputs("sin", n=(1 << 13) if quick else (1 << 16))
    scalar_n = min(xs.size, 512)

    t0 = time.perf_counter()
    batch_res = VecEvaluator(m).run(xs).batch
    batch_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar_tally(m, xs[:scalar_n])
    scalar_wall = time.perf_counter() - t0

    batch_rate = xs.size / batch_wall
    scalar_rate = scalar_n / scalar_wall
    return {
        "batch_elements_per_s": batch_rate,
        "scalar_elements_per_s": scalar_rate,
        "batch_vs_scalar_speedup": batch_rate / scalar_rate,
        "n_cost_paths": len(batch_res.paths),
        "aggregate_slots": int(batch_res.tally.slots),
    }


def _bench_phases(quick: bool) -> Dict[str, Any]:
    """One traced whole-system run: the per-phase breakdown and its checksum.

    ``reconciles`` asserts the observability contract — the sum of the
    phase spans' simulated seconds equals the run's ``total_seconds``
    exactly (same additions, same order).
    """
    tracer, registry, result = trace_run("sin", "llut_i",
                                         n=1024 if quick else 4096,
                                         params={"density_log2": 11})
    run_span = tracer.find("system.run")
    phases = {}
    for child in (run_span.children if run_span is not None else []):
        phases[child.name] = {
            "sim_seconds": child.attrs.get("sim_seconds"),
            "cycles": child.attrs.get("cycles"),
            "wall_ns": child.duration_ns,
        }
    # Sum in the same order SystemRunResult.total_seconds adds its terms,
    # so the reconciliation is exact (not approximate) float equality.
    phase_total = 0.0
    for name in ("kernel", "host_to_pim", "pim_to_host", "launch"):
        phase_total += phases.get(name, {}).get("sim_seconds") or 0.0
    return {
        "phases": phases,
        "total_sim_seconds": result.total_seconds,
        "simulated_cycles": result.per_dpu.cycles,
        "reconciles": phase_total == result.total_seconds,
        "metrics": registry.to_dict()["metrics"],
    }


def run_bench(quick: bool = False) -> Dict[str, Any]:
    """Run every bench section and assemble the schema-versioned snapshot."""
    t0 = time.perf_counter()
    sections = {
        "fig5": _bench_fig5(quick),
        "fig9": _bench_fig9(quick),
        "batch": _bench_batch_speedup(quick),
        "system_phases": _bench_phases(quick),
    }
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "generated_unix": time.time(),  # lint: allow(snapshot metadata, not a simulated number)
        "wall_seconds": time.perf_counter() - t0,
        "sections": sections,
    }


def emit_bench(path, quick: bool = False) -> Dict[str, Any]:
    """Run the bench suite and write the snapshot JSON to ``path``."""
    snapshot = run_bench(quick=quick)
    path = pathlib.Path(path)
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def bench_summary(snapshot: Dict[str, Any]) -> str:
    """Terse human summary of an emitted snapshot."""
    s = snapshot["sections"]
    lines = [
        f"bench snapshot ({snapshot['schema']}, "
        f"{'quick' if snapshot['quick'] else 'full'}) "
        f"in {snapshot['wall_seconds']:.2f}s wall:",
        f"  fig5: {s['fig5']['n_points']} points "
        f"in {s['fig5']['wall_seconds']:.2f}s",
        f"  fig9: {len(s['fig9']['rows'])} configs "
        f"in {s['fig9']['wall_seconds']:.2f}s",
        f"  batch vs scalar speedup: "
        f"{s['batch']['batch_vs_scalar_speedup']:.0f}x",
        f"  phase reconciliation: "
        f"{'ok' if s['system_phases']['reconciles'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 5 artifact staleness guard


def fig5_artifact_texts(points: Sequence) -> Dict[str, str]:
    """Render the three committed fig5 artifacts from sweep points.

    This is the single source of truth for their content — the benchmark
    harness (``benchmarks/bench_fig5_cycles.py``) writes these texts and
    the staleness guard re-derives them, so the two cannot disagree about
    formatting.
    """
    from repro.analysis.chart import scatter_chart
    from repro.analysis.export import sweep_to_csv, sweep_to_json
    from repro.analysis.figures import fig5_report

    series: Dict[str, List] = {}
    for p in points:
        if p.placement == "mram":
            series.setdefault(p.method, []).append(
                (p.rmse, p.cycles_per_element))
    chart = scatter_chart(series, x_label="rmse", y_label="cycles/elem")
    return {
        "fig5_cycles.txt": fig5_report(points) + "\n\n" + chart,
        "fig5_cycles.json": sweep_to_json(points),
        "fig5_cycles.csv": sweep_to_csv(points),
    }


def check_fig5_artifacts(out_dir=None) -> Dict[str, str]:
    """Re-derive the fig5 rows and diff them against ``benchmarks/out/``.

    Returns ``{filename: "fresh" | "stale" | "missing"}``.  The comparison
    is line-by-line (robust to newline conventions — the CSV writer emits
    CRLF — and to the trailing newline the bench harness appends) but
    nothing else — a single cycle of drift in any row flags the file.
    """
    from repro.analysis.figures import fig5_data

    if out_dir is None:
        out_dir = pathlib.Path(__file__).resolve().parents[3] \
            / "benchmarks" / "out"
    out_dir = pathlib.Path(out_dir)

    expected = fig5_artifact_texts(fig5_data())
    status: Dict[str, str] = {}
    for name in FIG5_ARTIFACTS:
        path = out_dir / name
        if not path.exists():
            status[name] = "missing"
            continue
        got = [ln for ln in path.read_text().splitlines() if ln]
        want = [ln for ln in expected[name].splitlines() if ln]
        status[name] = "fresh" if got == want else "stale"
    return status


def regenerate_fig5_artifacts(out_dir=None) -> List[str]:
    """Rewrite the committed fig5 artifacts from a fresh sweep."""
    from repro.analysis.figures import fig5_data

    if out_dir is None:
        out_dir = pathlib.Path(__file__).resolve().parents[3] \
            / "benchmarks" / "out"
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in fig5_artifact_texts(fig5_data()).items():
        (out_dir / name).write_text(text + "\n")
        written.append(name)
    return written
