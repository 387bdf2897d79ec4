"""One benchmark run: set up several times, measure, check, report.

``--trace 0`` measures with no wrapper installed and reports the
end-to-end metrics.  ``--trace 1`` installs the span wrappers first,
measures half the time untraced and half traced, and reports the
per-layer metrics; the two halves give the tracing overhead.

Each phase is a series of windows of the workload with a burst of the
fixed reference work (:mod:`perfbench.reference`) before and after each,
and every end-to-end time but set-up is given in reference seconds.
Every figure is computed together with its unit; the names and units must
be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import pathlib
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Tuple

from perfbench.reference import Reference
from perfbench.spans import (IdleTimingSelector, Recorder, install,
                             layer_metrics, percentile)
from perfbench.workloads import Measurement, make_workload

__all__ = ["run", "declared", "check_predictions", "ROOT"]

ROOT = pathlib.Path(__file__).resolve().parents[1]
REASONS = pathlib.Path(__file__).with_name("reasons.json")
TRACE_DIR = pathlib.Path(__file__).with_name("out")

#: Tolerance of a predicted share of the traced wall, in percentage points:
#: about twice the spread of the shares between traced runs of one code.
SHARE_TOLERANCE_PCT = 5.0
#: Relative tolerance of a predicted value (a ratio of two counts).
VALUE_TOLERANCE = 0.10
#: Fresh interpreters whose import time joins the run's own in the median
#: that ``setup_s`` counts: the run imports only once.
IMPORT_SAMPLES = 3
_IMPORT_PROBE = ("from time import perf_counter; t0 = perf_counter(); "
                 "from perfbench.run import import_program; "
                 "import_program(); print(perf_counter() - t0)")


def declared(section: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of every metric ``BENCHMARK.json`` lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def _emit(section: str, computed: Dict[str, tuple]) -> Dict[str, dict]:
    out = {}
    for name, unit in declared(section):
        if name not in computed:
            raise KeyError(f"run computed no value for metric {name!r}")
        value, got_unit = computed[name]
        if got_unit != unit:
            raise ValueError(f"metric {name!r} computed in {got_unit!r}, "
                             f"declared in {unit!r}")
        out[name] = {"value": float(value), "unit": unit}
    return out


def _maxrss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the program and the
    benchmark (``perfbench.run.import_program``)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout.split()[-1])


def check_predictions(workload: str, layers: Dict[str, float]) -> List[dict]:
    """Test the recorded layer-share predictions against a traced run.

    A prediction that fails is reported, not raised: the shares describe
    the program as it was measured when the benchmark was written, and a
    later change may rightly move them.
    """
    spec = json.loads(REASONS.read_text())["predictions"].get(workload, [])
    wall = layers.get("obs.traced_wall_s", 0.0) or 1.0

    def total(terms):
        return sum(layers.get(t, 0.0) for t in terms)

    outcomes = []
    for p in spec:
        kind = p["kind"]
        observed = total(p["terms"])
        if kind == "share":
            observed = 100.0 * observed / wall
            want = p["expected_pct"]
            held = abs(observed - want) <= SHARE_TOLERANCE_PCT
        elif kind == "leads":
            others = [total(g) for g in p["over"]]
            held = all(observed > o for o in others)
            want = f"> {max(others):.4g}"
        elif kind == "value":
            want = p["expected"]
            held = abs(observed - want) <= VALUE_TOLERANCE * abs(want)
        elif kind == "at_most":
            want, held = f"<= {p['limit']}", observed <= p["limit"]
        elif kind == "zero":
            want, held = 0, observed == 0
        elif kind == "nonzero":
            want, held = "> 0", observed > 0
        else:
            raise ValueError(f"unknown prediction kind {kind!r}")
        outcomes.append({"claim": p["claim"], "expected": want,
                         "observed": round(observed, 4), "held": held})
    return outcomes


def _flat_counters(registry) -> Dict[str, float]:
    return {name: payload["value"]
            for name, payload in registry.to_dict()["metrics"].items()
            if payload.get("type") == "counter"}


def _write_trace(workload: str, seed: int, rec: Recorder, absent,
                 predictions) -> pathlib.Path:
    TRACE_DIR.mkdir(exist_ok=True)
    # One file per workload, overwritten: traced runs of many seeds must
    # not fill the checkout.
    path = TRACE_DIR / f"trace-{workload}.json"
    with path.open("w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["id", "parent", "name", "start", "end",
                              "busy_s", "self_s", "attrs", "ok"],
                   "absent_boundaries": absent,
                   "predictions": predictions,
                   "spans": rec.spans}, fh, default=str)
    return path


def _phase(wl, seconds: float, ref: Reference, rec=None) -> Measurement:
    """Measure ``wl`` for ``seconds`` in windows, timing the reference
    work before and after each window."""
    first = ref.mark()
    wl.start()
    ref.burst()
    wall = 0.0
    deadline = perf_counter() + seconds
    while True:
        left = max(deadline - perf_counter(), 0.0)
        wall += wl.window(min(wl.window_s, left), rec)
        ref.burst()
        if perf_counter() >= deadline:
            break
    m = wl.finish()
    m.wall_s = wall
    m.ref_units = {part: ref.unit_s(part, first) for part in ref.parts}
    m.scale = ref.scale(wl.reference, first)
    return m


def _end_to_end(wl, m: Measurement, setup_wall_s: float, peak_mib: float,
                report: List[str]) -> Dict[str, tuple]:
    """The end-to-end figures; every time but set-up in reference seconds."""
    raw = {"setup_s": setup_wall_s, "ops_per_s": m.ops / m.wall_s,
           "latency_p50_ms": percentile(m.latency_s, 50) * 1e3,
           "latency_p99_ms": percentile(m.latency_s, 99) * 1e3}
    report.append("wall figures: " + ", ".join(
        f"{k} {v:.6g}" for k, v in raw.items())
        + f"; reference seconds per wall second {m.scale:.4f} ("
        + ", ".join(f"{p} unit {t * 1e6:.1f} us"
                    for p, t in m.ref_units.items()) + ")")
    return {
        # Set-up stays in wall seconds: no part tracked it (reference.py).
        "setup_s": (raw["setup_s"], "s"),
        "ops_per_s": (raw["ops_per_s"] / m.scale, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * m.scale, "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
        "sim_us_per_op": (wl.sim_us_per_op(m), "us"),
    }


def _traced(wl, workload: str, seed: int, seconds: float, ref: Reference,
            rec: Recorder, absent: List[str], selector, report: List[str]):
    """Half the time untraced, half traced: the per-layer figures."""
    from repro.obs.metrics import MetricsRegistry, collecting

    plain = _phase(wl, seconds / 2, ref)
    registry = MetricsRegistry()
    idle0 = selector.idle_s if selector is not None else 0.0
    rec.on = True
    with collecting(registry):
        traced = _phase(wl, seconds / 2, ref, rec)
    rec.on = False
    idle = selector.idle_s - idle0 if selector is not None else 0.0
    # Reference bursts run outside every window, so the span-derived
    # figures cover the windows only.
    layers = layer_metrics(rec, _flat_counters(registry), traced.wall_s,
                           idle)
    layers.update(wl.trace_extras(rec, traced, traced.wall_s, idle))
    per_op = [r.wall_s * r.scale / max(r.ops, 1) for r in (plain, traced)]
    layers["obs.trace_overhead_pct"] = (
        100.0 * (per_op[1] / per_op[0] - 1.0), "%")
    # The latency tail, ungated: on pool_sharded it widened in slow machine
    # phases by more than any reference part explains.
    for q in (95, 99):
        layers[f"obs.latency_p{q}_ms"] = (
            percentile(plain.latency_s, q) * 1e3 * plain.scale, "ms")
    layers["obs.latency.samples"] = (len(plain.latency_s), "count")
    layers["obs.untraced_wall_s"] = (plain.wall_s, "s")
    layers["obs.untraced_ops"] = (plain.ops, "count")
    layers["obs.traced_ops"] = (traced.ops, "count")

    predictions = check_predictions(
        workload, {name: value for name, (value, _) in layers.items()})
    for p in predictions:
        report.append(f"prediction {workload}: {p['claim']}: expected "
                      f"{p['expected']}, observed {p['observed']} -> "
                      f"{'held' if p['held'] else 'NOT held'}")
    path = _write_trace(workload, seed, rec, absent, predictions)
    report.append(f"spans: {len(rec.spans)} written to "
                  f"{path.relative_to(ROOT)}")
    return [plain, traced], layers


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float) -> Tuple[dict, List[str]]:
    """Run ``workload`` once; returns the result object and report lines."""
    report: List[str] = []
    rec = inst = selector = ref = wl = None
    if trace:
        rec = Recorder()
        inst = install(rec)
        if inst.absent:
            report.append(f"absent boundaries: {', '.join(inst.absent)}")
        if workload.startswith("serve"):
            selector = IdleTimingSelector()
    try:
        before_mib = _maxrss_mib()
        t0 = perf_counter()
        wl = make_workload(workload, seed, selector)
        inputs_s = perf_counter() - t0
        ref = Reference(wl.reference)
        # The benchmark's own inputs, timing arrays and reference work, left
        # out of the program's peak below.
        harness_mib = _maxrss_mib() - before_mib
        setup_times = []
        failures = []
        for rep in range(wl.setup_reps):
            if rep:
                failures += wl.teardown()
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)

        if trace:
            runs, computed = _traced(wl, workload, seed, seconds, ref, rec,
                                     inst.absent, selector, report)
        else:
            runs = [_phase(wl, seconds, ref)]
            # Read before the checks build their oracles.
            own_mib = _maxrss_mib() - harness_mib
        checked, failed = wl.check(runs)
        failures += checked + wl.close()
        if not trace:
            # Pool workers count once closed and waited for, each at the
            # largest worker's peak (an upper bound: forked pages are
            # shared with the parent).
            peak = own_mib + wl.workers * _maxrss_mib(resource.RUSAGE_CHILDREN)
            # After the peak: the fresh interpreters are children too.
            import_s = statistics.median(
                [import_s] + [fresh_import_s() for _ in range(IMPORT_SAMPLES)])
            setup_wall_s = import_s + inputs_s + statistics.median(setup_times)
            computed = _end_to_end(wl, runs[0], setup_wall_s, peak, report)
    finally:
        # Closing twice is harmless; on an error path this is the only close.
        if wl is not None:
            wl.close()
        if ref is not None:
            ref.close()
        if inst is not None:
            inst.remove()

    failed += sum(r.failed for r in runs)
    report += [f"check failed: {f}" for f in failures]
    result = {
        "correct": not failures and failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": _emit("per_layer" if trace else "end_to_end", computed),
    }
    return result, report
