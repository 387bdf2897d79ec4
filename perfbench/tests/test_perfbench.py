"""Self-test of the benchmark at a small size.

Run from the repository root with::

    python3 -m pytest perfbench/tests -q

Every workload must emit each metric ``BENCHMARK.json`` declares, with its
unit, and every correctness check must fail on a planted wrong answer.
"""

import dataclasses
import json
import multiprocessing
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, harness, spans
from perfbench.reference import REFERENCE_S, Reference
from perfbench.workloads import FIG5_OUT, WORKLOADS, make_workload

ROOT = harness.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REASONS = json.loads(harness.REASONS.read_text())


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    declared = {m["name"] for m in SPEC["per_layer"]}
    for b, _ in spans.BOUNDARIES:
        assert f"{b}.calls" in declared and f"{b}.busy_s" in declared


def test_reasons_name_only_declared_workloads_and_metrics():
    workloads = set(WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(REASONS["loads"]) == workloads
    for metric, entry in REASONS["moves"].items():
        assert metric in per_layer, metric
        for target in entry["moves"]:
            workload, e2e = target.split(":")
            assert workload in workloads and e2e in end_to_end, target
    assert set(REASONS["predictions"]) <= workloads
    for preds in REASONS["predictions"].values():
        for p in preds:
            groups = [p["terms"]] + p.get("over", [])
            assert all(t in per_layer for g in groups for t in g), p["claim"]


def test_reference_scale_tracks_unit_time():
    ref = Reference()
    ref.burst()
    assert all(len(b) == 1 and b[0] > 0 for b in ref.bursts.values())
    ref.bursts = {"cpu": [2 * REFERENCE_S["cpu"]],
                  "vec": [4 * REFERENCE_S["vec"]]}
    assert ref.scale({"cpu": 1.0}) == pytest.approx(0.5)
    assert ref.scale({"cpu": 0.5, "vec": 0.5}) == pytest.approx(1 / 3)
    assert ref.scale({"cpu": 0.25, "vec": 0.75}) == pytest.approx(2 / 7)
    assert ref.scale({"cpu": 0.8}) == pytest.approx(1 / 1.8)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(workload, trace):
    result, report = harness.run(workload, seed=3, seconds=1.0, trace=trace,
                                 import_s=0.0)
    assert not multiprocessing.active_children()
    assert result["correct"], report
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert any(line.startswith("prediction") for line in report)


def test_served_values_check_fails_on_one_flipped_bit():
    wl = make_workload("serve_small", seed=5)
    try:
        wl.setup()
        wl.start()
        wl.window(0.5)
        samples = wl.finish().data["samples"]
        oracles = wl.oracles()
        assert samples and checks.served_values(samples, oracles) == []
        kernel, xs, values = samples[0]
        flipped = values.copy()
        flipped.view(np.uint32)[len(flipped) // 2] ^= 1
        assert checks.served_values([(kernel, xs, flipped)], oracles)
    finally:
        wl.close()


def test_fig5_checks_fail_on_one_altered_row():
    wl = make_workload("fig5_sweep", seed=7)
    wl.setup()
    points = wl.sweep_once()
    assert checks.fig5_artifacts(points, FIG5_OUT) == []
    altered = list(points)
    altered[10] = dataclasses.replace(
        points[10], cycles_per_element=points[10].cycles_per_element + 1.0)
    assert checks.fig5_artifacts(altered, FIG5_OUT)
    assert checks.same_points([points, altered])
    wrong = [dataclasses.replace(points[0], rmse=points[0].rmse * 1.5)]
    assert checks.sweep_rmse(wrong, wl.inputs, wl.configs)
    assert checks.sweep_rmse(points[:1], wl.inputs, wl.configs) == []


def test_pool_check_fails_on_a_leaked_segment():
    from repro.plan.pool import ship_plan, unlink_shipment

    wl = make_workload("pool_sharded", seed=5)
    wl.setup()
    assert wl.close() == []
    leak = ship_plan({"table": np.zeros(4096, dtype=np.float32)})
    try:
        assert any("leaked" in f for f in checks.clean_pool_exit([]))
    finally:
        unlink_shipment(leak)
    assert checks.clean_pool_exit([]) == []


def test_wrappers_are_removed_and_missing_boundaries_reported():
    from repro.core.method import Method
    from repro.plan import session

    before = (Method.setup, session.execute_sharded)
    rec = spans.Recorder()
    inst = spans.install(rec, spans.BOUNDARIES + (
        ("gone.boundary", (("repro.plan.plan", "ExecutionPlan.gone"),
                           ("repro.no_such_module", "f"))),))
    try:
        assert inst.absent == ["gone.boundary"]
        assert Method.setup is not before[0]
    finally:
        inst.remove()
    assert (Method.setup, session.execute_sharded) == before


def test_self_time_excludes_child_spans():
    rec = spans.Recorder()
    rec.on = True
    hooks = spans._Hooks("x", lambda: None)

    def child():
        return sum(range(20000))

    def parent():
        return rec.call("child", hooks, child, (), {})

    rec.call("parent", hooks, parent, (), {})
    child_span, parent_span = rec.spans
    assert child_span[spans.PARENT] == parent_span[spans.SID]
    assert parent_span[spans.SELF] == pytest.approx(
        parent_span[spans.BUSY] - child_span[spans.BUSY])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _group_members(pgid: int) -> list:
    """Pids (zombies too) of the processes in process group ``pgid``."""
    members = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # ended while listed
            continue
        if int(fields[2]) == pgid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(),
                    reason="needs /proc")
def test_run_leaves_no_process_behind():
    """The pool's workers, the reference's helper and the resource tracker
    have all ended, and been waited for, when the command exits."""
    # In a session of its own, the command's pid is its process group id.
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload",
             "pool_sharded", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True) as proc:
        out, err = proc.communicate(timeout=120)
    left = _group_members(proc.pid)
    assert proc.returncode == 0, err
    assert '"correct": true' in out.splitlines()[-1]
    assert left == []
