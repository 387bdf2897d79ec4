"""Correctness and clean-exit checks, run outside the timed phase.

Each check returns a list of failure messages; an empty list means it
passed.  The oracles are independent of the path under test: served values
and sweep RMSEs are recomputed with a freshly built method's
``evaluate_vec``, pooled launches are re-run inline, and the Figure 5 text
is compared with the committed artifacts, which are read and never written.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["served_values", "sweep_rmse", "fig5_artifacts", "same_points",
           "pooled_vs_inline", "clean_pool_exit"]

_F32 = np.float32


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=_F32).view(np.uint32)


def served_values(samples: Iterable[Tuple[object, np.ndarray, np.ndarray]],
                  oracles: Dict[object, object]) -> List[str]:
    """Each served slice must equal ``evaluate_vec`` on its inputs, bit for bit.

    ``samples`` holds ``(kernel, inputs, served values)``; ``oracles`` maps
    each kernel to a set-up method with the request's parameters.
    """
    failures = []
    for kernel, xs, served in samples:
        want = _bits(oracles[kernel].evaluate_vec(np.asarray(xs, dtype=_F32)))
        got = _bits(served)
        if got.shape != want.shape:
            failures.append(f"{kernel}: {got.size} values served for "
                            f"{want.size} inputs")
        elif not np.array_equal(got, want):
            failures.append(f"{kernel}: {np.count_nonzero(got != want)} of "
                            f"{want.size} served values differ from "
                            "evaluate_vec")
    return failures


def _point_params(point, sweeps) -> dict:
    params = dict(sweeps[point.method].get("extra_params") or {})
    name, value = point.param.split("=")
    params[name] = int(value)
    return params


def sweep_rmse(points: Sequence, inputs: np.ndarray, sweeps) -> List[str]:
    """Every point's RMSE, recomputed from a fresh ``evaluate_vec``, matches."""
    from repro.api import make_method
    from repro.core.accuracy import rmse
    from repro.core.functions.registry import get_function

    reference = get_function("sin").reference(inputs.astype(np.float64))
    failures = []
    rmse_by_table: Dict[tuple, float] = {}
    for p in points:
        # Table contents do not depend on placement: build each table once.
        key = (p.method, p.param)
        value = rmse_by_table.get(key)
        if value is None:
            method = make_method("sin", p.method, placement=p.placement,
                                 assume_in_range=True,
                                 **_point_params(p, sweeps)).setup()
            value = rmse(method.evaluate_vec(inputs).astype(np.float64),
                         reference)
            rmse_by_table[key] = value
            del method
        if value != p.rmse:
            failures.append(f"{p.method}/{p.placement}/{p.param}: rmse "
                            f"{p.rmse!r} != evaluate_vec {value!r}")
    return failures


def fig5_artifacts(points: Sequence, out_dir: pathlib.Path) -> List[str]:
    """The rendered Figure 5 text equals the committed files, line by line.

    Blank lines and line endings are ignored, as the program's own
    staleness guard ignores them (the CSV writer emits CRLF).
    """
    from repro.obs.bench import fig5_artifact_texts

    failures = []
    for name, text in fig5_artifact_texts(points).items():
        path = out_dir / name
        if not path.is_file():
            failures.append(f"{name}: committed artifact missing")
            continue
        got = [ln for ln in path.read_text().splitlines() if ln]
        want = [ln for ln in text.splitlines() if ln]
        if got != want:
            diff = sum(a != b for a, b in zip(got, want)) \
                + abs(len(got) - len(want))
            failures.append(f"{name}: {diff} lines differ from the sweep")
    return failures


def same_points(sweeps: Sequence[Sequence]) -> List[str]:
    """Every repeated sweep of one run produced identical points."""
    first = sweeps[0]
    return [f"sweep {i} differs from sweep 0"
            for i, pts in enumerate(sweeps[1:], 1) if list(pts) != list(first)]


def pooled_vs_inline(samples, launch_inline) -> List[str]:
    """A pooled launch's ``total_seconds`` equals the inline dispatch's.

    ``samples`` holds ``(name, inputs, pooled total_seconds)``;
    ``launch_inline(name, inputs)`` re-runs the launch without the pool.
    """
    failures = []
    for name, xs, pooled in samples:
        inline = launch_inline(name, xs).total_seconds
        if inline != pooled:
            failures.append(f"{name}: pooled total_seconds {pooled!r} != "
                            f"inline {inline!r}")
    return failures


def clean_pool_exit(workers_before_close, others=()) -> List[str]:
    """After ``close()``: no shared-memory segment and no live worker.

    ``others`` holds the pids of child processes that are not the pool's
    (they started before it) and may stay alive.
    """
    import multiprocessing

    from repro.plan.pool import active_segments

    failures = []
    leaked = active_segments()
    if leaked:
        failures.append(f"{len(leaked)} shared-memory segments leaked: "
                        f"{leaked}")
    alive = [p.pid for p in workers_before_close if p.is_alive()]
    alive += [p.pid for p in multiprocessing.active_children()
              if p.pid not in alive and p.pid not in others]
    if alive:
        failures.append(f"worker processes survived close(): {alive}")
    return failures
