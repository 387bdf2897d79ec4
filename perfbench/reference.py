"""Machine speed, timed with fixed reference work between measured windows.

The benchmark runs on shared virtual machines whose speed moves with other
tenants' load.  On the 2-vCPU VM it was written on, a pure-Python loop's
rate moved by 1.3-2x from one second to the next and whole runs a minute
apart differed by up to 1.6x, with no steal time, so neither process CPU
time nor a statistic of one run's own timings removes the shift.  The
benchmark therefore times fixed work, independent of the program, in short
bursts between its measured windows, and scales the end-to-end times of
the measured phase to the speed at which that work runs on the reference
machine:

    reference seconds = wall seconds / (1 + sum over parts of share *
                        (measured unit time / reference unit time - 1))

A change to the program moves only the wall seconds; a machine that runs
the reference 1.3x slower shrinks them by 1.3x.  The raw wall figures are
printed beside the result.

Resources were seen to move apart from each other, so the work has
parts, timed separately, and each workload names the parts that match what
sets its speed, with the share of its time each stands for; a share left
over follows no part.  The shares come from runs on that VM (four to five
sets of five to ten runs per workload):

* the Figure 5 sweep follows ``vec`` (its spread in wall seconds, 0.13 for
  sweep points per second and 0.15 for sweep time over two sets, fell to
  0.09 and 0.09; against ``cpu``, which ran 1.5x faster in phases where
  the sweep ran 1.1x faster, it was 0.18 and 0.14);
* small requests follow ``cpu`` with a share of 0.8: requests per second
  moved with the ``cpu`` unit time at a log-log slope of 0.61, latency at
  0.82; with share 1 the spread of one set reached 0.20, with 0.8 it
  stayed at or below 0.12 in every set, and the medians of requests per
  second of four sets stayed within 3%;
* large requests follow ``vec``;
* pooled launches follow ``ipc`` with a share of 0.75 and ``cpu`` with
  0.25: a least-squares fit of a launch's time to the two unit times gave
  ``ipc`` 83-93% of it, and over the set with the widest machine phases
  (the ``ipc`` unit between 4.1 and 10.8 ms) launches per second spread
  0.55 in wall seconds, 0.21 with equal shares and 0.12 with these.

Set-up (mostly imports) is reported in wall seconds: no part tracked it.
Scaled as its workload, its median moved by 31% between two consecutive
sets of ten runs (``serve_bulk``, whose ``vec`` unit sped up by 15% while
its imports slowed by 12%); in wall seconds the medians of the four or
five ten-run sets per workload stayed within 19% of each other.

The parts:

* ``cpu``: interpreter steps and NumPy passes over a 32 KiB array,
  allocating nothing;
* ``vec``: NumPy gathers and arithmetic over 256 KiB arrays, allocating
  nothing, as the fused value passes over large batches run;
* ``ipc``: a 2 MiB array sent to a one-worker process pool and its size
  sent back, as a pool launch ships a shard to a worker and waits for it.

Garbage collection is off during a burst, so the program's heap does not
leak into it.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import Dict, List, Mapping

import numpy as np

__all__ = ["REFERENCE_S", "Reference"]

#: Median time of one unit of each part on the machine the benchmark was
#: written on (2-vCPU KVM guest, Intel Xeon, Python 3.11, NumPy 2.4); only
#: a scale, so that reference seconds read close to wall seconds there.
REFERENCE_S: Dict[str, float] = {"cpu": 250e-6, "vec": 500e-6,
                                  "ipc": 4.5e-3}


def _cpu_unit(table, x, y) -> None:
    acc = 0
    for i in range(1200):
        acc ^= table[(i * 7 + acc) & 255]
    for _ in range(6):
        np.sin(x, out=y)
        np.multiply(y, np.float32(0.5), out=y)
        np.add(y, x, out=y)


def _cpu_arrays():
    rng = np.random.default_rng(0)
    x = rng.uniform(-4.0, 4.0, 1 << 13).astype(np.float32)
    table = {i: (i * 2654435761) & 0xFFFF for i in range(256)}
    return table, x, np.empty_like(x)


def _timed(work, n: int) -> float:
    """Median time of ``n`` calls of ``work`` with garbage collection off."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n):
            t0 = perf_counter()
            work()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def _size(a: np.ndarray) -> int:
    """The ``ipc`` part's task, run in the helper process."""
    return int(a.size)


class Reference:
    """Fixed reference work, timed in bursts; see the module docstring.

    With ``ipc`` among the parts it owns a one-worker process pool;
    :meth:`close` shuts it down and waits for the worker.
    """

    #: Units of each part per burst: 10-50 ms of work each.
    units = {"cpu": 100, "vec": 50, "ipc": 10}

    def __init__(self, parts=("cpu",)) -> None:
        self.parts = tuple(parts)
        self._cpu_args = _cpu_arrays()
        self._big = np.random.default_rng(1).uniform(
            -4.0, 4.0, 1 << 20).astype(np.float32)
        self._shard = self._big[:1 << 19]
        self._index = np.random.default_rng(2).integers(0, 1 << 16, 1 << 16)
        self._gathered = np.empty(1 << 16, dtype=np.float32)
        #: Median unit time of each burst so far, per part.
        self.bursts: Dict[str, List[float]] = {p: [] for p in self.parts}
        self._pool = None
        if "ipc" in self.parts:
            self._pool = ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("spawn"))
            self._pool.submit(_size, self._shard).result()

    def _cpu(self) -> None:
        _cpu_unit(*self._cpu_args)

    def _vec(self) -> None:
        g, table = self._gathered, self._big[:1 << 16]
        for _ in range(4):
            np.take(table, self._index, out=g)
            np.multiply(g, np.float32(1.5), out=g)
            np.add(g, table, out=g)

    def _ipc(self) -> None:
        self._pool.submit(_size, self._shard).result()

    def burst(self) -> None:
        """Time one burst of each part."""
        work = {"cpu": self._cpu, "vec": self._vec, "ipc": self._ipc}
        for part in self.parts:
            self.bursts[part].append(_timed(work[part], self.units[part]))

    def close(self) -> None:
        """Shut the helper pool down, if any, and wait for its worker."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def mark(self) -> int:
        """Index of the next burst, to scope :meth:`scale` to later ones."""
        return min((len(b) for b in self.bursts.values()), default=0)

    def unit_s(self, part: str, since: int = 0) -> float:
        """Median unit time of ``part`` over the bursts from ``since`` on."""
        return statistics.median(self.bursts[part][since:])

    def scale(self, shares: Mapping[str, float], since: int = 0) -> float:
        """Reference seconds per wall second for a workload that spends
        ``shares`` of its time in work like each part's and the rest in
        work no part tracks: the inverse of one plus the shares' sum of
        (measured over reference unit time, minus one)."""
        slowdown = 1.0 + sum(w * (self.unit_s(p, since) / REFERENCE_S[p] - 1.0)
                             for p, w in shares.items())
        return 1.0 / slowdown
