"""The streamed table fill: bit-identical to a one-shot build, one table of
memory, every usable CPU.

``build_table`` fills each table in blocks, striped over up to one lane
(thread) per usable CPU, with ``_FILL_BLOCK`` entries in flight across
the lanes.  ``_one_shot`` below is the builder it replaced, kept as the
oracle: it holds float64 index, point and value arrays at full table
size, pads the non-finite values, then rounds them all at once.  Every
table method in METHOD_SUPPORT must equal it byte for byte on 1, 2 and 3
lanes, at block sizes that are not a multiple of any SIMD width, and at a
block size of one entry, which puts every guard entry in a different
block (and, from 3 lanes on, a different lane) from the entry that pads
it.
"""

import os
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import LUT_METHODS, make_method
from repro.core.functions.support import METHOD_SUPPORT
from repro.core.lut import base, dlut, llut, mlut
from repro.errors import ConfigurationError

_MIB = 1 << 20

#: Lane counts every oracle test runs at.
_LANES = (1, 2, 3)


def _pin_lanes(monkeypatch, lanes):
    """Fill on ``lanes`` lanes, or one per block when there are fewer."""
    monkeypatch.setattr(base, "_usable_cpus", lambda: lanes)


def _identity(i):
    return i


def _one_shot(reference, a_inv, entries, frac_bits=None):
    """The one-shot builder the streamed fill replaced."""
    points = np.asarray(a_inv(np.arange(entries, dtype=np.float64)),
                        dtype=np.float64)
    with np.errstate(all="ignore"):
        values = np.asarray(reference(points), dtype=np.float64)
    bad = ~np.isfinite(values)
    if np.any(bad):
        good = np.flatnonzero(~bad)
        if good.size == 0:
            raise ConfigurationError("table has no finite entries at all")
        nearest = good[np.searchsorted(
            good, np.clip(np.arange(values.size), good[0], good[-1]),
            side="left").clip(0, good.size - 1)]
        values = values.copy()
        values[bad] = values[nearest[bad]]
    if frac_bits is None:
        return values.astype(np.float32)
    raw = values * float(1 << frac_bits)
    np.round(raw, out=raw)
    np.clip(raw, -(2 ** 31), 2 ** 31 - 1, out=raw)
    return raw.astype(np.int64).astype(np.int32)


#: Every table method paired with every function it supports.
_TABLE_CONFIGS = [(fn, method, {}) for method in LUT_METHODS
                  for fn in sorted(METHOD_SUPPORT[method])]
#: One dense config per family (and tan), several blocks at 3585-4099.
_DENSE_CONFIGS = [
    ("sin", "mlut", {"size": 20011}), ("exp", "mlut_i", {"size": 9001}),
    ("sin", "llut", {"density_log2": 12}),
    ("log", "llut_i", {"density_log2": 13}),
    ("gelu", "llut_fx", {"density_log2": 12}),
    ("tanh", "llut_i_fx", {"density_log2": 11}),
    ("tanh", "dlut", {"mant_bits": 10}), ("log", "dlut_i", {"mant_bits": 10}),
    ("sigmoid", "dllut", {"mant_bits": 10}),
    ("atanh", "dllut_i", {"mant_bits": 10}),
    ("tan", "llut_i", {"density_log2": 12}), ("tan", "mlut", {"size": 9001}),
]
#: The only default tables with non-finite entries: one or two guard
#: entries at index 0 (log and rsqrt at 0, in a DL-LUT's low table) or at
#: the end (asin and acos beyond 1, atanh at 1 and beyond).
_GUARD_CONFIGS = sorted(
    [(fn, method) for method in ("dlut_i", "dllut_i")
     for fn in ("asin", "acos", "atanh")]
    + [(fn, method) for method in ("dllut", "dllut_i")
       for fn in ("log", "log2", "log10", "rsqrt")])


@pytest.fixture
def fills(monkeypatch):
    """Records each fill's (arguments, table) and each padded index set."""
    rec = SimpleNamespace(calls=[], pads=[])
    fill, pad = base.build_table, base._pad_nonfinite

    def recording_fill(*args):
        table = fill(*args)
        rec.calls.append((args, table))
        return table

    def recording_pad(table, bad):
        rec.pads.append(bad.copy())
        pad(table, bad)

    for module in (mlut, llut, dlut):
        monkeypatch.setattr(module, "build_table", recording_fill)
    monkeypatch.setattr(base, "_pad_nonfinite", recording_pad)
    return rec


def _leaf_tables(m):
    """The tables a (possibly composite) LUT method fills, in build order."""
    subs = [getattr(m, name) for name in ("sin_m", "cos_m", "low", "high")
            if hasattr(m, name)]
    if not subs:
        return [m._table]
    return [table for sub in subs for table in _leaf_tables(sub)]


def _assert_fills_match_one_shot(fills, m, label):
    leaves = _leaf_tables(m)
    assert len(fills.calls) == len(leaves), label
    for leaf, (args, table) in zip(leaves, fills.calls):
        assert leaf is table, label
        want = _one_shot(*args)
        assert table.dtype == want.dtype, label
        assert table.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("block", [4099, 3585])
@pytest.mark.parametrize("method", list(LUT_METHODS))
def test_fill_matches_one_shot(fills, monkeypatch, method, block):
    monkeypatch.setattr(base, "_FILL_BLOCK", block)
    largest = 0
    for lanes in _LANES:
        _pin_lanes(monkeypatch, lanes)
        for fn, name, params in _TABLE_CONFIGS + _DENSE_CONFIGS:
            if name != method:
                continue
            fills.calls.clear()
            m = make_method(fn, method, **params).setup()
            _assert_fills_match_one_shot(fills, m, (fn, method, params, lanes))
            largest = max([largest] + [t.size for t in _leaf_tables(m)])
    # Some table spans at least three blocks, so it fills on three lanes.
    assert largest > 2 * block


@pytest.mark.parametrize("fn,method", _GUARD_CONFIGS)
def test_guard_entries_padded_from_another_block(fills, monkeypatch, fn,
                                                 method):
    # One entry per block: every non-finite run and its pad source (the
    # next finite entry, else the last one) sit in different blocks, and
    # on 3 lanes in different lanes.
    monkeypatch.setattr(base, "_FILL_BLOCK", 1)
    for lanes in _LANES:
        _pin_lanes(monkeypatch, lanes)
        fills.calls.clear()
        fills.pads.clear()
        m = make_method(fn, method).setup()
        assert fills.pads and all(1 <= bad.size <= 2 for bad in fills.pads)
        _assert_fills_match_one_shot(fills, m, (fn, method, lanes))


def test_atanh_guard_entries_straddle_a_block_edge(fills, monkeypatch):
    # One lane, so the block edge stays at 3585.
    _pin_lanes(monkeypatch, 1)
    monkeypatch.setattr(base, "_FILL_BLOCK", 3585)
    m = make_method("atanh", "dlut_i").setup()
    assert m.entries == 3586
    assert [bad.tolist() for bad in fills.pads] == [[3584, 3585]]
    _assert_fills_match_one_shot(fills, m, "atanh dlut_i")


def test_only_guard_configs_have_nonfinite_entries(fills):
    padded = set()
    for fn, method, params in _TABLE_CONFIGS:
        fills.pads.clear()
        make_method(fn, method, **params).setup()
        if fills.pads:
            padded.add((fn, method))
    assert sorted(padded) == _GUARD_CONFIGS


@pytest.mark.parametrize("frac_bits", [None, 28])
@pytest.mark.parametrize("seed", range(6))
def test_pad_rule_matches_one_shot_on_random_masks(monkeypatch, seed,
                                                   frac_bits):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    # Past +-8 the s3.28 words saturate.
    values = rng.uniform(-9.0, 9.0, n)
    bad = rng.random(n) < rng.uniform(0.1, 0.9)
    values[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
    values[0 if seed % 2 else -1] = np.nan   # a run at an edge

    def reference(points):
        return values[points.astype(np.int64)]

    want = _one_shot(reference, _identity, n, frac_bits)
    for lanes in _LANES:
        _pin_lanes(monkeypatch, lanes)
        for block in (1, 2, 3, 7, n):
            monkeypatch.setattr(base, "_FILL_BLOCK", block)
            got = base.build_table(reference, _identity, n, frac_bits)
            assert got.tobytes() == want.tobytes(), (lanes, block)
    values[:] = np.nan
    with pytest.raises(ConfigurationError, match="no finite entries"):
        base.build_table(reference, _identity, n, frac_bits)


@pytest.fixture
def fill_log(monkeypatch):
    """A cosine reference that records each block it fills as (first
    index, size, thread), and a record of every thread started."""
    log = SimpleNamespace(blocks=[], starts=[])
    start = threading.Thread.start

    def cos(points):   # with ``_identity``, the points are the indices
        log.blocks.append((int(points[0]), points.size,
                           threading.current_thread()))
        return np.cos(points)

    def recording_start(thread):
        log.starts.append(thread)
        start(thread)

    log.cos = cos
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return log


@pytest.mark.parametrize("entries", [64, 65, 1000])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_lanes_share_the_entries_in_flight(monkeypatch, fill_log, cpus,
                                           entries):
    monkeypatch.setattr(base, "_FILL_BLOCK", 64)
    _pin_lanes(monkeypatch, cpus)
    before = threading.active_count()
    table = base.build_table(fill_log.cos, _identity, entries)
    assert table.tobytes() == _one_shot(np.cos, _identity, entries).tobytes()
    # One lane per usable CPU, at most one per 64 entries, each filling
    # blocks of 64 / lanes entries: every block once.
    lanes = min(cpus, -(-entries // 64))
    block = -(-64 // lanes)
    assert sorted(b[:2] for b in fill_log.blocks) == [
        (start, min(block, entries - start))
        for start in range(0, entries, block)]
    threads = {b[2] for b in fill_log.blocks}
    if lanes == 1:
        # A one-block table, or one usable CPU, fills on the caller.
        assert threads == {threading.current_thread()}
        assert fill_log.starts == []
    else:
        assert threads <= set(fill_log.starts)
        assert 1 <= len(fill_log.starts) <= lanes
    # Every lane thread is joined before the build returns.
    assert not any(thread.is_alive() for thread in fill_log.starts)
    assert threading.active_count() == before


def _raising(points):
    if 50 in points:   # in lane 2's second block
        raise RuntimeError("reference failed at 50")
    return np.cos(points)


def _all_nan(points):
    return np.full_like(points, np.nan)


@pytest.mark.parametrize("reference,error,match", [
    (_raising, RuntimeError, "failed at 50"),
    (_all_nan, ConfigurationError, "no finite entries")])
def test_lane_error_reaches_the_caller(monkeypatch, fill_log, reference,
                                       error, match):
    monkeypatch.setattr(base, "_FILL_BLOCK", 30)
    _pin_lanes(monkeypatch, 3)
    before = threading.active_count()
    with pytest.raises(error, match=match):
        base.build_table(reference, _identity, 100)
    assert fill_log.starts
    assert not any(thread.is_alive() for thread in fill_log.starts)
    assert threading.active_count() == before


@pytest.mark.filterwarnings("error")
def test_guard_entries_warn_in_no_lane(monkeypatch):
    # arcsin is undefined past 1, in every lane; numpy's errstate is per
    # thread, so each lane must silence its own.
    monkeypatch.setattr(base, "_FILL_BLOCK", 30)
    _pin_lanes(monkeypatch, 3)

    def a_inv(i):
        return i / 50.0

    table = base.build_table(np.arcsin, a_inv, 100)
    assert table.tobytes() == _one_shot(np.arcsin, a_inv, 100).tobytes()


@pytest.mark.parametrize("frac_bits", [None, 28])
def test_more_lanes_than_cpus_switching_fast_match_one_shot(monkeypatch,
                                                            frac_bits):
    # Eight lanes of 8-entry blocks, switched every microsecond: their
    # slices of the one table are disjoint, so no write is lost.  log of a
    # sine leaves nine runs of non-finite entries across the lanes, the
    # first at index 0 and the last at the end of the table.
    monkeypatch.setattr(base, "_FILL_BLOCK", 64)
    _pin_lanes(monkeypatch, 8)

    def reference(points):
        return np.log(np.sin(points))

    def a_inv(i):
        return i / 400.0

    want = _one_shot(reference, a_inv, 20000, frac_bits)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = base.build_table(reference, a_inv, 20000, frac_bits)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


def test_one_usable_cpu_fills_on_one_lane(monkeypatch, fill_log):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(base, "_FILL_BLOCK", 64)
    table = base.build_table(fill_log.cos, _identity, 1000)
    assert table.tobytes() == _one_shot(np.cos, _identity, 1000).tobytes()
    assert fill_log.blocks == [(start, min(64, 1000 - start),
                                threading.current_thread())
                               for start in range(0, 1000, 64)]
    assert fill_log.starts == []


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert base._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert base._usable_cpus() == 1


def _build_peak_excess(m, table_bytes):
    """Peak traced bytes of ``m.setup()`` beyond ``table_bytes``."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        m.setup()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak - before - table_bytes


@pytest.mark.parametrize("method", ["llut", "llut_fx"])
def test_build_peak_is_one_table_plus_a_block(monkeypatch, method):
    # 2^18 grid points per unit over sin's [0, 2 pi): a 6.3 MiB table.  Four
    # lanes share the one block in flight.
    _pin_lanes(monkeypatch, 4)
    m = make_method("sin", method, density_log2=18)
    table_bytes = m.planned_table_bytes()
    assert table_bytes > 6 * _MIB
    assert _build_peak_excess(m, table_bytes) <= 4 * _MIB


def test_tan_build_peak_is_its_two_factor_tables():
    m = make_method("tan", "llut", density_log2=18)
    table_bytes = (m.sin_m.planned_table_bytes()
                   + m.cos_m.planned_table_bytes())
    assert _build_peak_excess(m, table_bytes) <= 4 * _MIB


#: Entry counts of a few composites before the combined copy was dropped.
_COMPOSITE_ENTRIES = {("tan", "llut"): 12872, ("tan", "mlut_i"): 2048,
                      ("atanh", "dllut"): 3842, ("atanh", "dllut_i"): 3844,
                      ("softplus", "dllut_i"): 4868, ("gelu", "dllut"): 4610}


@pytest.mark.parametrize("fn,method", [
    (fn, method) for fn, method, _ in _TABLE_CONFIGS
    if fn == "tan" or method in ("dllut", "dllut_i")])
def test_composites_keep_no_table_copy(fn, method):
    m = make_method(fn, method).setup()
    leaves = _leaf_tables(m)
    assert len(leaves) == 2 and m._table.size == 0
    # What the combined copy's size used to report.
    entries = sum(leaf.size for leaf in leaves)
    assert m.entries == entries
    assert m.table_bytes() == 4 * entries
    assert m.host_entries() == entries
    assert _COMPOSITE_ENTRIES.get((fn, method), entries) == entries
