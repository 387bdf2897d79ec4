"""The streamed table fill: bit-identical to a one-shot build, one table of
memory.

``build_table`` fills each table in blocks of ``_FILL_BLOCK`` indices.
``_one_shot`` below is the builder it replaced, kept as the oracle: it
holds float64 index, point and value arrays at full table size, pads the
non-finite values, then rounds them all at once.  Every table method in
METHOD_SUPPORT must equal it byte for byte at block sizes that are not a
multiple of any SIMD width, and at a block size of one entry, which puts
every guard entry in a different block from the entry that pads it.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import LUT_METHODS, make_method
from repro.core.functions.support import METHOD_SUPPORT
from repro.core.lut import base, dlut, llut, mlut
from repro.errors import ConfigurationError

_MIB = 1 << 20


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
    for fn, name, params in _TABLE_CONFIGS + _DENSE_CONFIGS:
        if name != method:
            continue
        fills.calls.clear()
        m = make_method(fn, method, **params).setup()
        _assert_fills_match_one_shot(fills, m, (fn, method, params))
        largest = max([largest] + [t.size for t in _leaf_tables(m)])
    assert largest > 2 * block   # some table spans at least three blocks


@pytest.mark.parametrize("fn,method", _GUARD_CONFIGS)
def test_guard_entries_padded_from_another_block(fills, monkeypatch, fn,
                                                 method):
    # One entry per block: every non-finite run and its pad source (the
    # next finite entry, else the last one) sit in different blocks.
    monkeypatch.setattr(base, "_FILL_BLOCK", 1)
    m = make_method(fn, method).setup()
    assert fills.pads and all(1 <= bad.size <= 2 for bad in fills.pads)
    _assert_fills_match_one_shot(fills, m, (fn, method))


def test_atanh_guard_entries_straddle_a_block_edge(fills, monkeypatch):
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

    def identity(i):
        return i

    want = _one_shot(reference, identity, n, frac_bits)
    for block in (1, 2, 3, 7, n):
        monkeypatch.setattr(base, "_FILL_BLOCK", block)
        got = base.build_table(reference, identity, n, frac_bits)
        assert got.tobytes() == want.tobytes()
    values[:] = np.nan
    with pytest.raises(ConfigurationError, match="no finite entries"):
        base.build_table(reference, identity, n, frac_bits)


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
def test_build_peak_is_one_table_plus_a_block(method):
    # 2^18 grid points per unit over sin's [0, 2 pi): a 6.3 MiB table.
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
