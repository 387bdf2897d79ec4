"""Shared machinery for fuzzy lookup-table methods (Section 2.2.2).

A fuzzy LUT is defined by an address-generation function ``a(x)`` (executed
on the PIM core for every input) and its pseudo-inverse ``a_inv(i)`` (used
*only* during host-side table generation, so its cost never appears on the
PIM side).  Table entry ``i`` stores ``f(a_inv(i))`` computed in float64 and
rounded to the PIM storage format.

Concrete subclasses differ exactly in how ``a``/``a_inv`` are realized:
multiplication (M-LUT), exponent arithmetic (L-LUT), the raw float bit
pattern (D-LUT), or a composition (DL-LUT).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.functions.registry import FunctionSpec
from repro.core.method import Method
from repro.errors import ConfigurationError

__all__ = ["FuzzyLUT", "build_table", "build_fixed_table"]

_F32 = np.float32


def _pad_nonfinite(values: np.ndarray) -> np.ndarray:
    """Replace non-finite entries with their nearest finite neighbour.

    Guard entries lie just past the tabulated interval, where the function
    may be undefined (asin beyond 1, atanh at 1, log at 0); padding keeps
    the clamped lookups and interpolation guards well-defined.
    """
    bad = ~np.isfinite(values)
    if not np.any(bad):
        return values
    good_idx = np.flatnonzero(~bad)
    if good_idx.size == 0:
        raise ConfigurationError("table has no finite entries at all")
    all_idx = np.arange(values.size)
    nearest = good_idx[np.searchsorted(
        good_idx, np.clip(all_idx, good_idx[0], good_idx[-1]),
        side="left").clip(0, good_idx.size - 1)]
    out = values.copy()
    out[bad] = values[nearest[bad]]
    return out


def build_table(
    reference: Callable[[np.ndarray], np.ndarray],
    a_inv: Callable[[np.ndarray], np.ndarray],
    entries: int,
) -> np.ndarray:
    """Host-side table generation: ``table[i] = f(a_inv(i))`` in float64.

    The result is rounded once to float32 for PIM storage — the only place
    precision is lost, which is what lets interpolated tables approach the
    float32 accuracy floor the paper observes (~1e-9 RMSE).
    """
    if entries < 2:
        raise ConfigurationError("a lookup table needs at least two entries")
    idx = np.arange(entries, dtype=np.float64)
    points = np.asarray(a_inv(idx), dtype=np.float64)
    with np.errstate(all="ignore"):  # guard entries may leave the domain
        values = np.asarray(reference(points), dtype=np.float64)
    values = _pad_nonfinite(values)
    return values.astype(_F32)


def build_fixed_table(
    reference: Callable[[np.ndarray], np.ndarray],
    a_inv: Callable[[np.ndarray], np.ndarray],
    entries: int,
    frac_bits: int,
) -> np.ndarray:
    """Like :func:`build_table` but quantized to fixed-point raw words."""
    if entries < 2:
        raise ConfigurationError("a lookup table needs at least two entries")
    idx = np.arange(entries, dtype=np.float64)
    points = np.asarray(a_inv(idx), dtype=np.float64)
    with np.errstate(all="ignore"):
        values = np.asarray(reference(points), dtype=np.float64)
    values = _pad_nonfinite(values)
    # Quantize in place: these tables reach 2^22+ entries and a sweep builds
    # dozens, so the intermediate arrays dominate build time.
    raw = values * float(1 << frac_bits)
    np.round(raw, out=raw)
    # Saturate (don't wrap) at the 32-bit storage word: guard entries just
    # past the tabulated interval can exceed it (gelu's open bound at 8.0
    # rounds to exactly 2^31), and a two's-complement wrap would turn them
    # into huge negative table values.
    np.clip(raw, -(2 ** 31), 2 ** 31 - 1, out=raw)
    return raw.astype(np.int64)


class FuzzyLUT(Method):
    """Base class for all table-based methods.

    Subclasses populate ``self._table`` (and friends) in ``_build`` and
    implement the traced address generation (``core_eval``) and its array
    pass (``core_vec``).
    """

    #: Bytes per stored entry (float32 or 32-bit fixed raw word).
    ENTRY_BYTES = 4

    def __init__(self, spec: FunctionSpec, **kwargs):
        super().__init__(spec, **kwargs)
        self._table: np.ndarray = np.empty(0, dtype=_F32)

    @property
    def entries(self) -> int:
        """Number of table entries actually stored."""
        return int(self._table.size)

    def table_bytes(self) -> int:
        return self.entries * self.ENTRY_BYTES

    def host_entries(self) -> int:
        return self.entries

    def _interpolate_vec(self, idx: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Array form of the traced ``l0 + (l1 - l0) * delta`` between
        entries ``idx`` and ``idx + 1`` (float32)."""
        l0 = self._table[idx]
        l1 = self._table[idx + 1]
        return l0 + (l1 - l0) * delta

    def _clamp_index(self, ctx, idx: int, hi: int) -> int:
        """Traced clamp of a table index into ``[0, hi]``.

        Two compares and a (possible) branch — charged for every element
        because the PIM code always executes the bounds checks.
        """
        if ctx.icmp(idx, 0) < 0:
            ctx.branch()
            return 0
        if ctx.icmp(idx, hi) > 0:
            ctx.branch()
            return hi
        return idx
