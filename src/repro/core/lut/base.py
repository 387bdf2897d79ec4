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

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional

import numpy as np

from repro.core.functions.registry import FunctionSpec
from repro.core.method import Method
from repro.errors import ConfigurationError

__all__ = ["FuzzyLUT", "build_table"]

_F32 = np.float32

#: Entries in flight across all lanes of a streamed table fill: each of
#: ``lanes`` threads fills blocks of ``ceil(_FILL_BLOCK / lanes)`` entries.
#: Every step of the fill works entry by entry, so no table depends on it;
#: tests patch it to put block edges at awkward places.
_FILL_BLOCK = 1 << 16


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity, read at each call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pad_nonfinite(table: np.ndarray, bad: np.ndarray) -> None:
    """Overwrite the entries at ``bad`` (ascending indices) in place with
    the next finite entry after each, else the table's last finite entry.

    Guard entries lie just past the tabulated interval, where the function
    may be undefined (asin beyond 1, atanh at 1, log at 0); padding keeps
    the clamped lookups and interpolation guards well-defined.
    """
    # Each run of consecutive bad indices copies the entry after its end;
    # only the last run can reach the end of the table.
    ends = np.append(np.flatnonzero(np.diff(bad) != 1), bad.size - 1)
    src = bad[ends[np.searchsorted(ends, np.arange(bad.size))]] + 1
    tail = src == table.size
    if np.any(tail):
        last = bad[ends[-2] + 1 if ends.size > 1 else 0] - 1
        if last < 0:
            raise ConfigurationError("table has no finite entries at all")
        src[tail] = last
    table[bad] = table[src]


def build_table(
    reference: Callable[[np.ndarray], np.ndarray],
    a_inv: Callable[[np.ndarray], np.ndarray],
    entries: int,
    frac_bits: Optional[int] = None,
) -> np.ndarray:
    """Host-side table generation: ``table[i] = f(a_inv(i))`` in float64.

    Each entry is rounded once for PIM storage: to float32, or with
    ``frac_bits`` to a saturated fixed-point int32 raw word.  That is the
    only place precision is lost, which is what lets interpolated tables
    approach the float32 accuracy floor the paper observes (~1e-9 RMSE).

    The fill streams blocks of indices straight into the final table, on
    ``lanes = min(usable CPUs, ceil(entries / _FILL_BLOCK))`` threads:
    lane ``k`` fills every ``lanes``-th block of ``ceil(_FILL_BLOCK /
    lanes)`` entries (disjoint slices, so no lock), and NumPy releases the
    GIL inside the float64 reference's loops.  A build therefore holds one
    table plus ``_FILL_BLOCK`` entries of float64 scratch (d22 tables
    reach 26M entries), and a one-block table fills on the calling thread.
    Non-finite entries are zeroed before any cast and padded afterwards by
    :func:`_pad_nonfinite`; every step works entry by entry, so neither
    the blocks nor the lanes change a bit.
    """
    if entries < 2:
        raise ConfigurationError("a lookup table needs at least two entries")
    table = np.empty(entries, dtype=_F32 if frac_bits is None else np.int32)
    lanes = min(_usable_cpus(), -(-entries // _FILL_BLOCK))
    block = -(-_FILL_BLOCK // lanes)

    def fill_lane(lane: int) -> List[np.ndarray]:
        """Fill every ``lanes``-th block from the ``lane``-th; return the
        non-finite indices of each."""
        bad = []
        for start in range(lane * block, entries, lanes * block):
            idx = np.arange(start, min(start + block, entries),
                            dtype=np.float64)
            points = np.asarray(a_inv(idx), dtype=np.float64)
            # Guard entries may leave the domain.  errstate is per thread,
            # so each lane sets its own.
            with np.errstate(all="ignore"):
                values = np.asarray(reference(points), dtype=np.float64)
            finite = np.isfinite(values)
            if not finite.all():
                bad.append(start + np.flatnonzero(~finite))
                values = np.where(finite, values, 0.0)
            if frac_bits is not None:
                values = values * float(1 << frac_bits)
                np.round(values, out=values)
                # Saturate (don't wrap) at the 32-bit storage word: guard
                # entries just past the tabulated interval can exceed it
                # (gelu's open bound at 8.0 rounds to exactly 2^31), and a
                # two's-complement wrap would turn them into huge negative
                # table values.
                np.clip(values, -(2 ** 31), 2 ** 31 - 1, out=values)
            table[start:start + values.size] = values
        return bad

    if lanes == 1:
        bad = fill_lane(0)
    else:
        # Joined before returning: no thread outlives the build.
        with ThreadPoolExecutor(max_workers=lanes) as pool:
            bad = [run for lane in pool.map(fill_lane, range(lanes))
                   for run in lane]
    if bad:
        _pad_nonfinite(table, np.sort(np.concatenate(bad)))
    return table


class FuzzyLUT(Method):
    """Base class for all table-based methods.

    Subclasses populate ``self._table`` (and friends) in ``_build`` and
    implement the traced address generation (``core_eval``) and its array
    pass (``core_vec``).  Composites (tan's quotient, the DL-LUT) build
    their sub-tables instead, keep no combined copy, and override
    ``entries`` with the sum.
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
