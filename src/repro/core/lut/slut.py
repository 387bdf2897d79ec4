"""Segmented L-LUT: curvature-adaptive spacing (extension beyond the paper).

Section 2.2.2 observes that a good table "places more entries where the
function's slope changes quickly" — spacing should follow the second
derivative — but the paper's uniform M/L-LUTs cannot exploit it, and its
D-LUT ties the spacing to the input's magnitude rather than to curvature.
This method closes the gap with a classic two-level design:

1. a *uniform* first level splits the interval into ``2^seg_bits`` segments
   (power-of-two width, so the segment index is one magic add + mask, like
   the L-LUT);
2. each segment carries its own power-of-two density, chosen by the host
   from the measured local curvature so every segment contributes the same
   error; the per-segment descriptor (value-table offset, entry count,
   magic constant, density) is one 16-byte record.

Per lookup the PIM core pays two magic adds, two bit extractions, one
descriptor load, and one value load — about 110 slots more than the flat
L-LUT — in exchange for a table sized by the *integral* of sqrt-curvature
instead of its maximum.  For curvature-concentrated functions (atanh near
its pole, GELU's kink region) this cuts memory severalfold at equal
accuracy; the ablation benchmark quantifies it.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.batch.keys import clamp_index, pack_fields
from repro.core.functions.registry import FunctionSpec
from repro.core.ldexp import ldexpf_vec
from repro.core.lut.base import FuzzyLUT
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

__all__ = ["SegmentedLLUT"]

_F32 = np.float32
_MASK22 = (1 << 22) - 1


def _magic_constant(p: float, density_log2: int) -> np.float32:
    """The L-LUT magic constant for origin ``p`` and density ``2^n``."""
    return _F32(1.5 * 2.0 ** (23 - density_log2) - p)


class SegmentedLLUT(FuzzyLUT):
    """Interpolated two-level L-LUT with per-segment curvature-set density."""

    method_name = "slut_i"
    interpolated = True

    def __init__(
        self,
        spec: FunctionSpec,
        target_rmse: float = 1e-7,
        seg_bits: int = 4,
        interval: Optional[Tuple[float, float]] = None,
        max_density_log2: int = 22,
        **kwargs,
    ):
        super().__init__(spec, **kwargs)
        if not 1 <= seg_bits <= 10:
            raise ConfigurationError("seg_bits must be in [1, 10]")
        if target_rmse <= 0:
            raise ConfigurationError("target_rmse must be positive")
        lo, hi = interval if interval is not None else spec.natural_range
        if not hi > lo:
            raise ConfigurationError("interval must be non-degenerate")
        self.lo, self.hi = float(lo), float(hi)
        self.seg_bits = seg_bits
        self.target_rmse = float(target_rmse)
        self.max_density_log2 = max_density_log2
        # Segment grid: power-of-two width covering [p, p + 2^seg_bits * w).
        width = (self.hi - self.lo) / (1 << seg_bits)
        self.seg_width_log2 = -int(math.floor(math.log2(width)))
        self.p = (math.floor(self.lo * 2.0 ** self.seg_width_log2)
                  / 2.0 ** self.seg_width_log2)
        self.n_segments = int(math.ceil(
            (self.hi - self.p) * 2.0 ** self.seg_width_log2)) + 1
        self._seg_magic = _magic_constant(self.p, self.seg_width_log2)
        # Per-segment descriptors, filled by _build.
        self._offsets = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._magics = np.empty(0, dtype=_F32)
        self._densities = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # host side

    def _segment_density(self, s_lo: float, s_hi: float) -> int:
        """Density needed so this segment's interpolation RMSE ~ target."""
        if s_hi <= s_lo:  # degenerate trailing guard segment
            return self.seg_width_log2
        xs = np.linspace(s_lo, s_hi, 64)
        h = (s_hi - s_lo) / 512
        f = self.spec.reference
        xs = np.clip(xs, self.lo + h, self.hi - h)
        f2 = (f(xs + h) - 2 * f(xs) + f(xs - h)) / (h * h)
        f2 = f2[np.isfinite(f2)]
        rms = float(np.sqrt(np.mean(np.square(f2)))) if f2.size else 1e-30
        # interp rmse ~ rms(f'') * cell^2 / sqrt(120)
        cell = (self.target_rmse * math.sqrt(120.0) / rms) ** 0.5
        n = int(math.ceil(-math.log2(max(cell, 1e-12))))
        return max(self.seg_width_log2, min(n, self.max_density_log2))

    def _build(self) -> None:
        seg_w = 2.0 ** -self.seg_width_log2
        tables = []
        offsets, counts, magics, densities = [], [], [], []
        offset = 0
        for k in range(self.n_segments):
            s_lo = self.p + k * seg_w
            s_hi = min(s_lo + seg_w, self.hi + seg_w)
            n_k = self._segment_density(s_lo, min(s_hi, self.hi))
            entries = (1 << (n_k - self.seg_width_log2)) + 2
            idx = np.arange(entries, dtype=np.float64)
            points = s_lo + idx * 2.0 ** -n_k
            with np.errstate(all="ignore"):  # guard points may leave the domain
                values = np.asarray(self.spec.reference(points),
                                    dtype=np.float64)
            # Entries past the interval normally extrapolate naturally, but
            # the function may be undefined there (atanh at 1): replace
            # non-finite values with the interval-end value.
            bad = ~np.isfinite(values)
            if np.any(bad):
                values[bad] = float(self.spec.reference(
                    np.asarray([self.hi]))[0])
            tables.append(values.astype(_F32))
            offsets.append(offset)
            counts.append(entries)
            magics.append(_magic_constant(s_lo, n_k))
            densities.append(n_k)
            offset += entries
        self._table = np.concatenate(tables)
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._counts = np.asarray(counts, dtype=np.int64)
        self._magics = np.asarray(magics, dtype=_F32)
        self._densities = np.asarray(densities, dtype=np.int64)

    def table_bytes(self) -> int:
        """Value table plus 16-byte per-segment descriptors."""
        return int(self._table.size) * 4 + self.n_segments * 16

    # ------------------------------------------------------------------
    # PIM side, traced

    def core_eval(self, ctx: CycleCounter, u):
        # First level: segment index, exactly like an L-LUT address.
        t = ctx.fadd(u, self._seg_magic)
        bits = ctx.bitcast_f2i(t)
        if bits & 0x80000000:  # lint: allow(signed view of the register, free)
            bits -= 1 << 32  # lint: allow(signed view of the bit pattern, free on hardware)
        seg = ctx.iand(bits, _MASK22)
        # The magic add rounds to nearest; segment selection needs floor.
        grid1 = ctx.fsub(t, self._seg_magic)
        if ctx.fcmp(u, grid1) < 0:
            ctx.branch()
            seg = ctx.isub(seg, 1)
        seg = self._clamp_index(ctx, seg, self.n_segments - 1)
        # Descriptor load (one 16-byte WRAM/MRAM access).
        if self.placement == "wram":
            ctx.wram_read(self._offsets, seg)
        else:
            ctx.mram_read(self._offsets, seg, 16)
        offset = int(self._offsets[seg])
        count = int(self._counts[seg])
        magic = self._magics[seg]
        n_k = int(self._densities[seg])
        # Second level: local index within the segment.
        t2 = ctx.fadd(u, magic)
        bits2 = ctx.bitcast_f2i(t2)
        idx = ctx.iand(bits2, _MASK22)
        grid = ctx.fsub(t2, magic)
        d = ctx.fsub(u, grid)
        delta = ctx.ldexp(d, n_k)
        if ctx.fcmp(delta, _F32(0.0)) < 0:
            ctx.branch()
            idx = ctx.isub(idx, 1)
            delta = ctx.fadd(delta, _F32(1.0))
        idx = self._clamp_index(ctx, idx, count - 2)  # lint: allow(descriptor stores count-2)
        base = ctx.iadd(offset, idx)
        l0 = self._load(ctx, self._table, base)
        l1 = self._load(ctx, self._table, ctx.iadd(base, 1))
        diff = ctx.fsub(l1, l0)
        prod = ctx.fmul(diff, delta)
        return ctx.fadd(l0, prod)

    # ------------------------------------------------------------------
    # array pass

    def core_vec(self, u, keys):
        u = np.asarray(u, dtype=_F32)
        t = u + self._seg_magic
        seg = t.view(np.int32).astype(np.int64) & _MASK22
        seg_fix = u < (t - self._seg_magic)   # fcmp < 0: NaN takes no fix
        seg, seg_zone = clamp_index(seg - seg_fix, self.n_segments - 1, keys)
        count = self._counts[seg]
        magic = self._magics[seg]

        t2 = u + magic
        idx = t2.view(np.int32).astype(np.int64) & _MASK22
        delta = ldexpf_vec(u - (t2 - magic),
                           self._densities[seg].astype(np.int32))
        neg = delta < 0
        idx = idx - neg
        delta = np.where(neg, delta + _F32(1.0), delta)
        idx, idx_zone = clamp_index(idx, count - 2, keys)
        # The second level's op sequence is segment-independent, so only
        # the branch bits and clamp zones key the path, not the segment.
        key = pack_fields([(seg_fix, 1), (seg_zone, 2), (neg, 1),
                           (idx_zone, 2)]) if keys else None
        return self._interpolate_vec(self._offsets[seg] + idx, delta), key
