"""Array-compiled plan bodies: fused value + cost-path evaluation.

The traced batch engine (:mod:`repro.batch.engine`) already collapses cost
aggregation to one scalar trace per distinct path, but a plan execution
still walks the input twice on the array side: once through
``Method.evaluate_vec`` for values and once through
``Method.classify_paths`` for path keys — and both walks repeat the
reducer's range reduction.  A :class:`VecEvaluator` compiles one
structure-of-arrays pass per ``(method, params)`` at plan-compile time:

* **one** range reduction feeds both the value kernel and the path key
  (``Method.classify_paths`` and ``Method.evaluate_vec`` each run their
  own otherwise);
* method families with heavy shared intermediates get *fused* core
  kernels — circular CORDIC computes the rotation values and the
  direction count in a single recurrence
  (:meth:`~repro.core.cordic.circular.CordicCircular._rotate_full_vec`),
  the L-LUT variants share the magic-add/bit-view address generation
  between lookup and clamp-zone classification;
* the ``(values, keys, unique)`` triple is memoized by input digest, so a
  table image launched again over the same sample (its WRAM and MRAM
  plans draw identical samples) pays the array passes once.

Everything here is bit-identical to the unfused paths by construction:
values replicate ``evaluate_vec`` expression for expression, keys
replicate ``classify_paths``, and the aggregation is *the same code* —
:func:`~repro.batch.engine.tally_from_keys`.  The differential harness in
``tests/batch/test_vec_differential.py`` asserts equality over the full
``METHOD_SUPPORT`` matrix, and that the evaluator abstains
(:meth:`VecEvaluator.run` returns ``None``) exactly where
``classify_paths`` does — so a launch that falls back goes straight to
the scalar loop (:meth:`~repro.pim.dpu.DPU.run_kernel`).

Evaluators ship with plans to worker pools, so this module is written
closure-free: dispatch is by a plain mode string over instance methods,
and pickling drops the memo (``__getstate__``) — workers rebuild their
own locality.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.batch.engine import BatchResult, tally_from_keys
from repro.batch.keys import (
    clamp_zone,
    ffloor_index_vec,
    fround_index_vec,
    pack_fields,
    raw_index_clip,
    wrap32_vec,
)
from repro.core.cordic import circular as _cordic
from repro.core.ldexp import ldexpf_vec
from repro.core.lut.dlut import DLUT, DLUTInterpolated
from repro.core.lut.llut import (
    LLUT,
    LLUTFixed,
    LLUTInterpolated,
    LLUTInterpolatedFixed,
)
from repro.core.lut.mlut import MLUT, MLUTInterpolated
from repro.isa.counter import Tally
from repro.obs import metrics as _metrics

__all__ = ["VecResult", "VecEvaluator", "array_digest", "compile_vec"]

_F32 = np.float32
_MASK22 = (1 << 22) - 1


def array_digest(xs: np.ndarray) -> bytes:
    """Content digest of an array's raw buffer: the one input hash.

    Every memo keyed by array content (the evaluator's fused passes, the
    plan's launch results, the sweep's accuracy pass) hashes through
    here.  sha256 rather than blake2b: it is typically hardware-accelerated
    (SHA CPU extensions), which makes it the faster of the two on large
    buffers.  The digest covers bytes only, so callers that accept several
    shapes add the shape to their key.
    """
    return hashlib.sha256(np.ascontiguousarray(xs)).digest()


@dataclass
class VecResult:
    """One fused array evaluation: values plus the exact traced aggregate."""

    values: np.ndarray       # evaluate_vec-identical outputs
    batch: BatchResult       # batch_tally-identical cost aggregate


#: Exact type -> fused core kernel (``VecEvaluator._core_<mode>``).
#: Exact-type on purpose: hybrids and composites may *subclass* or wrap
#: these families with different core semantics, and the generic
#: composition (``core_path_vec`` + ``core_eval_vec`` over one shared
#: reduction) is always correct for them.
_FUSED_MODES = {
    _cordic.CordicCircular: "cordic",
    LLUT: "llut",
    LLUTInterpolated: "llut_i",
    LLUTFixed: "llut_fx",
    LLUTInterpolatedFixed: "llut_i_fx",
    DLUT: "dlut",
    DLUTInterpolated: "dlut_i",
    MLUT: "mlut",
    MLUTInterpolated: "mlut_i",
}


class VecEvaluator:
    """A compiled structure-of-arrays evaluator for one built method.

    ``run`` returns values bit-identical to ``method.evaluate_vec`` and a
    :class:`~repro.batch.engine.BatchResult` bit-identical to
    :func:`~repro.batch.engine.batch_tally`, or ``None`` when the method
    abstains from path classification (callers fall back to the scalar
    loop).  The per-digest memo caches the placement-independent
    ``(values, keys, unique)`` triple; per-path tallies always go through
    the caller's ``tally_cache`` so placement-specific costs stay exact.
    """

    def __init__(self, method, memo_size: int = 8):
        self.method = method
        self.mode = _FUSED_MODES.get(type(method), "generic")
        self.memo_size = int(memo_size)
        self._memo: OrderedDict = OrderedDict()
        _metrics.inc("batch.vec.compiles")

    # ------------------------------------------------------------------
    # pool shipping: the memo is pure locality, never semantics — drop it
    # so pickled plans stay small and workers build their own.

    def __getstate__(self):
        return dict(vars(self), _memo=OrderedDict())

    # ------------------------------------------------------------------

    def run(self, xs: np.ndarray,
            tally_cache: Optional[Dict[int, Tally]] = None
            ) -> Optional[VecResult]:
        """Fused evaluation of ``xs``; ``None`` means fall back."""
        m = self.method
        m._require_ready()
        xs = np.asarray(xs, dtype=_F32).ravel()
        if xs.size == 0:
            return VecResult(
                values=np.empty(0, dtype=_F32),
                batch=BatchResult(n=0, tally=Tally(),
                                  slots=np.empty(0, dtype=np.int64),
                                  paths=[], batched=True))
        entry = self._entry(xs)
        if entry is None:
            # Memoized abstain: repeated unclassifiable batches skip the
            # array passes and go straight to the scalar loop.
            return None
        values, keys, unique = entry
        batch = tally_from_keys(m, xs, keys, tally_cache=tally_cache,
                                unique=unique)
        _metrics.inc("batch.vec.runs")
        return VecResult(values=values, batch=batch)

    def _entry(self, xs: np.ndarray) -> Optional[tuple]:
        """Digest-memoized (values, keys, unique); None means abstain."""
        digest = array_digest(xs)
        if digest in self._memo:
            entry = self._memo[digest]
            self._memo.move_to_end(digest)
            _metrics.inc("batch.vec.memo.hits")
        else:
            _metrics.inc("batch.vec.memo.misses")
            entry = self._compute(xs)
            self._memo[digest] = entry
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
        return entry

    def _compute(self, xs: np.ndarray) -> Optional[tuple]:
        """One full fused pass: (values, keys, unique) or None (abstain)."""
        m = self.method
        rkey = m.reducer.path_key_vec(xs)
        if rkey is None:
            return None
        # ONE range reduction for both sides — classify_paths and
        # evaluate_vec each run their own when called separately.
        u, state = m.reducer.reduce_vec(xs)
        core = self._core_fused(u)
        if core is None:
            return None
        yc, ckey = core
        values = m.reducer.reconstruct_vec(yc, state)
        keys = (np.asarray(rkey, dtype=np.int64) << m.CORE_KEY_BITS) | \
            np.asarray(ckey, dtype=np.int64)
        unique = np.unique(keys, return_index=True, return_inverse=True,
                           return_counts=True)
        values = np.asarray(values)
        values.flags.writeable = False   # memoized: guard cache integrity
        keys.flags.writeable = False
        return values, keys, unique

    # ------------------------------------------------------------------
    # fused core kernels (mode dispatch; no closures — plans pickle)

    def _core_fused(self, u: np.ndarray) -> Optional[Tuple[np.ndarray,
                                                           np.ndarray]]:
        """(core values, core path keys) for reduced inputs, or None."""
        return getattr(self, f"_core_{self.mode}")(u)

    def _core_generic(self, u: np.ndarray):
        """Composition fallback: correct for every method that classifies.

        Still saves one full range reduction over calling classify_paths
        and evaluate_vec separately; the core passes are unfused.
        """
        m = self.method
        ckey = m.core_path_vec(u)
        if ckey is None:
            return None
        return m.core_eval_vec(u), np.asarray(ckey, dtype=np.int64)

    def _core_cordic(self, u: np.ndarray):
        """Circular CORDIC: values and direction count in one recurrence.

        Value side replicates ``_split_quadrant_vec`` + ``_rotate_vec``
        exactly; key side replicates ``core_path_vec``.  They share the
        scaled conversion, and — the expensive part — the z recurrence:
        for every lane where the exact raw word and the wrapped key word
        agree (all finite lanes below the 2^35 abstain bound, since the
        32-bit wrap preserves bits 0..31 and quad/z only read bits 0..29),
        the direction count from the fused rotation IS the key count.
        Non-finite lanes (key word forced to 0, value word left to the
        cast like the scalar trace) get their count patched from the
        key-side z alone.
        """
        m = self.method
        frac = _cordic._FRAC
        two_over_pi = np.int64(_cordic._TWO_OVER_PI_RAW)
        mask = np.int64(_cordic._FRAC_MASK)
        u = np.asarray(u, dtype=_F32)
        scaled = u.astype(np.float64) * (1 << frac)
        finite = np.isfinite(scaled)
        a_f = np.where(finite, np.round(scaled), 0.0)
        if bool(np.any(np.abs(a_f) >= 2.0 ** 35)):
            return None   # scalar fx_mul would overflow: abstain like core_path_vec
        # Value side — _split_quadrant_vec expression for expression.
        a_v = np.round(scaled).astype(np.int64)
        q_v = (a_v * two_over_pi) >> np.int64(frac)
        quad_v = (q_v >> np.int64(frac)) & np.int64(3)
        z_v = q_v & mask
        c, s, n = m._rotate_full_vec(z_v)
        name = m.spec.name
        if name == "sin":
            choices = [s, c, (-s).astype(_F32), (-c).astype(_F32)]
            yc = np.select([quad_v == 0, quad_v == 1,
                            quad_v == 2, quad_v == 3], choices)
        elif name == "cos":
            choices = [c, (-s).astype(_F32), (-c).astype(_F32), s]
            yc = np.select([quad_v == 0, quad_v == 1,
                            quad_v == 2, quad_v == 3], choices)
        else:  # tan
            even = (s / c).astype(_F32)
            odd = ((-c).astype(_F32) / s).astype(_F32)
            yc = np.where(quad_v & 1 == 0, even, odd).astype(_F32)
        # Key side — core_path_vec expression for expression.
        a_k = a_f.astype(np.int64)
        q_k = wrap32_vec((a_k * two_over_pi) >> np.int64(frac))
        quad_k = (q_k >> np.int64(frac)) & np.int64(3)
        z_k = q_k & mask
        n_key = n
        if not bool(np.all(finite)):
            n_key = n.copy()
            bad = ~finite
            n_key[bad] = m._rotate_pos_vec(z_k[bad])
        if name == "tan":
            parity = (quad_k & 1).astype(np.int64)
        else:
            parity = np.zeros(u.shape, dtype=np.int64)
        return yc, pack_fields([(parity, 1), (n_key, 16)])

    def _core_llut(self, u: np.ndarray):
        """Non-interpolated float L-LUT: one address generation, shared."""
        m = self.method
        g = m.geom
        u = np.asarray(u, dtype=_F32)
        if g.magic_ok:
            t = (u + g.c).astype(_F32)
            bits0 = t.view(np.int32).astype(np.int64)   # signed view
            b_lo = bits0 < g.lo_bits
            b_hi = (~b_lo) & (bits0 >= g.hi_bits)
            idx = np.clip(bits0, g.lo_bits, g.hi_bits - 1) & _MASK22
            key = pack_fields([
                (b_lo, 1), (b_hi, 1),
                (clamp_zone(idx, m.entries - 1), 2),
            ])
            yc = m._table[np.clip(idx, 0, m.entries - 1)]
            return yc, key
        v = u if g.p == 0 else (u - _F32(g.p)).astype(_F32)
        w = ldexpf_vec(v, g.n)
        idx = np.floor(w.astype(np.float64) + 0.5).astype(np.int64)
        yc = m._table[np.clip(idx, 0, m.entries - 1)]
        return yc, clamp_zone(fround_index_vec(w), m.entries - 1)

    def _core_llut_i(self, u: np.ndarray):
        """Interpolated float L-LUT: address + weight shared end to end."""
        m = self.method
        g = m.geom
        u = np.asarray(u, dtype=_F32)
        if g.magic_ok:
            t = (u + g.c).astype(_F32)
            bits0 = t.view(np.int32).astype(np.int64)   # signed view
            b_lo = bits0 < g.lo_bits
            b_hi = (~b_lo) & (bits0 >= g.hi_bits)
            bits = np.clip(bits0, g.lo_bits, g.hi_bits - 1)
            t = bits.astype(np.uint32).view(_F32)
            uu = np.where(b_lo, _F32(g.p), u)
            idx = bits & _MASK22
            grid = (t - g.c).astype(_F32)
            d = (uu - grid).astype(_F32)
            delta = ldexpf_vec(d, g.n)
            neg = delta < 0            # fcmp(delta, 0) < 0: NaN is not-neg
            idx = idx - neg
            delta = np.where(neg, (delta + _F32(1.0)).astype(_F32), delta)
            gt1 = delta > _F32(1.0)    # fcmp(delta, 1) > 0: NaN is not-gt
            key = pack_fields([
                (b_lo, 1), (b_hi, 1), (neg, 1), (gt1, 1),
                (clamp_zone(idx, m.entries - 2), 2),
            ])
            delta = np.minimum(delta, _F32(1.0))
        else:
            v = u if g.p == 0 else (u - _F32(g.p)).astype(_F32)
            w = ldexpf_vec(v, g.n)
            idx = np.floor(w).astype(np.int64)
            delta = (w - idx.astype(_F32)).astype(_F32)
            key = clamp_zone(ffloor_index_vec(w), m.entries - 2)
        idx = np.clip(idx, 0, m.entries - 2)
        l0 = m._table[idx]
        l1 = m._table[idx + 1]
        yc = (l0 + ((l1 - l0).astype(_F32) * delta).astype(_F32)).astype(_F32)
        return yc, key

    def _core_dlut(self, u: np.ndarray):
        """Non-interpolated D-LUT: the bit pattern *is* the address.

        One bitcast + shift + subtract feeds both the table gather and
        the clamp-zone key — the generic composition runs that address
        generation twice (once in ``core_eval_vec``, once in
        ``core_path_vec``).
        """
        m = self.method
        g = m.geom
        u = np.asarray(u, dtype=_F32)
        bits = u.view(np.uint32).astype(np.int64)
        idx = (bits >> g.shift) - g.offset
        yc = m._table[np.clip(idx, 0, g.cells - 1)]
        return yc, clamp_zone(idx, g.cells - 1)

    def _core_dlut_i(self, u: np.ndarray):
        """Interpolated D-LUT: shared address and low-mantissa weight.

        The interpolation weight comes straight from the low mantissa
        bits of the one shared bitcast; the key is the clamp zone of the
        *unclipped* index, exactly as ``core_path_vec`` computes it.
        """
        m = self.method
        g = m.geom
        u = np.asarray(u, dtype=_F32)
        bits = u.view(np.uint32).astype(np.int64)
        idx = (bits >> g.shift) - g.offset
        low = (bits & ((1 << g.shift) - 1)).astype(_F32)
        delta = ldexpf_vec(low, -g.shift)
        key = clamp_zone(idx, g.cells)
        idx = np.clip(idx, 0, g.cells)
        l0 = m._table[idx]
        l1 = m._table[idx + 1]
        yc = (l0 + ((l1 - l0).astype(_F32) * delta).astype(_F32)).astype(_F32)
        return yc, key

    def _core_mlut(self, u: np.ndarray):
        """Non-interpolated M-LUT: one scaled address, shared both ways.

        The subtract + multiply that turns a reduced input into a table
        coordinate is the whole address generation — the generic
        composition runs it twice (once in ``core_eval_vec``, once in
        ``core_path_vec``).
        """
        m = self.method
        u = np.asarray(u, dtype=_F32)
        v = u if m.p == 0 else (u - m.p).astype(_F32)
        v = (v * m.k).astype(_F32)
        idx = np.floor(v.astype(np.float64) + 0.5).astype(np.int64)
        yc = m._table[np.clip(idx, 0, m.entries - 1)]
        return yc, clamp_zone(fround_index_vec(v), m.entries - 1)

    def _core_mlut_i(self, u: np.ndarray):
        """Interpolated M-LUT: shared scaled address and floor weight."""
        m = self.method
        u = np.asarray(u, dtype=_F32)
        v = u if m.p == 0 else (u - m.p).astype(_F32)
        v = (v * m.k).astype(_F32)
        idx = np.clip(np.floor(v).astype(np.int64), 0, m.entries - 2)
        delta = (v - idx.astype(_F32)).astype(_F32)
        l0 = m._table[idx]
        l1 = m._table[idx + 1]
        yc = (l0 + ((l1 - l0).astype(_F32) * delta).astype(_F32)).astype(_F32)
        return yc, clamp_zone(ffloor_index_vec(v), m.entries - 2)

    def _core_llut_fx(self, u: np.ndarray):
        """Fixed-point L-LUT: one exact scaled conversion feeds both sides."""
        m = self.method
        g = m.geom
        u = np.asarray(u, dtype=_F32)
        scaled = u.astype(np.float64) * g.fmt.scale
        rounded = np.round(scaled)
        # Value side: the raw cast exactly as core_eval_vec performs it.
        a_v = rounded.astype(np.int64)
        yc = (m.core_eval_raw_vec(a_v) / g.fmt.scale).astype(_F32)
        # Key side: f2fx_exact semantics (non-finite -> 0, huge flagged).
        a_f = np.where(np.isfinite(scaled), rounded, 0.0)
        a_k, huge_pos, huge_neg = raw_index_clip(a_f)
        r = a_k - g.p_raw
        if g.shift == 0:
            idx = r
        else:
            idx = (r >> g.shift) + ((r >> (g.shift - 1)) & 1)
        zone = clamp_zone(idx, m.entries - 1)
        zone = np.where(huge_neg, np.int64(1), zone)
        zone = np.where(huge_pos, np.int64(2), zone)
        return yc, zone

    def _core_llut_i_fx(self, u: np.ndarray):
        """Interpolated fixed-point L-LUT: shared conversion, fused zones."""
        m = self.method
        g = m.geom
        u = np.asarray(u, dtype=_F32)
        scaled = u.astype(np.float64) * g.fmt.scale
        rounded = np.round(scaled)
        a_v = rounded.astype(np.int64)
        yc = (m.core_eval_raw_vec(a_v) / g.fmt.scale).astype(_F32)
        a_f = np.where(np.isfinite(scaled), rounded, 0.0)
        a_k, huge_pos, huge_neg = raw_index_clip(a_f)
        idx = (a_k - g.p_raw) >> g.shift
        zone = clamp_zone(idx, m.entries - 2)
        zone = np.where(huge_neg, np.int64(1), zone)
        zone = np.where(huge_pos, np.int64(2), zone)
        return yc, zone


def compile_vec(method, memo_size: int = 8) -> VecEvaluator:
    """Compile a fused array evaluator for a built method."""
    return VecEvaluator(method, memo_size=memo_size)

