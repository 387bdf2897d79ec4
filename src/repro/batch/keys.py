"""Vectorized helpers shared by the methods' array passes.

An array pass replicates a traced scalar kernel over a whole numpy array:
its float32 values and, when asked, which branches the scalar trace takes
for every element, packed into one int64 cost-path key.  The helpers here
mirror the :class:`~repro.isa.CycleCounter` conventions exactly —
including the awkward corners:

* ``ffloor``/``fround``/``f2fx`` map non-finite inputs to 0;
* a traced ``fcmp(a, b) >= 0`` is *not* ``a >= b`` on NaN: the three-way
  compare returns 0, so the scalar branch tests ``not (a < b)``;
* table indices stay in float64 (exact for any float32 scaled by a power
  of two) until they are clamped into the table, so no float-to-int cast
  ever sees NaN, an infinity or a value beyond int64.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "pack_fields",
    "clamp_zone",
    "clamp_index",
    "finite_vec",
    "fround_index",
    "ffloor_vec",
    "f2fx_word_vec",
]

_F32 = np.float32

#: Raw-word clip bound; see :func:`f2fx_word_vec`.
_WORD_BOUND = 2.0 ** 53


def pack_fields(fields: Sequence[Tuple[Union[np.ndarray, int], int]]) -> np.ndarray:
    """Pack (value, width_bits) fields into one int64 key, first field
    highest.  Values must be non-negative and fit their declared width."""
    key = None
    for value, width in fields:
        v = np.asarray(value).astype(np.int64)
        key = v if key is None else (key << np.int64(width)) | v
    assert key is not None
    return key


def clamp_zone(idx: np.ndarray, hi: Union[int, np.ndarray]) -> np.ndarray:
    """Cost zone of ``FuzzyLUT._clamp_index``: 0 in-range, 1 below, 2 above.

    The three zones charge different tallies (below: one compare + branch;
    in-range: two compares; above: two compares + branch).
    """
    idx = np.asarray(idx)
    return np.where(idx < 0, 1, np.where(idx > hi, 2, 0)).astype(np.int64)


def clamp_index(idx: np.ndarray, hi: Union[int, np.ndarray], keys: bool
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``FuzzyLUT._clamp_index`` over an array of integral indices.

    ``idx`` is int64, or exact float64 from :func:`ffloor_vec`; it is
    clipped in place, so pass a temporary.  Returns the int64 index
    clipped into ``[0, hi]`` and, when ``keys``, the :func:`clamp_zone` of
    the unclipped one.
    """
    zone = clamp_zone(idx, hi) if keys else None
    np.clip(idx, 0, hi, out=idx)
    return idx.astype(np.int64, copy=False), zone


def finite_vec(v: np.ndarray) -> np.ndarray:
    """``v`` as float32 with non-finite lanes zeroed, the traced
    conversions' rule; ``v`` itself when every lane is finite."""
    v = np.asarray(v, dtype=_F32)
    finite = np.isfinite(v)
    return v if finite.all() else np.where(finite, v, _F32(0.0))


def fround_index(v: np.ndarray, hi: Union[int, np.ndarray], keys: bool
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The traced ``_clamp_index(fround(v), hi)`` over an array.

    ``fround`` rounds half away from zero and maps non-finite inputs to 0.
    Every negative index clamps to 0, so the index is taken as
    ``floor(v + 0.5)``, exact for ``v >= 0``; the zone marks "below" where
    ``fround(v) < 0``, i.e. where ``v + 0.5 <= 0``.
    """
    w = finite_vec(v).astype(np.float64)
    w += 0.5
    below = w <= 0 if keys else None
    np.floor(w, out=w)
    idx, zone = clamp_index(w, hi, keys)
    if keys:
        zone[below] = 1
    return idx, zone


def ffloor_vec(v: np.ndarray) -> np.ndarray:
    """``CycleCounter.ffloor`` as exact float64 (non-finite inputs to 0)."""
    w = finite_vec(v).astype(np.float64)
    return np.floor(w, out=w)


def f2fx_word_vec(v: np.ndarray, frac_bits: int) -> np.ndarray:
    """``CycleCounter.f2fx`` as int64 raw words (non-finite inputs to 0).

    Scaling a float32 by ``2**frac_bits`` only shifts its exponent, so the
    float64 word is exact.  Words are clipped at +-2^53 for the int64
    cast: a float32 word that large is a multiple of 2^30, and so is the
    bound, so the clip keeps every table clamp zone, every hyperbolic
    rotation direction and the low 30 bits that residual angles and
    interpolation weights read.  (The circular quadrant split reads
    higher bits, but the traced ``fx_mul`` overflows long before 2^53.)
    """
    w = finite_vec(v).astype(np.float64)
    w *= float(1 << frac_bits)
    np.rint(w, out=w)   # np.round's half-to-even, as the traced f2fx
    np.clip(w, -_WORD_BOUND, _WORD_BOUND, out=w)
    return w.astype(np.int64)
