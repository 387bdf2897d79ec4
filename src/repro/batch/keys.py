"""Vectorized helpers shared by the per-method cost-path classifiers.

A classifier replicates the *control flow* of a traced scalar kernel over a
whole numpy array: it computes, for every element, which branches the scalar
trace would take, and packs those branch bits into one int64 key.  The value
computations are the same float32/integer semantics as the traced kernels,
so the helpers here mirror the :class:`~repro.isa.CycleCounter` conventions
exactly — including the awkward corners:

* ``ffloor``/``fround``/``f2fx`` map non-finite inputs to 0;
* a traced ``fcmp(a, b) >= 0`` is *not* ``a >= b`` on NaN: the three-way
  compare returns 0, so the scalar branch tests ``not (a < b)``;
* integer index arithmetic is done in float64 where the quantities are
  exact (any float32 scaled by a power of two), avoiding int64 overflow on
  extreme inputs.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

__all__ = [
    "pack_fields",
    "clamp_zone",
    "fround_index_vec",
    "ffloor_index_vec",
    "f2fx_exact_vec",
    "raw_index_clip",
]

_F32 = np.float32

#: Magnitude bound below which float64 holds the scaled integers exactly.
_EXACT_F64 = 2.0 ** 53


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


def fround_index_vec(v: np.ndarray) -> np.ndarray:
    """Twin of ``CycleCounter.fround`` kept in float64 (exact as an index).

    Rounds half away from zero; non-finite inputs map to 0.  The result is
    an integral float64, exact for any float32 input, so zone comparisons
    against table bounds never overflow.
    """
    v64 = np.asarray(v, dtype=_F32).astype(np.float64)
    out = np.where(v64 >= 0, np.floor(v64 + 0.5), np.ceil(v64 - 0.5))
    return np.where(np.isfinite(v64), out, 0.0)


def ffloor_index_vec(v: np.ndarray) -> np.ndarray:
    """Twin of ``CycleCounter.ffloor`` kept in float64 (exact as an index)."""
    v64 = np.asarray(v, dtype=_F32).astype(np.float64)
    return np.where(np.isfinite(v64), np.floor(v64), 0.0)


def f2fx_exact_vec(v: np.ndarray, frac_bits: int) -> np.ndarray:
    """Twin of ``CycleCounter.f2fx`` kept in float64.

    Scaling a float32 by ``2**frac_bits`` only shifts its exponent, so the
    float64 product — and therefore the rounded raw word — is exact for the
    whole float32 range (up to ~9e46 for s3.28, far below float64's 1e308).
    """
    scaled = np.asarray(v, dtype=_F32).astype(np.float64) * (1 << frac_bits)
    return np.where(np.isfinite(scaled), np.round(scaled), 0.0)


def raw_index_clip(a_f: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an exact float64 raw word into (int64 word, huge_pos, huge_neg).

    Words beyond +-2^53 cannot be cast to int64 exactly; they are clipped
    and flagged so callers can force the corresponding clamp zone (any such
    word is far outside every table this library builds).
    """
    huge_pos = a_f >= _EXACT_F64
    huge_neg = a_f <= -_EXACT_F64
    a_i = np.clip(a_f, -_EXACT_F64, _EXACT_F64).astype(np.int64)
    return a_i, huge_pos, huge_neg
