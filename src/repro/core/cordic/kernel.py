"""One array kernel for every float CORDIC recurrence.

The traced kernels branch once per iteration between two arms, e.g. the
circular rotation::

    z >= 0:  x - ldexp(y, -i),  y + ldexp(x, -i),  z - t
    z <  0:  x + ldexp(y, -i),  y - ldexp(x, -i),  z + t

Over an array the branch becomes a direction ``d = +1/-1`` per lane and one
float32 step ``s = d * 2^-i`` per lane, so both arms are the single update
``x - y*s, y + x*s, z - d*t``.  This is bit-identical to the traced arms:
multiplying a float32 by a power of two is exact, or rounds a subnormal
result the way C99 ``ldexpf`` does, and ``x - y*(-2^-i)`` is
``x + ldexpf(y, -i)`` bit for bit with the operands in the same order, NaN
payloads included (``tests/core/test_ldexp.py`` pins both).  Every update
writes into preallocated buffers.

Rotation runs every ufunc of its loop on one dtype.  It steps the odd
words ``w = 2z + 1`` by ``2t``: ``w`` has the sign of ``z``, and is
positive where ``z`` is 0, so ``np.sign(w)`` is the traced direction
``icmp(z, 0) >= 0`` without a fix-up for zero.  The step is built from
the word's sign bit: the high half of the int64 word, masked to its sign
bit and or-ed with the bits of ``2^-i``, is the float32 ``+-2^-i``.  The
words are declared little-endian, so the high half is the odd int32 of
each pair on any host.

The same pass returns the count of positive directions,
``n_pos = (iterations + sum(d)) / 2``, when the caller wants keys.  The
two arms charge equal slots but different op names, so that count is what
the cost-path keys record.

Circular and hyperbolic mode differ only in the sign of the x update.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["rotate", "vector"]

_F32 = np.float32

#: Angle words, declared little-endian: the high int32 half is at odd
#: positions of an int32 view whatever the host's byte order.
_WORD = np.dtype("<i8")
_HALF = np.dtype("<i4")

#: The float32 sign bit as an int32 (0-d, so ufuncs take it as is).
_SIGN_BIT = np.array(-2**31, dtype=np.int32)


def _positive_count(iterations: int, dsum: np.ndarray) -> np.ndarray:
    return (dsum + iterations) >> 1


def rotate(x: np.ndarray, y: np.ndarray, z: np.ndarray,
           shifts: Iterable[int], angles: Sequence[int],
           hyperbolic: bool, keys: bool
           ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Rotation mode: drive the int64 angle words ``z`` to zero.

    ``shifts[k]`` is iteration k's ``i`` in ``ldexp(., -i)`` and
    ``angles[k]`` its angle word.  Returns ``(x, y, n_pos)``, with
    ``n_pos`` ``None`` unless ``keys``; the inputs are not modified.
    ``z`` must lie within +-2^62 (callers clip their words at +-2^53).
    """
    x = np.array(x, dtype=_F32)
    y = np.array(y, dtype=_F32)
    w = np.array(z, dtype=_WORD)
    w <<= 1
    w += 1
    high = w.view(_HALF)[..., 1::2]
    d = np.empty_like(w)
    step = np.empty(x.shape, dtype=np.int32)
    s = step.view(_F32)
    xs, ys = np.empty_like(x), np.empty_like(x)
    dsum = np.zeros(x.shape, dtype=np.int64) if keys else None
    x_update = np.add if hyperbolic else np.subtract
    # One-element operand rows per iteration: |2^-i| as float32 bits and
    # the doubled angle word.
    magnitudes = np.ldexp(1.0, -np.asarray(list(shifts), dtype=np.int64)
                          ).astype(_F32).view(np.int32)[:, None]
    strides = (np.asarray(angles, dtype=np.int64) << 1)[:, None]
    for magnitude, stride in zip(magnitudes, strides):
        np.sign(w, out=d)
        if keys:
            np.add(dsum, d, out=dsum)
        np.bitwise_and(high, _SIGN_BIT, out=step)
        np.bitwise_or(step, magnitude, out=step)
        np.multiply(y, s, out=ys)
        np.multiply(x, s, out=xs)
        x_update(x, ys, out=x)
        np.add(y, xs, out=y)
        np.multiply(d, stride, out=d)
        np.subtract(w, d, out=w)
    return x, y, (_positive_count(len(angles), dsum) if keys else None)


def vector(x: np.ndarray, y: np.ndarray, shifts: Iterable[int],
           angles: Sequence[int], hyperbolic: bool
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectoring mode: drive ``y`` to zero, accumulating the angle.

    The direction is the traced ``fcmp(y, 0) >= 0``, which sends NaN (and
    -0.0) down the positive arm: ``~(y < 0)``, not ``y >= 0``.  Returns
    ``(x, z, n_pos)`` with ``z`` the int64 angle word; the inputs are not
    modified.
    """
    x = np.array(x, dtype=_F32)
    y = np.array(y, dtype=_F32)
    s, xs, ys = (np.empty(x.shape, dtype=_F32) for _ in range(3))
    z, d, dsum = (np.zeros(x.shape, dtype=np.int64) for _ in range(3))
    neg = np.empty(x.shape, dtype=bool)
    x_update = np.subtract if hyperbolic else np.add
    for i, t in zip(shifts, angles):
        np.less(y, 0, out=neg)
        np.multiply(neg, -2, out=d)
        np.add(d, 1, out=d)
        np.add(dsum, d, out=dsum)
        np.multiply(d, _F32(2.0 ** -i), out=s)
        np.multiply(y, s, out=ys)
        np.multiply(x, s, out=xs)
        x_update(x, ys, out=x)
        np.subtract(y, xs, out=y)
        np.multiply(d, t, out=d)
        np.add(z, d, out=z)
    return x, z, _positive_count(len(angles), dsum)
