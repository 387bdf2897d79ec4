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

The same pass returns the count of positive directions,
``n_pos = (iterations + sum(d)) / 2``.  The two arms charge equal slots
but different op names, so that count is what the cost-path keys record.

Circular and hyperbolic mode differ only in the sign of the x update.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["rotate", "vector"]

_F32 = np.float32


def _directions(z: np.ndarray, angles: Sequence[int],
                dsum: np.ndarray) -> Iterator[np.ndarray]:
    """Yield each iteration's rotation direction (``icmp(z, 0) >= 0`` is +1,
    else -1), then step the angle words ``z`` by ``d * t``.  The consumer
    reads ``d`` before asking for the next one: its buffer is reused."""
    z = np.array(z, dtype=np.int64)
    d = np.empty_like(z)
    for t in angles:
        np.sign(z, out=d)
        np.bitwise_or(d, 1, out=d)
        np.add(dsum, d, out=dsum)
        yield d
        np.multiply(d, t, out=d)
        np.subtract(z, d, out=z)


def _positive_count(iterations: int, dsum: np.ndarray) -> np.ndarray:
    return (dsum + iterations) >> 1


def rotate(x: np.ndarray, y: np.ndarray, z: np.ndarray,
           shifts: Iterable[int], angles: Sequence[int],
           hyperbolic: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation mode: drive the int64 angle words ``z`` to zero.

    ``shifts[k]`` is iteration k's ``i`` in ``ldexp(., -i)`` and
    ``angles[k]`` its angle word.  Returns ``(x, y, n_pos)``; the inputs
    are not modified.
    """
    x = np.array(x, dtype=_F32)
    y = np.array(y, dtype=_F32)
    s, xs, ys = (np.empty(x.shape, dtype=_F32) for _ in range(3))
    dsum = np.zeros(x.shape, dtype=np.int64)
    x_update = np.add if hyperbolic else np.subtract
    for i, d in zip(shifts, _directions(z, angles, dsum)):
        np.multiply(d, _F32(2.0 ** -i), out=s)
        np.multiply(y, s, out=ys)
        np.multiply(x, s, out=xs)
        x_update(x, ys, out=x)
        np.add(y, xs, out=y)
    return x, y, _positive_count(len(angles), dsum)


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
