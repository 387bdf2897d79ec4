"""``kernel.rotate`` held lane by lane to the traced rotation arms.

The oracle harness (``tests/test_oracle.py``) reaches the kernel only
through a method's range reduction, so its angle words stay small and its
rotation vectors start finite.  These cases feed the kernel directly:
angle words at 0, +-1, +-2^52 and +-2^53, and x/y lanes that are NaN
(both signs, with payloads), +-inf, +-0 and subnormal, on both schedules,
with the direction count on and off.
"""

import numpy as np
import pytest

from repro.api import make_method
from repro.core.cordic import kernel
from repro.core.cordic.hyperbolic import ROTATION_BOUND
from repro.core.cordic.tables import (
    circular_angle_table,
    hyperbolic_angle_table,
    hyperbolic_schedule,
)
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32

#: Start vectors' components as raw bits: quiet NaNs of both signs with
#: and without payloads, +-inf, +-0, subnormals and ordinary values.
_LANE_BITS = np.array(
    [0x7FC00000, 0xFFC00000, 0x7FC0BEEF, 0xFFD00001, 0x7F800000,
     0xFF800000, 0x00000000, 0x80000000, 0x00000001, 0x807FFFFF,
     0x3F800000, 0xBF1B74EE, 0x7F7FFFFF], dtype=np.uint32)

_WORDS = [0, 1, -1, 2**52, -2**52, 2**53, -2**53, 123456789, -987654321]

_SCHEDULES = {
    "circular": (list(range(24)), circular_angle_table(24), False),
    "circular_tail": (list(range(6, 24)), circular_angle_table(24)[6:],
                      False),
    "hyperbolic": (hyperbolic_schedule(24),
                   hyperbolic_angle_table(hyperbolic_schedule(24)), True),
}


def _bits(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=_F32).view(np.uint32)


def _traced_rotate(x, y, z, shifts, angles, hyperbolic):
    """One lane through the traced arms (the methods' ``_rotate`` loop,
    from any start): ``(x, y, positive directions)``."""
    ctx = CycleCounter()
    n_pos = 0
    for i, t in zip(shifts, angles):
        xs = ctx.ldexp(x, -i)
        ys = ctx.ldexp(y, -i)
        if ctx.icmp(z, 0) >= 0:
            x = ctx.fadd(x, ys) if hyperbolic else ctx.fsub(x, ys)
            y = ctx.fadd(y, xs)
            z = ctx.isub(z, int(t))
            n_pos += 1
        else:
            x = ctx.fsub(x, ys) if hyperbolic else ctx.fadd(x, ys)
            y = ctx.fsub(y, xs)
            z = ctx.iadd(z, int(t))
    return x, y, n_pos


def _lanes():
    """Every (x, y, z) of the grid.  A lane whose x and y are NaNs with
    different bits is left out: every path into the kernel makes both
    components NaN from one source, and scalar numpy may pick either
    payload where the array loops keep the first operand's."""
    xs, ys, zs = [], [], []
    values = _LANE_BITS.view(_F32)
    for xb, x in zip(_LANE_BITS, values):
        for yb, y in zip(_LANE_BITS, values):
            if np.isnan(x) and np.isnan(y) and xb != yb:
                continue
            for z in _WORDS:
                xs.append(x)
                ys.append(y)
                zs.append(z)
    return (np.array(xs, dtype=_F32), np.array(ys, dtype=_F32),
            np.array(zs, dtype=np.int64))


@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
def test_rotate_matches_traced_arms(schedule):
    shifts, angles, hyperbolic = _SCHEDULES[schedule]
    x, y, z = _lanes()
    rx, ry, n_pos = kernel.rotate(x, y, z, shifts, angles, hyperbolic,
                                  keys=True)
    vx, vy, none = kernel.rotate(x, y, z, shifts, angles, hyperbolic,
                                 keys=False)
    assert none is None
    np.testing.assert_array_equal(_bits(vx), _bits(rx))
    np.testing.assert_array_equal(_bits(vy), _bits(ry))
    for k in range(z.size):
        tx, ty, tn = _traced_rotate(x[k], y[k], int(z[k]), shifts, angles,
                                    hyperbolic)
        lane = (schedule, hex(_bits(x[k]).item()), hex(_bits(y[k]).item()),
                int(z[k]))
        assert _bits(rx[k]) == _bits(tx), lane
        assert _bits(ry[k]) == _bits(ty), lane
        assert n_pos[k] == tn, lane


def test_rotate_leaves_inputs_untouched():
    shifts, angles, hyperbolic = _SCHEDULES["hyperbolic"]
    x, y, z = _lanes()
    before = (x.copy(), y.copy(), z.copy())
    kernel.rotate(x, y, z, shifts, angles, hyperbolic, keys=True)
    for a, b in zip((x, y, z), before):
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("in_range", [True, False],
                         ids=["natural", "full_domain"])
@pytest.mark.parametrize("method", ["cordic", "cordic_lut"])
@pytest.mark.parametrize("function", ["sinh", "cosh", "tanh"])
def test_lanes_straddling_the_rotation_bound(function, method, in_range):
    """One array whose lanes sit on both sides of ``ROTATION_BOUND``,
    so one rotation serves the small lanes' angles and the large lanes'
    exp-reduced ones side by side."""
    bound = _F32(ROTATION_BOUND)
    up, down = np.nextafter(bound, _F32(2)), np.nextafter(bound, _F32(0))
    xs = np.concatenate([
        np.array([bound, up, down, -bound, -up, -down, 0.5, 2.0, 9.5],
                 dtype=_F32),
        np.array([0x7FC00000, 0xFFC0BEEF, 0x7F800000, 0xFF800000],
                 dtype=np.uint32).view(_F32)])
    m = make_method(function, method, assume_in_range=in_range).setup()
    check_array_pass(m, xs, trace(m, xs), standard=False)
