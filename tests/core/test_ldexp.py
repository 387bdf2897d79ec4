"""Bit-exactness tests for the software ldexp/frexp against C99 semantics."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ldexp import frexpf, frexpf_vec, ldexpf, ldexpf_vec


def _ref_ldexpf(x, n):
    """Reference: float64 ldexp rounded once to float32 (exact for ldexpf)."""
    return np.float32(math.ldexp(float(np.float32(x)), n))


class TestLdexpfSpecials:
    def test_zero_preserved(self):
        assert ldexpf(0.0, 100) == np.float32(0.0)

    def test_signed_zero_preserved(self):
        out = ldexpf(-0.0, 5)
        assert out == 0.0 and np.signbit(out)

    def test_infinity_preserved(self):
        assert ldexpf(np.float32(np.inf), -10) == np.float32(np.inf)

    def test_nan_preserved(self):
        assert np.isnan(ldexpf(np.float32(np.nan), 3))

    def test_overflow_to_infinity(self):
        assert ldexpf(1.0, 200) == np.float32(np.inf)
        assert ldexpf(-1.0, 200) == np.float32(-np.inf)

    def test_underflow_to_zero(self):
        out = ldexpf(1.0, -200)
        assert out == 0.0 and not np.signbit(out)

    def test_underflow_to_signed_zero(self):
        out = ldexpf(-1.0, -200)
        assert out == 0.0 and np.signbit(out)

    def test_gradual_underflow(self):
        # 1.0 * 2^-130 is subnormal but nonzero.
        out = ldexpf(1.0, -130)
        assert out == _ref_ldexpf(1.0, -130)
        assert out > 0

    def test_subnormal_input_scaled_up(self):
        tiny = np.float32(1e-41)
        assert ldexpf(tiny, 30) == _ref_ldexpf(tiny, 30)

    def test_round_to_nearest_even_on_underflow(self):
        # A value whose shifted-out remainder is exactly half: ties-to-even.
        x = np.float32(1.5)
        for n in (-149, -150, -151):
            assert ldexpf(x, n) == _ref_ldexpf(x, n), n


class TestLdexpfExhaustiveGrid:
    def test_grid(self):
        values = [1.0, -1.0, 1.9999999, 0.5, 3.1415927, 1e-38, 1.2e-40,
                  6.5e-42, 3.4e38, -7.7e-12]
        for x in values:
            for n in range(-170, 170, 7):
                assert ldexpf(x, n) == _ref_ldexpf(x, n), (x, n)

    @given(
        st.floats(width=32, allow_nan=False),
        st.integers(min_value=-300, max_value=300),
    )
    def test_property_matches_reference(self, x, n):
        got = ldexpf(x, n)
        ref = _ref_ldexpf(x, n)
        assert got == ref or (np.isnan(got) and np.isnan(ref))
        # Sign of zero results must match too.
        if got == 0:
            assert np.signbit(got) == np.signbit(ref)


class TestFrexpf:
    def test_one(self):
        m, e = frexpf(1.0)
        assert (m, e) == (np.float32(0.5), 1)

    def test_pi(self):
        m, e = frexpf(3.1415927)
        rm, re = math.frexp(float(np.float32(3.1415927)))
        assert float(m) == rm and e == re

    def test_zero(self):
        m, e = frexpf(0.0)
        assert m == 0.0 and e == 0

    def test_inf(self):
        m, e = frexpf(np.float32(np.inf))
        assert np.isinf(m) and e == 0

    def test_subnormal(self):
        x = np.float32(1e-41)
        m, e = frexpf(x)
        rm, re = math.frexp(float(x))
        assert float(m) == rm and e == re

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_property_reconstruction(self, x):
        m, e = frexpf(x)
        assert ldexpf(m, e) == np.float32(x)
        if x != 0:
            assert 0.5 <= abs(float(m)) < 1.0

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_property_matches_math(self, x):
        m, e = frexpf(x)
        rm, re = math.frexp(float(np.float32(x)))
        assert float(m) == rm and e == re


class TestVectorizedTwins:
    def test_ldexp_vec_matches_scalar(self, rng):
        xs = rng.uniform(-1e6, 1e6, 512).astype(np.float32)
        ns = rng.integers(-60, 60, 512)
        out = ldexpf_vec(xs, ns)
        for i in range(0, 512, 17):
            assert out[i] == ldexpf(xs[i], int(ns[i]))

    def test_frexp_vec_matches_scalar(self, rng):
        xs = rng.uniform(-1e6, 1e6, 512).astype(np.float32)
        ms, es = frexpf_vec(xs)
        for i in range(0, 512, 17):
            m, e = frexpf(xs[i])
            assert ms[i] == m and es[i] == e


#: float32 bit patterns weighted toward the corners: zero/subnormal and
#: inf/NaN exponent fields, and mantissas that make signalling NaNs,
#: quiet NaNs and the smallest/largest subnormals.
_F32_BITS = st.builds(
    lambda sign, exp, mant: (sign << 31) | (exp << 23) | mant,
    st.integers(0, 1),
    st.one_of(st.sampled_from([0, 1, 0xFF]), st.integers(0, 0xFF)),
    st.one_of(st.sampled_from([0, 1, 1 << 22, (1 << 23) - 1]),
              st.integers(0, (1 << 23) - 1)),
)


def _bits(x) -> int:
    return int(np.asarray(x, dtype=np.float32).reshape(-1).view(np.uint32)[0])


class TestPowerOfTwoStep:
    """The exactness step the CORDIC array kernel rests on
    (:mod:`repro.core.cordic.kernel`): an array update with the float32
    step ``d * 2^-i`` equals the two-armed update it replaces, which scales
    with ``ldexpf`` and then adds or subtracts, bit for bit — subnormal
    rounding, signed zeros and NaN payloads included.

    Both sides are array operations with the same operand order.  (numpy's
    *scalar* float32 add may return the second operand's payload when both
    operands are NaN; the kernel never meets that case, because a lane's x
    and y turn NaN together from one source and carry one payload.)
    """

    @given(_F32_BITS, _F32_BITS, st.integers(0, 64), st.sampled_from([1, -1]))
    def test_step_update_matches_ldexpf_arm(self, a_bits, b_bits, i, d):
        a = np.array([a_bits], dtype=np.uint32).view(np.float32)
        b = np.array([b_bits], dtype=np.uint32).view(np.float32)
        step = np.float32(d * 2.0 ** -i)
        scaled = np.array([ldexpf(b[0], -i)], dtype=np.float32)
        # x - y*s: the positive arm subtracts, the negative one adds.
        arm_sub = a - scaled if d == 1 else a + scaled
        assert _bits(a - b * step) == _bits(arm_sub)
        # x + y*s: the positive arm adds, the negative one subtracts.
        arm_add = a + scaled if d == 1 else a - scaled
        assert _bits(a + b * step) == _bits(arm_add)
