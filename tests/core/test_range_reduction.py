"""Tests for range reduction/extension (Section 2.2.3, Figure 8)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import make_method
from repro.core.functions.registry import FUNCTIONS, get_function
from repro.core.functions.support import supported_methods
from repro.core.range_reduction import (
    ExpSplitReducer,
    IdentityReducer,
    LogSplitReducer,
    OddSymmetricReducer,
    PeriodicReducer,
    SqrtSplitReducer,
    make_reducer,
)
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32


def _trace(reducer, x):
    ctx = CycleCounter()
    u, state = reducer.reduce(ctx, _F32(x))
    return u, state, ctx


class TestIdentity:
    def test_passthrough(self, ctx):
        r = IdentityReducer()
        u, state = r.reduce(ctx, _F32(1.5))
        assert u == _F32(1.5)
        assert r.reconstruct(ctx, u, state) == _F32(1.5)
        assert ctx.slots == 0


class TestPeriodic:
    def test_folds_into_period(self):
        r = PeriodicReducer(2 * math.pi)
        for x in [-100.0, -1.0, 0.0, 3.0, 7.0, 1000.0]:
            u, _, _ = _trace(r, x)
            assert 0.0 <= float(u) < 2 * math.pi

    def test_preserves_value_mod_period(self):
        r = PeriodicReducer(2 * math.pi)
        u, _, _ = _trace(r, 10.0)
        assert math.sin(float(u)) == pytest.approx(math.sin(10.0), abs=1e-5)

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            PeriodicReducer(0.0)

    def test_charges_two_multiplies(self):
        r = PeriodicReducer(2 * math.pi)
        _, _, ctx = _trace(r, 100.0)
        assert ctx.tally.count("fmul") == 2

    @given(st.floats(min_value=-1e4, max_value=1e4))
    def test_vec_matches_scalar(self, x):
        r = PeriodicReducer(2 * math.pi)
        u, _, _ = _trace(r, x)
        uv, _, _ = r.reduce_vec(np.array([x], dtype=_F32))
        assert uv[0] == u


class TestExpSplit:
    def test_residual_range(self):
        r = ExpSplitReducer()
        for x in [-20.0, -1.0, 0.0, 0.5, 3.0, 20.0]:
            f, k, _ = _trace(r, x)
            assert 0.0 <= float(f) < math.log(2) + 1e-6

    def test_identity_reconstruction(self):
        r = ExpSplitReducer()
        ctx = CycleCounter()
        for x in [-5.0, -0.3, 0.0, 1.0, 9.9]:
            f, k = r.reduce(ctx, _F32(x))
            rebuilt = r.reconstruct(ctx, _F32(math.exp(float(f))), k)
            assert float(rebuilt) == pytest.approx(math.exp(x), rel=1e-5)

    @given(st.floats(min_value=-50, max_value=50))
    def test_vec_matches_scalar(self, x):
        r = ExpSplitReducer()
        f, k, _ = _trace(r, x)
        fv, kv, _ = r.reduce_vec(np.array([x], dtype=_F32))
        assert fv[0] == f and kv[0] == k


#: Inputs whose exp split floors past int32 (|x| >~ 1.49e9), saturates,
#: or is non-finite, plus the signed zeros.
_EXP_EXTREMES = np.array([1.5e9, -1.5e9, 3e9, -3e9, 1e30, -1e30, 88.7, 89.0,
                          -103.9, -104.0, 0.0, -0.0, np.inf, -np.inf, np.nan],
                         dtype=_F32)


@pytest.mark.parametrize("method", sorted(supported_methods("exp")))
def test_exp_array_path_matches_scalar_on_extremes(method):
    """Every exp method's array path equals the traced oracle bit for bit
    with range extension on: huge, saturating and non-finite inputs come
    back as the scalar split gives them, not wrapped through int32."""
    m = make_method("exp", method, assume_in_range=False).setup()
    rng = np.random.default_rng(15)
    xs = np.concatenate([_EXP_EXTREMES,
                         rng.uniform(-120.0, 120.0, 48).astype(_F32)])
    check_array_pass(m, xs, trace(m, xs), standard=False)


class TestLogSplit:
    def test_mantissa_range(self):
        r = LogSplitReducer()
        for x in [1e-6, 0.1, 1.0, 7.0, 1e6]:
            m, e, _ = _trace(r, x)
            assert 1.0 <= float(m) < 2.0

    def test_identity_reconstruction(self):
        r = LogSplitReducer()
        ctx = CycleCounter()
        for x in [0.01, 0.9, 1.0, 123.0]:
            m, e = r.reduce(ctx, _F32(x))
            rebuilt = r.reconstruct(ctx, _F32(math.log(float(m))), e)
            assert float(rebuilt) == pytest.approx(math.log(x), abs=1e-5)


class TestSqrtSplit:
    def test_mantissa_range(self):
        r = SqrtSplitReducer()
        for x in [1e-6, 0.3, 1.0, 2.0, 1e6]:
            m, e, _ = _trace(r, x)
            assert 0.5 <= float(m) < 2.0

    def test_identity_reconstruction(self):
        r = SqrtSplitReducer()
        ctx = CycleCounter()
        for x in [0.01, 0.9, 1.0, 123.0, 3e5]:
            m, e = r.reduce(ctx, _F32(x))
            rebuilt = r.reconstruct(ctx, _F32(math.sqrt(float(m))), e)
            assert float(rebuilt) == pytest.approx(math.sqrt(x), rel=1e-6)

    def test_no_float_arithmetic(self):
        # The paper's cheapest reduction: frexp + integer ops only.
        r = SqrtSplitReducer()
        _, _, ctx = _trace(r, 42.0)
        assert ctx.tally.count("fmul") == 0
        assert ctx.tally.count("fadd") == 0
        assert ctx.tally.count("fdiv") == 0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_vec_matches_scalar(self, x):
        r = SqrtSplitReducer()
        m, e, _ = _trace(r, x)
        mv, ev, _ = r.reduce_vec(np.array([x], dtype=_F32))
        assert mv[0] == m and ev[0] == e


class TestOddSymmetric:
    @pytest.mark.parametrize("kind,fn,expected", [
        ("odd", math.tanh, lambda y, x: -y),
        ("even", math.cosh, lambda y, x: y),
        ("complement", None, lambda y, x: 1.0 - y),
    ])
    def test_reconstruction_kinds(self, kind, fn, expected):
        r = OddSymmetricReducer(kind)
        ctx = CycleCounter()
        u, state = r.reduce(ctx, _F32(-2.0))
        assert u == _F32(2.0)
        out = r.reconstruct(ctx, _F32(0.75), state)
        assert float(out) == pytest.approx(expected(0.75, -2.0), abs=1e-6)

    def test_gelu_identity(self):
        # gelu(-x) = gelu(x) - x must hold through the reducer.
        from scipy.special import erf
        def gelu(v):
            return v * 0.5 * (1 + erf(v / math.sqrt(2)))

        r = OddSymmetricReducer("gelu")
        ctx = CycleCounter()
        x = -1.25
        u, state = r.reduce(ctx, _F32(x))
        out = r.reconstruct(ctx, _F32(gelu(float(u))), state)
        assert float(out) == pytest.approx(gelu(x), abs=1e-6)

    def test_positive_passthrough(self):
        r = OddSymmetricReducer("odd")
        ctx = CycleCounter()
        u, state = r.reduce(ctx, _F32(2.0))
        assert r.reconstruct(ctx, _F32(0.9), state) == _F32(0.9)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            OddSymmetricReducer("weird")

    def test_vec_matches_scalar(self, rng):
        r = OddSymmetricReducer("complement")
        xs = rng.uniform(-4, 4, 64).astype(_F32)
        ys = rng.uniform(0, 1, 64).astype(_F32)
        uv, sv, _ = r.reduce_vec(xs)
        outv = r.reconstruct_vec(ys, sv)
        ctx = CycleCounter()
        for i in range(64):
            u, s = r.reduce(ctx, xs[i])
            assert uv[i] == u
            assert outv[i] == r.reconstruct(ctx, ys[i], s)


class TestFactory:
    def test_assume_in_range_gives_identity(self):
        spec = get_function("sin")
        assert isinstance(make_reducer(spec, assume_in_range=True), IdentityReducer)

    def test_every_function_has_a_reducer(self):
        for spec in FUNCTIONS.values():
            r = make_reducer(spec, assume_in_range=False)
            assert r is not None

    @pytest.mark.parametrize("name,cls", [
        ("sin", PeriodicReducer),
        ("exp", ExpSplitReducer),
        ("log", LogSplitReducer),
        ("sqrt", SqrtSplitReducer),
        ("tanh", OddSymmetricReducer),
    ])
    def test_mapping(self, name, cls):
        assert isinstance(make_reducer(get_function(name)), cls)


class TestFig8CostOrdering:
    def test_sqrt_is_cheapest_trig_most_expensive(self):
        # The qualitative content of Figure 8.
        costs = {}
        for name in ("sin", "exp", "log", "sqrt"):
            r = make_reducer(get_function(name))
            ctx = CycleCounter()
            u, state = r.reduce(ctx, _F32(9.7))
            r.reconstruct(ctx, u, state)
            costs[name] = ctx.slots
        assert costs["sqrt"] < costs["log"] < costs["exp"]
        assert costs["sqrt"] < costs["sin"]
