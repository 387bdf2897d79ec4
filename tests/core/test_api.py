"""Tests for the high-level make_method API, including a full matrix sweep."""

import numpy as np
import pytest

from repro.api import ALL_METHOD_NAMES, make_method
from repro.core.accuracy import measure
from repro.core.cordic.circular import CordicCircular
from repro.core.cordic.hyperbolic import CordicHyperbolic
from repro.core.functions.registry import get_function
from repro.core.functions.support import METHOD_SUPPORT
from repro.core.hybrid import HybridCircular, HybridHyperbolic
from repro.core.lut.llut import LLUTInterpolated
from repro.errors import UnsupportedFunctionError
from tests.test_oracle import check_array_pass, trace

_F32 = np.float32

#: Precision parameters giving each method a fair mid-range configuration.
_MID_PARAMS = {
    "cordic": {"iterations": 24},
    "cordic_fx": {"iterations": 24},
    "poly": {"degree": 14},
    "slut_i": {"target_rmse": 1e-6, "seg_bits": 4},
    "cordic_lut": {"iterations": 24, "lut_bits": 6},
    "mlut": {"size": 1 << 16},
    "mlut_i": {"size": (1 << 12) + 1},
    "llut": {"density_log2": 14},
    "llut_i": {"density_log2": 12},
    "llut_fx": {"density_log2": 14},
    "llut_i_fx": {"density_log2": 12},
    "dlut": {"mant_bits": 10},
    "dlut_i": {"mant_bits": 8},
    "dllut": {"mant_bits": 10},
    "dllut_i": {"mant_bits": 8},
}

#: Accuracy expectations by variant kind (RMSE normalized by output scale).
_RMSE_BOUND = {False: 3e-3, True: 1e-4}  # non-interp looser than interp


class TestDispatch:
    def test_trig_cordic_class(self):
        assert isinstance(make_method("sin", "cordic"), CordicCircular)

    def test_hyperbolic_cordic_class(self):
        assert isinstance(make_method("exp", "cordic"), CordicHyperbolic)

    def test_hybrid_classes(self):
        assert isinstance(make_method("cos", "cordic_lut"), HybridCircular)
        assert isinstance(make_method("tanh", "cordic_lut"), HybridHyperbolic)

    def test_lut_class(self):
        assert isinstance(make_method("sin", "llut_i"), LLUTInterpolated)

    def test_unsupported_pair_raises(self):
        with pytest.raises(UnsupportedFunctionError):
            make_method("sin", "dlut")

    def test_all_method_names_constant(self):
        assert set(ALL_METHOD_NAMES) == set(METHOD_SUPPORT)


def _matrix_pairs():
    for method, funcs in METHOD_SUPPORT.items():
        for fn in sorted(funcs):
            yield method, fn


@pytest.mark.parametrize("method,function", list(_matrix_pairs()))
def test_every_supported_pair_works(method, function, rng):
    """Table 2, executed: every supported pair instantiates, sets up,
    evaluates over the bench domain, and achieves sane accuracy."""
    spec = get_function(function)
    lo, hi = spec.bench_domain
    xs = rng.uniform(lo, hi, 512).astype(_F32)
    m = make_method(function, method, assume_in_range=False,
                    **_MID_PARAMS[method]).setup()
    rep = measure(m.evaluate_vec, spec.reference, xs)
    # Normalize by the output magnitude so exp's huge values don't dominate.
    scale = max(1.0, float(np.max(np.abs(spec.reference(
        xs.astype(np.float64))))))
    bound = _RMSE_BOUND[getattr(m, "interpolated", False)
                        or method in ("cordic", "cordic_lut", "cordic_fx")]
    assert rep.rmse / scale < bound, (method, function, rep)

    # Traced scalar path agrees with the array pass bit-exactly.
    sample = xs[:16]
    check_array_pass(m, sample, trace(m, sample), standard=False)
