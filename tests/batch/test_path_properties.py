"""Property-based tests (hypothesis) for cost-path classification.

``Method.classify_paths`` is a pure, elementwise function of the input
array.  That single fact implies a family of structural invariants which
hypothesis can probe far more widely than the fixed differential matrix:

* **partition** — every element receives exactly one key, so path counts
  sum to the array length;
* **permutation stability** — shuffling the inputs permutes the keys the
  same way (classification has no cross-element state);
* **concatenation stability** — classifying ``a ++ b`` equals classifying
  ``a`` and ``b`` separately and concatenating;
* **scalar-oracle agreement** — the harness's checks
  (``tests/test_oracle.py``) over generated arrays: values bit for bit,
  equal key implies a bit-identical traced tally (the defining contract),
  and the launch evaluator's aggregate, probed on adversarial float32s
  including signed zeros, subnormals, and domain endpoints.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import make_method
from repro.batch import scalar_tally, tally_from_keys
from repro.batch.keys import f2fx_word_vec, ffloor_vec, fround_index
from repro.core.functions.registry import get_function
from repro.isa.counter import CycleCounter
from tests.test_oracle import check_array_pass, check_evaluator, trace

_F32 = np.float32

#: Representative classifiers: one per implementation family, full-domain
#: (reducer active) so the combined reducer+core key is exercised.
_CONFIGS = [
    ("sin", "llut_i", {"density_log2": 8}),
    ("tanh", "dlut_i", {"mant_bits": 6}),
    ("exp", "slut_i", {"target_rmse": 1e-5}),
    ("sin", "cordic", {"iterations": 16}),
    ("tanh", "cordic", {"iterations": 16}),
    ("atan", "cordic", {"iterations": 16}),
]

_METHODS = {}


def _method(function, name, params):
    key = (function, name)
    if key not in _METHODS:
        _METHODS[key] = make_method(
            function, name, assume_in_range=False, **params).setup()
    return _METHODS[key]


def _domain_floats(function):
    """float32s over the bench domain, plus the nastiest specials."""
    lo, hi = get_function(function).bench_domain
    # Snap the bounds to float32 (hypothesis requires exactly representable
    # endpoints for width=32 draws).
    lo, hi = float(_F32(lo)), float(_F32(hi))
    finite = st.floats(min_value=lo, max_value=hi,
                       width=32, allow_nan=False)
    specials = st.sampled_from(
        [0.0, -0.0, 1e-40, -1e-40, float(lo), float(hi),
         float(np.nextafter(_F32(hi), _F32(lo))),
         float(np.nextafter(_F32(lo), _F32(hi)))])
    return st.one_of(finite, specials)


def _arrays(function, min_size=1, max_size=48):
    return st.lists(_domain_floats(function), min_size=min_size,
                    max_size=max_size).map(
        lambda vals: np.array(vals, dtype=_F32))


@pytest.mark.parametrize("function,name,params", _CONFIGS,
                         ids=[f"{n}-{f}" for f, n, _ in _CONFIGS])
class TestClassificationStructure:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_partitions_every_input(self, function, name, params, data):
        m = _method(function, name, params)
        xs = data.draw(_arrays(function))
        keys = m.classify_paths(xs)
        assert keys is not None
        assert keys.shape == xs.shape
        paths = tally_from_keys(m, xs, keys).paths
        assert sum(p.count for p in paths) == xs.size
        assert len({p.key for p in paths}) == len(paths)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_stable_under_permutation(self, function, name, params, data):
        m = _method(function, name, params)
        xs = data.draw(_arrays(function, min_size=2))
        perm = data.draw(st.permutations(range(xs.size))).copy()
        keys = m.classify_paths(xs)
        np.testing.assert_array_equal(m.classify_paths(xs[perm]), keys[perm])
        # The aggregate tally is permutation-invariant too.
        a = tally_from_keys(m, xs, keys)
        b = tally_from_keys(m, xs[perm], keys[perm])
        assert a.tally == b.tally

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_stable_under_concatenation(self, function, name, params, data):
        m = _method(function, name, params)
        xs = data.draw(_arrays(function))
        ys = data.draw(_arrays(function))
        joint = m.classify_paths(np.concatenate([xs, ys]))
        np.testing.assert_array_equal(
            joint,
            np.concatenate([m.classify_paths(xs), m.classify_paths(ys)]))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_equal_key_implies_equal_scalar_tally(self, function, name,
                                                  params, data):
        """The harness's checks, on random adversarial float32s."""
        m = _method(function, name, params)
        xs = data.draw(_arrays(function, min_size=2, max_size=24))
        oracle = trace(m, xs)
        check_array_pass(m, xs, oracle, standard=False)
        check_evaluator(m, xs, oracle, standard=False)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(width=32, allow_nan=True, allow_infinity=True))
def test_single_element_batch_equals_element_tally(x):
    """A 1-element batch is exactly element_tally, for ANY float32."""
    m = _method("sin", "llut_i", {"density_log2": 8})
    xs = np.array([x], dtype=_F32)
    res = tally_from_keys(m, xs, m.classify_paths(xs))
    expected = m.element_tally(float(xs[0]))
    assert res.tally == expected
    assert res.slots[0] == expected.slots


@settings(max_examples=100, deadline=None)
@given(vals=st.lists(st.floats(width=32, allow_nan=True,
                               allow_infinity=True), min_size=1,
                     max_size=16))
@example(vals=[-0.5, -1.5, 0.49999997, 4095.5, 1e30, -3.4e38, float("nan")])
def test_index_helpers_match_traced_conversions(vals):
    """``fround_index``/``ffloor_vec``/``f2fx_word_vec`` are the traced
    ``fround`` + ``_clamp_index``, ``ffloor`` and ``f2fx`` (raw words
    clipped at +-2^53) on every float32, -0.5's "below" zone included."""
    xs = np.array(vals, dtype=_F32)
    ctx = CycleCounter()
    hi = 4095
    idx, zone = fround_index(xs, hi, keys=True)
    for x, i, z in zip(xs, idx, zone):
        r = ctx.fround(x)
        assert (i, z) == ((0, 1) if r < 0 else (hi, 2) if r > hi else (r, 0))
    assert list(ffloor_vec(xs)) == [ctx.ffloor(x) for x in xs]
    words = [min(max(ctx.f2fx(x, 28), -2**53), 2**53) for x in xs]
    assert list(f2fx_word_vec(xs, 28)) == words


class TestEmptyBatch:
    """Sharded dispatch can hand an engine zero elements; that is a valid
    boundary, not an error."""

    def test_scalar_tally_empty_input(self):
        m = make_method("sin", "llut_i", density_log2=8).setup()
        r = scalar_tally(m, np.empty(0, dtype=np.float32))
        assert r.n == 0
        assert r.tally.slots == 0
        assert r.slots.size == 0
