"""Request normalization: coalescing identity == plan-cache identity."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pim.system import PIMSystem
from repro.plan.cache import PlanCache, key_for
from repro.serve.keys import (RequestSpec, normalize_request, request_key,
                              spec_method)


@pytest.fixture(scope="module")
def system():
    return PIMSystem()


class TestNormalization:
    def test_param_order_is_canonical(self):
        c = normalize_request("sin", "slut_i",
                              {"seg_bits": 4, "max_density_log2": 20})
        d = normalize_request("sin", "slut_i",
                              {"max_density_log2": 20, "seg_bits": 4})
        assert c == d
        assert hash(c) == hash(d)

    def test_typed_params_do_not_collide(self):
        one = normalize_request("sin", "llut", {"k": 1})
        true = normalize_request("sin", "llut", {"k": True})
        text = normalize_request("sin", "llut", {"k": "1"})
        assert len({one, true, text}) == 3

    def test_numpy_scalars_collapse_to_python_values(self):
        a = normalize_request("sin", "llut", {"density_log2": np.int64(8)})
        b = normalize_request("sin", "llut", {"density_log2": 8})
        assert a == b

    def test_defaults_are_applied(self):
        assert normalize_request("sin", "llut") == normalize_request(
            "sin", "llut", {}, placement="mram", assume_in_range=False)

    def test_placement_validated(self):
        with pytest.raises(ConfigurationError):
            normalize_request("sin", "llut", placement="sram")

    def test_non_string_param_names_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_request("sin", "llut", {1: 2})

    def test_param_kwargs_round_trips(self):
        spec = normalize_request(
            "sin", "slut_i", {"seg_bits": 4, "max_density_log2": 20})
        assert spec.param_kwargs() == {"seg_bits": 4, "max_density_log2": 20}

    def test_label(self):
        assert normalize_request("sin", "llut").label == "llut:sin"


class TestRequestKey:
    def test_matches_plan_cache_key(self, system):
        """The serve key IS the key PlanCache.plan would use."""
        spec = normalize_request("sin", "llut_i")
        method = spec_method(spec)
        served = request_key(spec, system, method=method)
        cached = key_for(system, method)
        assert served == cached

    def test_key_hits_the_plan_cache(self, system):
        spec = normalize_request("sin", "llut_i")
        cache = PlanCache()
        method = spec_method(spec)
        key = request_key(spec, system, method=method)
        assert key not in cache
        cache.plan(system, method)
        assert key in cache

    def test_qformat_knobs_split_keys(self, system):
        q1 = normalize_request("sin", "llut_fx", {"density_log2": 8})
        q2 = normalize_request("sin", "llut_fx", {"density_log2": 10})
        k1 = request_key(q1, system)
        k2 = request_key(q2, system)
        assert k1 != k2
        assert k1.table_key != k2.table_key

    def test_placement_splits_keys(self, system):
        mram = normalize_request("sin", "llut")
        wram = normalize_request("sin", "llut", placement="wram")
        k_m = request_key(mram, system)
        k_w = request_key(wram, system)
        assert k_m != k_w
        # Same table image though: the pool shares the build.
        assert k_m.table_key == k_w.table_key

    def test_assume_in_range_splits_keys(self, system):
        air = normalize_request("sin", "llut", assume_in_range=True)
        full = normalize_request("sin", "llut", assume_in_range=False)
        assert request_key(air, system) != request_key(full, system)

    def test_spec_method_validates_support(self):
        spec = RequestSpec(function="sin", method="dlut")
        with pytest.raises(Exception):
            spec_method(spec)  # D-LUT cannot serve periodic sin
