"""Request normalization: coalescing identity == plan-cache identity."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pim.host import PIMRuntime
from repro.pim.system import PIMSystem
from repro.plan.cache import key_for
from repro.plan.plan import LaunchConfig
from repro.plan.session import PlanSession
from repro.serve.keys import RequestSpec, normalize_request, spec_method
from repro.serve.server import Server


@pytest.fixture(scope="module")
def system():
    return PIMSystem()


@pytest.fixture
def server(system):
    return Server(PlanSession(PIMRuntime(system),
                              config=LaunchConfig(sample_size=16)))


def _key(server, spec):
    return server._lane_for(spec).key


#: One alternative value per RequestSpec field, against llut:sin defaults.
_SPEC_VARIANTS = {
    "function": "cos",
    "method": "llut_i",
    "params": (("density_log2", ("i", 9)),),
    "placement": "wram",
    "assume_in_range": True,
}


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
    def test_matches_plan_cache_key(self, server):
        """The lane key IS the key PlanCache.plan uses for the lane."""
        spec = normalize_request("sin", "llut_i")
        lane = server._lane_for(spec)
        assert lane.key == key_for(server.system, spec_method(spec),
                                   server.session.config)
        assert lane.key.config is server.session.config

    def test_key_hits_the_plan_cache(self, server):
        spec = normalize_request("sin", "llut_i")
        cache = server.session.plans
        lane = server._lane_for(spec)
        assert lane.key not in cache
        cache.plan(server.system, lane.method, server.session.config)
        assert lane.key in cache

    def test_qformat_knobs_split_keys(self, server):
        q1 = normalize_request("sin", "llut_fx", {"density_log2": 8})
        q2 = normalize_request("sin", "llut_fx", {"density_log2": 10})
        k1 = _key(server, q1)
        k2 = _key(server, q2)
        assert k1 != k2
        assert k1.table_key != k2.table_key

    def test_placement_splits_keys(self, server):
        mram = normalize_request("sin", "llut")
        wram = normalize_request("sin", "llut", placement="wram")
        k_m = _key(server, mram)
        k_w = _key(server, wram)
        assert k_m != k_w
        # Same table image though: the pool shares the build.
        assert k_m.table_key == k_w.table_key

    def test_assume_in_range_splits_keys(self, server):
        air = normalize_request("sin", "llut", assume_in_range=True)
        full = normalize_request("sin", "llut", assume_in_range=False)
        assert _key(server, air) != _key(server, full)

    @pytest.mark.parametrize("name", [f.name for f in fields(RequestSpec)])
    def test_spec_fields_split_lane_keys(self, server, name):
        """Two specs differing in any one field never share a lane."""
        base = normalize_request("sin", "llut")
        other = replace(base, **{name: _SPEC_VARIANTS[name]})
        assert other != base
        assert _key(server, other) != _key(server, base)
        assert server._lane_for(other) is not server._lane_for(base)

    def test_spec_method_validates_support(self):
        spec = RequestSpec(function="sin", method="dlut")
        with pytest.raises(Exception):
            spec_method(spec)  # D-LUT cannot serve periodic sin
