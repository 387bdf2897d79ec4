"""Tests for PlanSession: a multi-kernel launch stream over one runtime."""

import numpy as np
import pytest

from repro.api import make_method
from repro.errors import ConfigurationError
from repro.obs.metrics import collecting
from repro.plan.dispatch import ShardedRunResult
from repro.plan.plan import LaunchConfig
from repro.plan.session import PlanSession

_F32 = np.float32


@pytest.fixture
def session():
    s = PlanSession(config=LaunchConfig(sample_size=16))
    s.install(make_method("sin", "llut_i", density_log2=8,
                          assume_in_range=False))
    s.install(make_method("exp", "mlut_i", size=1024,
                          assume_in_range=False))
    return s


@pytest.fixture
def xs(rng):
    return rng.uniform(-4, 4, 1000).astype(_F32)


class TestLaunchStream:
    def test_interleaved_functions(self, session, xs):
        assert sorted(session.functions) == ["llut_i:sin", "mlut_i:exp"]
        a = session.launch("llut_i:sin", xs)
        b = session.launch("mlut_i:exp", np.abs(xs))
        c = session.launch("llut_i:sin", xs)
        assert a.total_seconds > 0 and b.total_seconds > 0
        assert c.total_seconds == a.total_seconds  # warm, bit-identical
        assert len(session.launches) == 3

    def test_plans_warm_after_first_launch(self, session, xs):
        session.launch("llut_i:sin", xs)
        assert session.plans.misses == 1
        session.launch("llut_i:sin", xs)
        session.launch("llut_i:sin", xs[:100])
        assert session.plans.misses == 1
        assert session.plans.hits == 2

    def test_unknown_function_rejected(self, session, xs):
        with pytest.raises(ConfigurationError):
            session.launch("llut_i:cos", xs)

    def test_sharded_launch(self, session, xs):
        r = session.launch("llut_i:sin", xs, shards=4, overlap=True)
        assert isinstance(r, ShardedRunResult)
        assert r.n_shards == 4 and r.overlap
        assert session.launches[-1].shards == 4

    def test_total_simulated_seconds(self, session, xs):
        a = session.launch("llut_i:sin", xs)
        b = session.launch("mlut_i:exp", np.abs(xs))
        assert session.total_simulated_seconds == pytest.approx(
            a.total_seconds + b.total_seconds, rel=1e-15)


class TestReporting:
    def test_summary(self, session, xs):
        session.launch("llut_i:sin", xs)
        session.launch("llut_i:sin", xs)
        session.launch("mlut_i:exp", np.abs(xs))
        text = session.summary()
        assert "3 launches" in text
        assert "llut_i:sin" in text and "mlut_i:exp" in text
        assert "1/3 plan-cache hits" in text

    def test_metrics(self, session, xs):
        with collecting() as reg:
            session.launch("llut_i:sin", xs)
            session.launch("llut_i:sin", xs)
        assert reg.value("session.launches") == 2
        assert reg.value("session.elements") == 2 * len(xs)
        assert reg.value("plan.compiles") == 1
