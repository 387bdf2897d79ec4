"""Tests for PlanSession: a multi-kernel launch stream over one runtime."""

import numpy as np
import pytest

from repro.api import make_method
from repro.errors import ConfigurationError
from repro.obs.metrics import collecting
from repro.plan import session as session_mod
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

    def test_runtime_runs_on_the_session_plans(self, xs):
        """One plan cache per runtime: a session launch and the runtime's
        own ``run`` share the plan and its table image."""
        s = PlanSession()
        s.install(make_method("sin", "llut_i", density_log2=8,
                              assume_in_range=False))
        launched = s.launch("llut_i:sin", xs)
        misses = s.plans.misses
        with collecting() as reg:
            ran = s.runtime["llut_i:sin"].run(xs)
        assert reg.value("plan.compiles") == 0
        assert s.runtime.plan_cache.misses == s.plans.misses == misses
        assert ran.total_seconds == launched.total_seconds
        assert ran.kernel_seconds == launched.kernel_seconds

    def test_unknown_function_rejected(self, session, xs):
        with pytest.raises(ConfigurationError):
            session.launch("llut_i:cos", xs)

    def test_sharded_launch(self, session, xs):
        r = session.launch("llut_i:sin", xs, shards=4, overlap=True)
        assert isinstance(r, ShardedRunResult)
        assert r.n_shards == 4 and r.overlap
        assert session.launches[-1].shards == 4

    @pytest.mark.parametrize("shards", [1, 2])
    def test_stream_launches_as_lone_launches(self, session, xs, shards):
        requests = [("llut_i:sin", xs), ("mlut_i:exp", np.abs(xs))]
        stream = session.launch_stream(requests, shards=shards)
        lone = [session.launch(name, inputs, shards=shards)
                for name, inputs in requests]
        assert [r.total_seconds for r in stream.results] == \
            [r.total_seconds for r in lone]
        assert [r.function for r in stream.records] == \
            ["llut_i:sin", "mlut_i:exp"]
        assert stream.pipelined_seconds <= stream.serial_seconds

    def test_total_simulated_seconds(self, session, xs):
        a = session.launch("llut_i:sin", xs)
        b = session.launch("mlut_i:exp", np.abs(xs))
        assert session.total_simulated_seconds == pytest.approx(
            a.total_seconds + b.total_seconds, rel=1e-15)

    def test_history_is_bounded_and_totals_exact(self, monkeypatch, xs):
        monkeypatch.setattr(session_mod, "_HISTORY", 4)
        s = PlanSession(config=LaunchConfig(sample_size=16))
        s.install(make_method("sin", "llut_i", density_log2=8,
                              assume_in_range=False))
        results = [s.launch("llut_i:sin", xs[:100 + 10 * i])
                   for i in range(10)]
        assert len(s.launches) == 4
        assert [r.n_elements for r in s.launches] == \
            [r.n_elements for r in results[-4:]]
        assert s.launches[-1].n_elements == results[-1].n_elements
        total = 0.0
        for r in results:
            total += r.total_seconds
        assert s.total_simulated_seconds == total
        assert "10 launches" in s.summary()


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
