"""Tests for the metrics registry and its module-level helpers."""

from repro.obs.metrics import (
    MetricsRegistry,
    active_metrics,
    attach_metrics,
    collecting,
    detach_metrics,
    inc,
    observe,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.value("hits") == 5
        assert reg.value("never", default=-1) == -1

    def test_gauge_summary(self):
        reg = MetricsRegistry()
        g = reg.gauge("frac")
        for v in (0.5, 0.2, 0.9):
            g.observe(v)
        assert g.last == 0.9 and g.min == 0.2 and g.max == 0.9
        assert g.count == 3

    def test_to_dict_schema(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.gauge("a").observe(1.5)
        blob = reg.to_dict()
        assert blob["schema"] == "repro-metrics/1"
        assert list(blob["metrics"]) == ["a", "b"]  # sorted
        assert blob["metrics"]["b"] == {"type": "counter", "value": 2}
        assert blob["metrics"]["a"]["type"] == "gauge"

    def test_report_renders_both_kinds(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.gauge("g").observe(0.25)
        text = reg.report()
        assert "n" in text and "3" in text
        assert "last=0.25" in text


class TestHelpers:
    def test_noop_when_detached(self):
        detach_metrics()
        inc("anything")  # must not raise, must not create state
        observe("gauge", 1.0)
        assert active_metrics() is None

    def test_attach_receives(self):
        reg = MetricsRegistry()
        attach_metrics(reg)
        try:
            inc("c", 2)
            observe("g", 0.5)
        finally:
            detach_metrics()
        assert reg.value("c") == 2
        assert reg.gauge("g").last == 0.5

    def test_collecting_restores_previous(self):
        outer = MetricsRegistry()
        with collecting(outer):
            with collecting() as inner:
                inc("x")
            assert active_metrics() is outer
            inc("y")
        assert active_metrics() is None
        assert inner.value("x") == 1
        assert outer.value("y") == 1
        assert outer.value("x") == 0


class TestInstrumentationSites:
    def test_batch_engine_emits_path_attribution(self):
        import numpy as np

        from repro.api import make_method
        from repro.batch import batch_tally

        m = make_method("sin", "llut_i", density_log2=10).setup()
        xs = np.linspace(0.1, 6.0, 128).astype(np.float32)
        with collecting() as reg:
            res = batch_tally(m, xs)
        assert reg.value("batch.calls") == 1
        assert reg.value("batch.elements") == 128
        assert reg.value("batch.paths_traced") == len(res.paths)
        # The per-path products sum exactly to the aggregate slot count.
        slots = sum(reg.value(f"batch.path[{p.key}].slots")
                    for p in res.paths)
        counts = sum(reg.value(f"batch.path[{p.key}].count")
                     for p in res.paths)
        assert slots == res.tally.slots
        assert counts == res.n

    def test_sweep_plan_cache_metrics(self):
        from repro.analysis.sweep import default_inputs, sweep_method
        from repro.plan.cache import PlanCache

        inputs = default_inputs("sin", n=256)
        cache = PlanCache()
        with collecting() as reg:
            sweep_method("sin", "llut_i", "density_log2", (8,),
                         placement="mram", inputs=inputs, sample_size=8,
                         plan_cache=cache)
            sweep_method("sin", "llut_i", "density_log2", (8,),
                         placement="wram", inputs=inputs, sample_size=8,
                         plan_cache=cache)
        # Two distinct placements: two compiled plans, one shared table
        # image (the wram point retargets the mram build via the pool).
        assert reg.value("plancache.misses") == 2
        assert reg.value("plancache.table_misses") == 1
        assert reg.value("plancache.table_hits") == 1
        assert reg.value("plan.compiles") == 2
        assert reg.value("sweep.points") == 2

    def test_dpu_observes_dma_hiding(self):
        import numpy as np

        from repro.pim.dpu import DPU

        def kernel(ctx, x):
            return ctx.fadd(x, 1.0)

        with collecting() as reg:
            DPU().run_kernel(kernel, np.zeros(64, dtype=np.float32))
        assert reg.value("dpu.kernel_runs") == 1
        g = reg.gauge("dpu.dma_hidden_fraction")
        assert g.count == 1 and 0.0 <= g.last <= 1.0
