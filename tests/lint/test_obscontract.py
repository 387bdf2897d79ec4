"""Obs-contract pass: span/metric discipline defects are caught exactly."""

import textwrap

from repro.lint import check_obs_contract_source, run_obs_contract
from repro.obs.catalog import (
    COUNTER_PATTERNS,
    COUNTERS,
    GAUGES,
    metric_kind,
    pattern_kind,
)

# One planted defect per rule, plus compliant sites that must pass.
DEFECTS = textwrap.dedent("""
    def bad_span(tracer):
        sp = tracer.span("leaky")            # span-unclosed
        sp.set(x=1)


    def good_span(tracer):
        with tracer.span("tight") as sp:     # ok: with-item
            sp.set(x=1)


    def bad_metrics(metrics, key):
        metrics.inc("no.such.counter")               # undeclared-metric
        metrics.observe("plan.compiles", 1.0)        # metric-kind-mismatch
        metrics.inc(f"rogue.{key}.count")            # dynamic-metric-name
        metrics.inc("batch." + key)                  # dynamic-metric-name
        metrics.inc(f"batch.path[{key}].count")      # ok: declared family
        metrics.inc("plan.executions")               # ok: declared counter
        metrics.observe("serve.coalesce_ratio", 2.0)  # ok: declared gauge


    def suppressed(metrics):
        metrics.inc("adhoc.dev.counter")  # lint: allow(scratch, test only)
""")


def _line_of(snippet: str) -> int:
    for i, line in enumerate(DEFECTS.splitlines(), start=1):
        if snippet in line:
            return i
    raise AssertionError(f"snippet {snippet!r} not found")


def _violations():
    violations, used, stats = check_obs_contract_source(
        DEFECTS, module="tests.obs_defects", file="<defects>")
    return violations, used, stats


class TestSeededDefects:
    def test_each_defect_flagged_with_exact_line(self):
        violations, _, _ = _violations()
        got = {(v.line, v.rule) for v in violations}
        assert got == {
            (_line_of('tracer.span("leaky")'), "span-unclosed"),
            (_line_of('"no.such.counter"'), "undeclared-metric"),
            (_line_of('observe("plan.compiles"'), "metric-kind-mismatch"),
            (_line_of('f"rogue.{key}.count"'), "dynamic-metric-name"),
            (_line_of('"batch." + key'), "dynamic-metric-name"),
        }

    def test_severity_and_attribution(self):
        violations, _, _ = _violations()
        for v in violations:
            assert v.severity == "error"
            assert v.pass_name == "obs-contract"
            assert v.where == "tests.obs_defects"

    def test_used_names_include_literals_and_patterns(self):
        _, used, _ = _violations()
        assert "plan.executions" in used
        assert "serve.coalesce_ratio" in used
        assert "batch.path[*].count" in used

    def test_site_stats(self):
        _, _, stats = _violations()
        assert stats["span_sites"] == 2
        assert stats["metric_sites"] == 8

    def test_allow_directive_suppresses(self):
        violations, _, _ = _violations()
        allowed = _line_of("lint: allow(scratch")
        assert all(v.line != allowed for v in violations)


class TestUnusedMetrics:
    def test_dead_declaration_warned(self):
        violations, stats = run_obs_contract(
            sources=[("m", "<f>", 'metrics.inc("plan.compiles")\n')])
        unused = [v for v in violations if v.rule == "unused-metric"]
        declared = set(COUNTERS) | set(GAUGES) | set(COUNTER_PATTERNS)
        assert len(unused) == len(declared) - 1
        assert all(v.severity == "warning" for v in unused)
        assert stats["obs_modules"] == 1

    def test_unused_check_can_be_disabled(self):
        violations, _ = run_obs_contract(
            sources=[("m", "<f>", "x = 1\n")], check_unused=False)
        assert violations == []


class TestCatalog:
    def test_kind_lookup(self):
        assert metric_kind("plan.compiles") == "counter"
        assert metric_kind("serve.coalesce_ratio") == "gauge"
        assert metric_kind("nope") is None

    def test_pattern_lookup(self):
        assert pattern_kind("batch.path[*].count") == "counter"
        assert pattern_kind("memory.*_bytes") == "counter"
        assert pattern_kind("nope.*") is None

    def test_namespaces_disjoint(self):
        assert not set(COUNTERS) & set(GAUGES)


class TestCleanTree:
    def test_shipped_tree_honors_the_contract(self):
        violations, stats = run_obs_contract()
        assert violations == []
        assert stats["obs_modules"] >= 90
        assert stats["span_sites"] >= 20
        assert stats["metric_sites"] >= 35
