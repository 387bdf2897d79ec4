"""Cache-key pass: seeded key defects are caught; the shipped pair is sound."""

import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.lint import (check_cache_key_sources, check_request_key_sources,
                        run_cache_key)

# A minimal sound plan/cache pair the seeded defects perturb one at a time.
SOUND_PLAN = textwrap.dedent("""
    class ExecutionPlan:
        def __init__(self, method, tasklets):
            self.method = method
            self.tasklets = tasklets
            self.memo = {}

        def _helper(self):
            return self.tasklets + 1

        def execute(self, xs):
            if xs in self.memo:
                return self.memo[xs]
            return self.method, self._helper()
""")

SOUND_CACHE = textwrap.dedent("""
    class PlanKey:
        table_key: str
        placement: str
        tasklets: int

    def _method_parts(method):
        return ("air", bool(method))

    def key_for(method, tasklets):
        return PlanKey()
""")

COVERAGE = {"method": ("table_key", "placement"), "tasklets": ("tasklets",)}
STATE = {"memo"}


def _check(plan=SOUND_PLAN, cache=SOUND_CACHE, coverage=COVERAGE,
           state=STATE):
    return check_cache_key_sources(
        plan, cache, coverage=coverage, state_attrs=state)


class TestSoundPair:
    def test_clean(self):
        violations, stats = _check()
        assert violations == []
        assert stats == {"plan_attrs": 3, "key_fields": 3,
                         "execute_reads": 3}


class TestSeededDefects:
    def test_missing_field_attr_read_in_execute(self):
        # Seeded defect: ``imbalance`` influences execute but is neither a
        # key field nor declared state -> unsound cache hit.
        plan = SOUND_PLAN.replace(
            "self.memo = {}",
            "self.memo = {}\n        self.imbalance = 0.1",
        ).replace(
            "return self.method, self._helper()",
            "return self.method, self._helper(), self.imbalance",
        )
        violations, _ = _check(plan=plan)
        assert [v.rule for v in violations] == ["key-missing-field"]
        v = violations[0]
        assert v.severity == "error"
        assert v.where == "ExecutionPlan.imbalance"
        assert v.line is not None

    def test_missing_field_found_through_helper_indirection(self):
        # The read hides behind a self-method call; the transitive closure
        # must still reach it.
        plan = SOUND_PLAN.replace(
            "self.memo = {}",
            "self.memo = {}\n        self.costs = None",
        ).replace(
            "return self.tasklets + 1",
            "return self.tasklets + self.costs",
        )
        violations, _ = _check(plan=plan)
        assert [v.rule for v in violations] == ["key-missing-field"]
        assert violations[0].where == "ExecutionPlan.costs"

    def test_unused_key_field(self):
        # Seeded defect: an extra PlanKey field nothing reads -> needless
        # cache split.
        cache = SOUND_CACHE.replace(
            "tasklets: int", "tasklets: int\n    ghost: int")
        violations, _ = _check(cache=cache)
        assert [v.rule for v in violations] == ["key-unused-field"]
        v = violations[0]
        assert v.severity == "warning"
        assert v.where == "PlanKey.ghost"

    def test_unknown_coverage_field(self):
        # Seeded defect: the contract names a key field PlanKey lost in a
        # refactor.
        coverage = dict(COVERAGE, method=("table_key", "plcmnt"))
        violations, _ = _check(coverage=coverage)
        rules = sorted(v.rule for v in violations)
        # The typo'd field is unknown AND the real field is now uncovered.
        assert rules == ["key-unknown-coverage", "key-unused-field"]
        unknown = next(v for v in violations
                       if v.rule == "key-unknown-coverage")
        assert unknown.severity == "error"
        assert unknown.where == "PlanKey.plcmnt"

    def test_repr_conversion_in_builder(self):
        # Seeded defect: the exact pre-fix bug — ``!r`` repr strings folded
        # into the digest.
        cache = SOUND_CACHE.replace(
            'return ("air", bool(method))',
            'return f"{method!r}"')
        violations, _ = _check(cache=cache)
        assert [v.rule for v in violations] == ["key-unstable-component"]
        assert violations[0].where == "_method_parts"

    def test_repr_call_in_builder(self):
        cache = SOUND_CACHE.replace(
            'return ("air", bool(method))',
            'return ("air", repr(method))')
        violations, _ = _check(cache=cache)
        assert [v.rule for v in violations] == ["key-unstable-component"]

    def test_repr_outside_builders_not_flagged(self):
        cache = SOUND_CACHE + "\ndef debug_dump(m):\n    return repr(m)\n"
        violations, _ = _check(cache=cache)
        assert violations == []

    def test_state_attr_exemption(self):
        # ``memo`` is read in execute but declared state; removing the
        # declaration must surface it.
        violations, _ = _check(state=set())
        assert [v.rule for v in violations] == ["key-missing-field"]
        assert violations[0].where == "ExecutionPlan.memo"


class TestConfigErrors:
    def test_missing_plan_class(self):
        with pytest.raises(ConfigurationError):
            check_cache_key_sources("x = 1", SOUND_CACHE)

    def test_missing_key_class(self):
        with pytest.raises(ConfigurationError):
            check_cache_key_sources(SOUND_PLAN, "x = 1")


# A minimal sound serve-key module: every RequestSpec field flows into the
# PlanKey of SOUND_CACHE through the coverage contract.
SOUND_SERVE = textwrap.dedent("""
    class RequestSpec:
        function: str
        placement: str

    def normalize_request(function, placement):
        return RequestSpec()

    def request_key(spec):
        return ("k", str(spec.function), str(spec.placement))
""")

REQ_COVERAGE = {"function": ("table_key",), "placement": ("placement",)}
REQ_BUILDERS = ("normalize_request", "request_key")


def _check_request(serve=SOUND_SERVE, cache=SOUND_CACHE,
                   coverage=REQ_COVERAGE):
    return check_request_key_sources(
        serve, cache, coverage=coverage, key_builders=REQ_BUILDERS)


class TestRequestKeySoundPair:
    def test_clean(self):
        violations, stats = _check_request()
        assert violations == []
        assert stats == {"request_fields": 2}


class TestRequestKeySeededDefects:
    def test_unmapped_spec_field(self):
        # Seeded defect: a new RequestSpec knob nobody mapped into the
        # plan key -> requests differing in it would share one batch.
        serve = SOUND_SERVE.replace(
            "placement: str", "placement: str\n    assume_in_range: bool")
        violations, _ = _check_request(serve=serve)
        assert [v.rule for v in violations] == ["request-key-unmapped-field"]
        v = violations[0]
        assert v.severity == "error"
        assert v.where == "RequestSpec.assume_in_range"

    def test_unknown_spec_field_in_coverage(self):
        # Seeded defect: the contract names a spec field lost in a
        # refactor -> a stale contract proves nothing.
        coverage = dict(REQ_COVERAGE, qformat=("table_key",))
        violations, _ = _check_request(coverage=coverage)
        assert [v.rule for v in violations] == ["request-key-unknown-field"]
        assert violations[0].where == "RequestSpec.qformat"

    def test_unknown_key_field_in_coverage(self):
        # Seeded defect: coverage maps into a PlanKey field that does not
        # exist.
        coverage = dict(REQ_COVERAGE, function=("tbl_key",))
        violations, _ = _check_request(coverage=coverage)
        assert [v.rule for v in violations] == ["request-key-unknown-coverage"]
        assert violations[0].where == "PlanKey.tbl_key"

    def test_repr_in_serve_builder(self):
        # Seeded defect: repr-formatted component in a serve key builder.
        serve = SOUND_SERVE.replace(
            'return ("k", str(spec.function), str(spec.placement))',
            'return ("k", f"{spec.function!r}", str(spec.placement))')
        violations, _ = _check_request(serve=serve)
        assert [v.rule for v in violations] == ["key-unstable-component"]
        assert violations[0].where == "request_key"

    def test_missing_spec_class(self):
        with pytest.raises(ConfigurationError):
            check_request_key_sources("x = 1", SOUND_CACHE)


class TestShippedTree:
    def test_shipped_plan_cache_pair_is_sound(self):
        violations, stats = run_cache_key()
        assert violations == []
        assert stats["key_fields"] == 8
        assert stats["plan_attrs"] >= 12
        assert stats["execute_reads"] >= 10
        # The serving RequestSpec rides the same whole-program run.
        assert stats["request_fields"] == 5
