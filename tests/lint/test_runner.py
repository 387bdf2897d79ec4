"""Runner and report: pass selection, exit codes, JSON shape, clean tree."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.lint import LintReport, Violation, run_lint


def _v(severity: str) -> Violation:
    return Violation(pass_name="ast", rule="uncounted-op", severity=severity,
                     message="m", file="f.py", line=3)


class TestReport:
    def test_severity_is_validated(self):
        with pytest.raises(ValueError):
            _v("fatal")

    def test_exit_codes(self):
        clean = LintReport(violations=[], checked={}, passes=("ast",))
        warn = LintReport(violations=[_v("warning")], checked={},
                          passes=("ast",))
        err = LintReport(violations=[_v("error")], checked={}, passes=("ast",))
        assert clean.exit_code(strict=True) == 0
        assert warn.exit_code(strict=False) == 0
        assert warn.exit_code(strict=True) == 1
        assert err.exit_code(strict=False) == 1

    def test_json_is_serializable(self):
        report = LintReport(violations=[_v("error")], checked={"kernels": 1},
                            passes=("ast",))
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["counts"] == {"error": 1, "warning": 0, "suppressed": 0}
        assert blob["violations"][0]["rule"] == "uncounted-op"

    def test_text_report_mentions_location(self):
        report = LintReport(violations=[_v("error")], checked={},
                            passes=("ast",))
        text = report.to_text()
        assert "f.py:3" in text
        assert "1 error(s)" in text


class TestRunner:
    def test_unknown_pass_rejected(self):
        with pytest.raises(ConfigurationError):
            run_lint(passes=("ast", "bogus"))

    def test_bad_extra_module_rejected(self):
        with pytest.raises(ConfigurationError):
            run_lint(passes=("ast",), extra_modules=("no.such.module",))

    def test_single_pass_subset(self):
        report = run_lint(passes=("memory",))
        assert report.passes == ("memory",)
        assert "methods" in report.checked
        assert "kernels" not in report.checked

    def test_program_pass_subset_skips_kernel_work(self):
        report = run_lint(passes=("determinism", "obs-contract"))
        assert "determinism_modules" in report.checked
        assert "obs_modules" in report.checked
        assert "kernels" not in report.checked
        assert "methods" not in report.checked

    def test_pass_constant_partition(self):
        from repro.lint import ALL_PASSES, KERNEL_PASSES, PROGRAM_PASSES
        assert ALL_PASSES == KERNEL_PASSES + PROGRAM_PASSES
        assert PROGRAM_PASSES == ("cache-key", "determinism",
                                  "parallel-safety", "obs-contract")

    def test_shipped_tree_is_fully_clean(self):
        report = run_lint()
        assert report.violations == []
        assert report.checked["kernels"] >= 80
        assert report.checked["methods"] >= 200
        # The whole-program passes ran and covered the plan/obs layers.
        assert report.checked["key_fields"] == 8
        assert report.checked["determinism_modules"] >= 12
        assert report.checked["parallel_targets"] >= 7
        assert report.checked["obs_modules"] >= 90
        assert report.exit_code(strict=True) == 0
