"""Orchestrates the lint passes — per-kernel and whole-program — into one report."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.lint.astlint import run_ast_lint
from repro.lint.contracts import run_contracts
from repro.lint.determinism import run_determinism
from repro.lint.intervals import run_intervals
from repro.lint.kernels import DEFAULT_PACKAGES, iter_method_instances
from repro.lint.membudget import run_memory
from repro.lint.obscontract import run_obs_contract
from repro.lint.parallel import run_parallel_safety
from repro.lint.report import LintReport

__all__ = ["ALL_PASSES", "KERNEL_PASSES", "PROGRAM_PASSES", "run_lint"]

#: Per-kernel verifier passes (PR 1): one method/kernel at a time.
KERNEL_PASSES = ("ast", "contracts", "intervals", "memory")

#: Whole-program analyzer passes over repro.plan / repro.batch / repro.obs:
#: nondeterminism sources, multiprocessing readiness, and the span/metric
#: contract.
PROGRAM_PASSES = ("determinism", "parallel-safety", "obs-contract")

ALL_PASSES = KERNEL_PASSES + PROGRAM_PASSES


def run_lint(
    passes: Sequence[str] = ALL_PASSES,
    packages: Sequence[str] = DEFAULT_PACKAGES,
    extra_modules: Sequence[str] = (),
    methods: Optional[Iterable[object]] = None,
) -> LintReport:
    """Run the selected passes and merge their findings.

    ``methods`` injects pre-built method instances (used by the seeded-
    violation tests); by default every supported (method, function) pair is
    built once with library defaults and shared across the instance passes.
    ``extra_modules`` widens the AST, determinism and obs-contract scans to
    additional importable modules.
    """
    unknown = [p for p in passes if p not in ALL_PASSES]
    if unknown:
        raise ConfigurationError(
            f"unknown lint pass(es) {unknown}; choose from {list(ALL_PASSES)}"
        )
    report = LintReport(passes=tuple(passes))

    if "ast" in passes:
        violations, stats = run_ast_lint(packages, extra_modules)
        report.extend(violations)
        report.checked.update(stats)

    instance_passes = [p for p in ("contracts", "intervals", "memory")
                       if p in passes]
    if instance_passes:
        if methods is None:
            methods = list(iter_method_instances())
        else:
            methods = list(methods)
        report.checked["methods"] = len(methods)
        if "contracts" in passes:
            report.extend(run_contracts(methods)[0])
        if "intervals" in passes:
            report.extend(run_intervals(methods)[0])
        if "memory" in passes:
            report.extend(run_memory(methods)[0])

    if "determinism" in passes:
        violations, stats = run_determinism(extra_modules=extra_modules)
        report.extend(violations)
        report.checked.update(stats)
    if "parallel-safety" in passes:
        violations, stats = run_parallel_safety()
        report.extend(violations)
        report.checked.update(stats)
    if "obs-contract" in passes:
        violations, stats = run_obs_contract(extra_modules=extra_modules)
        report.extend(violations)
        report.checked.update(stats)
    return report
