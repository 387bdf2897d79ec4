"""Static kernel verifier for the paper's cost contracts (``repro lint``).

Every cycle number this reproduction reports assumes that kernels route all
arithmetic through the :class:`~repro.isa.counter.CycleCounter` ISA — one raw
``x * y`` in a kernel body is a free, uncounted softfloat multiply that
silently corrupts the Figure 5 model.  The paper's central claims are
themselves op-count contracts (M-LUT = 1 fp multiply, L-LUT = 0 via ``ldexp``,
interpolation adds exactly one — Section 2.2, Table 1), so this package
machine-checks them with four passes:

``ast``
    Walks every kernel function body (any ``def`` with a ``ctx`` parameter
    under ``repro.core``, ``repro.fixedpoint`` and ``repro.workloads``) and
    flags arithmetic on traced values that bypasses the ISA.
``contracts``
    Declares per-method op budgets (:mod:`repro.core.functions.budgets`) and
    verifies them by tracing each (method, function) pair and diffing the
    :class:`~repro.isa.counter.Tally` counts against the budget.
``intervals``
    An interval abstract interpreter for the s3.28 fixed-point kernels:
    propagates value ranges over each function's declared input domain and
    reports potential overflow / precision loss.
``memory``
    Sizes every method's tables against the
    :class:`~repro.pim.config.DPUConfig` WRAM/MRAM capacities.

Three *whole-program* passes extend the verifier from single kernels to the
compiled-plan architecture (``repro.plan`` / ``repro.batch`` /
``repro.obs``) — the static gate for multi-process scale-out
(:mod:`repro.plan.pool`):

``determinism``
    Flags nondeterminism sources on plan/batch paths: unseeded or shared
    rngs, wall-clock reads, ``id()``-keyed aggregation, raw set iteration.
``parallel-safety``
    Certifies plans, launch configs, transfer schedules, table images and
    shard descriptors as picklable, lock-free and handle-free — ready for a
    ``multiprocessing`` pool — by structural graph walk plus a pickle
    round-trip.
``obs-contract``
    Every span opens under ``with`` (closed on all paths) and every
    counter/gauge emitted is declared in :mod:`repro.obs.catalog`.

The plan cache's key needs no pass: an
:class:`~repro.plan.plan.ExecutionPlan` receives its launch parameters only
as one :class:`~repro.plan.plan.LaunchConfig`, which the
:class:`~repro.plan.cache.PlanKey` holds whole.  Tests pin the rest: a
plan's attributes are all keyed, every config field changes a simulated
number, and every request-spec field splits the serving lane key.

Accepted findings can be recorded in a baseline file
(:mod:`repro.lint.baseline`, ``repro lint --baseline``) so only new
regressions fail CI.
"""

from repro.lint.astlint import lint_kernel, run_ast_lint
from repro.lint.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.contracts import check_contract, run_contracts
from repro.lint.determinism import check_determinism_source, run_determinism
from repro.lint.intervals import (
    Interval,
    check_method_intervals,
    fx_mul_interval,
    run_intervals,
)
from repro.lint.kernels import KernelDef, iter_kernel_defs, iter_method_instances
from repro.lint.membudget import check_method_memory, run_memory
from repro.lint.obscontract import check_obs_contract_source, run_obs_contract
from repro.lint.parallel import check_parallel_safety, run_parallel_safety
from repro.lint.report import LintReport, Violation
from repro.lint.runner import ALL_PASSES, KERNEL_PASSES, PROGRAM_PASSES, run_lint

__all__ = [
    "ALL_PASSES",
    "Interval",
    "KERNEL_PASSES",
    "KernelDef",
    "LintReport",
    "PROGRAM_PASSES",
    "Violation",
    "apply_baseline",
    "check_contract",
    "check_determinism_source",
    "check_method_intervals",
    "check_method_memory",
    "check_obs_contract_source",
    "check_parallel_safety",
    "fingerprint",
    "fx_mul_interval",
    "iter_kernel_defs",
    "iter_method_instances",
    "lint_kernel",
    "load_baseline",
    "run_ast_lint",
    "run_contracts",
    "run_determinism",
    "run_intervals",
    "run_lint",
    "run_memory",
    "run_obs_contract",
    "run_parallel_safety",
    "write_baseline",
]
