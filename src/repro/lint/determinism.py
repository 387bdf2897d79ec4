"""Determinism lint: flag nondeterminism sources on plan/batch/obs paths.

Multi-process scale-out (:mod:`repro.plan.pool`) and the plan-level launch
memo both rest on one property: an ``ExecutionPlan.execute`` with equal
inputs is bit-identical, run to run and shard to shard.  This pass walks the
analyzed module sources (pure AST, nothing imported or executed) and flags
the constructs that silently break that property:

``unseeded-rng`` (error)
    ``np.random.default_rng()`` with no seed, legacy global-state draws
    (``np.random.uniform`` ...), or ``random.*`` module calls.  Every
    generator on a simulated path must be derived from an explicit seed.
``wall-clock`` (error)
    ``time.time``/``time.time_ns``, ``datetime.now``/``utcnow``/``today``,
    ``date.today``.  Measurement clocks (``perf_counter``, ``monotonic``)
    are exempt: they attribute *wall* durations to spans and never feed a
    simulated number.
``id-keyed`` (error)
    ``id()`` — addresses vary run to run, so ``id``-keyed or ``id``-ordered
    aggregation is unstable.
``set-iteration`` (error)
    Iterating a set literal, set comprehension, or ``set()``/``frozenset()``
    call directly: with ``PYTHONHASHSEED`` randomization the order changes
    across runs.  Wrap in ``sorted(...)``.
``unthreaded-rng`` (error)
    Forwarding a function's ``rng`` parameter verbatim into a call inside a
    loop: every iteration consumes shared generator state, so per-iteration
    results depend on execution order — exactly what a multiprocessing pool
    does not preserve.  Spawn per-iteration child generators up front
    (:func:`repro.plan.dispatch.spawn_shard_rngs`).

``# lint: allow(reason)`` on the offending line suppresses a finding, same
mechanism as the kernel AST pass.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.kernels import Directives, iter_module_sources
from repro.lint.report import Violation

__all__ = ["DEFAULT_MODULES", "check_determinism_source", "run_determinism"]

#: Packages the whole-program run analyzes: everything on the compiled-plan
#: execution path plus the observability layer it reports through.
DEFAULT_MODULES = ("repro.plan", "repro.batch", "repro.obs")

#: Legacy numpy global-state draws (module-level ``np.random.*``).
_NP_LEGACY = {
    "random", "rand", "randn", "randint", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "standard_normal",
    "seed",
}

#: ``random`` stdlib module calls (any draw or reseed).
_PY_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "seed", "betavariate",
    "expovariate",
}

#: Wall-clock reads that leak real time into results.
_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}


class _DeterminismLinter(ast.NodeVisitor):
    """One module's nondeterminism scan."""

    def __init__(self, module: str, file: str, directives: Directives):
        self.module = module
        self.file = file
        self.directives = directives
        self.violations: List[Violation] = []
        #: Stack of (function name, has-rng-param) frames.
        self._funcs: List[Tuple[str, bool]] = []
        self._loop_depth = 0

    # ------------------------------------------------------------------

    def _violate(self, node: ast.AST, rule: str, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if lineno in self.directives.allow:
            return
        where = ".".join([self.module] + [n for n, _ in self._funcs])
        self.violations.append(Violation(
            pass_name="determinism", rule=rule, severity="error",
            message=message, file=self.file, line=lineno, where=where,
        ))

    # ------------------------------------------------------------------

    def _visit_func(self, node) -> None:
        params = [a.arg for a in node.args.args]
        params += [a.arg for a in node.args.kwonlyargs]
        params += [a.arg for a in getattr(node.args, "posonlyargs", [])]
        self._funcs.append((node.name, "rng" in params))
        depth, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = depth
        self._funcs.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _visit_loop(self, node) -> None:
        if isinstance(node, ast.For):
            self._check_iterable(node.iter)
            self.visit(node.target)
            self.visit(node.iter)
        else:
            self.visit(node.test)
        self._loop_depth += 1
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_While = _visit_loop

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _check_iterable(self, it: ast.expr) -> None:
        if isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")):
            self._violate(
                it, "set-iteration",
                "iterating a set directly: order varies with hash "
                "randomization across runs; wrap in sorted(...)",
            )

    # ------------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                self._violate(
                    node, "id-keyed",
                    "id() varies run to run; id-keyed or id-ordered "
                    "aggregation is nondeterministic",
                )
            elif func.id == "default_rng" and not node.args \
                    and not node.keywords:
                self._violate(
                    node, "unseeded-rng",
                    "default_rng() without a seed draws entropy from the "
                    "OS; thread an explicit seed",
                )
        elif isinstance(func, ast.Attribute):
            self._check_attr_call(node, func)
        self._check_rng_forwarding(node)
        self.generic_visit(node)

    def _check_attr_call(self, node: ast.Call, func: ast.Attribute) -> None:
        attr = func.attr
        base = func.value
        if attr == "default_rng" and not node.args and not node.keywords:
            self._violate(
                node, "unseeded-rng",
                "np.random.default_rng() without a seed draws entropy "
                "from the OS; thread an explicit seed",
            )
            return
        if isinstance(base, ast.Attribute) and base.attr == "random" \
                and isinstance(base.value, ast.Name) \
                and base.value.id in ("np", "numpy") and attr in _NP_LEGACY:
            self._violate(
                node, "unseeded-rng",
                f"np.random.{attr}() uses hidden global generator state; "
                "use an explicitly seeded Generator",
            )
            return
        if isinstance(base, ast.Name):
            if base.id == "random" and attr in _PY_RANDOM:
                self._violate(
                    node, "unseeded-rng",
                    f"random.{attr}() uses hidden global generator state; "
                    "use an explicitly seeded Generator",
                )
            elif (base.id, attr) in _WALL_CLOCK:
                self._violate(
                    node, "wall-clock",
                    f"{base.id}.{attr}() reads the wall clock on a "
                    "simulated path; results must not depend on real time",
                )

    def _check_rng_forwarding(self, node: ast.Call) -> None:
        """``f(..., rng=rng)`` inside a loop, with ``rng`` a parameter."""
        if self._loop_depth == 0 or not (self._funcs and self._funcs[-1][1]):
            return
        for kw in node.keywords:
            if kw.arg == "rng" and isinstance(kw.value, ast.Name) \
                    and kw.value.id == "rng":
                self._violate(
                    node, "unthreaded-rng",
                    "the shared rng generator is forwarded into a loop "
                    "iteration: results depend on iteration order, which "
                    "a process pool does not preserve; spawn per-"
                    "iteration child generators before the loop",
                )


def check_determinism_source(
    source: str, *, module: str = "<module>", file: str = "<source>",
) -> List[Violation]:
    """Scan one module's source text (test injection point)."""
    linter = _DeterminismLinter(module, file, Directives.parse(source))
    linter.visit(ast.parse(source, filename=file))
    return linter.violations


def run_determinism(
    packages: Sequence[str] = DEFAULT_MODULES,
    extra_modules: Sequence[str] = (),
    sources: Optional[Sequence[Tuple[str, str, str]]] = None,
) -> Tuple[List[Violation], Dict[str, int]]:
    """Scan every module in ``packages`` (plus extras); returns stats too."""
    if sources is None:
        sources = iter_module_sources(tuple(packages) + tuple(extra_modules))
    violations: List[Violation] = []
    n = 0
    for module, path, source in sources:
        n += 1
        violations.extend(
            check_determinism_source(source, module=module, file=path))
    return violations, {"determinism_modules": n}
