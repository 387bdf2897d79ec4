"""Cache-key soundness: every field a plan reads is represented in its key.

The :class:`~repro.plan.cache.PlanCache` returns a cached
:class:`~repro.plan.plan.ExecutionPlan` whenever a
:class:`~repro.plan.cache.PlanKey` matches.  That is only sound if the key
covers *every* plan attribute that can influence an ``execute`` result: a
field that changes the numbers but is excluded from the key is an unsound
cache hit (two different launches collapse onto one plan), while a key field
no execute path ever reads is a needless cache split (identical launches
compile twice).

This pass proves the correspondence statically, by attribute taint:

1. parse the plan module, collect every ``self.X`` assigned in
   ``ExecutionPlan.__init__`` and every ``self.X`` *read* on the execute
   path (``execute`` plus every self-method it transitively calls);
2. parse the cache module, collect the ``PlanKey`` dataclass fields;
3. diff the two against the declared :data:`DEFAULT_COVERAGE` contract —
   which plan attribute each key field represents — and the declared
   :data:`DEFAULT_STATE_ATTRS` (mutable runtime state that caches results
   but never changes them, hence legitimately unkeyed).

A fourth rule guards the key *builders* themselves: ``_method_parts`` and
the signature functions must not fold ``repr()`` strings of non-primitive
objects into the digest — an object's repr can change across refactors
(silent cache churn) or collide across distinct values (silent unsound
hits).  Keys must be built from typed primitive tuples.

Rules (pass name ``cache-key``):

``key-missing-field`` (error)
    A plan attribute set in ``__init__`` and read on the execute path is
    neither covered by a key field nor declared state.
``key-unused-field`` (warning)
    A ``PlanKey`` field covers no attribute the execute path reads.
``key-unknown-coverage`` (error)
    The coverage contract names a key field that does not exist.
``key-unstable-component`` (error)
    A key-builder function formats a component with ``repr()`` / ``!r``.

The serving front end adds a second key producer: a normalized
:class:`~repro.serve.keys.RequestSpec` decides which requests may
*coalesce* onto one cached plan, so its identity must flow — totally —
into ``PlanKey``.  The same discipline applies, with its own rules:

``request-key-unmapped-field`` (error)
    A ``RequestSpec`` field is missing from the request coverage
    contract: requests differing in it could coalesce onto one plan.
``request-key-unknown-field`` (error)
    The request coverage contract names a spec field that does not exist
    (a stale contract proves nothing).
``request-key-unknown-coverage`` (error)
    The request coverage maps into a ``PlanKey`` field that does not
    exist.

``key-unstable-component`` also runs over the serve key builders
(:data:`SERVE_KEY_BUILDERS`).
"""

from __future__ import annotations

import ast
import importlib.util
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.lint.report import Violation

__all__ = [
    "DEFAULT_COVERAGE",
    "DEFAULT_STATE_ATTRS",
    "REQUEST_COVERAGE",
    "SERVE_KEY_BUILDERS",
    "check_cache_key_sources",
    "check_request_key_sources",
    "run_cache_key",
]

#: ExecutionPlan attribute -> PlanKey field(s) that represent it.  ``method``
#: folds into the table signature *and* the placement; ``image`` (the built
#: method plus its evaluator) is identified by the table signature;
#: ``system`` carries the system config (channel/rank topology included)
#: and the op-cost table.
DEFAULT_COVERAGE: Dict[str, Tuple[str, ...]] = {
    "method": ("table_key", "placement"),
    "image": ("table_key",),
    "kernel": ("table_key",),
    "placement": ("placement",),
    "system": ("system", "costs"),
    "tasklets": ("tasklets",),
    "sample_size": ("sample_size",),
    "transfers": ("transfers",),
    "imbalance": ("imbalance",),
}

#: Mutable runtime state: read (and written) during execute, but a cache of
#: exact results or bookkeeping — never an input that changes the numbers.
DEFAULT_STATE_ATTRS: Set[str] = {
    "tally_cache", "memo", "executions", "signature", "_launch_memo",
}

#: Functions in the cache module whose bodies build key components.
DEFAULT_KEY_BUILDERS: Tuple[str, ...] = (
    "_method_parts", "table_signature", "plan_signature", "key_for",
)

#: RequestSpec field -> PlanKey field(s) its identity flows into.  The
#: function/method names, constructor knobs, and range assumption all fold
#: into the table signature (via ``make_method`` + ``table_signature``);
#: placement is the plan key's own placement field.
REQUEST_COVERAGE: Dict[str, Tuple[str, ...]] = {
    "function": ("table_key",),
    "method": ("table_key",),
    "params": ("table_key",),
    "placement": ("placement",),
    "assume_in_range": ("table_key",),
}

#: Functions in the serve key module whose bodies build key components.
SERVE_KEY_BUILDERS: Tuple[str, ...] = (
    "_param_pairs", "normalize_request", "spec_method", "request_key",
)


def _module_source(module: str) -> Tuple[str, str]:
    spec = importlib.util.find_spec(module)
    if spec is None or spec.origin is None:
        raise ConfigurationError(f"cannot locate module {module!r} to lint")
    with open(spec.origin, "r", encoding="utf-8") as fh:
        return spec.origin, fh.read()


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _key_fields(cls: ast.ClassDef) -> List[str]:
    """Dataclass field names, in declaration order."""
    fields = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            fields.append(stmt.target.id)
    return fields


def _init_attrs(cls: ast.ClassDef) -> Set[str]:
    """Every ``self.X`` assigned in ``__init__``."""
    attrs: Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for tgt in targets:
                        if isinstance(tgt, ast.Attribute) \
                                and isinstance(tgt.value, ast.Name) \
                                and tgt.value.id == "self":
                            attrs.add(tgt.attr)
    return attrs


def _methods_of(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {stmt.name: stmt for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)}


def _execute_path_reads(
    cls: ast.ClassDef, entry: str = "execute",
) -> Tuple[Dict[str, int], Set[str]]:
    """``self.X`` reads reachable from ``entry``, with first-read lines.

    The closure follows ``self.m(...)`` calls and ``self.p`` property reads
    into other methods of the class, so indirection like
    ``_bind_placement`` cannot hide a read from the analysis.
    """
    methods = _methods_of(cls)
    reads: Dict[str, int] = {}
    visited: Set[str] = set()
    frontier = [entry]
    while frontier:
        name = frontier.pop()
        if name in visited or name not in methods:
            continue
        visited.add(name)
        for node in ast.walk(methods[name]):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                if node.attr in methods:
                    frontier.append(node.attr)
                else:
                    reads.setdefault(node.attr, node.lineno)
    return reads, visited


def _unstable_components(
    tree: ast.Module, file: str, builders: Sequence[str],
) -> List[Violation]:
    """repr()/``!r`` folded into key components inside the builders."""
    violations: List[Violation] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name in builders):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.FormattedValue) and sub.conversion == \
                    ord("r"):
                violations.append(Violation(
                    pass_name="cache-key", rule="key-unstable-component",
                    severity="error",
                    message=f"{node.name} folds a '!r' repr string into a "
                            "cache key; reprs churn across refactors and "
                            "can collide — use typed primitive tuples",
                    file=file, line=sub.lineno, where=node.name,
                ))
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                    and sub.func.id == "repr":
                violations.append(Violation(
                    pass_name="cache-key", rule="key-unstable-component",
                    severity="error",
                    message=f"{node.name} calls repr() on a key component; "
                            "use typed primitive tuples",
                    file=file, line=sub.lineno, where=node.name,
                ))
    return violations


def check_cache_key_sources(
    plan_source: str,
    cache_source: str,
    *,
    plan_file: str = "<plan>",
    cache_file: str = "<cache>",
    plan_class: str = "ExecutionPlan",
    key_class: str = "PlanKey",
    entry: str = "execute",
    coverage: Optional[Dict[str, Tuple[str, ...]]] = None,
    state_attrs: Optional[Set[str]] = None,
    key_builders: Sequence[str] = DEFAULT_KEY_BUILDERS,
) -> Tuple[List[Violation], Dict[str, int]]:
    """Run the soundness analysis over explicit sources (test injection)."""
    coverage = DEFAULT_COVERAGE if coverage is None else coverage
    state_attrs = DEFAULT_STATE_ATTRS if state_attrs is None else state_attrs

    plan_tree = ast.parse(plan_source, filename=plan_file)
    cache_tree = ast.parse(cache_source, filename=cache_file)
    violations: List[Violation] = []

    plan_cls = _find_class(plan_tree, plan_class)
    key_cls = _find_class(cache_tree, key_class)
    if plan_cls is None:
        raise ConfigurationError(
            f"class {plan_class!r} not found in {plan_file}")
    if key_cls is None:
        raise ConfigurationError(
            f"class {key_class!r} not found in {cache_file}")

    key_fields = _key_fields(key_cls)
    init_attrs = _init_attrs(plan_cls)
    reads, _ = _execute_path_reads(plan_cls, entry)

    # Coverage contract must reference real key fields.
    for attr, fields in sorted(coverage.items()):
        for f in fields:
            if f not in key_fields:
                violations.append(Violation(
                    pass_name="cache-key", rule="key-unknown-coverage",
                    severity="error",
                    message=f"coverage maps plan attribute {attr!r} to key "
                            f"field {f!r}, which {key_class} does not "
                            "declare",
                    file=cache_file, line=key_cls.lineno,
                    where=f"{key_class}.{f}",
                ))

    # Unsound hits: influencing attribute absent from the key.
    for attr in sorted(set(init_attrs) & set(reads)):
        if attr in coverage or attr in state_attrs:
            continue
        violations.append(Violation(
            pass_name="cache-key", rule="key-missing-field",
            severity="error",
            message=f"{plan_class}.{attr} is set at compile time and read "
                    f"on the {entry}() path but is neither represented in "
                    f"{key_class} nor declared runtime state: equal keys "
                    "could return plans with different numbers",
            file=plan_file, line=reads[attr],
            where=f"{plan_class}.{attr}",
        ))

    # Needless splits: key field covering nothing the execute path reads.
    covered_by = {attr: fields for attr, fields in coverage.items()
                  if attr in reads}
    used_fields = {f for fields in covered_by.values() for f in fields}
    for f in key_fields:
        if f not in used_fields:
            violations.append(Violation(
                pass_name="cache-key", rule="key-unused-field",
                severity="warning",
                message=f"{key_class}.{f} covers no plan attribute the "
                        f"{entry}() path reads: identical launches split "
                        "into separate cache entries",
                file=cache_file, line=key_cls.lineno,
                where=f"{key_class}.{f}",
            ))

    violations.extend(
        _unstable_components(cache_tree, cache_file, key_builders))

    stats = {"plan_attrs": len(init_attrs), "key_fields": len(key_fields),
             "execute_reads": len(reads)}
    return violations, stats


def check_request_key_sources(
    serve_source: str,
    cache_source: str,
    *,
    serve_file: str = "<serve>",
    cache_file: str = "<cache>",
    spec_class: str = "RequestSpec",
    key_class: str = "PlanKey",
    coverage: Optional[Dict[str, Tuple[str, ...]]] = None,
    key_builders: Sequence[str] = SERVE_KEY_BUILDERS,
) -> Tuple[List[Violation], Dict[str, int]]:
    """Prove the serving request key maps totally into the plan key.

    A spec field outside the coverage contract is a potential unsound
    *coalesce*: two requests that differ in it would share one batch and
    one cached plan.  The builders are also held to the no-repr rule.
    """
    coverage = REQUEST_COVERAGE if coverage is None else coverage

    serve_tree = ast.parse(serve_source, filename=serve_file)
    cache_tree = ast.parse(cache_source, filename=cache_file)
    violations: List[Violation] = []

    spec_cls = _find_class(serve_tree, spec_class)
    key_cls = _find_class(cache_tree, key_class)
    if spec_cls is None:
        raise ConfigurationError(
            f"class {spec_class!r} not found in {serve_file}")
    if key_cls is None:
        raise ConfigurationError(
            f"class {key_class!r} not found in {cache_file}")

    spec_fields = _key_fields(spec_cls)
    key_fields = _key_fields(key_cls)

    for attr, fields in sorted(coverage.items()):
        if attr not in spec_fields:
            violations.append(Violation(
                pass_name="cache-key", rule="request-key-unknown-field",
                severity="error",
                message=f"request coverage names spec field {attr!r}, which "
                        f"{spec_class} does not declare — a stale contract "
                        "proves nothing",
                file=serve_file, line=spec_cls.lineno,
                where=f"{spec_class}.{attr}",
            ))
        for f in fields:
            if f not in key_fields:
                violations.append(Violation(
                    pass_name="cache-key", rule="request-key-unknown-coverage",
                    severity="error",
                    message=f"request coverage maps spec field {attr!r} to "
                            f"key field {f!r}, which {key_class} does not "
                            "declare",
                    file=cache_file, line=key_cls.lineno,
                    where=f"{key_class}.{f}",
                ))

    for attr in spec_fields:
        if attr not in coverage:
            violations.append(Violation(
                pass_name="cache-key", rule="request-key-unmapped-field",
                severity="error",
                message=f"{spec_class}.{attr} does not flow into "
                        f"{key_class}: requests that differ in it could "
                        "coalesce onto one batch and one cached plan",
                file=serve_file, line=spec_cls.lineno,
                where=f"{spec_class}.{attr}",
            ))

    violations.extend(
        _unstable_components(serve_tree, serve_file, key_builders))

    stats = {"request_fields": len(spec_fields)}
    return violations, stats


def run_cache_key(
    plan_module: str = "repro.plan.plan",
    cache_module: str = "repro.plan.cache",
    serve_module: str = "repro.serve.keys",
) -> Tuple[List[Violation], Dict[str, int]]:
    """Verify the shipped plan/cache/serve triple (the whole-program run)."""
    plan_file, plan_source = _module_source(plan_module)
    cache_file, cache_source = _module_source(cache_module)
    violations, stats = check_cache_key_sources(
        plan_source, cache_source,
        plan_file=plan_file, cache_file=cache_file,
    )
    serve_file, serve_source = _module_source(serve_module)
    serve_violations, serve_stats = check_request_key_sources(
        serve_source, cache_source,
        serve_file=serve_file, cache_file=cache_file,
    )
    violations.extend(serve_violations)
    stats.update(serve_stats)
    return violations, stats
