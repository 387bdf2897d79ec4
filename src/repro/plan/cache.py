"""PlanCache: LRU of compiled ExecutionPlans plus a pooled table image.

Keys build on :func:`repro.core.tablecache.cache_signature` — the stable
digest of a method's table geometry — extended with everything else that
changes a launch's numbers: every primitive constructor knob (so CORDIC
``iterations`` or a polynomial ``degree`` can never collide), sub-methods of
composites (recursively), the reducer's ``assume_in_range``, the op-cost
table, and at the plan level the placement, system configuration, tasklet
count, sample size, transfer schedule, and imbalance.

Two tiers, because tables are placement-independent but launches are not:

* the **method pool** keys off the placement-*excluded* signature and holds
  one :class:`~repro.plan.plan.TableImage` per table — the built Method
  plus everything derived from it once: the fused array evaluator, one
  path-tally dict per placement, and the ``memo`` of derived data such as
  the sweep's RMSE evaluation.  A WRAM plan and an MRAM plan of the same
  geometry share tables and evaluator without rebuilding, and every plan
  of one (image, placement) — whatever its tasklets, sample size or
  system — shares one tally dict;
* the **plan LRU** keys off the full launch configuration and holds the
  compiled plans themselves.

Both tiers are bounded LRUs; hit/miss/evict counters surface through
``repro.obs.metrics`` (``plancache.*``) and as attributes for tests.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.method import Method
from repro.errors import ConfigurationError
from repro.isa.opcosts import OpCosts
from repro.obs import metrics as _metrics
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.plan import (ExecutionPlan, TableImage, TransferSchedule,
                             compile_plan)

__all__ = ["PlanCache", "PlanKey", "key_for", "plan_signature",
           "table_signature"]

_PRIMITIVE = (bool, int, float, str, np.floating, np.integer, np.bool_)


def _typed(value) -> Tuple[str, object]:
    """A primitive as a (type-tag, canonical value) pair.

    The tag keeps distinct types with equal string forms apart (``1`` vs
    ``"1"`` vs ``True``); floats canonicalize through ``hex()`` so the
    component is bit-exact and independent of repr formatting.
    """
    if isinstance(value, (bool, np.bool_)):
        return ("b", bool(value))
    if isinstance(value, (int, np.integer)):
        return ("i", int(value))
    if isinstance(value, (float, np.floating)):
        return ("f", float(value).hex())
    return ("s", str(value))


def _costs_parts(costs: OpCosts) -> Tuple[Tuple[str, Tuple[str, object]], ...]:
    """The op-cost table as sorted (field, typed value) pairs."""
    return tuple((f.name, _typed(getattr(costs, f.name)))
                 for f in sorted(fields(costs), key=lambda f: f.name))


def _method_parts(method: Method, include_placement: bool) -> tuple:
    """Every field that can change this method's numbers, as typed tuples.

    Recurses into sub-Methods (composites like DL-LUT and the tan quotient
    keep their knobs on their parts) and into the geometry record.  The
    structure is pure nested tuples of tagged primitives — no object reprs,
    which can churn across refactors or collide across distinct values —
    so its canonical encoding is a stable cache-key component (enforced by
    the ``cache-key`` lint pass, rule ``key-unstable-component``).
    """
    from repro.core.tablecache import cache_signature

    parts = [("table", ("s", cache_signature(method))),
             ("air", _typed(method.assume_in_range)),
             ("costs", _costs_parts(method.costs))]
    if include_placement:
        parts.append(("placement", ("s", str(method.placement))))
    for name, value in sorted(vars(method).items()):
        if name.startswith("_") or name == "placement":
            continue
        if isinstance(value, _PRIMITIVE):
            parts.append((name, _typed(value)))
        elif isinstance(value, Method):
            parts.append((name, _method_parts(value, include_placement)))
    return tuple(parts)


def _digest(parts: tuple) -> str:
    """Stable 24-hex digest of a nested typed-tuple structure.

    ``repr`` here is unambiguous: every leaf is a tagged primitive tuple,
    so equal structures encode equally and distinct ones cannot collide
    textually.
    """
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:24]


def table_signature(method: Method) -> str:
    """Placement-independent identity of a method's built table image."""
    digest = _digest(_method_parts(method, include_placement=False))
    return f"{method.method_name}-{method.spec.name}-{digest}"


def plan_signature(method: Method) -> str:
    """Full launch-relevant identity (table image + placement)."""
    digest = _digest(_method_parts(method, include_placement=True))
    return f"{method.method_name}-{method.spec.name}-{digest}"


@dataclass(frozen=True)
class PlanKey:
    """Everything that distinguishes one compiled launch from another."""

    table_key: str
    placement: str
    #: The system configuration by value — its channel/DIMM/rank topology
    #: included, so two systems with equal ``n_dpus`` but a different
    #: rank structure (which changes unbalanced timings) never collide.
    system: SystemConfig
    costs: OpCosts
    tasklets: int
    sample_size: int
    transfers: TransferSchedule
    imbalance: float


def key_for(system: PIMSystem, method: Method, *,
            tasklets: int = 16, sample_size: int = 64,
            transfers: Optional[TransferSchedule] = None,
            imbalance: float = 0.0) -> PlanKey:
    """The PlanKey a :meth:`PlanCache.plan` call with these arguments uses.

    Module-level so key producers that are not caches — the serving front
    end's normalized request keys (:mod:`repro.serve.keys`) — derive their
    identity through the exact same builder.
    """
    return PlanKey(
        table_key=table_signature(method),
        placement=method.placement,
        system=system.config,
        costs=system.costs,
        tasklets=tasklets,
        sample_size=sample_size,
        transfers=transfers if transfers is not None
        else TransferSchedule(),
        imbalance=imbalance,
    )


class PlanCache:
    """Bounded LRU of ExecutionPlans with a shared built-table pool."""

    def __init__(self, maxsize: int = 64,
                 method_pool_size: Optional[int] = None):
        if maxsize < 1:
            raise ConfigurationError("PlanCache needs maxsize >= 1")
        self.maxsize = maxsize
        self.method_pool_size = method_pool_size if method_pool_size \
            is not None else max(maxsize, 8)
        if self.method_pool_size < 1:
            raise ConfigurationError("PlanCache needs method_pool_size >= 1")
        self._plans: "OrderedDict[PlanKey, ExecutionPlan]" = OrderedDict()
        self._methods: "OrderedDict[str, TableImage]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.table_hits = 0
        self.table_misses = 0
        self.table_evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    # ------------------------------------------------------------------

    def plan(self, system: PIMSystem, method: Method, *,
             tasklets: int = 16, sample_size: int = 64,
             transfers: Optional[TransferSchedule] = None,
             imbalance: float = 0.0) -> ExecutionPlan:
        """The compiled plan for this launch configuration, cached.

        On a plan miss, the method pool is consulted first: an equivalent
        built table image (any placement) is reused via
        :meth:`~repro.core.method.Method.set_placement` instead of
        rebuilding; only a pool miss pays for table generation.
        ``method`` may be passed un-setup — compilation builds it (or
        skips the build entirely on a pool hit).
        """
        key = key_for(system, method, tasklets=tasklets,
                      sample_size=sample_size, transfers=transfers,
                      imbalance=imbalance)
        cached = self._plans.get(key)
        if cached is not None:
            self._plans.move_to_end(key)
            self.hits += 1
            _metrics.inc("plancache.hits")
            return cached
        self.misses += 1
        _metrics.inc("plancache.misses")

        image = self._methods.get(key.table_key)
        pooled_hit = image is not None
        if image is None:
            image = TableImage(method)
        else:
            self._methods.move_to_end(key.table_key)
        pooled = image.method
        if pooled_hit and pooled.placement != key.placement:
            pooled.set_placement(key.placement)

        plan = compile_plan(
            system, pooled, tasklets=tasklets, sample_size=sample_size,
            transfers=key.transfers, imbalance=imbalance,
            signature=plan_signature(pooled), image=image,
        )
        # Pool only after a successful compile: a failing table build must
        # not leave a half-built method answering future pool lookups.
        if pooled_hit:
            self.table_hits += 1
            _metrics.inc("plancache.table_hits")
        else:
            self.table_misses += 1
            _metrics.inc("plancache.table_misses")
            self._methods[key.table_key] = image
        self._plans[key] = plan
        self._evict()
        return plan

    # ------------------------------------------------------------------

    def _evict(self) -> None:
        while len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
            self.evictions += 1
            _metrics.inc("plancache.evictions")
        while len(self._methods) > self.method_pool_size:
            self._methods.popitem(last=False)
            self.table_evictions += 1
            _metrics.inc("plancache.table_evictions")

    def clear(self) -> None:
        """Drop every cached plan and pooled table image."""
        self._plans.clear()
        self._methods.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (also mirrored in ``repro.obs.metrics``)."""
        return {
            "plans": len(self._plans),
            "methods": len(self._methods),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "table_evictions": self.table_evictions,
        }
