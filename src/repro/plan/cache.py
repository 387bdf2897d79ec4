"""PlanCache: LRU of compiled ExecutionPlans plus a pooled table image.

A :class:`PlanKey` is the whole identity of a compiled launch: the
method's table key, its placement, the system configuration and op
costs, and the :class:`~repro.plan.plan.LaunchConfig`.  :func:`key_for`
is the one builder, and :meth:`PlanCache.plan` hands the key's own
config to the plan it compiles, so a plan can read no launch parameter
its key lacks.

The table key (:func:`table_key`) is nested tuples of tagged primitives:
the method and function names, the reducer's ``assume_in_range``, the
op-cost table, the table geometry record (which carries the interval),
every public primitive constructor knob (table size, CORDIC
``iterations``, a polynomial ``degree``, ...) and, recursively, the
sub-methods of composites.  It is built once per Method instance —
knobs never change after construction — and holds no object reprs or
digests.

Two tiers, because tables are placement-independent but launches are not:

* the **method pool** keys off the table key and holds one
  :class:`~repro.plan.plan.TableImage` per table — the built Method
  plus everything derived from it once: the launch evaluator, one
  path-tally dict per placement, and the ``memo`` of derived data such as
  the sweep's RMSE evaluation.  A WRAM plan and an MRAM plan of the same
  geometry share tables and evaluator without rebuilding, and every plan
  of one (image, placement) — whatever its launch config or system —
  shares one tally dict;
* the **plan LRU** keys off the full :class:`PlanKey` and holds the
  compiled plans themselves.

Both tiers are bounded LRUs, the method pool at ``max(maxsize, 8)``
images so a small plan LRU still shares builds; hit/miss/evict counters
surface through ``repro.obs.metrics`` (``plancache.*``) and as
attributes for tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.core.method import Method
from repro.errors import ConfigurationError
from repro.isa.opcosts import OpCosts
from repro.obs import metrics as _metrics
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.plan import (ExecutionPlan, LaunchConfig, TableImage,
                             compile_plan)

__all__ = ["PlanCache", "PlanKey", "key_for", "table_key"]

_PRIMITIVE = (bool, int, float, str, np.floating, np.integer, np.bool_)
#: Exact builtin types whose typed pair is the value itself.
_EXACT_TAGS = {bool: "b", int: "i", str: "s"}


def _typed(value) -> Tuple[str, object]:
    """A primitive as a (type-tag, canonical value) pair.

    The tag keeps distinct types with equal string forms apart (``1`` vs
    ``"1"`` vs ``True``); floats canonicalize through ``hex()`` so the
    component is bit-exact and independent of repr formatting.
    """
    kind = type(value)
    if kind is float:
        return ("f", value.hex())
    if kind in _EXACT_TAGS:
        return (_EXACT_TAGS[kind], value)
    if isinstance(value, (bool, np.bool_)):
        return ("b", bool(value))
    if isinstance(value, (int, np.integer)):
        return ("i", int(value))
    if isinstance(value, (float, np.floating)):
        return ("f", float(value).hex())
    return ("s", str(value))


@lru_cache(maxsize=16)
def _costs_parts(costs: OpCosts) -> Tuple[Tuple[str, Tuple[str, object]], ...]:
    """The op-cost table as sorted (field, typed value) pairs."""
    return tuple((f.name, _typed(getattr(costs, f.name)))
                 for f in sorted(fields(costs), key=lambda f: f.name))


def _method_parts(method: Method) -> tuple:
    """Every field that can change this method's table or numbers.

    Placement is left out (the plan key carries it); the geometry record
    enters through its primitive fields and sub-Methods recursively.
    """
    parts = [("method", ("s", method.method_name)),
             ("function", ("s", method.spec.name)),
             ("air", _typed(method.assume_in_range)),
             ("costs", _costs_parts(method.costs))]
    geom = getattr(method, "geom", None)
    if geom is not None:
        parts.append(("geom", tuple(
            (name, _typed(value)) for name, value in sorted(vars(geom).items())
            if isinstance(value, _PRIMITIVE))))
    for name, value in sorted(vars(method).items()):
        if name.startswith("_") or name == "placement":
            continue
        if isinstance(value, _PRIMITIVE):
            parts.append((name, _typed(value)))
        elif isinstance(value, Method):
            parts.append((name, _method_parts(value)))
    return tuple(parts)


def table_key(method: Method) -> tuple:
    """Placement-independent identity of a method's built table image.

    Computed once per instance and kept on it: a method's knobs are fixed
    at construction, and ``setup``/``set_placement`` change nothing the
    key holds.
    """
    key = method.__dict__.get("_table_key")
    if key is None:
        key = method._table_key = _method_parts(method)
    return key


@dataclass(frozen=True)
class PlanKey:
    """Everything that distinguishes one compiled launch from another."""

    table_key: tuple
    placement: str
    #: The system configuration by value — its channel/DIMM/rank topology
    #: included, so two systems with equal ``n_dpus`` but a different
    #: rank structure (which changes unbalanced timings) never collide.
    system: SystemConfig
    costs: OpCosts
    config: LaunchConfig


def key_for(system: PIMSystem, method: Method,
            config: LaunchConfig = LaunchConfig()) -> PlanKey:
    """The PlanKey of ``method`` launched on ``system`` under ``config``.

    The one key builder: :meth:`PlanCache.plan` and the serving front
    end's lanes (:mod:`repro.serve.server`) both key through it.
    """
    return PlanKey(table_key(method), method.placement, system.config,
                   system.costs, config)


class PlanCache:
    """Bounded LRU of ExecutionPlans with a shared built-table pool."""

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ConfigurationError("PlanCache needs maxsize >= 1")
        self.maxsize = maxsize
        self.method_pool_size = max(maxsize, 8)
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

    def plan(self, system: PIMSystem, method: Method,
             config: LaunchConfig = LaunchConfig()) -> ExecutionPlan:
        """The compiled plan of ``method`` on ``system`` under ``config``.

        On a plan miss, the method pool is consulted first: an equivalent
        built table image (any placement) is reused via
        :meth:`~repro.core.method.Method.set_placement` instead of
        rebuilding; only a pool miss pays for table generation.
        ``method`` may be passed un-setup — compilation builds it (or
        skips the build entirely on a pool hit).
        """
        key = key_for(system, method, config)
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

        plan = compile_plan(system, pooled, key.config, image=image)
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
