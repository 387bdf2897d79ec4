"""Normalized request identity: what makes two serving requests coalescible.

Two requests may share one coalesced batch — and therefore one compiled
:class:`~repro.plan.plan.ExecutionPlan` — exactly when they would compile
to the same :class:`~repro.plan.cache.PlanKey`: same kernel (function +
method + every precision knob, q-format included), same placement, same
system configuration (topology included) and op costs, same launch
geometry.

A :class:`RequestSpec` is the request-side half of that identity,
*normalized* so that textually different ways of asking for the same
kernel collapse onto one key:

* constructor knobs are sorted by name and stored as ``(tag, value)``
  typed pairs (the same canonicalization :mod:`repro.plan.cache` uses for
  plan signatures), so ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}`` are
  one spec, numpy scalars collapse onto their python values, and ``1``
  never collides with ``True`` or ``"1"``;
* fixed-point geometry knobs (``density_log2`` and friends) travel
  through the same pairs — requests for different table densities or
  segment budgets can never share one compiled table;
* defaults are applied before normalization, so an explicit
  ``placement="mram"`` equals an omitted one.

The mapping into a :class:`~repro.plan.cache.PlanKey` is total: the spec
builds an (un-setup) :class:`~repro.core.method.Method` via
:func:`repro.api.make_method` and keys it with
:func:`~repro.plan.cache.key_for` — so every field of the plan
key machinery (table signature, system digest, costs, transfers) is
inherited rather than re-derived.  The ``cache-key`` lint pass checks this
module's builders with the same discipline it applies to the plan cache:
no ``repr()`` components, and every :class:`RequestSpec` field declared in
the coverage contract mapping it into ``PlanKey`` fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.method import Method
from repro.errors import ConfigurationError
from repro.plan.cache import PlanKey
from repro.plan.cache import key_for as _plan_key_for
from repro.plan.plan import TransferSchedule

__all__ = ["RequestSpec", "normalize_request", "spec_method", "request_key"]

#: Tag -> decoder for typed param pairs (inverse of the encoding below).
_DECODERS = {
    "b": bool,
    "i": int,
    "f": float.fromhex,
    "s": str,
}


def _param_pairs(params: Mapping[str, object]) -> Tuple[
        Tuple[str, Tuple[str, object]], ...]:
    """Constructor knobs as sorted, typed ``(name, (tag, value))`` pairs.

    The typed encoding is the plan cache's: booleans before ints (so
    ``True`` never collides with ``1``), floats canonicalized through
    ``hex()`` (bit-exact, repr-independent), everything else a string.
    """
    from repro.plan.cache import _typed

    pairs = []
    for name in sorted(params):
        if not isinstance(name, str):
            raise ConfigurationError(
                f"request param names must be strings, got {type(name).__name__}")
        pairs.append((name, _typed(params[name])))
    return tuple(pairs)


@dataclass(frozen=True)
class RequestSpec:
    """One normalized serving request target (hashable, order-canonical)."""

    #: Registered function name (``"sin"``, ``"gelu"``, ...).
    function: str
    #: Method family name (``"llut_i"``, ``"dlut"``, ``"cordic_fx"``, ...).
    method: str
    #: Sorted typed constructor knobs, q-format knobs included.
    params: Tuple[Tuple[str, Tuple[str, object]], ...] = ()
    #: Table placement; part of the plan identity (traced load costs).
    placement: str = "mram"
    #: Whether the kernel may skip range reduction.
    assume_in_range: bool = False

    def param_kwargs(self) -> Dict[str, object]:
        """The constructor knobs decoded back to plain python values."""
        return {name: _DECODERS[tag](value)
                for name, (tag, value) in self.params}

    @property
    def label(self) -> str:
        """Human-readable ``method:function`` label (stats, reports)."""
        return f"{self.method}:{self.function}"


def normalize_request(
    function: str,
    method: str,
    params: Optional[Mapping[str, object]] = None,
    *,
    placement: str = "mram",
    assume_in_range: bool = False,
) -> RequestSpec:
    """Canonical :class:`RequestSpec` for a request, defaults applied.

    Raises :class:`~repro.errors.ConfigurationError` for malformed param
    maps; (function, method) support is validated later, when the spec is
    first resolved to a Method (:func:`spec_method`).
    """
    if placement not in ("mram", "wram"):
        raise ConfigurationError(
            f"placement must be 'mram' or 'wram', got {placement}")
    return RequestSpec(
        function=str(function),
        method=str(method),
        params=_param_pairs(params if params is not None else {}),
        placement=str(placement),
        assume_in_range=bool(assume_in_range),
    )


def spec_method(spec: RequestSpec) -> Method:
    """A fresh (un-setup) Method for ``spec``.

    Construction is cheap — no table is built until the plan compiles —
    and validates the (function, method) pair against the support matrix.
    """
    from repro.api import make_method

    return make_method(
        spec.function, spec.method, placement=spec.placement,
        assume_in_range=spec.assume_in_range, **spec.param_kwargs())


def request_key(
    spec: RequestSpec,
    system,
    *,
    tasklets: int = 16,
    sample_size: int = 64,
    transfers: Optional[TransferSchedule] = None,
    imbalance: float = 0.0,
    method: Optional[Method] = None,
) -> PlanKey:
    """The :class:`~repro.plan.cache.PlanKey` this request coalesces under.

    Every component of the plan identity — table signature (function,
    method, knobs, q-format), placement, system config, op costs, launch
    geometry, transfer schedule — is derived through the plan
    cache's own ``key_for``, so request coalescing and plan caching can
    never disagree about equality.  ``method`` optionally reuses an
    already-resolved Method (the server memoizes one per spec).
    """
    if method is None:
        method = spec_method(spec)
    return _plan_key_for(
        system, method, tasklets=tasklets, sample_size=sample_size,
        transfers=transfers, imbalance=imbalance)
