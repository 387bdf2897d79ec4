"""Normalized request identity: what makes two serving requests coalescible.

Two requests may share one coalesced batch — and therefore one compiled
:class:`~repro.plan.plan.ExecutionPlan` — exactly when they compile to
the same :class:`~repro.plan.cache.PlanKey`: same kernel (function +
method + every precision knob, q-format included), same placement, same
system configuration (topology included) and op costs, same
:class:`~repro.plan.plan.LaunchConfig`.

A :class:`RequestSpec` is the request-side half of that identity,
*normalized* so that textually different ways of asking for the same
kernel collapse onto one spec:

* constructor knobs are sorted by name and stored as ``(tag, value)``
  typed pairs (the same canonicalization :mod:`repro.plan.cache` uses for
  table keys), so ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}`` are
  one spec, numpy scalars collapse onto their python values, and ``1``
  never collides with ``True`` or ``"1"``;
* fixed-point geometry knobs (``density_log2`` and friends) travel
  through the same pairs — requests for different table densities or
  segment budgets can never share one compiled table;
* defaults are applied before normalization, so an explicit
  ``placement="mram"`` equals an omitted one.

The server keys its lanes by the plan key itself: it builds the spec's
(un-setup) :class:`~repro.core.method.Method` via :func:`spec_method` and
calls :func:`~repro.plan.cache.key_for` with the session's launch config
— the same call its plan compile goes through — so request coalescing
and plan caching cannot disagree about equality.  Two specs that differ
in any field never share a key (pinned by ``tests/serve/test_keys.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.method import Method
from repro.errors import ConfigurationError

__all__ = ["RequestSpec", "normalize_request", "spec_method"]

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
