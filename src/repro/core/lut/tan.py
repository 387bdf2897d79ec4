"""Tangent through sine and cosine tables plus one division (Section 4.2.4).

Tabulating tan directly is hopeless near its poles (the slope is unbounded,
so no finite spacing bounds the error).  TransPimLib instead computes the
sine and cosine with the chosen LUT method and divides — which is exactly why
the paper reports tangent costing 2-3x a sine: two lookups plus a float
divide, the single most expensive softfloat operation.
"""

from __future__ import annotations

from typing import Type

import numpy as np

from repro.batch.keys import pack_fields
from repro.core.functions.registry import FunctionSpec, get_function
from repro.core.lut.base import FuzzyLUT
from repro.isa.counter import CycleCounter

__all__ = ["TanQuotientLUT", "make_tan_lut"]

_F32 = np.float32


class TanQuotientLUT(FuzzyLUT):
    """tan(x) = sin(x) / cos(x) with both factors from one LUT method."""

    method_name = "tan_quotient"  # overridden per instance

    def __init__(self, inner_cls: Type[FuzzyLUT], spec: FunctionSpec,
                 **params):
        # Split constructor kwargs: Method-level options stay with us and are
        # also forwarded; precision knobs go to the inner tables.
        method_opts = {
            k: params[k]
            for k in ("placement", "assume_in_range", "costs") if k in params
        }
        super().__init__(spec, **method_opts)
        inner = dict(params)
        inner["assume_in_range"] = True  # this wrapper reduces the range
        inner.setdefault("placement", self.placement)
        inner.setdefault("costs", self.costs)
        self.sin_m = inner_cls(get_function("sin"), **inner)
        self.cos_m = inner_cls(get_function("cos"), **inner)
        self.method_name = self.sin_m.method_name
        self.interpolated = self.sin_m.interpolated
        self.fixed_point = self.sin_m.fixed_point

    def _build(self) -> None:
        self.sin_m.setup()
        self.cos_m.setup()

    @property
    def entries(self) -> int:
        """Entries of both factor tables (no combined copy is kept)."""
        return self.sin_m.entries + self.cos_m.entries

    def table_bytes(self) -> int:
        return self.sin_m.table_bytes() + self.cos_m.table_bytes()

    def planned_table_bytes(self):
        sin_b = self.sin_m.planned_table_bytes()
        cos_b = self.cos_m.planned_table_bytes()
        if sin_b is None or cos_b is None:
            return None
        return sin_b + cos_b

    def set_placement(self, placement: str) -> None:
        super().set_placement(placement)
        self.sin_m.set_placement(placement)
        self.cos_m.set_placement(placement)

    def host_entries(self) -> int:
        return self.sin_m.host_entries() + self.cos_m.host_entries()

    def core_eval(self, ctx: CycleCounter, u):
        s = self.sin_m.core_eval(ctx, u)
        c = self.cos_m.core_eval(ctx, u)
        return ctx.fdiv(s, c)

    def core_vec(self, u, keys):
        s, s_key = self.sin_m.core_vec(u, keys)
        c, c_key = self.cos_m.core_vec(u, keys)
        key = pack_fields([(s_key, 12), (c_key, 12)]) if keys else None
        return (s / c).astype(_F32), key


def make_tan_lut(inner_cls: Type[FuzzyLUT], **params) -> TanQuotientLUT:
    """Build the tan wrapper around ``inner_cls`` sine/cosine tables."""
    return TanQuotientLUT(inner_cls, get_function("tan"), **params)
