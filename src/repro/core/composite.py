"""Composite methods: functions built from other TransPimLib methods.

On CPUs/GPUs, GELU is almost always computed through its tanh approximation

    gelu(x) ~ 0.5 x (1 + tanh( sqrt(2/pi) (x + 0.044715 x^3) ))

because a fast tanh is available in hardware.  On an FP-emulating PIM core
the trade flips: the approximation spends five softfloat multiplies *around*
the tanh, while TransPimLib can tabulate GELU directly for the cost of one
lookup.  :class:`GeluViaTanh` implements the composite faithfully (traced
and vectorized) so the benchmark can quantify the flip — it is both slower
*and* less accurate (the approximation itself has ~1e-3 peak error) than a
direct D-LUT.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.functions.registry import get_function
from repro.core.method import Method
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

__all__ = ["GeluViaTanh"]

_F32 = np.float32

_A = _F32(math.sqrt(2.0 / math.pi))
_B = _F32(0.044715)


class GeluViaTanh(Method):
    """GELU through the tanh approximation, tanh from a TransPimLib method."""

    method_name = "gelu_tanh_approx"

    def __init__(self, tanh_method: Method, **kwargs):
        if tanh_method.spec.name != "tanh":
            raise ConfigurationError(
                "GeluViaTanh needs a method bound to tanh, got "
                f"{tanh_method.spec.name!r}"
            )
        super().__init__(get_function("gelu"), **kwargs)
        self.tanh_method = tanh_method

    # ------------------------------------------------------------------
    # host side

    def _build(self) -> None:
        self.tanh_method.setup()

    def table_bytes(self) -> int:
        return self.tanh_method.table_bytes()

    def planned_table_bytes(self):
        return self.tanh_method.planned_table_bytes()

    def set_placement(self, placement: str) -> None:
        super().set_placement(placement)
        self.tanh_method.set_placement(placement)

    def host_entries(self) -> int:
        return self.tanh_method.host_entries()

    # ------------------------------------------------------------------
    # PIM side (u >= 0 after the gelu symmetry reduction)

    def core_eval(self, ctx: CycleCounter, u):
        u2 = ctx.fmul(u, u)
        u3 = ctx.fmul(u2, u)
        cubic = ctx.fmul(_B, u3)
        inner = ctx.fadd(u, cubic)
        arg = ctx.fmul(_A, inner)
        t = self.tanh_method.core_eval(ctx, arg)
        one_plus = ctx.fadd(_F32(1.0), t)
        half_u = ctx.ldexp(u, -1)
        return ctx.fmul(half_u, one_plus)

    def core_vec(self, u, keys):
        # The wrapper arithmetic is branch-free; the cost path is decided
        # entirely by the inner tanh on the transformed argument.
        u = np.asarray(u, dtype=_F32)
        arg = _A * (u + _B * (u * u * u))
        t, key = self.tanh_method.core_vec(arg, keys)
        return (u * _F32(0.5)) * (_F32(1.0) + t), key
