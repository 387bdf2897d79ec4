"""Polynomial approximation as a first-class method (``poly``).

The paper contrasts its LUT methods against polynomial approximation —
"one floating-point multiplication is needed for each bit of precision"
(Section 4.2.1).  Exposing a Remez-fitted minimax polynomial through the
same :class:`~repro.core.method.Method` interface puts that contrast on the
Figure 5 axes directly: the ``poly`` curve climbs with accuracy like
CORDIC's (every extra term is a softfloat multiply-add) while the LUT
curves stay flat.

Host-side setup runs the Remez exchange *in a normalized variable*
``u = (x - center) / half_width`` on [-1, 1]: raw-x Horner evaluation on a
wide interval like tanh's [0, 8) is catastrophically ill-conditioned in
float32 (x^14 ~ 4e12 against alternating coefficients), while the
normalized form keeps every power bounded by 1.  The PIM side pays one
extra subtract and multiply for the transform, then ``degree``
multiply-adds.
"""

from __future__ import annotations

import numpy as np

from repro.core.functions.registry import FunctionSpec
from repro.core.method import Method
from repro.core.minimax import horner, horner_vec, remez
from repro.errors import ConfigurationError
from repro.isa.counter import CycleCounter

__all__ = ["MinimaxPolyMethod"]

_F32 = np.float32


class MinimaxPolyMethod(Method):
    """Degree-n minimax polynomial over the function's natural range."""

    method_name = "poly"

    def __init__(self, spec: FunctionSpec, degree: int = 8, **kwargs):
        super().__init__(spec, **kwargs)
        if not 0 <= degree <= 24:
            raise ConfigurationError(
                f"polynomial degree must be in [0, 24], got {degree}"
            )
        self.degree = degree
        self._coeffs = []
        self._fit = None
        lo, hi = spec.natural_range
        self._center = _F32((lo + hi) / 2.0)
        self._inv_half = _F32(2.0 / (hi - lo))

    # ------------------------------------------------------------------
    # host side

    def _build(self) -> None:
        lo, hi = self.spec.natural_range
        center = (lo + hi) / 2.0
        half = (hi - lo) / 2.0

        def normalized(u):
            return self.spec.reference(center + half * np.asarray(u))

        self._fit = remez(normalized, self.degree, (-1.0, 1.0))
        self._coeffs = self._fit.coefficients_f32_desc()

    def table_bytes(self) -> int:
        # Only the coefficient vector lives on the PIM core.
        return (self.degree + 1) * 4

    def planned_table_bytes(self) -> int:
        return self.table_bytes()

    def host_entries(self) -> int:
        # Setup cost is the Remez fit: charge its dense evaluation grid.
        return 4096

    @property
    def fit_error(self) -> float:
        """The certified minimax error of the fitted polynomial."""
        if self._fit is None:
            raise ConfigurationError("call setup() first")
        return self._fit.max_error

    # ------------------------------------------------------------------
    # PIM side

    def core_eval(self, ctx: CycleCounter, u):
        t = ctx.fsub(_F32(u), self._center)
        t = ctx.fmul(t, self._inv_half)
        return horner(ctx, self._coeffs, t)

    def core_vec(self, u, keys):
        # Horner evaluation is branch-free: constant cost, one path.
        u = np.asarray(u, dtype=_F32)
        t = (u - self._center) * self._inv_half
        return (horner_vec(self._coeffs, t),
                np.zeros(u.shape, dtype=np.int64) if keys else None)
