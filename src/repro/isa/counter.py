"""Cycle-counting execution context for PIM-side code.

Every TransPimLib method in this reproduction is written against the small
"PIM ISA" exposed by :class:`CycleCounter`.  Each ISA call does two things:

1. computes the result in exact 32-bit semantics (``np.float32`` for floats,
   Python ints for integer/fixed-point words), and
2. charges the operation's instruction-slot cost from :class:`~repro.isa.opcosts.OpCosts`.

This mirrors how the paper measures: the same kernel that produces the output
values is the one whose hardware cycle counter is read.  The tally separates
*pipeline slots* (which convert to cycles via the tasklet pipeline model in
:mod:`repro.pim.pipeline`) from *DMA latency* (which the fine-grained
multithreaded pipeline can hide when enough tasklets are resident — the
mechanism behind the paper's observation that MRAM-resident LUTs perform like
WRAM-resident ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.isa.opcosts import OpCosts, UPMEM_COSTS

__all__ = ["Tally", "CycleCounter"]

_F32 = np.float32

Float = Union[float, np.float32]

#: ``n -> (2**n as a float32, bound)`` for every ``n`` whose power of two
#: is a normal float32.  A float32 ``a`` with ``|a| < bound`` is finite and
#: ``a * 2**n`` cannot overflow.
_POW2_STEPS: Dict[int, Tuple[np.float32, float]] = {
    n: (_F32(math.ldexp(1.0, n)),
        math.ldexp(1.0, 128 - n) if n > 0 else math.inf)
    for n in range(-126, 128)
}


@dataclass
class Tally:
    """Accumulated execution statistics for a counted region."""

    slots: int = 0                 # weighted pipeline instruction slots
    dma_transactions: int = 0      # MRAM DMA transactions issued
    dma_bytes: int = 0             # bytes moved over the MRAM DMA engine
    dma_latency: int = 0           # cycles of (hideable) DMA latency
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, other: "Tally") -> None:
        """Accumulate another tally into this one."""
        self.slots += other.slots
        self.dma_transactions += other.dma_transactions
        self.dma_bytes += other.dma_bytes
        self.dma_latency += other.dma_latency
        for name, n in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n

    def count(self, name: str) -> int:
        """Number of times operation ``name`` was executed."""
        return self.counts.get(name, 0)

    def scaled(self, factor) -> "Tally":
        """This tally times ``factor`` (an int factor keeps fields exact)."""
        return Tally(
            slots=self.slots * factor,
            dma_transactions=self.dma_transactions * factor,
            dma_bytes=self.dma_bytes * factor,
            dma_latency=self.dma_latency * factor,
            counts={name: n * factor for name, n in self.counts.items()},
        )


class CycleCounter:
    """Computes values in 32-bit semantics while charging instruction costs.

    Float operands are coerced to ``np.float32`` on the way in and results are
    ``np.float32``, so rounding matches a 32-bit softfloat implementation.
    Integer operands are plain Python ints; 32-bit wrapping, where needed, is
    the responsibility of the fixed-point layer.
    """

    def __init__(self, costs: OpCosts = UPMEM_COSTS, trace_ops=None):
        self.costs = costs
        self.tally = Tally()
        #: Optional instruction trace: (name, slots, dma_cycles) per op,
        #: consumable by the cycle-accurate simulator (repro.pim.exec).
        self.trace_ops = trace_ops

    # ------------------------------------------------------------------
    # bookkeeping

    def _charge(self, name: str, slots: int, dma_cycles: int = 0) -> None:
        self.tally.slots += slots
        self.tally.counts[name] = self.tally.counts.get(name, 0) + 1
        if self.trace_ops is not None:
            self.trace_ops.append((name, slots, dma_cycles))

    def reset(self) -> Tally:
        """Return the current tally and start a fresh one."""
        done, self.tally = self.tally, Tally()
        return done

    @property
    def slots(self) -> int:
        """Total weighted pipeline slots charged so far."""
        return self.tally.slots

    # ------------------------------------------------------------------
    # native integer ALU

    def iadd(self, a: int, b: int) -> int:
        """Native integer add."""
        self._charge("iadd", self.costs.int_alu)
        return a + b

    def isub(self, a: int, b: int) -> int:
        """Native integer subtract."""
        self._charge("isub", self.costs.int_alu)
        return a - b

    def iand(self, a: int, b: int) -> int:
        """Native bitwise and."""
        self._charge("iand", self.costs.int_alu)
        return a & b

    def ior(self, a: int, b: int) -> int:
        """Native bitwise or."""
        self._charge("ior", self.costs.int_alu)
        return a | b

    def ixor(self, a: int, b: int) -> int:
        """Native bitwise xor."""
        self._charge("ixor", self.costs.int_alu)
        return a ^ b

    def shl(self, a: int, n: int) -> int:
        """Logical left shift."""
        self._charge("shl", self.costs.int_alu)
        return a << n

    def shr(self, a: int, n: int) -> int:
        """Arithmetic right shift (sign-preserving, like the DPU's ``asr``)."""
        self._charge("shr", self.costs.int_alu)
        return a >> n

    def icmp(self, a: int, b: int) -> int:
        """Three-way compare: -1, 0, or 1. One native instruction."""
        self._charge("icmp", self.costs.int_alu)
        return (a > b) - (a < b)

    def imul(self, a: int, b: int) -> int:
        """Emulated 32x32 -> 32 multiply."""
        self._charge("imul", self.costs.int_mul)
        return a * b

    def imul64(self, a: int, b: int) -> int:
        """32x32 -> 64-bit multiply (the emulated wide multiply fixed-point needs)."""
        self._charge("imul64", self.costs.int_mul64)
        return a * b

    def idiv(self, a: int, b: int) -> int:
        """Truncating integer division (C semantics: rounds toward zero)."""
        self._charge("idiv", self.costs.int_div)
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    def idiv64(self, a: int, b: int) -> int:
        """Truncating 64/32-bit division (the wide divide fixed-point needs)."""
        self._charge("idiv64", self.costs.int_div64)
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    # ------------------------------------------------------------------
    # software floating point (exact float32 semantics)

    def fadd(self, a: Float, b: Float) -> np.float32:
        """Softfloat add (exact float32 result)."""
        self._charge("fadd", self.costs.fp_add)
        return _F32(_F32(a) + _F32(b))

    def fsub(self, a: Float, b: Float) -> np.float32:
        """Softfloat subtract (exact float32 result)."""
        self._charge("fsub", self.costs.fp_add)
        return _F32(_F32(a) - _F32(b))

    def fmul(self, a: Float, b: Float) -> np.float32:
        """Softfloat multiply (exact float32 result)."""
        self._charge("fmul", self.costs.fp_mul)
        return _F32(_F32(a) * _F32(b))

    def fdiv(self, a: Float, b: Float) -> np.float32:
        """Softfloat divide (exact float32 result)."""
        self._charge("fdiv", self.costs.fp_div)
        return _F32(_F32(a) / _F32(b))

    def fcmp(self, a: Float, b: Float) -> int:
        """Three-way float compare: -1, 0, or 1."""
        self._charge("fcmp", self.costs.fp_cmp)
        fa, fb = _F32(a), _F32(b)
        return int(fa > fb) - int(fa < fb)

    def fneg(self, a: Float) -> np.float32:
        """Sign-bit flip."""
        self._charge("fneg", self.costs.fp_neg)
        return _F32(-_F32(a))

    def fabs(self, a: Float) -> np.float32:
        """Sign-bit clear."""
        self._charge("fabs", self.costs.fp_abs)
        return _F32(abs(_F32(a)))

    # ------------------------------------------------------------------
    # conversions

    def f2i(self, a: Float) -> int:
        """Truncate a float32 toward zero to an integer.

        Non-finite inputs return 0, mirroring the DPU convention of
        garbage-in/defined-word-out rather than trapping.
        """
        self._charge("f2i", self.costs.fp_to_int)
        v = _F32(a)
        if not np.isfinite(v):
            return 0
        return int(v)

    def i2f(self, a: int) -> np.float32:
        """int32 -> float32 conversion."""
        self._charge("i2f", self.costs.int_to_fp)
        return _F32(a)

    def ffloor(self, a: Float) -> int:
        """Floor a float32 to an integer (0 for non-finite inputs)."""
        self._charge("ffloor", self.costs.fp_floor)
        v = _F32(a)
        if not np.isfinite(v):
            return 0
        return int(math.floor(v))

    def fround(self, a: Float) -> int:
        """Round a float32 to the nearest integer (half away from zero;
        0 for non-finite inputs)."""
        self._charge("fround", self.costs.fp_round)
        f = float(_F32(a))
        if not math.isfinite(f):
            return 0
        return int(math.floor(f + 0.5)) if f >= 0 else int(math.ceil(f - 0.5))

    def f2fx(self, a: Float, frac_bits: int) -> int:
        """Convert float32 to a fixed-point raw word with ``frac_bits`` fraction.

        Rounds to nearest; the DPU sequence aligns the mantissa by the
        exponent difference.
        """
        self._charge("f2fx", self.costs.float_to_fixed)
        scaled = np.float64(_F32(a)) * (1 << frac_bits)
        if not np.isfinite(scaled):
            return 0  # garbage-in/defined-word-out, like the DPU sequence
        return int(np.round(scaled))

    def fx2f(self, raw: int, frac_bits: int) -> np.float32:
        """Convert a fixed-point raw word back to float32 (normalize + round)."""
        self._charge("fx2f", self.costs.fixed_to_float)
        return _F32(np.float64(raw) / (1 << frac_bits))

    # ------------------------------------------------------------------
    # TransPimLib bit-manipulation primitives

    def ldexp(self, a: Float, n: int) -> np.float32:
        """Compute ``a * 2**n`` via exponent-field arithmetic (Section 3.2.2).

        The result is :func:`~repro.core.ldexp.ldexpf`'s, bit for bit.  A
        finite ``a`` times a normal power of two that cannot overflow is
        one float32 multiply: exact, or rounded to nearest even into the
        subnormals as ``ldexpf`` rounds.  Every other input (NaN and
        infinities, whose bits ``ldexpf`` keeps, overflow and exponents
        outside [-126, 127]) goes through ``ldexpf``.
        """
        self._charge("ldexp", self.costs.ldexp)
        a = _F32(a)
        step = _POW2_STEPS.get(n)
        if step is not None and abs(a) < step[1]:
            return a * step[0]
        from repro.core.ldexp import ldexpf
        return ldexpf(a, n)

    def frexp(self, a: Float) -> Tuple[np.float32, int]:
        """Split into mantissa in [0.5, 1) and exponent, float32 semantics."""
        self._charge("frexp", self.costs.frexp)
        from repro.core.ldexp import frexpf
        return frexpf(a)

    def bitcast_f2i(self, a: Float) -> int:
        """Reinterpret float32 bits as uint32 (a register move: 1 slot)."""
        self._charge("bitcast", self.costs.int_alu)
        from repro.core.float_bits import float_to_bits
        return int(float_to_bits(a))

    def bitcast_i2f(self, bits: int) -> np.float32:
        """Reinterpret uint32 bits as float32 (a register move: 1 slot)."""
        self._charge("bitcast", self.costs.int_alu)
        from repro.core.float_bits import bits_to_float
        return _F32(bits_to_float(bits & 0xFFFFFFFF))

    # ------------------------------------------------------------------
    # memory

    def wram_read(self, table: Sequence, index: int):
        """Load one element from a scratchpad-resident table."""
        self._charge("wram_read", self.costs.wram_access)
        return table[index]

    def wram_write(self, table, index: int, value) -> None:
        """Store one element into a scratchpad-resident table."""
        self._charge("wram_write", self.costs.wram_access)
        table[index] = value

    def mram_read(self, table: Sequence, index: int, elem_bytes: int = 4):
        """Load one element from a DRAM-bank-resident table via DMA.

        The DMA setup occupies pipeline slots; the beat latency is tracked
        separately because the multithreaded pipeline hides it when enough
        tasklets are resident.
        """
        beats = max(1, (elem_bytes + 7) // 8)
        latency = beats * self.costs.mram_dma_per_8b
        self._charge("mram_read", self.costs.mram_dma_setup, latency)
        self.tally.dma_transactions += 1
        self.tally.dma_bytes += elem_bytes
        self.tally.dma_latency += latency
        return table[index]

    def branch(self) -> None:
        """Charge a taken-branch slot."""
        self._charge("branch", self.costs.branch)
