"""Memory regions of a simulated PIM core: scratchpad (WRAM) and bank (MRAM).

A :class:`MemoryRegion` is a bump allocator with capacity checking.  The
library uses it to decide whether a lookup table of the requested precision
fits in WRAM (64 KB) or must live in MRAM — the tradeoff behind the paper's
Figure 5 dashed-vs-solid lines and its Observation 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import MemoryLayoutError

__all__ = ["Allocation", "MemoryRegion"]


@dataclass(frozen=True)
class Allocation:
    """A named, contiguous allocation inside a memory region."""

    label: str
    offset: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


class MemoryRegion:
    """A fixed-capacity memory with bump allocation and 8-byte alignment.

    UPMEM MRAM DMA requires 8-byte-aligned, 8-byte-multiple transfers; we
    apply the same alignment to WRAM for uniformity.
    """

    ALIGNMENT = 8

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise MemoryLayoutError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._cursor = 0
        self._allocations: List[Allocation] = []
        self._tables: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._cursor

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._cursor

    @property
    def allocations(self) -> List[Allocation]:
        return list(self._allocations)

    def _aligned(self, nbytes: int) -> int:
        rem = nbytes % self.ALIGNMENT
        return nbytes if rem == 0 else nbytes + (self.ALIGNMENT - rem)

    def check_fit(self, nbytes: int, label: str) -> int:
        """Raise :class:`MemoryLayoutError` unless :meth:`allocate` of
        ``nbytes`` under ``label`` would succeed now; return its aligned size.
        """
        if nbytes < 0:
            raise MemoryLayoutError(f"{self.name}: negative allocation size")
        size = self._aligned(nbytes)
        if self._cursor + size > self.capacity_bytes:
            raise MemoryLayoutError(
                f"{self.name}: allocation {label!r} of {size} bytes does not fit "
                f"({self.free_bytes} bytes free of {self.capacity_bytes})"
            )
        return size

    def allocate(self, nbytes: int, label: str) -> Allocation:
        """Reserve ``nbytes`` (rounded up to alignment) under ``label``."""
        size = self.check_fit(nbytes, label)
        alloc = Allocation(label=label, offset=self._cursor, nbytes=size)
        self._cursor += size
        self._allocations.append(alloc)
        return alloc

    def fits(self, nbytes: int) -> bool:
        """True when an allocation of ``nbytes`` would currently succeed."""
        return self._aligned(nbytes) <= self.free_bytes

    def reset(self) -> None:
        """Release every allocation and stored table."""
        self._cursor = 0
        self._allocations.clear()
        self._tables.clear()

    # ------------------------------------------------------------------
    # table storage (contents keyed by label; sizes tracked by allocate)

    def store_table(self, label: str, table: np.ndarray) -> Allocation:
        """Allocate space for ``table`` and keep its contents for lookups."""
        alloc = self.allocate(int(table.nbytes), label)
        self._tables[label] = table
        return alloc

    def table(self, label: str) -> np.ndarray:
        """Retrieve a stored table's contents."""
        try:
            return self._tables[label]
        except KeyError:
            raise MemoryLayoutError(
                f"{self.name}: no table stored under label {label!r}"
            ) from None
