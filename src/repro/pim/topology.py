"""Hierarchical channel/DIMM/rank topology of the PIM system.

The paper's evaluation platform (Section 4.1) is not a flat pool of PIM
cores: 2560 DPUs sit on 20 DIMMs (2 ranks of 64 DPUs each) behind two
memory channels, and 15 DPUs are defective, leaving 2545 usable.  The
structure matters for performance modeling:

* parallel (balanced) host<->PIM transfers batch per *rank* — an
  unbalanced scatter serializes per rank, not per system, so a rank-aware
  model recovers rank-level parallelism the flat ``n_dpus`` scalar hides
  ("UPMEM Unleashed", PAPERS.md);
* every rank hangs off one memory channel, so a rank-aligned shard has a
  home channel, and a channel-aware pool routes it to that channel's
  worker group.

:class:`Topology` is the hierarchy made explicit, with a flat *usable*
DPU index space layered on top: usable index ``i`` names the ``i``-th
non-defective DPU in physical order, which is exactly the index space
:class:`~repro.pim.config.SystemConfig.n_dpus`, ``shard_split`` and the
pipeline scheduler's ``dpu_range`` already speak.  The class is frozen
and hashable — it rides inside :class:`~repro.pim.config.SystemConfig`
and therefore inside every :class:`~repro.plan.cache.PlanKey` — and
pickles cleanly (it crosses the process boundary in every shipped plan).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DPUCoord", "Topology", "PAPER_TOPOLOGY"]


@dataclass(frozen=True)
class DPUCoord:
    """Hierarchical position of one DPU: (channel, dimm, rank, dpu).

    ``dimm`` and ``rank`` are channel- and DIMM-relative; ``dpu`` is the
    slot within the rank.
    """

    channel: int
    dimm: int
    rank: int
    dpu: int


#: The paper reports 2545 usable of 2560 DPUs but not *which* 15 are
#: defective; model them as a deterministic spread, one roughly every
#: 170 physical slots, so defects land in 15 distinct ranks.
_PAPER_DEFECTS: Tuple[int, ...] = tuple((i * 2560) // 15 + 13
                                        for i in range(15))


@dataclass(frozen=True)
class Topology:
    """A channel/DIMM/rank/DPU hierarchy with a defective-DPU mask.

    ``defective`` holds flat *physical* DPU indices (canonicalized to a
    sorted unique tuple).  The default geometry is the paper's: 2
    channels x 10 DIMMs x 2 ranks x 64 DPUs = 2560 physical DPUs; with
    the 15-defect paper mask (:data:`PAPER_TOPOLOGY`) that is 2545
    usable.

    Physical layout is channel-major::

        physical = ((channel * dimms_per_channel + dimm)
                    * ranks_per_dimm + rank) * dpus_per_rank + dpu

    and the flat usable index space is the physical order with defective
    slots removed.
    """

    channels: int = 2
    dimms_per_channel: int = 10
    ranks_per_dimm: int = 2
    dpus_per_rank: int = 64
    defective: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("channels", "dimms_per_channel", "ranks_per_dimm",
                     "dpus_per_rank"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"topology needs {name} >= 1")
        canonical = tuple(sorted({int(d) for d in self.defective}))
        object.__setattr__(self, "defective", canonical)
        physical = self.n_dpus_physical
        if canonical and not (0 <= canonical[0]
                              and canonical[-1] < physical):
            raise ConfigurationError(
                f"defective DPU indices must lie in [0, {physical})")
        if len(canonical) >= physical:
            raise ConfigurationError(
                "topology needs at least one usable DPU")

    # -- counts --------------------------------------------------------

    @property
    def n_dimms(self) -> int:
        return self.channels * self.dimms_per_channel

    @property
    def n_ranks(self) -> int:
        return self.n_dimms * self.ranks_per_dimm

    @property
    def ranks_per_channel(self) -> int:
        return self.dimms_per_channel * self.ranks_per_dimm

    @property
    def n_dpus_physical(self) -> int:
        return self.n_ranks * self.dpus_per_rank

    @property
    def n_dpus(self) -> int:
        """Usable DPUs — the flat count every layer above consumes."""
        return self.n_dpus_physical - len(self.defective)

    # -- flat <-> hierarchical mapping ---------------------------------

    def physical_of_usable(self, index: int) -> int:
        """Physical slot of the ``index``-th usable DPU."""
        if not 0 <= index < self.n_dpus:
            raise ConfigurationError(
                f"usable DPU index {index} out of range "
                f"[0, {self.n_dpus})")
        return int(_usable_physical(self)[index])

    def usable_of_physical(self, physical: int) -> int:
        """Flat usable index of a physical slot (defects have none)."""
        if not 0 <= physical < self.n_dpus_physical:
            raise ConfigurationError(
                f"physical DPU index {physical} out of range "
                f"[0, {self.n_dpus_physical})")
        arr = _usable_physical(self)
        pos = int(np.searchsorted(arr, physical))
        if pos >= arr.shape[0] or int(arr[pos]) != physical:
            raise ConfigurationError(
                f"physical DPU {physical} is defective")
        return pos

    def coord_of_physical(self, physical: int) -> DPUCoord:
        """Hierarchical coordinate of a physical slot."""
        if not 0 <= physical < self.n_dpus_physical:
            raise ConfigurationError(
                f"physical DPU index {physical} out of range "
                f"[0, {self.n_dpus_physical})")
        block, dpu = divmod(physical, self.dpus_per_rank)
        block, rank = divmod(block, self.ranks_per_dimm)
        channel, dimm = divmod(block, self.dimms_per_channel)
        return DPUCoord(channel=channel, dimm=dimm, rank=rank, dpu=dpu)

    def physical_of_coord(self, coord: DPUCoord) -> int:
        """Physical slot of a hierarchical coordinate."""
        if not (0 <= coord.channel < self.channels
                and 0 <= coord.dimm < self.dimms_per_channel
                and 0 <= coord.rank < self.ranks_per_dimm
                and 0 <= coord.dpu < self.dpus_per_rank):
            raise ConfigurationError(f"coordinate {coord} out of range")
        block = coord.channel * self.dimms_per_channel + coord.dimm
        block = block * self.ranks_per_dimm + coord.rank
        return block * self.dpus_per_rank + coord.dpu

    def coord_of(self, index: int) -> DPUCoord:
        """Hierarchical coordinate of the ``index``-th usable DPU."""
        return self.coord_of_physical(self.physical_of_usable(index))

    def usable_index(self, coord: DPUCoord) -> int:
        """Flat usable index of a hierarchical coordinate."""
        return self.usable_of_physical(self.physical_of_coord(coord))

    # -- rank structure over the usable index space --------------------

    def rank_spans(self) -> Tuple[Tuple[int, int], ...]:
        """Half-open usable-index span of every global rank, in order.

        A fully defective rank yields an empty span.  The spans tile
        ``[0, n_dpus)`` exactly, so a range that is a union of whole
        consecutive ranks is contiguous in the flat index space.
        """
        return _rank_spans(self)

    def rank_of_usable(self, index: int) -> int:
        """Global rank index of the ``index``-th usable DPU."""
        return self.physical_of_usable(index) // self.dpus_per_rank

    def channel_of_rank(self, rank: int) -> int:
        """Memory channel a global rank hangs off."""
        if not 0 <= rank < self.n_ranks:
            raise ConfigurationError(
                f"rank {rank} out of range [0, {self.n_ranks})")
        return rank // self.ranks_per_channel

    def ranks_in_range(self, start: int, stop: int) -> int:
        """Distinct ranks a usable-index range ``[start, stop)`` touches.

        The rank-parallel transfer model fans an unbalanced scatter
        across this many ranks instead of serializing the whole system.
        """
        if stop <= start:
            return 0
        if not (0 <= start and stop <= self.n_dpus):
            raise ConfigurationError(
                f"usable range [{start}, {stop}) out of [0, {self.n_dpus})")
        return self.rank_of_usable(stop - 1) - self.rank_of_usable(start) + 1

    def channel_of_range(self, start: int, stop: int) -> int:
        """Channel of a usable-index range's first rank (shard affinity)."""
        if stop <= start:
            raise ConfigurationError("channel_of_range needs a nonempty range")
        return self.channel_of_rank(self.rank_of_usable(start))

    def split_ranks(self, n_shards: int) -> List[Tuple[int, int]]:
        """Contiguous usable-index ranges of whole ranks, one per shard.

        Non-empty ranks are distributed round-up-first across shards
        (remainder ranks to the lowest-indexed shards, mirroring
        :func:`~repro.plan.dispatch.shard_split`); every returned range
        starts and ends on a rank boundary, so no shard's ``dpu_range``
        ever straddles a rank.
        """
        from repro.errors import SimulationError

        spans = [s for s in self.rank_spans() if s[1] > s[0]]
        if n_shards < 1:
            raise SimulationError("need at least one shard")
        if n_shards > len(spans):
            raise SimulationError(
                f"{n_shards} rank-aligned shards over {len(spans)} "
                "non-empty ranks: every shard needs a whole rank")
        rq, rr = divmod(len(spans), n_shards)
        ranges: List[Tuple[int, int]] = []
        offset = 0
        for i in range(n_shards):
            take = rq + (1 if i < rr else 0)
            group = spans[offset:offset + take]
            ranges.append((group[0][0], group[-1][1]))
            offset += take
        return ranges

    # -- slicing -------------------------------------------------------

    def subrange(self, start: int, stop: int) -> "Topology":
        """The usable-index slice ``[start, stop)`` as its own topology.

        The slice keeps the per-rank usable structure of the parent —
        each spanned rank becomes one rank of the sub-topology, with the
        slots the slice does not use marked defective — so a shard
        system built from it sees the same rank count (and therefore the
        same rank-parallel transfer times) as the parent slice.  The
        geometry collapses to one channel and one DIMM: channel affinity
        of a shard is the *parent* topology's business.
        """
        if not (0 <= start < stop <= self.n_dpus):
            raise ConfigurationError(
                f"subrange [{start}, {stop}) out of [0, {self.n_dpus})")
        spans = self.rank_spans()
        lo = self.rank_of_usable(start)
        hi = self.rank_of_usable(stop - 1) + 1
        counts = [max(0, min(stop, spans[r][1]) - max(start, spans[r][0]))
                  for r in range(lo, hi)]
        defects: List[int] = []
        for j, count in enumerate(counts):
            base = j * self.dpus_per_rank
            defects.extend(range(base + count, base + self.dpus_per_rank))
        return Topology(
            channels=1, dimms_per_channel=1, ranks_per_dimm=hi - lo,
            dpus_per_rank=self.dpus_per_rank, defective=tuple(defects),
        )

    def take(self, n: int) -> "Topology":
        """The first ``n`` usable DPUs as a sub-topology."""
        return self.subrange(0, n)

    @classmethod
    def single_rank(cls, n_dpus: int) -> "Topology":
        """A flat one-rank topology of ``n_dpus`` (the back-compat shape
        a bare ``SystemConfig(n_dpus=...)`` synthesizes)."""
        return cls(channels=1, dimms_per_channel=1, ranks_per_dimm=1,
                   dpus_per_rank=n_dpus)

    # -- identity ------------------------------------------------------

    def signature(self) -> str:
        """Stable short identity for cache keys (no object reprs).

        Geometry counts verbatim plus a digest of the defect mask:
        equal topologies encode equally, distinct defect masks cannot
        collide textually.
        """
        base = (f"{self.channels}x{self.dimms_per_channel}"
                f"x{self.ranks_per_dimm}x{self.dpus_per_rank}")
        if not self.defective:
            return base
        blob = ",".join(str(d) for d in self.defective).encode()
        digest = hashlib.sha256(blob).hexdigest()[:12]
        return f"{base}-d{len(self.defective)}-{digest}"

    def describe(self) -> str:
        """Human-readable topology report (powers ``repro topology``)."""
        from repro.analysis.report import format_table

        rows = [
            ("channels", self.channels),
            ("DIMMs per channel", self.dimms_per_channel),
            ("ranks per DIMM", self.ranks_per_dimm),
            ("DPUs per rank", self.dpus_per_rank),
            ("DIMMs", self.n_dimms),
            ("ranks", self.n_ranks),
            ("physical DPUs", self.n_dpus_physical),
            ("defective DPUs", len(self.defective)),
            ("usable DPUs", self.n_dpus),
            ("signature", self.signature()),
        ]
        text = "PIM topology\n" + format_table(["field", "value"], rows)
        spans = self.rank_spans()
        crows = []
        for c in range(self.channels):
            lo = c * self.ranks_per_channel
            hi = lo + self.ranks_per_channel
            usable = sum(s[1] - s[0] for s in spans[lo:hi])
            crows.append((c, hi - lo, usable))
        text += ("\n\nper-channel\n"
                 + format_table(["channel", "ranks", "usable DPUs"], crows))
        return text


@lru_cache(maxsize=128)
def _usable_physical(topology: Topology) -> np.ndarray:
    """Sorted physical indices of the usable DPUs (cached per topology)."""
    mask = np.ones(topology.n_dpus_physical, dtype=bool)
    if topology.defective:
        mask[np.asarray(topology.defective, dtype=np.int64)] = False
    arr = np.nonzero(mask)[0].astype(np.int64)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=128)
def _rank_spans(topology: Topology) -> Tuple[Tuple[int, int], ...]:
    """Usable-index span per global rank (cached per topology)."""
    physical = _usable_physical(topology)
    ranks = physical // topology.dpus_per_rank
    bounds = np.searchsorted(
        ranks, np.arange(topology.n_ranks + 1, dtype=np.int64))
    return tuple((int(bounds[r]), int(bounds[r + 1]))
                 for r in range(topology.n_ranks))


#: The paper's system: 2 channels x 10 DIMMs x 2 ranks x 64 DPUs, with a
#: deterministic 15-DPU defect mask -> 2545 usable of 2560.
PAPER_TOPOLOGY = Topology(defective=_PAPER_DEFECTS)
