"""Compile-once execution plans: the host-side setup made explicit.

The paper's Figure 1(c) deployment separates a one-time host-side setup
(table generation and placement) from many PIM-side launches.  An
:class:`ExecutionPlan` is that split made first-class in the simulator: it
is compiled once per (kernel, system configuration) and captures everything
*input-independent* about a launch —

* the table image and placement (the bound :class:`~repro.core.method.Method`
  after :meth:`~repro.core.method.Method.setup`),
* the :class:`TableImage` around that method: its launch evaluator (the
  method's keyed array pass, memoized) plus a **path-tally cache** per
  placement that amortizes scalar tracing across launches (equal path key
  means bit-identical tally, the invariant the oracle harness in
  ``tests/test_oracle.py`` enforces — so a cached tally is exact, not
  approximate),
* the :class:`LaunchConfig`: tasklets, trace sample size, transfer
  schedule (:class:`TransferSchedule`: bytes per element, whether
  transfers are modeled, whether they are balanced) and imbalance,
* the SPMD work split over the system's cores.

:meth:`ExecutionPlan.execute` then runs any number of input arrays through
the compiled launch.  :meth:`PIMSystem.run <repro.pim.system.PIMSystem.run>`
is a thin wrapper that compiles a throwaway plan per call.  The oracle
harness (``tests/test_oracle.py``) holds both, and sharded launches, equal
field for field to the same launch of the raw scalar kernel across the
whole ``METHOD_SUPPORT`` matrix.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.batch.vec import VecEvaluator, array_digest
from repro.core.method import Method
from repro.errors import ConfigurationError, SimulationError
from repro.isa.counter import Tally
from repro.obs import metrics as _metrics
from repro.obs.tracer import span as _span
from repro.pim.dpu import DPU, trace_sample
from repro.pim.system import PIMSystem, SystemRunResult

__all__ = ["TransferSchedule", "LaunchConfig", "TableImage", "ExecutionPlan",
           "check_imbalance", "compile_plan"]

_F32 = np.float32

#: Bound on each plan's launch-result memo (distinct input arrays kept).
_LAUNCH_MEMO_SIZE = 128


@dataclass(frozen=True)
class TransferSchedule:
    """Host<->PIM transfer shape of one launch, fixed at plan time.

    ``include_transfers=False`` models the in-PIM-pipeline deployment of
    Figure 1(c) where operands already live in the banks; ``balanced=False``
    models unequal per-bank buffers, which serialize at the single-bank
    bandwidth (Section 2.1 of the paper).  ``rank_parallel=True`` relaxes
    that serialization to rank granularity: unbalanced copies to distinct
    ranks proceed concurrently, so the serial time divides by the rank
    fan-out of the DPUs actually used.  It is opt-in — the default keeps
    the legacy whole-system serial model bit-identical.
    """

    bytes_in_per_element: int = 4
    bytes_out_per_element: int = 4
    include_transfers: bool = True
    balanced: bool = True
    rank_parallel: bool = False

    def transfer_ranks(self, config, n_dpus_used: int) -> Optional[int]:
        """Rank fan-out for this schedule's unbalanced copies, or None.

        None means the legacy whole-system serial model applies (balanced
        schedules and transfer-free plans never serialize, so rank
        awareness is moot for them).
        """
        if not self.rank_parallel or self.balanced \
                or not self.include_transfers:
            return None
        n_used = max(1, min(int(n_dpus_used), config.n_dpus))
        return config.topology.ranks_in_range(0, n_used)

    def scatter_seconds(self, config, n_elements: int,
                        ranks: Optional[int] = None) -> float:
        """Host->PIM time for ``n_elements`` under this schedule."""
        if not self.include_transfers:
            return 0.0
        return config.host_to_pim_seconds(
            n_elements * self.bytes_in_per_element, balanced=self.balanced,
            ranks=ranks)

    def gather_seconds(self, config, n_elements: int,
                       ranks: Optional[int] = None) -> float:
        """PIM->host time for ``n_elements`` under this schedule."""
        if not self.include_transfers:
            return 0.0
        return config.pim_to_host_seconds(
            n_elements * self.bytes_out_per_element, balanced=self.balanced,
            ranks=ranks)


@dataclass(frozen=True)
class LaunchConfig:
    """The compile-time parameters of one launch, as one hashable value.

    A plan reads these only through its ``config``, and the
    :class:`~repro.plan.cache.PlanKey` holds the same object, so a field
    added here is keyed the moment it exists.  ``imbalance`` is the
    default straggler factor (the slowest core receives ``1 + imbalance``
    times the fair share); a launch may still override it per call.
    """

    tasklets: int = 16
    sample_size: int = 64
    transfers: TransferSchedule = TransferSchedule()
    imbalance: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be at least 1, got {self.sample_size}")


def check_imbalance(imbalance: float) -> float:
    """``imbalance`` itself, or :class:`SimulationError` unless it is a
    finite straggler factor of at least 0."""
    if not 0.0 <= imbalance < math.inf:
        raise SimulationError(
            f"imbalance must be finite and non-negative, got {imbalance!r}")
    return imbalance


@dataclass(eq=False)
class TableImage:
    """One built method and everything derived from it, once.

    A :class:`~repro.plan.cache.PlanCache` pools one image per table
    key and hands it to every plan it compiles over that table —
    any placement, tasklet count or system — so each derived fact has
    exactly one cache: the launch evaluator (its memoized passes are
    placement-independent), the path tallies per placement (traced load
    costs depend on the placement and nothing else), and ``memo`` for
    caller-owned derived data such as the sweep's accuracy pass.  Ad-hoc
    plans own a fresh image; raw kernels get one with no method.
    """

    method: Optional[Method]
    evaluator: Optional[VecEvaluator] = None
    #: placement -> {path key -> traced Tally}.
    tallies: Dict[Optional[str], Dict[int, Tally]] = field(
        default_factory=dict)
    memo: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method is not None and self.evaluator is None:
            self.evaluator = VecEvaluator(self.method)


class ExecutionPlan:
    """One compiled launch: kernel, table image, transfers, split.

    Construct via :func:`compile_plan`, :meth:`PIMSystem.plan`, or a
    :class:`~repro.plan.cache.PlanCache` (which additionally pools table
    images across placements and makes recompilation free).  Its inputs
    are the kernel and its table image, the system, the placement and the
    :class:`LaunchConfig` — exactly what the plan key holds.  Beyond them
    a plan is stateful only in caches: ``tally_cache`` (its image's
    tallies for the plan's placement) grows with the distinct cost paths
    seen, ``memo`` is the image's caller-owned derived data (e.g. the
    sweep's RMSE evaluation), and ``executions`` counts launches.
    """

    def __init__(
        self,
        system: PIMSystem,
        kernel,
        config: LaunchConfig = LaunchConfig(),
        *,
        image: Optional[TableImage] = None,
    ):
        self.system = system
        self.kernel = kernel
        #: The built method and its derived caches (fresh when ad hoc).
        self.image = image if image is not None \
            else TableImage(DPU._batchable_method(kernel))
        self.method = self.image.method
        #: Placement the tables are bound to (None for non-Method kernels).
        self.placement = getattr(self.method, "placement", None)
        self.config = config
        #: Path key -> traced Tally for this placement, shared with every
        #: plan over the same image and placement (exact by the equal-key
        #: invariant).
        self.tally_cache: Dict[int, Tally] = \
            self.image.tallies.setdefault(self.placement, {})
        #: Caller-owned derived-data memo, shared across the image.
        self.memo: dict = self.image.memo
        #: Number of completed launches.
        self.executions = 0
        #: (input digest, shape, virtual_n, imbalance) -> SystemRunResult
        #: for deterministic top-level launches (no caller rng).  Sampling
        #: is seeded per call, so an identical launch is bit-identical by
        #: construction; the memo skips the whole simulation, not just
        #: tracing.  Per-instance: :meth:`for_system` clones start empty
        #: and shard sub-launches (:meth:`_simulate_sample`) never
        #: consult it.
        self._launch_memo: "OrderedDict[tuple, SystemRunResult]" \
            = OrderedDict()

    # ------------------------------------------------------------------

    @property
    def table_bytes(self) -> int:
        """PIM memory the plan's tables occupy (0 for raw kernels)."""
        return self.method.table_bytes() if self.method is not None else 0

    def for_system(self, system: PIMSystem) -> "ExecutionPlan":
        """The same compiled launch retargeted to another system.

        The clone *shares* this plan's table image — evaluator, path-tally
        cache and memo — since the kernel, costs, and placement are
        identical, cached tallies stay exact; only the SPMD split and
        transfer times differ.  The sharded dispatcher uses this to run one
        plan over per-shard DPU groups.
        """
        return ExecutionPlan(system, self.kernel, self.config,
                             image=self.image)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Bit-exact float32 evaluation (the accuracy path; Methods only)."""
        if self.method is None:
            raise SimulationError(
                "plan wraps a raw kernel; values() needs a Method")
        return self.method.evaluate_vec(np.asarray(x, dtype=_F32))

    def _bind_placement(self) -> None:
        """Repoint shared tables at this plan's placement before tracing.

        A PlanCache pools one built Method between its WRAM and MRAM plans;
        set_placement only retargets traced load costs, so flipping it per
        launch is free and keeps every plan's tallies placement-faithful.
        """
        if self.method is not None and self.placement is not None \
                and self.method.placement != self.placement:
            self.method.set_placement(self.placement)

    # ------------------------------------------------------------------

    def execute(
        self,
        inputs: Sequence[float],
        *,
        virtual_n: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        imbalance: Optional[float] = None,
        span_name: str = "plan.execute",
    ) -> SystemRunResult:
        """Launch the compiled plan over ``inputs``.

        Per-call knobs mirror :meth:`PIMSystem.run`: ``virtual_n`` treats
        ``inputs`` as a sample standing in for that many elements, ``rng``
        seeds the trace-sample draw, and ``imbalance`` overrides the plan's
        straggler factor for this launch only.  Everything else in the
        :class:`LaunchConfig` was fixed at compile time.

        Launches without a caller ``rng`` are fully deterministic (the
        sample draw is seeded per call), so their results are memoized by
        input content: re-launching the same array returns the cached
        :class:`SystemRunResult` without re-simulating.  Passing ``rng``
        bypasses the memo; :meth:`simulate` is the memo-free launch.
        """
        self._bind_placement()
        inputs = np.asarray(inputs, dtype=_F32)
        if rng is not None:
            return self.simulate(inputs, virtual_n=virtual_n, rng=rng,
                                 imbalance=imbalance, span_name=span_name)
        imb = self.config.imbalance if imbalance is None else imbalance
        memo_key = (array_digest(inputs), inputs.shape, virtual_n, imb)
        cached = self._launch_memo.get(memo_key)
        if cached is not None:
            self._launch_memo.move_to_end(memo_key)
            self.executions += 1
            _metrics.inc("plan.executions")
            _metrics.inc("plan.launch_memo.hits")
            with _span(span_name, n_elements=cached.n_elements,
                       tasklets=self.config.tasklets,
                       n_dpus_used=cached.n_dpus_used,
                       cached=True) as run_sp:
                run_sp.set(sim_seconds=cached.total_seconds)
            return cached
        result = self.simulate(inputs, virtual_n=virtual_n,
                               imbalance=imbalance, span_name=span_name)
        _metrics.inc("plan.launch_memo.misses")
        self._launch_memo[memo_key] = result
        while len(self._launch_memo) > _LAUNCH_MEMO_SIZE:
            self._launch_memo.popitem(last=False)
        return result

    def simulate(
        self,
        inputs: Sequence[float],
        *,
        virtual_n: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        imbalance: Optional[float] = None,
        span_name: str = "plan.execute",
    ) -> SystemRunResult:
        """One launch, simulated: :meth:`execute` without the launch memo.

        Throwaway plans run through here — their results are never looked
        up again, so hashing their inputs would be pure overhead.
        """
        inputs = np.asarray(inputs, dtype=_F32)
        n = int(virtual_n if virtual_n is not None else inputs.shape[0])
        if n == 0 or inputs.shape[0] == 0:
            raise SimulationError("cannot run a system kernel over empty input")
        return self._simulate_sample(
            trace_sample(inputs, self.config.sample_size, rng), n,
            virtual_n=virtual_n, imbalance=imbalance, span_name=span_name)

    def _simulate_sample(
        self,
        sample: np.ndarray,
        n: int,
        *,
        virtual_n: Optional[int],
        imbalance: Optional[float],
        span_name: str,
    ) -> SystemRunResult:
        """:meth:`simulate` over its drawn trace ``sample`` and ``n`` elements.

        Shard sub-launches run through here with the sample their
        dispatcher drew (:func:`~repro.plan.dispatch.execute_sharded`);
        ``virtual_n`` is only recorded on the result.
        """
        launch = self.config
        imb = check_imbalance(
            launch.imbalance if imbalance is None else imbalance)
        self._bind_placement()

        system = self.system
        config = system.config
        sched = launch.transfers
        per_core = system.elements_per_dpu(n)
        n_used = min(config.n_dpus, -(-n // per_core))
        ranks = sched.transfer_ranks(config, n_used)
        if ranks is not None:
            _metrics.observe("topology.transfer_rank_parallelism", ranks)

        with _span(span_name, n_elements=n, tasklets=launch.tasklets,
                   n_dpus_used=n_used) as run_sp:
            with _span("host_to_pim") as h2p_sp:
                h2p = sched.scatter_seconds(config, n, ranks=ranks)
                h2p_sp.set(sim_seconds=h2p,
                           bytes=n * sched.bytes_in_per_element
                           if sched.include_transfers else 0)

            # The representative core traces a sample drawn from the full
            # input distribution but runs its per-core share of elements.
            with _span("kernel") as k_sp:
                core_result = system.dpu.run_kernel(
                    self.kernel,
                    sample,
                    tasklets=launch.tasklets,
                    sample_size=launch.sample_size,
                    bytes_in_per_element=sched.bytes_in_per_element,
                    bytes_out_per_element=sched.bytes_out_per_element,
                    virtual_n=n,
                    tally_cache=self.tally_cache,
                    evaluator=self.image.evaluator,
                )
                share = per_core / n * (1.0 + imb)
                kernel_seconds = core_result.seconds * share
                k_sp.set(sim_seconds=kernel_seconds,
                         cycles=core_result.cycles * share,
                         per_dpu_cycles=core_result.cycles,
                         slots=core_result.total_tally.slots)

            with _span("pim_to_host") as p2h_sp:
                p2h = sched.gather_seconds(config, n, ranks=ranks)
                p2h_sp.set(sim_seconds=p2h,
                           bytes=n * sched.bytes_out_per_element
                           if sched.include_transfers else 0)

            with _span("launch") as l_sp:
                overhead = config.launch_overhead_s
                l_sp.set(sim_seconds=overhead)

            result = SystemRunResult(
                n_elements=n,
                n_dpus_used=n_used,
                tasklets=launch.tasklets,
                kernel_seconds=kernel_seconds,
                host_to_pim_seconds=h2p,
                pim_to_host_seconds=p2h,
                launch_seconds=overhead,
                per_dpu=core_result,
                imbalance=imb,
                virtual_n=virtual_n,
                include_transfers=sched.include_transfers,
                balanced_transfers=sched.balanced,
            )
            run_sp.set(sim_seconds=result.total_seconds)
        self.executions += 1
        _metrics.inc("plan.executions")
        return result

    # ------------------------------------------------------------------

    def describe(self, n_elements: Optional[int] = None,
                 shards: int = 1) -> str:
        """Human-readable plan report (powers ``repro plan``)."""
        from repro.analysis.report import format_table

        m = self.method
        head = "execution plan"
        if m is not None:
            head += f" {m.method_name}:{m.spec.name}"
        cfg = self.system.config
        launch = self.config
        sched = launch.transfers
        rows = [
            ("kernel", "raw callable" if m is None else "Method.evaluate"),
            ("placement", "-" if self.placement is None
             else self.placement.upper()),
            ("table bytes", self.table_bytes),
            ("system", f"{cfg.n_dpus} DPUs x {launch.tasklets} tasklets"),
            ("topology", cfg.topology.signature()
             + (" (rank-parallel transfers)" if sched.rank_parallel
                else "")),
            ("sample size", launch.sample_size),
            ("imbalance", launch.imbalance),
            ("transfers",
             f"in {sched.bytes_in_per_element} B/elem, "
             f"out {sched.bytes_out_per_element} B/elem, "
             f"{'balanced' if sched.balanced else 'serialized'}"
             if sched.include_transfers else "none (operands resident)"),
            ("cached cost paths", len(self.tally_cache)),
            ("executions", self.executions),
        ]
        text = head + "\n" + format_table(["field", "value"], rows)
        if n_elements is not None:
            from repro.plan.dispatch import shard_split
            split = shard_split(n_elements, cfg.n_dpus, shards)
            srows = [(i, ne, nd, -(-ne // max(nd, 1)))
                     for i, (ne, nd) in enumerate(split)]
            text += ("\n\nshard split "
                     f"(n={n_elements}, shards={shards})\n"
                     + format_table(
                         ["shard", "elements", "dpus", "elems/dpu"], srows))
        return text


def compile_plan(
    system: PIMSystem,
    target,
    config: LaunchConfig = LaunchConfig(),
    *,
    image: Optional[TableImage] = None,
) -> ExecutionPlan:
    """Compile ``target`` (a Method or a raw kernel) into an ExecutionPlan.

    For a Method, host-side setup runs here if it has not already — this is
    the one-time table build of Figure 1(c); the returned plan then launches
    without ever rebuilding.  Raw kernels compile to an unclassified plan
    (scalar-traced, with no table key) so every existing workload
    kernel still fits the same pipeline.  ``image`` is the pooled
    :class:`TableImage` of ``target`` (a PlanCache passes its own); without
    one the plan owns a fresh image.
    """
    kernel = target.evaluate if isinstance(target, Method) else target
    if image is None:
        image = TableImage(DPU._batchable_method(kernel))
    method = image.method
    with _span("plan.compile") as sp:
        if method is not None and not method._ready:
            with _span("plan.table_build") as build_sp:
                method.setup()
                build_sp.set(table_bytes=method.table_bytes(),
                             entries=method.host_entries())
        plan = ExecutionPlan(system, kernel, config, image=image)
        sp.set(table_bytes=plan.table_bytes,
               placement=plan.placement or "-",
               classified=method is not None)
        _metrics.inc("plan.compiles")
    return plan
