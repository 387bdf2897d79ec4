"""Parallel-safety: plans and their reachable state must cross processes.

:mod:`repro.plan.pool` lifts :func:`~repro.plan.dispatch.execute_sharded`
onto a ``multiprocessing`` pool.  That is only safe if everything a shard
needs — the :class:`~repro.plan.plan.ExecutionPlan`, its
:class:`~repro.plan.plan.LaunchConfig` and
:class:`~repro.plan.plan.TransferSchedule`, the built table images, and the
shard descriptors — is built from picklable, lock-free, handle-free types.
This pass certifies that *dynamically but exhaustively*: it compiles
representative plans across the method families, executes them once (so the
tally cache, launch memo and path classifier state are populated, not
empty), then

1. walks the full reachable object graph of each artifact and flags any
   node whose type cannot cross a process boundary, with the exact
   attribute path (``plan:sin:llut_i.system.dpu...``) as attribution;
2. round-trips the artifact through ``pickle`` as the ground truth the
   structural walk approximates.

Rules (pass name ``parallel-safety``):

``lock-held`` (error)
    A thread lock/condition/semaphore in the graph — lock state cannot
    transfer, and its presence implies shared-memory assumptions.
``handle-held`` (error)
    An open file, socket, or mmap — OS handles are process-local.
``unpicklable`` (error)
    A lambda, nested function, generator, coroutine, module, or weakref.
``pickle-failed`` (error)
    ``pickle.dumps``/``loads`` raised; reported with the exception text.
"""

from __future__ import annotations

import inspect
import io
import pickle
import weakref
from types import FunctionType, ModuleType
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.lint.report import Violation

__all__ = ["check_parallel_safety", "default_targets", "run_parallel_safety"]

#: (function, method, knobs) triples compiled into representative plans —
#: one per method family shape: LUT, scaling LUT, CORDIC, composite.
_REPRESENTATIVE = (
    ("sin", "llut_i", {"density_log2": 6}),
    ("exp", "mlut", {}),
    ("sin", "cordic", {"iterations": 8}),
    ("tanh", "dllut_i", {}),
)

#: Graph-walk bound; the real artifacts settle well below this.
_MAX_NODES = 200_000


def _lockish(obj) -> bool:
    tname = type(obj).__name__
    return type(obj).__module__ in ("_thread", "threading") and (
        "lock" in tname.lower() or tname in (
            "Condition", "Event", "Semaphore", "BoundedSemaphore",
            "Barrier"))


def _handleish(obj) -> bool:
    if isinstance(obj, io.IOBase):
        return True
    mod = type(obj).__module__
    return mod in ("socket", "mmap", "ssl") or \
        type(obj).__name__ in ("socket", "mmap")


def _local_callable(obj) -> bool:
    """A function that pickle cannot resolve by module-level name."""
    if isinstance(obj, FunctionType):
        qn = getattr(obj, "__qualname__", "")
        return "<lambda>" in qn or "<locals>" in qn
    return False


def _classify(obj, path: str) -> Optional[Tuple[str, str]]:
    """(rule, message) when ``obj`` cannot cross a process boundary."""
    if _lockish(obj):
        return ("lock-held",
                f"{path} holds a {type(obj).__name__}: lock state cannot "
                "cross a process boundary")
    if _handleish(obj):
        return ("handle-held",
                f"{path} holds a {type(obj).__name__}: OS handles are "
                "process-local")
    if inspect.isgenerator(obj) or inspect.iscoroutine(obj):
        return ("unpicklable",
                f"{path} holds a live {type(obj).__name__}; generators and "
                "coroutines cannot be pickled")
    if isinstance(obj, ModuleType):
        return ("unpicklable", f"{path} holds module {obj.__name__!r}")
    if isinstance(obj, weakref.ref):
        return ("unpicklable", f"{path} holds a weak reference")
    if _local_callable(obj):
        return ("unpicklable",
                f"{path} holds {obj.__qualname__!r}: lambdas and nested "
                "functions cannot be pickled by name")
    return None


def _children(obj) -> List[Tuple[str, object]]:
    """(edge-label, child) pairs for the structural walk."""
    out: List[Tuple[str, object]] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            label = f"[{k!r}]" if isinstance(k, (str, int, float, bool)) \
                else "[<key>]"
            out.append((label, k))
            out.append((label, v))
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for i, v in enumerate(obj):
            out.append((f"[{i}]", v))
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            for i, v in enumerate(obj.flat):
                out.append((f"[{i}]", v))
    elif inspect.ismethod(obj):
        out.append((".__self__", obj.__self__))
        out.append((".__func__", obj.__func__))
    elif isinstance(obj, (str, bytes, bytearray, int, float, complex, bool,
                          type(None), np.generic, FunctionType, type)):
        pass
    else:
        try:
            attrs = vars(obj)
        except TypeError:
            attrs = {}
        for name, v in attrs.items():
            out.append((f".{name}", v))
    return out


def check_parallel_safety(obj, name: str) -> List[Violation]:
    """Structurally walk ``obj`` and pickle round-trip it; all findings."""
    violations: List[Violation] = []
    seen: Set[int] = set()
    stack: List[Tuple[str, object]] = [(name, obj)]
    nodes = 0
    while stack and nodes < _MAX_NODES:
        path, cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        nodes += 1
        hit = _classify(cur, path)
        if hit is not None:
            rule, message = hit
            violations.append(Violation(
                pass_name="parallel-safety", rule=rule, severity="error",
                message=message, where=path,
            ))
            continue  # don't descend into a condemned node
        for label, child in _children(cur):
            stack.append((path + label, child))

    try:
        clone = pickle.loads(pickle.dumps(obj))
        del clone
    except Exception as exc:  # noqa: BLE001 - report any pickling failure
        violations.append(Violation(
            pass_name="parallel-safety", rule="pickle-failed",
            severity="error",
            message=f"{name} does not round-trip through pickle: "
                    f"{type(exc).__name__}: {exc}",
            where=name,
        ))
    return violations


def default_targets() -> List[Tuple[str, object]]:
    """Representative (name, artifact) pairs certified by the default run.

    Compiles one plan per method-family shape on a small system, executes
    each once so runtime caches hold real state, and adds the launch
    config, the transfer schedule, the built table image arrays, and a
    sharded dispatch's shard descriptors.
    """
    from repro.api import make_method
    from repro.pim.config import SystemConfig
    from repro.pim.dpu import trace_sample
    from repro.pim.system import PIMSystem
    from repro.pim.topology import PAPER_TOPOLOGY, Topology
    from repro.plan.dispatch import (execute_sharded, shard_split,
                                     spawn_shard_rngs)
    from repro.plan.plan import (LaunchConfig, TransferSchedule,
                                 compile_plan)
    from repro.plan.pool import ShardTask, ship_plan, unlink_shipment

    system = PIMSystem(SystemConfig(n_dpus=8))
    xs = np.linspace(0.1, 0.9, 200, dtype=np.float32)
    # Topology rides in every shipped SystemConfig (plan.system.config and
    # each ShardTask's dpu_range-derived sub-config), so it is a wire
    # artifact in its own right — certify the paper instance, a sliced
    # view (the shape workers actually reconstruct), and a custom one.
    targets: List[Tuple[str, object]] = [
        ("launch_config", LaunchConfig()),
        ("transfer_schedule", TransferSchedule()),
        ("shard_split", shard_split(200, 8, 2)),
        ("topology:paper", PAPER_TOPOLOGY),
        ("topology:subrange", PAPER_TOPOLOGY.subrange(64, 192)),
        ("topology:custom", Topology(channels=2, dimms_per_channel=2,
                                     ranks_per_dimm=2, dpus_per_rank=4,
                                     defective=(3, 17))),
    ]
    for func, meth, knobs in _REPRESENTATIVE:
        m = make_method(func, meth, assume_in_range=False, **knobs)
        plan = compile_plan(system, m)
        plan.execute(xs)
        targets.append((f"plan:{func}:{meth}", plan))
    last_plan = targets[-1][1]
    sharded = execute_sharded(last_plan, xs, n_shards=2)
    targets.append(("shard_results", sharded.shards))
    # The pooled-dispatch wire artifacts: exactly what execute_sharded
    # ships across the process boundary when workers are in play — each
    # shard's trace sample, drawn in the parent with its spawned
    # generator, and its element count; no slice, no generator.
    rngs = spawn_shard_rngs(np.random.default_rng(3), 2)
    size = last_plan.config.sample_size
    shipment = ship_plan(last_plan)
    try:
        task = ShardTask(
            shipment=shipment, index=0, n_dpus=4,
            sample=trace_sample(xs[:100], size, rngs[0]), n_elements=100,
            virtual_n=None, imbalance=None,
            capture_trace=False, capture_metrics=False,
        )
        targets.append(("pool_shard_task", task))
        targets.append(("pool_shard_task_aligned",
                        ShardTask(
                            shipment=shipment, index=1, n_dpus=4,
                            sample=trace_sample(xs[100:], size, rngs[1]),
                            n_elements=100, virtual_n=None, imbalance=None,
                            capture_trace=False, capture_metrics=False,
                            dpu_range=(4, 8),
                        )))
        targets.append(("pool_shipment", shipment))
    finally:
        unlink_shipment(shipment)
    return targets


def run_parallel_safety(
    targets: Optional[Sequence[Tuple[str, object]]] = None,
) -> Tuple[List[Violation], Dict[str, int]]:
    """Certify every target (the representative set by default)."""
    if targets is None:
        targets = default_targets()
    violations: List[Violation] = []
    for name, obj in targets:
        violations.extend(check_parallel_safety(obj, name))
    return violations, {"parallel_targets": len(targets)}
