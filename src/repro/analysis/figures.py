"""Harnesses that regenerate every figure and table of the paper's evaluation.

Each ``figN_data()`` returns the figure's rows/series as plain data; each
``figN_report()`` renders them as text.  The benchmark targets in
``benchmarks/`` call these and print the result, so running the benchmark
suite regenerates the paper's evaluation section end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.sweep import SweepPoint, sine_sweep
from repro.core.functions.registry import FUNCTIONS, get_function
from repro.core.functions.support import METHOD_SUPPORT, supports
from repro.core.range_reduction import make_reducer
from repro.isa.counter import CycleCounter
from repro.isa.opcosts import OpCosts, UPMEM_COSTS
from repro.pim.config import UPMEM_SYSTEM
from repro.pim.system import PIMSystem
from repro.workloads.blackscholes import Blackscholes, generate_options
from repro.workloads.cpu_model import CPU_BLACKSCHOLES, CPU_SIGMOID, CPU_SOFTMAX
from repro.workloads.sigmoid import Sigmoid
from repro.workloads.sigmoid import generate_inputs as sigmoid_inputs
from repro.workloads.softmax import Softmax
from repro.workloads.softmax import generate_inputs as softmax_inputs

__all__ = [
    "fig5_data", "fig5_report",
    "fig6_report", "fig7_report",
    "fig8_data", "fig8_report",
    "fig9_data", "fig9_report", "Fig9Row",
    "table2_report",
]

_F32 = np.float32


# ----------------------------------------------------------------------
# Figures 5-7: one shared sweep, three projections


def fig5_data(costs: OpCosts = UPMEM_COSTS) -> List[SweepPoint]:
    """Figure 5/6/7 source data: the full sine method sweep."""
    return sine_sweep(costs=costs)


def _sweep_table(points: Sequence[SweepPoint], value_header: str,
                 value_fn) -> str:
    rows = [
        (p.method, p.placement, p.param, f"{p.rmse:.3e}", value_fn(p))
        for p in points
    ]
    return format_table(
        ["method", "placement", "param", "rmse", value_header], rows
    )


def fig5_report(points: Sequence[SweepPoint]) -> str:
    """Figure 5: execution cycles per element vs RMSE."""
    return "Figure 5: PIM execution cycles/element vs RMSE (sine)\n" + \
        _sweep_table(points, "cycles/elem", lambda p: f"{p.cycles_per_element:.1f}")


def fig6_report(points: Sequence[SweepPoint]) -> str:
    """Figure 6: host setup seconds vs RMSE."""
    return "Figure 6: host setup time vs RMSE (sine)\n" + \
        _sweep_table(points, "setup_s", lambda p: f"{p.setup_seconds:.3e}")


def fig7_report(points: Sequence[SweepPoint]) -> str:
    """Figure 7: PIM memory bytes vs RMSE."""
    return "Figure 7: memory consumption vs RMSE (sine)\n" + \
        _sweep_table(points, "bytes", lambda p: p.table_bytes)


# ----------------------------------------------------------------------
# Figure 8: range reduction / extension cycles


def fig8_data(costs: OpCosts = UPMEM_COSTS,
              n_samples: int = 256) -> Dict[str, float]:
    """Cycles per element spent in range reduction+reconstruction.

    Measured by tracing each function's reducer over its bench domain
    (sin: fold to [0, 2pi); exp: exponent split; log/sqrt: mantissa split).
    """
    out: Dict[str, float] = {}
    rng = np.random.default_rng(11)
    for name in ("sin", "exp", "log", "sqrt"):
        spec = get_function(name)
        reducer = make_reducer(spec, assume_in_range=False)
        lo, hi = spec.bench_domain
        xs = rng.uniform(lo, hi, n_samples).astype(_F32)
        total = 0
        for x in xs:
            ctx = CycleCounter(costs)
            u, state = reducer.reduce(ctx, x)
            reducer.reconstruct(ctx, _F32(u), state)
            total += ctx.slots
        out[name] = total / n_samples
    return out


def fig8_report(data: Dict[str, float]) -> str:
    """Render Figure 8's per-function reduction costs."""
    rows = [(name, f"{cycles:.1f}") for name, cycles in data.items()]
    return ("Figure 8: range reduction/extension cycles per element\n"
            + format_table(["function", "cycles/elem"], rows))


# ----------------------------------------------------------------------
# Figure 9: full workloads


@dataclass(frozen=True)
class Fig9Row:
    """One bar of Figure 9."""

    workload: str
    config: str
    seconds: float

    def row(self) -> Tuple[str, str, str]:
        """Formatted (workload, config, time) cells."""
        return (self.workload, self.config, f"{self.seconds * 1e3:.1f} ms")


def fig9_data(
    n_blackscholes: int = 10_000_000,
    n_vector: int = 30_000_000,
    costs: OpCosts = UPMEM_COSTS,
    trace_elements: int = 10_000,
) -> List[Fig9Row]:
    """Execution times of all Figure 9 configurations.

    The PIM timing model is independent of the element count (a traced
    sample is extrapolated), so the full 10M/30M sizes cost nothing extra:
    ``trace_elements`` bounds the materialized sample array and ``virtual_n``
    sizing makes the simulated run reflect the paper's full sizes.
    """
    system = PIMSystem(UPMEM_SYSTEM, costs)
    rows: List[Fig9Row] = []

    # Blackscholes ----------------------------------------------------
    options = generate_options(trace_elements)
    rows.append(Fig9Row("blackscholes", "cpu_1t",
                        CPU_BLACKSCHOLES.seconds(n_blackscholes, 1)))
    rows.append(Fig9Row("blackscholes", "cpu_32t",
                        CPU_BLACKSCHOLES.seconds(n_blackscholes, 32)))
    for variant in ("poly", "mlut_i", "llut_i", "llut_i_fx"):
        bs = Blackscholes(variant, costs).setup()
        res = bs.run(options, system, virtual_n=n_blackscholes)
        rows.append(Fig9Row("blackscholes", f"pim_{variant}",
                            res.total_seconds))

    # Sigmoid ----------------------------------------------------------
    xs = sigmoid_inputs(trace_elements)
    rows.append(Fig9Row("sigmoid", "cpu_1t", CPU_SIGMOID.seconds(n_vector, 1)))
    rows.append(Fig9Row("sigmoid", "cpu_32t", CPU_SIGMOID.seconds(n_vector, 32)))
    for variant in ("poly", "mlut_i", "llut_i"):
        sg = Sigmoid(variant, costs).setup()
        res = sg.run(xs, system, virtual_n=n_vector)
        rows.append(Fig9Row("sigmoid", f"pim_{variant}", res.total_seconds))

    # Softmax ----------------------------------------------------------
    xm = softmax_inputs(trace_elements)
    rows.append(Fig9Row("softmax", "cpu_1t", CPU_SOFTMAX.seconds(n_vector, 1)))
    rows.append(Fig9Row("softmax", "cpu_32t", CPU_SOFTMAX.seconds(n_vector, 32)))
    for variant in ("poly", "mlut_i", "llut_i"):
        sm = Softmax(variant, costs).setup()
        res = sm.run(xm, system, virtual_n=n_vector)
        rows.append(Fig9Row("softmax", f"pim_{variant}", res.total_seconds))
    return rows


def fig9_report(rows: Sequence[Fig9Row]) -> str:
    """Render Figure 9's workload-time table."""
    return ("Figure 9: full-workload execution time "
            "(10M options / 30M elements; 2545 PIM cores x 16 threads)\n"
            + format_table(["workload", "configuration", "time"],
                           [r.row() for r in rows]))


# ----------------------------------------------------------------------
# Table 2: support matrix


def table2_report() -> str:
    """Render the method-by-function support matrix (Table 2)."""
    functions = sorted(FUNCTIONS)
    rows = []
    for method in METHOD_SUPPORT:
        rows.append([method] + [
            "x" if supports(method, f) else "." for f in functions
        ])
    return ("Table 2: implementation methods and supported functions\n"
            + format_table(["method"] + functions, rows))
