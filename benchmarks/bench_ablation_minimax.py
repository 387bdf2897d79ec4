"""Ablation: does a minimax-grade polynomial baseline close the LUT gap?

Figure 9's PIM baseline uses polynomial approximation; ours uses Taylor
terms.  Minimax polynomials (Remez-fitted) need 2-3 fewer terms at equal
accuracy — the strongest possible polynomial baseline.  This ablation
rebuilds the exp kernel with the *minimal-degree* minimax polynomial
reaching float32-grade accuracy and shows the LUT advantage persists:
every polynomial term is a softfloat multiply-add, and even six of them
cost more than an entire interpolated lookup.
"""

import math

import numpy as np

from repro.analysis.report import format_table
from repro.api import make_method
from repro.core.accuracy import measure
from repro.core.functions.registry import get_function
from repro.core.minimax import horner, horner_vec, remez
from repro.core.range_reduction import ExpSplitReducer
from repro.isa.counter import CycleCounter
from repro.workloads.polynomial import poly_exp_vec

_F32 = np.float32


def _minimax_exp_method(target=2e-7):
    """Smallest-degree minimax exp on [0, ln2) reaching ``target``."""
    for degree in range(3, 14):
        fit = remez(np.exp, degree, (0.0, math.log(2)))
        if fit.max_error < target:
            return degree, fit
    raise AssertionError("minimax did not converge to target")


def _collect():
    degree, fit = _minimax_exp_method()
    coeffs = fit.coefficients_f32_desc()
    reducer = ExpSplitReducer()
    spec = get_function("exp")
    rng = np.random.default_rng(31)
    xs = rng.uniform(-10, 10, 4096).astype(_F32)

    def minimax_exp_scalar(ctx, x):
        f, k = reducer.reduce(ctx, _F32(x))
        return reducer.reconstruct(ctx, horner(ctx, coeffs, f), k)

    def minimax_exp_vec(v):
        f, k, _ = reducer.reduce_vec(np.asarray(v, dtype=_F32))
        return reducer.reconstruct_vec(horner_vec(coeffs, f), k)

    rows = []

    ctx = CycleCounter()
    minimax_exp_scalar(ctx, _F32(1.7))
    rep = measure(minimax_exp_vec, spec.reference, xs)
    rows.append((f"minimax poly (degree {degree})", ctx.reset().slots,
                 rep.mean_ulp_error))

    from repro.workloads.polynomial import poly_exp
    ctx = CycleCounter()
    poly_exp(ctx, _F32(1.7))
    rep = measure(poly_exp_vec, spec.reference, xs)
    rows.append(("taylor poly (10 terms)", ctx.reset().slots,
                 rep.mean_ulp_error))

    lut = make_method("exp", "llut_i", density_log2=14,
                      assume_in_range=False).setup()
    rep = measure(lut.evaluate_vec, spec.reference, xs)
    rows.append(("interp L-LUT", lut.element_tally(1.7).slots,
                 rep.mean_ulp_error))
    return rows


def test_minimax_baseline_ablation(benchmark, write_report):
    rows = benchmark.pedantic(_collect, rounds=1, iterations=1)
    report = ("Ablation: strongest polynomial baseline vs LUT (exp, full "
              "domain)\n"
              + format_table(
                  ["implementation", "slots/elem", "mean ULP error"],
                  [(name, s, f"{u:.1f}") for name, s, u in rows]))
    print()
    print(report)
    write_report("ablation_minimax.txt", report)

    by = {name.split(" (")[0]: s for name, s, _ in rows}
    # Minimax saves terms over Taylor...
    assert by["minimax poly"] < by["taylor poly"]
    # ...but the LUT still wins clearly (Key Takeaway 1 is robust to the
    # strongest polynomial baseline).  The shared range-extension cost
    # (~1150 slots) dilutes the ratio; the core computation itself is ~2.5x
    # cheaper for the lookup.
    assert by["interp L-LUT"] < 0.7 * by["minimax poly"]
    # All three are accurate (ULP-grade) — this is an equal-accuracy fight.
    assert all(u < 16 for _, _, u in rows)
