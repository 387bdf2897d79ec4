"""The scalar-oracle harness: every launch path held to ``Method.evaluate``.

The paper's cycle counts come from running each element through the DPU
ISA (Section 4.1.1); here that is the traced scalar ``Method.evaluate``,
the oracle every fast path must match bit for bit.  This module owns the
configurations (``FULL_MATRIX``: every ``METHOD_SUPPORT`` pair under both
range assumptions; ``FAST_PAIRS``: one pair per method family and key
implementation), the inputs (uniform draws, domain edges, signed zeros,
subnormals, non-finites and near-overflow values, then the probes where
array passes abstain or the oracle raises), one cache of built methods,
one oracle :class:`Trace` per configuration, and the checks that hold
each launch path to it: :func:`check_array_pass`, :func:`check_evaluator`
and :func:`check_launches`.  The oracle evaluates every standard lane;
only probes may make it raise.  Launch checks run over the first draws
and every edge and probe, which fit in one trace sample, so every lane
they launch is traced.  Every assertion is ``==`` on bits or integers.

The matrix tests run under the names of the suites the harness replaced
(``tests/batch/test_differential.py``, ``test_vec_differential.py``,
``tests/plan/test_differential_plan.py``, ``test_topology_differential.py``);
``test_path_properties.py`` and ``test_pool.py`` reuse its checks and
configurations.
"""

import asyncio
import dataclasses
import functools
from typing import List, Optional

import numpy as np
import pytest

from repro.analysis.sweep import default_inputs
from repro.api import make_method
from repro.batch import VecEvaluator, scalar_tally
from repro.core.functions.registry import get_function
from repro.core.functions.support import METHOD_SUPPORT
from repro.core.method import Method
from repro.isa.counter import CycleCounter, Tally
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.pim.topology import PAPER_TOPOLOGY
from repro.plan.dispatch import execute_sharded
from repro.plan.plan import LaunchConfig, TableImage, compile_plan

_F32 = np.float32

#: Every (method, function) pair in METHOD_SUPPORT.
FULL_MATRIX = [
    (method, function)
    for method, functions in sorted(METHOD_SUPPORT.items())
    for function in sorted(functions)
]
MATRIX_IDS = [f"{m}-{f}" for m, f in FULL_MATRIX]

#: One (function, method) per method family and per key implementation
#: (reducers, CORDIC modes, composites).
FAST_PAIRS = [
    ("sin", "mlut"),
    ("sin", "mlut_i"),
    ("sin", "llut"),
    ("sin", "llut_i"),
    ("sin", "llut_fx"),
    ("sin", "llut_i_fx"),
    ("exp", "slut_i"),
    ("tanh", "dlut"),
    ("tanh", "dlut_i"),
    ("tanh", "dllut"),
    ("tanh", "dllut_i"),
    ("gelu", "dlut_i"),       # GeluViaTanh-adjacent direct table
    ("tan", "llut_i"),        # TanQuotientLUT composite
    ("sin", "cordic"),        # circular rotation
    ("tan", "cordic"),        # circular rotation + quadrant parity
    ("atan", "cordic"),       # circular vectoring (float recurrence)
    ("exp", "cordic"),        # hyperbolic rotation
    ("log", "cordic"),        # hyperbolic vectoring
    ("tanh", "cordic"),       # hyperbolic rotation + exp residual split
    ("sin", "cordic_lut"),    # hybrid circular
    ("tanh", "cordic_lut"),   # hybrid hyperbolic
    ("sin", "cordic_fx"),     # fixed-point rotation
    ("cos", "poly"),
]
FAST_IDS = [f"{m}-{f}" for f, m in FAST_PAIRS]

#: Both range assumptions, as a reusable parametrize mark.
RANGES = pytest.mark.parametrize("in_range", [True, False],
                                 ids=["natural", "full_domain"])

#: The flat model (what ``SystemConfig()`` meant before the topology
#: existed) and the default paper topology over the same 2545 DPUs.
FLAT = PIMSystem(SystemConfig(n_dpus=PAPER_TOPOLOGY.n_dpus, topology=None))
TOPO = PIMSystem(SystemConfig())

#: Launch checks run over the first ``_LAUNCH_DRAWS`` draws, then every
#: edge and probe: few enough lanes to fit one trace sample, so every lane
#: is traced, and to keep the raw-kernel twins cheap over the matrix.
LAUNCH = LaunchConfig(sample_size=64)
_N_DRAWS = 96
_LAUNCH_DRAWS = 8

_FLT_MAX = float(np.finfo(_F32).max)

#: Appended to every standard input (values beyond float32 range fold
#: to +/-inf on the cast, which is the point).
_EDGE_RAW = (0.0, -0.0, 1e-40, -1e-40, float("nan"), float("inf"),
             float("-inf"), 3.5e38, -3.5e38)

#: Magnitudes past the CORDIC fx_mul bound (a Q3.28 raw word of at least
#: 2**35: |x| >= 128 when range reduction is skipped) and whose scaled
#: table index or raw word is beyond int64: array passes may abstain and
#: the oracle may raise here.
_PROBES = np.array([128.0, -128.0, 1.0e6, 1.0e30, -1.0e30, _FLT_MAX,
                    -_FLT_MAX], dtype=_F32)


def standard_inputs(function: str, in_range: bool, n: int = _N_DRAWS,
                    seed: int = 7) -> np.ndarray:
    """``n`` uniform draws over the range, then the domain edges."""
    spec = get_function(function)
    lo, hi = spec.natural_range if in_range else spec.bench_domain
    edges = [lo, hi, float(np.nextafter(_F32(hi), _F32(lo))), (lo + hi) / 2.0]
    edges.extend(_EDGE_RAW)
    xs = default_inputs(function, n=n, seed=seed, in_natural_range=in_range)
    return np.concatenate([xs, np.array(edges, dtype=_F32)])


# ----------------------------------------------------------------------
# The oracle.

@dataclasses.dataclass
class Trace:
    """The scalar oracle over one array, lane by lane."""

    values: np.ndarray                # float32 outputs (0 where it raised)
    tallies: List[Optional[Tally]]    # per-lane tally, None where it raised
    errors: List[Optional[type]]      # type of the error raised, else None

    @property
    def ok(self) -> np.ndarray:
        """The lanes the oracle evaluates."""
        return np.array([e is None for e in self.errors], dtype=bool)

    def __getitem__(self, lanes) -> "Trace":
        idx = np.arange(self.values.size)[lanes]
        return Trace(self.values[idx], [self.tallies[i] for i in idx],
                     [self.errors[i] for i in idx])


def trace(m: Method, xs: np.ndarray) -> Trace:
    """Run every lane of ``xs`` through the traced ``Method.evaluate``."""
    ctx = CycleCounter(m.costs)
    values = np.zeros(xs.size, dtype=_F32)
    tallies: List[Optional[Tally]] = []
    errors: List[Optional[type]] = []
    for i, x in enumerate(xs):
        try:
            values[i] = m.evaluate(ctx, float(x))
        except Exception as exc:  # launches must raise the same type
            ctx.reset()
            tallies.append(None)
            errors.append(type(exc))
        else:
            tallies.append(ctx.reset())
            errors.append(None)
    return Trace(values, tallies, errors)


@dataclasses.dataclass
class Config:
    """One configuration's built method, inputs and oracle trace, and the
    table image every plan of the method shares, as a plan cache's do."""

    method: Method
    xs: np.ndarray       # the standard lanes, then the probes
    n_standard: int
    oracle: Trace
    image: TableImage

    def launch_lanes(self) -> "tuple[np.ndarray, Trace]":
        """The first ``_LAUNCH_DRAWS`` draws, then every edge and probe."""
        lanes = np.r_[:_LAUNCH_DRAWS, _N_DRAWS:self.xs.size]
        return self.xs[lanes], self.oracle[lanes]


_CONFIGS: dict = {}


def config(function: str, method: str, in_range: bool) -> Config:
    """One configuration, built and traced once for every suite."""
    key = (function, method, in_range)
    if key not in _CONFIGS:
        m = make_method(function, method, assume_in_range=in_range)
        planned = m.planned_table_bytes()
        m.setup()
        # The pre-build size prediction the sweep uses to skip oversized
        # WRAM builds must match the built table exactly.
        assert planned in (None, m.table_bytes()), (
            f"{method}/{function}: planned_table_bytes {planned} != "
            f"built {m.table_bytes()}")
        std = standard_inputs(function, in_range)
        xs = np.concatenate([std, _PROBES])
        oracle = trace(m, xs)
        # Only a probe may make the oracle raise.
        assert oracle.ok[:std.size].all(), (
            f"{method}/{function}: the oracle raises on standard lanes "
            f"{np.flatnonzero(~oracle.ok[:std.size]).tolist()}")
        _CONFIGS[key] = Config(m, xs, std.size, oracle, TableImage(m))
    return _CONFIGS[key]


# ----------------------------------------------------------------------
# Comparisons.

def _name(m: Method) -> str:
    return f"{m.method_name}/{m.spec.name}"


def assert_bits_equal(a: np.ndarray, b: np.ndarray, msg: str) -> None:
    """Exact bit-pattern equality (NaN payloads, signed zeros and all)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"{msg}: dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{msg}: shape {a.shape} != {b.shape}"
    np.testing.assert_array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
        err_msg=msg,
    )


def assert_fields_equal(a, b, path: str) -> None:
    """Two results equal field for field, nested results included: numbers
    and tallies with ``==``, arrays bit for bit."""
    if dataclasses.is_dataclass(a) and not isinstance(a, Tally):
        assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
        for f in dataclasses.fields(a):
            assert_fields_equal(getattr(a, f.name), getattr(b, f.name),
                                f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert_bits_equal(a, b, path)
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_fields_equal(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def _assert_tally_matches(b, oracle: Trace, msg: str) -> None:
    """A cost aggregate equals the oracle's lanes: the aggregate ``Tally``
    field by field and the per-element slots."""
    total = Tally()
    for t in oracle.tallies:
        total.add(t)
    assert b.n == len(oracle.tallies), msg
    assert b.tally == total, msg
    np.testing.assert_array_equal(
        b.slots, np.array([t.slots for t in oracle.tallies], dtype=np.int64),
        err_msg=f"{msg} per-element slots")


def assert_batch_matches(b, oracle: Trace, msg: str) -> None:
    """:func:`_assert_tally_matches`, and paths that partition the lanes."""
    _assert_tally_matches(b, oracle, msg)
    assert sum(p.count for p in b.paths) == b.n, msg


def assert_keys_partition_tallies(keys: np.ndarray, oracle: Trace,
                                  msg: str) -> None:
    """Equal key means equal per-element tally: the contract that lets one
    scalar trace stand for every lane on its path."""
    first = {}
    for lane, (k, t) in enumerate(zip(keys.tolist(), oracle.tallies)):
        ref = first.setdefault(k, (lane, t))
        assert t == ref[1], (
            f"{msg}: key {k} covers lanes {ref[0]} and {lane}, whose "
            "tallies differ")


# ----------------------------------------------------------------------
# The checks.

def check_array_pass(m: Method, xs: np.ndarray, oracle: Trace, *,
                     standard: bool) -> None:
    """``Method.array_pass`` against the oracle over ``xs``: values with
    keys off and on, bit for bit on every lane the oracle evaluates, and
    keys (never ``None`` on ``standard`` lanes) where equal key means
    equal tally and no key is shared across a lane the oracle cannot
    evaluate.  (:func:`check_evaluator` holds the aggregate that one trace
    per key gives.)  Where the pass raises, the oracle raises that type
    too, and the lanes it evaluates are held to it."""
    name = _name(m)
    try:
        values, _ = m.array_pass(xs)
        kvalues, keys = m.array_pass(xs, keys=True)
    except Exception as exc:
        assert type(exc) in oracle.errors, (
            f"{name}: array pass raised {exc!r} where the oracle does not")
        check_array_pass(m, xs[oracle.ok], oracle[oracle.ok], standard=False)
        return
    ok = oracle.ok
    assert_bits_equal(values[ok], oracle.values[ok], f"{name} values")
    assert_bits_equal(kvalues[ok], oracle.values[ok], f"{name} keyed values")
    if keys is None:
        assert not standard, f"{name} abstained on standard inputs"
        return
    assert not set(keys[~ok].tolist()) & set(keys[ok].tolist()), (
        f"{name}: a lane the oracle cannot evaluate shares a key")
    assert_keys_partition_tallies(keys[ok], oracle[ok], name)


def check_evaluator(m: Method, xs: np.ndarray, oracle: Trace, *,
                    standard: bool) -> None:
    """``VecEvaluator.run`` against the oracle over ``xs``: it abstains
    exactly where ``classify_paths`` does (never on ``standard`` lanes)
    and answers only where the oracle evaluates every lane, with its
    values, aggregate and per-element slots, cold and again from its memo
    and a warm tally cache.  Where ``classify_paths`` raises, it raises
    that type too, and the lanes the oracle evaluates are held to it."""
    name = _name(m)
    ev = VecEvaluator(m)
    try:
        keys = m.classify_paths(xs)
    except Exception as exc:
        with pytest.raises(type(exc)):
            ev.run(xs, tally_cache={})
        assert type(exc) in oracle.errors, (
            f"{name}: classify_paths raised {exc!r} where the oracle does not")
        check_evaluator(m, xs[oracle.ok], oracle[oracle.ok], standard=False)
        return
    tally_cache: dict = {}
    for attempt in ("cold", "warm"):
        fused = ev.run(xs, tally_cache=tally_cache)
        assert (fused is None) == (keys is None), (
            f"{name}: the evaluator abstains unlike classify_paths")
        if fused is None:
            assert not standard, f"{name} abstained on standard inputs"
            return
        assert oracle.ok.all(), f"{name} answered where the oracle raises"
        assert_bits_equal(fused.values, oracle.values,
                          f"{name} {attempt} values")
        assert_batch_matches(fused.batch, oracle, f"{name} {attempt}")


#: (name, launch(plan, xs)) for each launch path every system runs.
LAUNCHES = [
    ("plan.execute", lambda plan, xs: plan.execute(xs)),
    ("PIMSystem.run", lambda plan, xs: plan.system.run(
        plan.kernel, xs, sample_size=LAUNCH.sample_size,
        rng=np.random.default_rng(5))),
    ("execute_sharded", lambda plan, xs: execute_sharded(
        plan, xs, n_shards=2, overlap=True)),
]
#: The launch only a system of several ranks runs.
RANK_ALIGNED = ("execute_sharded(rank_aligned)",
                lambda plan, xs: execute_sharded(
                    plan, xs, n_shards=2, overlap=True, rank_aligned=True))


def _launch_pair(launch, plan, oracle_plan, xs, msg: str) -> bool:
    """One launch with the method and with the raw kernel; False when the
    raw kernel raised (and the method raised the same type)."""
    try:
        want = launch(oracle_plan, xs)
    except Exception as exc:
        with pytest.raises(type(exc)):
            launch(plan, xs)
        return False
    assert_fields_equal(launch(plan, xs), want, msg)
    return True


def check_launches(m: Method, xs: np.ndarray, oracle: Trace,
                   system: PIMSystem, launches=LAUNCHES, *,
                   image: Optional[TableImage] = None) -> None:
    """Each launch on ``system`` (by default a compiled plan's
    ``execute``, ``PIMSystem.run`` and inline ``execute_sharded``) runs
    with the method and with ``functools.partial(Method.evaluate, m)``,
    the scalar loop over the oracle, and the results are equal field for
    field: element and DPU counts, every phase's seconds, cycles, tallies
    and sample outputs.  ``xs`` fits one trace sample, so every lane is
    traced.  Where the raw kernel raises, the method raises the same
    type, and the lanes the oracle evaluates are held to it.  ``image``
    is the table image the method's plan shares, as a plan cache's do."""
    assert xs.size <= LAUNCH.sample_size, "a launch check traces every lane"
    kernel = functools.partial(Method.evaluate, m)
    plan = compile_plan(system, m, LAUNCH, image=image)
    oracle_plan = compile_plan(system, kernel, LAUNCH)
    ok = oracle.ok
    for kind, launch in launches:
        msg = f"{_name(m)} {kind}"
        if not _launch_pair(launch, plan, oracle_plan, xs, msg):
            assert not ok.all(), f"{msg}: the raw kernel raised"
            assert _launch_pair(launch, plan, oracle_plan, xs[ok], msg), msg


# ----------------------------------------------------------------------
# One configuration through each check (the matrix tests' bodies).

def assert_config(check, function: str, method: str,
                  in_range: bool) -> None:
    """``check`` (:func:`check_array_pass` or :func:`check_evaluator`) over
    one configuration's standard lanes, then with its probes."""
    c = config(function, method, in_range)
    n = c.n_standard
    check(c.method, c.xs[:n], c.oracle[:n], standard=True)
    check(c.method, c.xs, c.oracle, standard=False)


def assert_launches(function: str, method: str, in_range: bool) -> None:
    """:func:`check_launches` on the flat system; then, over the standard
    lanes (more than one sample holds), a plan's ``execute`` and
    ``PIMSystem.run`` draw the same sample from equal seeds and are equal
    field for field."""
    c = config(function, method, in_range)
    check_launches(c.method, *c.launch_lanes(), FLAT, image=c.image)
    xs = c.xs[:c.n_standard]
    plan = compile_plan(FLAT, c.method, LAUNCH, image=c.image)
    run = FLAT.run(c.method.evaluate, xs, sample_size=LAUNCH.sample_size,
                   rng=np.random.default_rng(5))
    assert_fields_equal(plan.execute(xs, rng=np.random.default_rng(5)), run,
                        f"{_name(c.method)} drawn sample")


def assert_topology_invisible(function: str, method: str,
                              in_range: bool) -> None:
    """On the default topology, each launch the flat system runs too equals
    the flat system's field for field (so :func:`assert_launches` holds it
    to the oracle), and the rank-aligned launch equals its raw-kernel twin.
    """
    c = config(function, method, in_range)
    xs, oracle = c.launch_lanes()
    check_launches(c.method, xs, oracle, TOPO, [RANK_ALIGNED], image=c.image)
    xs = xs[oracle.ok]
    flat = compile_plan(FLAT, c.method, LAUNCH, image=c.image)
    topo = compile_plan(TOPO, c.method, LAUNCH, image=c.image)
    for kind, launch in LAUNCHES:
        assert_fields_equal(launch(topo, xs), launch(flat, xs),
                            f"{_name(c.method)} {kind} topology vs flat")


# ----------------------------------------------------------------------
# The harness's own tests.

@pytest.mark.parametrize("function,method", FAST_PAIRS[::4],
                         ids=FAST_IDS[::4])
def test_trace_aggregate_is_scalar_tally(function, method):
    """The per-lane oracle and ``scalar_tally`` are one trace."""
    c = config(function, method, False)
    n = c.n_standard
    _assert_tally_matches(scalar_tally(c.method, c.xs[:n]), c.oracle[:n],
                          "scalar_tally")


def test_served_request_matches_oracle():
    """A served request's values are the oracle's, bit for bit."""
    from repro.serve import Server, normalize_request
    from repro.serve.keys import spec_method

    spec = normalize_request("sin", "llut_i")
    m = spec_method(spec).setup()
    xs = standard_inputs("sin", False, n=200, seed=31)

    async def main():
        server = Server()
        try:
            return await server.submit_spec(spec, xs)
        finally:
            await server.close()

    result = asyncio.run(main())
    oracle = trace(m, xs)
    assert oracle.ok.all()
    assert_bits_equal(result.values, oracle.values, "served values")
