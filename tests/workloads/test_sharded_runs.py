"""Every workload dispatches across DPU groups through one ``run`` call."""

import pytest

from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.dispatch import ShardedRunResult
from repro.workloads import sigmoid, softmax
from repro.workloads.attention import AttentionSoftmax, generate_scores
from repro.workloads.blackscholes import Blackscholes, generate_options
from repro.workloads.logreg import LogisticRegression, generate_dataset


def _logreg(system, **kw):
    features, weights, bias = generate_dataset(500, n_features=16, seed=4)
    return LogisticRegression("llut_i").setup(weights, bias).run(
        features, system, **kw)


_WORKLOADS = {
    "attention": lambda system, **kw: AttentionSoftmax("llut_i").setup().run(
        generate_scores(100), system, **kw),
    "blackscholes": lambda system, **kw: Blackscholes("llut_i").setup().run(
        generate_options(500), system, **kw),
    "logreg": _logreg,
    "sigmoid": lambda system, **kw: sigmoid.Sigmoid("llut_i").setup().run(
        sigmoid.generate_inputs(1000), system, **kw),
    "softmax": lambda system, **kw: softmax.Softmax("llut_i").setup().run(
        softmax.generate_inputs(1000), system, **kw),
}


def _launches(result):
    """The whole-system launches inside a workload's result."""
    if isinstance(result, softmax.SoftmaxRunResult):
        return [result.max_phase, result.exp_phase, result.scale_phase]
    return [getattr(result, "run", result)]


@pytest.fixture(scope="module")
def system():
    return PIMSystem(SystemConfig(n_dpus=64))


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_sharded_workload_launches(system, name, overlap):
    result = _WORKLOADS[name](system, shards=2, overlap=overlap)
    for launch in _launches(result):
        assert isinstance(launch, ShardedRunResult)
        assert launch.n_shards == 2 and launch.overlap is overlap
        assert launch.overlap_saving_seconds >= 0
        if not overlap:
            assert launch.total_seconds == sum(
                s.result.total_seconds for s in launch.shards)
