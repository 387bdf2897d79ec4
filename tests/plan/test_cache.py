"""Tests for the PlanCache: keys, LRU eviction, table pooling."""

import pytest

from repro.api import make_method
from repro.errors import ConfigurationError
from repro.isa.opcosts import OpCosts
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.cache import PlanCache, key_for, table_key
from repro.plan.plan import LaunchConfig, TransferSchedule


def _method(method="llut_i", density_log2=8, **kw):
    return make_method("sin", method, density_log2=density_log2,
                       assume_in_range=False, **kw)


@pytest.fixture
def system():
    return PIMSystem(SystemConfig(n_dpus=32))


class TestSignatures:
    def test_same_geometry_same_table_signature(self):
        assert table_key(_method()) == table_key(_method())

    def test_placement_excluded_from_table_signature(self):
        assert (table_key(_method(placement="wram"))
                == table_key(_method(placement="mram")))

    def test_placement_included_in_plan_signature(self, system):
        assert (key_for(system, _method(placement="wram"))
                != key_for(system, _method(placement="mram")))

    def test_density_distinguishes(self):
        assert (table_key(_method(density_log2=8))
                != table_key(_method(density_log2=10)))

    def test_cordic_iterations_distinguish(self):
        # Constructor knobs like iterations live outside the geometry
        # record; the table key must not collide on them.
        a = make_method("sin", "cordic", iterations=8)
        b = make_method("sin", "cordic", iterations=16)
        assert table_key(a) != table_key(b)

    def test_assume_in_range_distinguishes(self):
        a = make_method("sin", "llut_i", density_log2=8,
                        assume_in_range=True)
        b = make_method("sin", "llut_i", density_log2=8,
                        assume_in_range=False)
        assert table_key(a) != table_key(b)

    def test_op_costs_distinguish(self):
        cheap = OpCosts()
        costly = cheap.replace(fp_div=cheap.fp_div + 10)
        a = _method(costs=cheap)
        b = _method(costs=costly)
        assert table_key(a) != table_key(b)

    def test_composite_sub_method_knobs_distinguish(self):
        a = make_method("tanh", "dllut_i", mant_bits=8)
        b = make_method("tanh", "dllut_i", mant_bits=10)
        assert table_key(a) != table_key(b)

    def test_stable_across_instances(self):
        a = make_method("sin", "llut_i", density_log2=10)
        b = make_method("sin", "llut_i", density_log2=10)
        assert table_key(a) == table_key(b)
        assert table_key(a.setup()) == table_key(b)

    def test_differs_by_density(self):
        a = make_method("sin", "llut_i", density_log2=10)
        b = make_method("sin", "llut_i", density_log2=12)
        assert table_key(a) != table_key(b)

    def test_differs_by_function(self):
        a = make_method("sin", "llut_i", density_log2=10)
        b = make_method("cos", "llut_i", density_log2=10)
        assert table_key(a) != table_key(b)

    def test_differs_by_interval(self):
        # The interval reaches the key only through the geometry record.
        a = make_method("exp", "llut_i", density_log2=10,
                        interval=(-1.0, 0.0))
        b = make_method("exp", "llut_i", density_log2=10,
                        interval=(-2.0, 0.0))
        assert table_key(a) != table_key(b)

    def test_differs_by_method(self):
        a = make_method("sin", "llut", density_log2=10)
        b = make_method("sin", "llut_i", density_log2=10)
        assert table_key(a) != table_key(b)

    def test_key_is_typed_tuples(self):
        # Nested tuples of tagged primitives: no reprs, no digests.
        def leaves(node):
            if isinstance(node, tuple):
                for item in node:
                    yield from leaves(item)
            else:
                yield node

        key = table_key(make_method("tanh", "dllut_i", mant_bits=8))
        assert all(type(leaf) in (str, int, bool) for leaf in leaves(key))


class TestPlanCache:
    def test_hit_returns_same_plan(self, system):
        cache = PlanCache()
        p1 = cache.plan(system, _method())
        p2 = cache.plan(system, _method())
        assert p1 is p2
        assert cache.hits == 1 and cache.misses == 1

    def test_cross_config_keys_do_not_collide(self, system):
        """Every launch-relevant knob must produce a distinct plan."""
        cache = PlanCache()
        base = cache.plan(system, _method())
        variants = [
            cache.plan(system, _method(density_log2=10)),
            cache.plan(system, _method(placement="wram")),
            cache.plan(PIMSystem(SystemConfig(n_dpus=8)), _method()),
            cache.plan(system, _method(), LaunchConfig(tasklets=4)),
            cache.plan(system, _method(), LaunchConfig(sample_size=16)),
            cache.plan(system, _method(), LaunchConfig(
                transfers=TransferSchedule(include_transfers=False))),
            cache.plan(system, _method(), LaunchConfig(imbalance=0.5)),
            cache.plan(system, _method(costs=OpCosts().replace(fp_div=999))),
        ]
        plans = [base] + variants
        assert len({id(p) for p in plans}) == len(plans)
        assert cache.hits == 0 and cache.misses == len(plans)

    def test_table_pool_shares_builds_across_placements(self, system):
        cache = PlanCache()
        p_mram = cache.plan(system, _method(placement="mram"))
        p_wram = cache.plan(system, _method(placement="wram"))
        assert p_mram is not p_wram
        assert p_mram.method is p_wram.method  # one built table image
        assert p_mram.memo is p_wram.memo
        assert cache.table_misses == 1 and cache.table_hits == 1

    def test_pool_hit_skips_table_build(self, system):
        cache = PlanCache()
        cache.plan(system, _method(placement="mram"))
        fresh = _method(placement="wram")
        cache.plan(system, fresh)
        assert not fresh._ready  # pooled build reused, fresh never set up

    def test_plans_rebind_placement_before_execute(self, system, rng):
        import numpy as np
        cache = PlanCache()
        xs = rng.uniform(-4, 4, 400).astype(np.float32)
        p_mram = cache.plan(system, _method(placement="mram"))
        p_wram = cache.plan(system, _method(placement="wram"))
        r_wram = p_wram.execute(xs)
        r_mram = p_mram.execute(xs)  # shared method last bound to wram
        assert p_mram.method.placement == "mram"
        # WRAM loads are cheaper than MRAM DMA.
        assert r_wram.kernel_seconds < r_mram.kernel_seconds
        # Numbers agree with uncached runs of dedicated methods.
        direct = system.run(_method(placement="mram").setup().evaluate, xs)
        assert r_mram.kernel_seconds == direct.kernel_seconds

    def test_lru_eviction(self, system):
        cache = PlanCache(maxsize=2)
        p1 = cache.plan(system, _method(density_log2=6))
        cache.plan(system, _method(density_log2=7))
        cache.plan(system, _method(density_log2=8))  # evicts p1
        assert len(cache) == 2
        assert cache.evictions == 1
        p1_again = cache.plan(system, _method(density_log2=6))
        assert p1_again is not p1
        assert cache.misses == 4

    def test_lru_recency_refresh(self, system):
        cache = PlanCache(maxsize=2)
        p1 = cache.plan(system, _method(density_log2=6))
        cache.plan(system, _method(density_log2=7))
        assert cache.plan(system, _method(density_log2=6)) is p1  # touch p1
        cache.plan(system, _method(density_log2=8))  # evicts 7, not p1
        assert cache.plan(system, _method(density_log2=6)) is p1

    def test_method_pool_eviction(self, system):
        # The method pool keeps max(maxsize, 8) images: the ninth distinct
        # table evicts the oldest.
        cache = PlanCache(maxsize=1)
        for density in range(4, 13):
            cache.plan(system, _method(density_log2=density))
        assert cache.table_evictions == 1
        assert cache.stats()["methods"] == 8

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanCache(maxsize=0)

    def test_clear(self, system):
        cache = PlanCache()
        cache.plan(system, _method())
        cache.clear()
        assert len(cache) == 0 and cache.stats()["methods"] == 0


class TestPlanCacheEdges:
    def test_maxsize_one_eviction_order(self, system):
        # A one-slot cache must evict on every alternation but still hit
        # on immediate re-use.
        cache = PlanCache(maxsize=1)
        a = cache.plan(system, _method(density_log2=6))
        assert cache.plan(system, _method(density_log2=6)) is a
        b = cache.plan(system, _method(density_log2=7))  # evicts a
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.plan(system, _method(density_log2=7)) is b
        a2 = cache.plan(system, _method(density_log2=6))  # evicts b
        assert a2 is not a
        assert cache.evictions == 2
        assert cache.hits == 2 and cache.misses == 3

    def test_stats_after_clear_resets_sizes_keeps_counters(self, system):
        cache = PlanCache()
        cache.plan(system, _method())
        cache.plan(system, _method())  # hit
        before = cache.stats()
        assert before["plans"] == 1 and before["methods"] == 1
        cache.clear()
        after = cache.stats()
        assert after["plans"] == 0 and after["methods"] == 0
        # Clearing drops entries, not the lifetime counters.
        assert after["hits"] == before["hits"] == 1
        assert after["misses"] == before["misses"] == 1
        # A post-clear lookup rebuilds: a fresh miss on both tiers.
        cache.plan(system, _method())
        assert cache.misses == 2 and cache.table_misses == 2

    def test_pool_sharing_survives_placement_rebinding(self, system, rng):
        import numpy as np
        cache = PlanCache()
        xs = rng.uniform(-4, 4, 400).astype(np.float32)
        p_mram = cache.plan(system, _method(placement="mram"))
        p_wram = cache.plan(system, _method(placement="wram"))
        # Execute alternately so the shared method rebinds each time.
        r_wram1 = p_wram.execute(xs)
        r_mram1 = p_mram.execute(xs)
        r_wram2 = p_wram.execute(xs)
        assert p_wram.method.placement == "wram"
        assert r_wram2.kernel_seconds == r_wram1.kernel_seconds
        # Rebinding must not fork the pooled build or miss the cache.
        assert cache.plan(system, _method(placement="mram")) is p_mram
        assert cache.plan(system, _method(placement="wram")) is p_wram
        assert p_mram.method is p_wram.method
        assert cache.table_misses == 1 and cache.table_hits == 1
        # And the rebound numbers still match dedicated uncached methods.
        direct = system.run(_method(placement="mram").setup().evaluate, xs)
        assert r_mram1.kernel_seconds == direct.kernel_seconds
