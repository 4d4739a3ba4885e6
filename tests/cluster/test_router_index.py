"""Router prefix-index boundedness and capacity-weighted routing."""

import numpy as np
import pytest

from repro.cluster.router import (
    ClusterRouter,
    LeastLoadedPolicy,
    ReplicaSnapshot,
    RouterPrefixIndex,
)
from repro.nn.config import get_config
from repro.nn.model import OPTLanguageModel
from repro.serve.engine import ServeConfig
from repro.serve.kv_pool import PrefixIndex
from repro.serve.request import Request
from repro.serve.workload import generate_workload


def make_model(policy=None, seed=11):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(seed), policy=policy
    )
    model.eval()
    return model


def snapshot(replica, load, weight=1.0, free_slots=4, queue_depth=0):
    return ReplicaSnapshot(
        replica=replica,
        queue_depth=queue_depth,
        active=load - queue_depth,
        max_batch_size=4,
        free_slots=free_slots,
        blocks_in_use=0,
        prefill_backlog_tokens=0,
        load=load,
        weight=weight,
    )


class _StubPool:
    """The slice of BlockKVPool the prefix index touches during evict."""

    def __init__(self) -> None:
        self.prefix_evictions = 0
        self.freed: list[int] = []

    def refcount(self, block_id) -> int:
        return 1

    def free(self, block_ids) -> None:
        self.freed.extend(block_ids)

    def share(self, block_id, adopted=False) -> None:
        pass


class TestEngineEvictionLog:
    def test_evicted_full_paths_are_drained_once(self):
        index = PrefixIndex(block_size=2)
        pool = _StubPool()
        index.register([1, 2, 3, 4], [10, 11], pool)
        assert index.entries == 2
        # Eviction is leaf-first, so draining the chain takes two passes:
        # the deeper span first, then its newly-leafed parent.
        assert index.evict(pool, needed=1) == 1
        assert index.drain_evicted_paths() == [((1, 2), (3, 4))]
        assert index.evict(pool, needed=1) == 1
        assert index.drain_evicted_paths() == [((1, 2),)]
        assert index.drain_evicted_paths() == []

    def test_partial_evictions_are_not_reported(self):
        index = PrefixIndex(block_size=4)
        pool = _StubPool()
        # 6 tokens on block_size 4: one full block + one partial tail.
        index.register([1, 2, 3, 4, 5, 6], [10, 11], pool)
        index.evict(pool, needed=1)  # the partial tail goes first
        assert index.drain_evicted_paths() == []
        index.evict(pool, needed=1)
        assert index.drain_evicted_paths() == [((1, 2, 3, 4),)]


class TestRouterIndexBounds:
    def test_lru_cap_holds_under_churn(self):
        index = RouterPrefixIndex(replicas=2, block_size=2, max_spans=40)
        rng = np.random.default_rng(0)
        for i in range(300):
            tokens = rng.integers(0, 50, size=8)
            index.observe(i % 2, tokens)
            assert index.spans <= 40
        assert index.evicted > 0

    def test_match_refreshes_recency(self):
        index = RouterPrefixIndex(replicas=1, block_size=2, max_spans=10)
        hot = [1, 2, 3, 4]
        index.observe(0, hot)
        # Churn enough cold prompts to overflow the cap repeatedly while
        # touching the hot path before each wave.
        for i in range(30):
            assert index.match_blocks(hot)[0] == 2
            index.observe(0, [100 + i, 200 + i, 300 + i, 400 + i])
        assert index.match_blocks(hot)[0] == 2

    def test_evict_path_removes_subtree(self):
        index = RouterPrefixIndex(replicas=2, block_size=2, max_spans=None)
        index.observe(0, [1, 2, 3, 4, 5, 6])
        index.observe(0, [1, 2, 9, 9])
        assert index.spans == 4
        removed = index.evict_path(0, (((1, 2)),))
        assert removed == 4
        assert index.spans == 0
        assert index.match_blocks([1, 2, 3, 4])[0] == 0

    def test_evict_unknown_path_is_harmless(self):
        index = RouterPrefixIndex(replicas=1, block_size=2)
        assert index.evict_path(0, ((7, 7),)) == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="max_spans"):
            RouterPrefixIndex(replicas=1, block_size=2, max_spans=0)


class TestClusterEvictionMirroring:
    def test_engine_evictions_shrink_router_index(self):
        """A pool small enough to force prefix evictions must shrink the
        router-side index too, and routing must still serve every token
        stream identically to an unconstrained cluster."""
        model = make_model()
        workload = generate_workload(
            "chat-multiturn", sessions=6, vocab_size=64, seed=0, rate_scale=4.0
        )
        tight = ClusterRouter(
            model,
            replicas=2,
            routing="prefix-affinity",
            config=ServeConfig(
                max_batch_size=2,
                block_size=4,
                prefix_caching=True,
                max_blocks=12,
                initial_blocks=12,
            ),
        )
        report = tight.serve(workload)
        evictions = sum(e.pool.prefix_evictions for e in tight.engines)
        assert evictions > 0
        assert report.routing["index_evictions"] > 0

        roomy = ClusterRouter(
            model,
            replicas=2,
            routing="prefix-affinity",
            config=ServeConfig(max_batch_size=2, block_size=4, prefix_caching=True),
        )
        roomy_report = roomy.serve(workload)
        for request in workload:
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens,
                roomy_report.by_id(request.request_id).tokens,
            )


class TestWeightedRouting:
    def test_least_loaded_divides_by_weight(self):
        policy = LeastLoadedPolicy()
        snaps = [snapshot(0, load=3, weight=2.0), snapshot(1, load=2, weight=1.0)]
        # 3/2 = 1.5 beats 2/1 = 2.0: the bigger box takes the request.
        assert policy.choose(None, snaps, None).replica == 0

    def test_unweighted_ties_break_to_lower_id(self):
        policy = LeastLoadedPolicy()
        snaps = [snapshot(0, load=1), snapshot(1, load=1)]
        assert policy.choose(None, snaps, None).replica == 0

    def test_dispatch_fills_proportionally(self):
        router = ClusterRouter(
            make_model(),
            replicas=2,
            routing="least-loaded",
            capacity_weights=(2.0, 1.0),
            config=ServeConfig(max_batch_size=4),
        )
        # Replica 0 gets 8 decode slots, replica 1 gets 4.
        assert router.engines[0].scheduler.max_batch_size == 8
        assert router.engines[1].scheduler.max_batch_size == 4
        for engine in router.engines:
            engine.begin()
        for i in range(6):
            router.dispatch(Request(f"r{i}", np.arange(1, 5), max_new_tokens=2))
        routed = [0, 0]
        for decision in router._decisions:
            routed[decision.replica] += 1
        assert routed == [4, 2]

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="one entry per replica"):
            ClusterRouter(make_model(), replicas=2, capacity_weights=(1.0,))
        with pytest.raises(ValueError, match="> 0"):
            ClusterRouter(make_model(), replicas=2, capacity_weights=(1.0, 0.0))

    def test_weighted_cluster_report(self):
        model = make_model()
        workload = generate_workload(
            "chat-multiturn", sessions=4, vocab_size=64, seed=0, rate_scale=4.0
        )
        router = ClusterRouter(
            model,
            replicas=2,
            routing="least-loaded",
            capacity_weights=(2.0, 1.0),
            config=ServeConfig(max_batch_size=2),
        )
        summary = router.serve(workload).summary()
        assert summary["capacity_weights"] == [2.0, 1.0]
        assert summary["weighted_load_imbalance"] >= 0.0
