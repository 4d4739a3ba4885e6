"""Tiered KV pool: demotion, demand promotion, and failure atomicity.

The cold tier parks LRU prefix-cache blocks (re-quantized to
``tier_fmt``) instead of evicting them; a later prefix hit either
*promotes* the span back into a fresh hot block (lossless tier: the
restored bytes are bit-identical to a fresh write by quantize
idempotence) or refuses the hit so the tokens re-prefill (lossy tier /
failed promotion) — served tokens stay exact either way.  These tests
pin the state machine: demote picks only index-owned spans with all-cold
subtrees, a promotion that dies on ``PoolExhaustedError`` leaves no
half-moved block, and every interleaving keeps
:meth:`BlockKVPool.check_invariants` green.
"""

import numpy as np
import pytest

from repro.nn.generation import generate
from repro.serve import Request, ServeEngine
from repro.serve.kv_pool import BlockKVPool

LAYERS, HEADS, DIM, BS = 2, 2, 4, 4


def make_pool(**kwargs):
    defaults = dict(
        num_layers=LAYERS,
        num_heads=HEADS,
        head_dim=DIM,
        block_size=BS,
        initial_blocks=4,
        max_blocks=4,
        prefix_caching=True,
        tier_blocks=4,
    )
    defaults.update(kwargs)
    return BlockKVPool(**defaults)


def fill(seq, tokens_worth, value):
    chunk = np.full((1, HEADS, tokens_worth, DIM), float(value))
    for layer in range(LAYERS):
        seq.layers[layer].append(chunk, -chunk)


def write_prefix(pool, tokens, value):
    """Write ``tokens`` worth of K/V, register it, release the writer."""
    seq = pool.sequence()
    fill(seq, len(tokens), value)
    seq.register_prefix(list(tokens))
    seq.release()


class TestDemote:
    def test_demote_parks_lru_blocks_deepest_first(self):
        pool = make_pool()
        key = list(range(100, 108))  # two full blocks
        write_prefix(pool, key, 3.0)
        assert pool.blocks_in_use == 2

        # A parent is only demotable once its subtree is cold, so the
        # chain drains leaf-up across walks.
        assert pool.prefix.demote(pool, 8) == 1
        pool.check_invariants()
        assert pool.prefix.demote(pool, 8) == 1
        pool.check_invariants()
        stats = pool.stats()
        assert stats.blocks_demoted == 2
        assert stats.cold_blocks_cached == 2
        assert pool.blocks_in_use == 0
        assert stats.prefix_blocks_cached == 2  # entries survive, cold

    def test_shared_blocks_are_never_demoted(self):
        pool = make_pool()
        writer = pool.sequence()
        fill(writer, BS, 5.0)
        writer.register_prefix(list(range(4)))
        # The writer still references its block (refcount 2 with the
        # index), so the entry is pinned hot.
        assert pool.prefix.demote(pool, 8) == 0
        assert pool.stats().blocks_demoted == 0
        writer.release()
        assert pool.prefix.demote(pool, 8) == 1
        pool.check_invariants()

    def test_shared_partial_tail_blocks_demotion_of_ancestors(self):
        """A COW tail someone references pins the chain; a loose one is
        evicted with the candidate instead of pinning it hot."""
        pool = make_pool()
        key = list(range(50, 56))  # one full block + a 2-token tail
        write_prefix(pool, key, 7.0)
        adopter = pool.sequence()
        assert adopter.adopt_prefix(key) == 6
        assert pool.prefix.demote(pool, 8) == 0  # tail refcount is 2
        pool.check_invariants()

        adopter.release()
        # Now the tail is index-only: it is dropped (cheapest recompute
        # in the chain) and the full block demotes.
        assert pool.prefix.demote(pool, 8) == 2
        pool.check_invariants()
        stats = pool.stats()
        assert stats.blocks_demoted == 1
        assert stats.prefix_evictions == 1
        assert stats.cold_blocks_cached == 1

    def test_tier_capacity_drops_lru_cold_spans(self):
        pool = make_pool(tier_blocks=1)
        write_prefix(pool, list(range(10, 14)), 1.0)
        write_prefix(pool, list(range(20, 24)), 2.0)
        assert pool.prefix.demote(pool, 1) == 1
        # The tier is full: demoting the second span drops the first.
        assert pool.prefix.demote(pool, 1) == 1
        pool.check_invariants()
        stats = pool.stats()
        assert stats.blocks_demoted == 2
        assert stats.cold_blocks_cached == 1
        assert stats.tier_evictions == 1

    def test_allocation_pressure_demotes_before_evicting(self):
        pool = make_pool()
        key = list(range(30, 38))
        write_prefix(pool, key, 4.0)
        hog = pool.sequence()
        fill(hog, 16, 9.0)  # 4 blocks: forces both cached blocks out
        pool.check_invariants()
        stats = pool.stats()
        assert stats.blocks_demoted == 2
        assert stats.prefix_evictions == 0
        assert stats.cold_blocks_cached == 2
        hog.release()


class TestPromote:
    def test_promotion_restores_bytes_exactly(self):
        pool = make_pool()
        key = list(range(100, 108))
        write_prefix(pool, key, 3.0)
        pool.prefix.demote(pool, 8)
        pool.prefix.demote(pool, 8)
        assert pool.stats().cold_blocks_cached == 2

        probe = pool.sequence()
        assert probe.adopt_prefix(key) == 8
        assert probe.cold_tokens_restored == 8
        assert probe.cold_tokens_refused == 0
        k, v = probe.gather(0)
        np.testing.assert_array_equal(k, np.full_like(k, 3.0))
        np.testing.assert_array_equal(v, np.full_like(v, -3.0))
        stats = pool.stats()
        assert stats.blocks_promoted == 2
        assert stats.cold_blocks_cached == 0
        pool.check_invariants()
        probe.release()

    def test_mixed_hot_cold_chain_promotes_only_the_cold_span(self):
        pool = make_pool(max_blocks=6, initial_blocks=6)
        key = list(range(100, 108))
        write_prefix(pool, key, 3.0)
        pool.prefix.demote(pool, 8)  # leaf only: parent stays hot
        probe = pool.sequence()
        assert probe.adopt_prefix(key) == 8
        assert probe.cold_tokens_restored == BS
        assert pool.stats().blocks_promoted == 1
        pool.check_invariants()
        probe.release()

    def test_failed_promotion_leaves_no_half_moved_block(self):
        pool = make_pool()
        key = list(range(40, 44))
        write_prefix(pool, key, 6.0)
        assert pool.prefix.demote(pool, 8) == 1
        hog = pool.sequence()
        fill(hog, 16, 9.0)  # every hot block is now hog-owned

        probe = pool.sequence()
        assert probe.adopt_prefix(key) == 0
        # The tier record was popped before the failed allocation and
        # the dead entry dropped whole: nothing survives half-moved.
        assert probe.cold_tokens_refused == BS
        stats = pool.stats()
        assert stats.blocks_promoted == 0
        assert stats.cold_blocks_cached == 0
        assert stats.prefix_blocks_cached == 0
        pool.check_invariants()
        # The hog's bytes were never touched by the failed restore.
        k, _ = hog.gather(0)
        np.testing.assert_array_equal(k, np.full_like(k, 9.0))
        probe.release()
        hog.release()

    def test_demote_then_preempt_keeps_the_cold_span_adoptable(self):
        pool = make_pool()
        key = list(range(60, 68))
        write_prefix(pool, key, 2.0)
        victim = pool.sequence()
        fill(victim, 8, 8.0)
        # This allocation runs dry and demotes the cached leaf in-flight.
        late = pool.sequence()
        fill(late, 4, 1.0)
        assert pool.stats().blocks_demoted >= 1
        pool.check_invariants()

        # Preemption mid-churn: the scheduler frees the victim's blocks.
        victim.release()
        pool.check_invariants()

        probe = pool.sequence()
        assert probe.adopt_prefix(key) == 8
        assert probe.cold_tokens_restored >= BS
        k, _ = probe.gather(0)
        np.testing.assert_array_equal(k[0, :, :8], 2.0)
        pool.check_invariants()
        probe.release()
        late.release()


class TestLossyTier:
    def test_lossy_tier_refuses_cold_hits(self):
        pool = make_pool(tier_fmt="fp8_e4m3")  # narrower than fp64 storage
        assert not pool.tier_lossless
        key = list(range(70, 78))
        write_prefix(pool, key, 3.5)
        pool.prefix.demote(pool, 8)
        pool.prefix.demote(pool, 8)

        probe = pool.sequence()
        assert probe.adopt_prefix(key) == 0
        assert probe.cold_tokens_refused == 8
        assert probe.cold_tokens_restored == 0
        assert pool.stats().blocks_promoted == 0
        # Refusal keeps the cold records: a re-prefill will refresh them.
        assert pool.stats().cold_blocks_cached == 2
        pool.check_invariants()
        probe.release()

    def test_reprefill_refreshes_over_cold(self):
        """Re-registering a cold span points it at the fresh bytes and
        discards the tier copy — cold bytes are never aliased."""
        pool = make_pool(tier_fmt="fp8_e4m3")
        key = list(range(70, 78))
        write_prefix(pool, key, 3.5)
        pool.prefix.demote(pool, 8)
        pool.prefix.demote(pool, 8)

        rewriter = pool.sequence()
        fill(rewriter, 8, 3.5)
        rewriter.register_prefix(key)
        stats = pool.stats()
        assert stats.cold_blocks_cached == 0
        assert stats.prefix_blocks_cached == 2
        pool.check_invariants()
        rewriter.release()
        adopter = pool.sequence()
        assert adopter.adopt_prefix(key) == 8
        assert adopter.cold_tokens_restored == 0
        adopter.release()

    def test_cost_model_can_refuse_promotion(self):
        class NeverPays:
            def promotion_pays(self, block_size):
                return False

        pool = make_pool(tier_cost_model=NeverPays())
        key = list(range(80, 84))
        write_prefix(pool, key, 1.0)
        pool.prefix.demote(pool, 8)
        probe = pool.sequence()
        assert probe.adopt_prefix(key) == 0
        assert probe.cold_tokens_refused == BS
        pool.check_invariants()
        probe.release()


class TestConstruction:
    def test_tier_requires_prefix_caching(self):
        with pytest.raises(ValueError):
            BlockKVPool(
                num_layers=1, num_heads=1, head_dim=2, block_size=2,
                initial_blocks=2, tier_blocks=2,
            )

    def test_negative_tier_rejected(self):
        with pytest.raises(ValueError):
            make_pool(tier_blocks=-1)

    def test_tier_bytes_accounting_reflects_compression(self):
        pool = make_pool(kv_fmt="bf16", tier_fmt="fp8_e4m3", max_blocks=None)
        write_prefix(pool, list(range(4)), 1.0)
        hot = pool.stats().hot_kv_bytes
        pool.prefix.demote(pool, 8)
        stats = pool.stats()
        assert stats.hot_kv_bytes == 0
        assert stats.cold_kv_bytes == hot // 2  # fp8 is half of bf16


class TestServedTokensStayExact:
    """The repo invariant, under the tier: serve(tiered) == generate()."""

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_tight_pool_tiered_serving_matches_generate(self, policy):
        from repro.nn.config import get_config
        from repro.nn.model import OPTLanguageModel
        from repro.serve.workload import generate_workload

        model = OPTLanguageModel(
            get_config("opt-test"), rng=np.random.default_rng(7), policy=policy
        )
        model.eval()
        requests = generate_workload(
            "agent-tree", sessions=4, vocab_size=model.config.vocab_size, seed=3
        )
        engine = ServeEngine(
            model, max_batch_size=4, block_size=8, prefix_caching=True,
            max_blocks=24, tier_blocks=48,
        )
        report = engine.serve(requests)
        assert len(report.completed) == len(requests)
        for request in requests:
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens,
                generate(
                    model,
                    request.prompt_ids,
                    max_new_tokens=request.max_new_tokens,
                    temperature=request.temperature,
                    top_k=request.top_k,
                    rng=np.random.default_rng(request.seed),
                    stop_tokens=request.stop_tokens,
                ),
                err_msg=f"{request.request_id} diverged under tiering ({policy})",
            )
        engine.pool.check_invariants()
        # The tight pool actually exercised the tier.
        assert report.pool_stats["blocks_demoted"] > 0

    def test_lossy_tier_serving_matches_generate_via_reprefill(self):
        from repro.nn.config import get_config
        from repro.nn.model import OPTLanguageModel
        from repro.serve.workload import generate_workload

        model = OPTLanguageModel(
            get_config("opt-test"), rng=np.random.default_rng(7), policy="fp64-ref"
        )
        model.eval()
        requests = generate_workload(
            "map-reduce", sessions=4, vocab_size=model.config.vocab_size, seed=0
        )
        engine = ServeEngine(
            model, max_batch_size=4, block_size=8, prefix_caching=True,
            max_blocks=24, tier_blocks=48, tier_fmt="fp8_e4m3",
        )
        report = engine.serve(requests)
        for request in requests:
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens,
                generate(
                    model,
                    request.prompt_ids,
                    max_new_tokens=request.max_new_tokens,
                    temperature=request.temperature,
                    top_k=request.top_k,
                    rng=np.random.default_rng(request.seed),
                    stop_tokens=request.stop_tokens,
                ),
                err_msg=f"{request.request_id} diverged under a lossy tier",
            )
        engine.pool.check_invariants()
        # The lossy tier refused cold hits — the tokens re-prefilled.
        assert report.metrics["cold_tokens_refused"] > 0
        assert report.metrics["cold_tokens_restored"] == 0


class TestEngineWiring:
    def test_tier_flags_validated(self, model):
        with pytest.raises(ValueError):
            ServeEngine(model, tier_blocks=8)


def test_report_carries_tier_gauges(model):
    """Satellite: ServeReport exposes the tier counters, merged across
    engines like every other additive gauge."""
    from repro.serve.workload import generate_workload

    requests = generate_workload(
        "agent-tree", sessions=4, vocab_size=model.config.vocab_size, seed=3
    )
    engine = ServeEngine(
        model, max_batch_size=4, block_size=8, prefix_caching=True,
        max_blocks=24, tier_blocks=48,
    )
    report = engine.serve(requests)
    for gauge in (
        "cold_hit_rate", "cold_tokens_restored", "cold_tokens_refused",
        "recompute_tokens_avoided",
    ):
        assert gauge in report.metrics, gauge
    for gauge in (
        "blocks_demoted", "blocks_promoted", "tier_evictions",
        "cold_blocks_cached", "cold_kv_bytes", "hot_kv_bytes",
    ):
        assert gauge in report.pool_stats, gauge
    assert report.pool_stats["blocks_demoted"] > 0
    assert 0.0 <= report.metrics["cold_hit_rate"] <= 1.0
    # merge() sums the pool gauges like every other additive counter.
    merged = type(report).merge([report, report], max_batch_size=8)
    assert (
        merged.pool_stats["blocks_demoted"]
        == 2 * report.pool_stats["blocks_demoted"]
    )
