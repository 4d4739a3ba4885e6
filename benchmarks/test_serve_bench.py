"""Benchmark: continuous-batching serving throughput and KV-cache growth.

Two measurements:

* a quick end-to-end serve of the ``steady`` scenario (tokens/sec and TTFT
  land in ``benchmark.extra_info`` so the pytest-benchmark report shows
  them), and
* the KV growth comparison that motivated the pooled cache: appending one
  token at a time into the block-granular pool, counting block
  allocations, versus the O(n²)-copy ``np.concatenate`` growth the seed
  implementation used.
"""

import numpy as np

from repro.serve.bench import run_scenario
from repro.serve.kv_pool import BlockKVPool


def test_serve_steady_scenario(benchmark):
    """End-to-end continuous batching on the steady mix (quick size)."""
    rows, _ = benchmark.pedantic(
        run_scenario,
        kwargs=dict(scenario="steady", normalizer="baseline", quick=True, seed=0),
        rounds=1,
        iterations=1,
    )
    metrics = rows["metrics"]
    benchmark.extra_info["tokens_per_second"] = f"{metrics['tokens_per_second']:.1f}"
    benchmark.extra_info["ttft_p50_ms"] = f"{metrics['ttft_s']['p50'] * 1e3:.2f}"
    benchmark.extra_info["blocks_reused"] = rows["pool"]["blocks_reused"]
    assert metrics["requests_completed"] == rows["num_requests"]
    assert metrics["tokens_per_second"] > 0


def _concatenate_growth(tokens: int, shape) -> int:
    """The seed implementation's growth: one full-history copy per token."""
    k = None
    copies = 0
    chunk = np.zeros(shape)
    for _ in range(tokens):
        k = chunk.copy() if k is None else np.concatenate([k, chunk], axis=2)
        copies += 1  # every step reallocates and copies the whole history
    return copies


def _pooled_growth(tokens: int, shape) -> int:
    """Amortized growth: pool block allocations."""
    pool = BlockKVPool(num_layers=1, num_heads=shape[1], head_dim=shape[3],
                       block_size=16, initial_blocks=4)
    seq = pool.sequence()
    chunk = np.zeros(shape)
    for _ in range(tokens):
        seq.layers[0].append(chunk, chunk.copy())
    return pool.blocks_allocated


def test_kv_growth_is_amortized_not_quadratic(benchmark):
    """Decoding n tokens allocates O(n / block) blocks, not the n
    reallocate-and-copy events of concatenate growth."""
    tokens = 256
    shape = (1, 2, 1, 16)
    block_allocs = benchmark.pedantic(
        _pooled_growth, args=(tokens, shape), rounds=1, iterations=1
    )
    concat_copies = _concatenate_growth(tokens, shape)
    benchmark.extra_info["concatenate_copies"] = concat_copies
    benchmark.extra_info["pool_block_allocs"] = block_allocs
    assert concat_copies == tokens
    assert block_allocs == tokens // 16
