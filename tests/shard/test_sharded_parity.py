"""Golden-token parity: sharded serving is byte-identical to unsharded.

The tentpole guarantee of the sharding layer: for every legal shard
count, both fan-out drivers, and every precision preset, an engine on a
``sharded:N[:driver]`` backend serves **exactly** the token streams the
``reference`` backend serves — including when sharding composes with
prefix caching, chunked prefill, and prompt-lookup speculation.  Tensor
parallelism moves timings, never a token.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.executor import resolve_executor
from repro.nn.generation import generate
from repro.nn.model import OPTLanguageModel
from repro.serve import BlockKVPool, Request, ServeEngine, generate_workload

POLICIES = ("fp64-ref", "bf16-fp8kv")


def make_model(policy=None, seed=11):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(seed), policy=policy
    )
    model.eval()
    return model


def workload(scenario, count=4, seed=0):
    return generate_workload(scenario, num_requests=count, vocab_size=64, seed=seed)


def served_tokens(model, requests, backend, **engine_kwargs):
    engine = ServeEngine(model, backend=backend, **engine_kwargs)
    try:
        report = engine.serve(requests)
    finally:
        engine.close()
    assert len(report.completed) == len(requests)
    return report, {
        r.request_id: report.by_id(r.request_id).tokens for r in requests
    }


def assert_shard_parity(model, requests, backend, **engine_kwargs):
    """Serve on reference then on ``backend``; demand identical streams."""
    _, ref = served_tokens(model, requests, "reference", **engine_kwargs)
    report, sharded = served_tokens(model, requests, backend, **engine_kwargs)
    for rid, tokens in ref.items():
        np.testing.assert_array_equal(
            sharded[rid], tokens, err_msg=f"request {rid} diverged on {backend}"
        )
    return report


class TestSimDriverParity:
    """The in-process driver: cheap enough to sweep counts x presets."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_steady_parity(self, num_shards, policy, fixed_timer):
        model = make_model(policy)
        assert_shard_parity(
            model,
            workload("steady"),
            f"sharded:{num_shards}:sim",
            max_batch_size=4,
            timer=fixed_timer,
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_prefix_caching_composition(self, policy, fixed_timer):
        model = make_model(policy)
        prompt = np.array([1, 2, 3, 1, 2, 3, 1, 2])
        requests = [
            Request("writer", prompt, max_new_tokens=8, arrival_time=0.0),
            Request("twin", prompt.copy(), max_new_tokens=8, arrival_time=0.05),
        ]
        report = assert_shard_parity(
            model,
            requests,
            "sharded:3:sim",
            max_batch_size=2,
            block_size=4,
            prefix_caching=True,
            timer=fixed_timer,
        )
        assert report.pool_stats["blocks_adopted"] > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_chunked_prefill_composition(self, policy, fixed_timer):
        model = make_model(policy)
        assert_shard_parity(
            model,
            workload("chat"),
            "sharded:2:sim",
            max_batch_size=4,
            prefill_budget=3,
            timer=fixed_timer,
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_speculation_composition(self, policy, fixed_timer):
        model = make_model(policy)
        requests = workload("summarize-copy", count=6)
        report = assert_shard_parity(
            model,
            requests,
            "sharded:2:sim",
            max_batch_size=4,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )
        # Speculation engaged on the sharded backend, and the streams
        # still equal the offline generate() reference.
        assert report.metrics["draft_accepted"] > 0
        for request in requests:
            expected = generate(
                model,
                request.prompt_ids,
                max_new_tokens=request.max_new_tokens,
                temperature=request.temperature,
                top_k=request.top_k,
                rng=np.random.default_rng(request.seed),
                stop_tokens=request.stop_tokens,
            )
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens, expected
            )


class TestProcessDriverParity:
    """Real worker processes over shared-memory rings: one sweep per
    preset keeps the suite fast while still exercising the full IPC
    transport (weight shm, activation rings, result unflattening)."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_process_driver_parity(self, policy, fixed_timer):
        model = make_model(policy)
        assert_shard_parity(
            model,
            workload("chat"),
            "sharded:2:process",
            max_batch_size=4,
            timer=fixed_timer,
        )

    def test_process_and_sim_agree(self, fixed_timer):
        """Both drivers run the same plan; their streams must be equal."""
        model = make_model("bf16-fp8kv")
        requests = workload("steady")
        _, sim = served_tokens(
            model, requests, "sharded:4:sim", max_batch_size=4, timer=fixed_timer
        )
        _, proc = served_tokens(
            model, requests, "sharded:4:process", max_batch_size=4,
            timer=fixed_timer,
        )
        for rid, tokens in sim.items():
            np.testing.assert_array_equal(proc[rid], tokens)


class TestGeneratePath:
    def test_generate_backend_parity(self):
        model = make_model("bf16-fp8kv")
        prompt = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        ref = generate(model, prompt, max_new_tokens=10, temperature=0.0)
        sharded = generate(
            model, prompt, max_new_tokens=10, temperature=0.0,
            backend="sharded:3:sim",
        )
        np.testing.assert_array_equal(sharded, ref)


class TestFanoutCoverage:
    """Every linear of every layer, and the logits, go through the shards.

    Parity alone cannot catch a sharded executor that silently runs the
    unsharded closures: the bytes would be identical.  Counting the
    fan-outs can.
    """

    @staticmethod
    def count_fanouts(executor):
        calls = []
        fanout = executor._fanout

        def counted(phase, layer, payloads):
            calls.append((phase, layer, payloads[0].shape))
            return fanout(phase, layer, payloads)

        executor._fanout = counted
        return calls

    @pytest.mark.parametrize("batch", ["mixed", "one-row"])
    @pytest.mark.parametrize("spec", ["sharded:2:sim", "pipeline:2:sim"])
    def test_ragged_forward_fans_out_every_linear(self, spec, batch):
        model = make_model()
        executor = resolve_executor(spec, model)
        calls = self.count_fanouts(executor)
        if batch == "one-row":
            token_ids = np.array([[5, 1, 4, 1]])
            new_lens = [4]
        else:
            token_ids = np.zeros((3, 6), dtype=np.int64)
            token_ids[0] = [5, 1, 4, 1, 5, 9]
            token_ids[1, -2:] = [2, 6]
            token_ids[2, -1] = 3
            new_lens = [6, 2, 1]
        pool = BlockKVPool.for_model(model)
        caches = [pool.sequence() for _ in new_lens]
        executor.forward_ragged(token_ids, caches, new_lens)
        executor.close()
        layers = range(len(model.blocks))
        for phase in ("qkv", "out", "ffn"):
            seen = [(layer, shape) for p, layer, shape in calls if p == phase]
            assert {layer for layer, _ in seen} == set(layers), phase
            # Microbatches split the packed lanes, never pad them.
            for layer in layers:
                rows = sum(s[0] for lyr, s in seen if lyr == layer)
                assert rows == sum(new_lens), (phase, layer)
        assert any(p == "logits" for p, _, _ in calls)
