"""Golden-token parity: the compiled executor is byte-identical to reference.

The tentpole guarantee of the execution-backend layer: under every
precision preset (fp64-ref through bf16-fp8kv) and on every serving path
— the classic four scenarios, prefix caching, chunked prefill,
preempt-then-rerun, and prompt-lookup speculation — an engine on the
``compiled`` backend serves **exactly** the token streams the
``reference`` backend serves.  The compiled plan pre-resolves each
layer's op sequence, packs a ragged step's real positions, batches the
quantize-on-write KV path, and reuses mask/logit buffers; none of that may
move a single bit.
"""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.executor import (
    EXECUTORS,
    CompiledExecutor,
    ReferenceExecutor,
    resolve_executor,
)
from repro.nn.generation import generate, generate_batch
from repro.nn.model import OPTLanguageModel
from repro.serve import BlockKVPool, Request, ServeEngine, generate_workload

#: Every registered precision preset, weakest to strongest quantization.
POLICIES = ("fp64-ref", "fp32", "fp16", "bf16", "bf16-fp8kv")
CLASSIC_FOUR = ("steady", "bursty", "chat", "codegen")


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
    report = engine.serve(requests)
    assert len(report.completed) == len(requests)
    return report, {
        r.request_id: report.by_id(r.request_id).tokens for r in requests
    }


def assert_backend_parity(model, requests, **engine_kwargs):
    """Serve twice — reference then compiled — and demand identical bytes."""
    ref_report, ref = served_tokens(model, requests, "reference", **engine_kwargs)
    comp_report, comp = served_tokens(model, requests, "compiled", **engine_kwargs)
    for rid, tokens in ref.items():
        np.testing.assert_array_equal(
            comp[rid], tokens, err_msg=f"request {rid} diverged across backends"
        )
    return ref_report, comp_report


class TestClassicScenarios:
    """ISSUE acceptance: parity on the classic four, every preset."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scenario", CLASSIC_FOUR)
    def test_compiled_matches_reference(self, scenario, policy, fixed_timer):
        model = make_model(policy)
        assert_backend_parity(
            model, workload(scenario), max_batch_size=4, timer=fixed_timer
        )


class TestSpeculationParity:
    """summarize-copy with prompt-lookup speculation, every preset."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_speculative_parity_and_generate_agreement(self, policy, fixed_timer):
        model = make_model(policy)
        requests = workload("summarize-copy", count=6)
        _, comp_report = assert_backend_parity(
            model,
            requests,
            max_batch_size=4,
            decode_strategy="prompt-lookup",
            timer=fixed_timer,
        )
        # Speculation actually engaged on the compiled backend, and the
        # served stream still equals the offline generate() reference.
        assert comp_report.metrics["draft_accepted"] > 0
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
                comp_report.by_id(request.request_id).tokens, expected
            )


class TestSchedulingPaths:
    """Prefix caching, chunked prefill, preemption — the KV-heavy paths."""

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_prefix_caching_parity(self, policy, fixed_timer):
        model = make_model(policy)
        prompt = np.array([1, 2, 3, 1, 2, 3, 1, 2])
        requests = [
            Request("writer", prompt, max_new_tokens=8, arrival_time=0.0),
            Request("twin", prompt.copy(), max_new_tokens=8, arrival_time=0.05),
        ]
        _, comp_report = assert_backend_parity(
            model,
            requests,
            max_batch_size=2,
            block_size=4,
            prefix_caching=True,
            timer=fixed_timer,
        )
        assert comp_report.pool_stats["blocks_adopted"] > 0

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_chunked_prefill_parity(self, policy, fixed_timer):
        model = make_model(policy)
        assert_backend_parity(
            model,
            workload("chat"),
            max_batch_size=4,
            prefill_budget=3,
            timer=fixed_timer,
        )

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_preempt_then_rerun_parity(self, policy, fixed_timer):
        model = make_model(policy)
        victim = Request(
            "victim", np.array([9, 10, 11, 9, 10, 11]), max_new_tokens=8, priority=0
        )
        hogs = [
            Request(f"hog{i}", np.arange(1 + i, 6 + i), max_new_tokens=10, priority=1)
            for i in range(2)
        ]
        _, comp_report = assert_backend_parity(
            model,
            hogs + [victim],
            max_batch_size=3,
            block_size=2,
            initial_blocks=4,
            max_blocks=8,
            timer=fixed_timer,
        )
        assert comp_report.metrics["preempted_count"] >= 1


PREFILL_CHUNK = np.array([7, 3, 9, 1, 4, 1, 5, 9, 2, 6, 5, 3])
DECODE_HISTORIES = ([2, 7, 1, 8, 2], [1, 4, 1, 4, 2, 1, 3, 5, 6], [3, 3, 8])


def decode_caches(model, pool):
    """Fresh pool sequences holding each decode row's history."""
    caches = []
    for history in DECODE_HISTORIES:
        cache = pool.sequence()
        model.forward_ragged(np.array([history]), [cache], [len(history)])
        caches.append(cache)
    return caches


def mixed_step(model):
    """One long prefill chunk beside three decode rows: the left-padded
    ``(token_ids, caches, new_lens)`` of a continuous-batching step."""
    width = PREFILL_CHUNK.size
    token_ids = np.zeros((1 + len(DECODE_HISTORIES), width), dtype=np.int64)
    token_ids[0] = PREFILL_CHUNK
    for r, history in enumerate(DECODE_HISTORIES, start=1):
        token_ids[r, -1] = history[-1] + 1
    new_lens = [width] + [1] * len(DECODE_HISTORIES)
    pool = BlockKVPool.for_model(model)
    return token_ids, [pool.sequence()] + decode_caches(model, pool), new_lens


class TestPackedRaggedStep:
    """The compiled ragged forward computes real positions only, and a
    row's logits do not depend on what it is batched beside."""

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_every_linear_sees_only_real_positions(self, policy):
        model = make_model(policy)
        executor = CompiledExecutor(model)
        plan = executor._ensure_plan()
        rows = []

        def counted(linear):
            def run(x):
                rows.append(int(np.prod(x.shape[:-1])))
                return linear(x)

            return run

        for lp in plan.layers:
            for name in ("q", "k", "v", "out", "fc1", "fc2"):
                setattr(lp, name, counted(getattr(lp, name)))
        token_ids, caches, new_lens = mixed_step(model)
        executor.forward_ragged(token_ids, caches, new_lens)
        assert len(rows) == 6 * len(plan.layers)
        assert rows == [sum(new_lens)] * len(rows)  # not batch * max_new

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_decode_rows_independent_of_batch(self, policy):
        model = make_model(policy)
        token_ids, caches, new_lens = mixed_step(model)
        reference = ReferenceExecutor(model).forward_ragged(
            token_ids, caches, new_lens
        )
        executor = CompiledExecutor(model)
        token_ids, caches, new_lens = mixed_step(model)
        mixed = np.array(executor.forward_ragged(token_ids, caches, new_lens))
        np.testing.assert_array_equal(mixed, reference)
        pool = BlockKVPool.for_model(model)
        for r, cache in enumerate(decode_caches(model, pool), start=1):
            alone = executor.forward_ragged(token_ids[r : r + 1, -1:], [cache], [1])
            np.testing.assert_array_equal(
                mixed[r], alone[0], err_msg=f"decode row {r} moved with its batch"
            )


class TestGeneratePath:
    """The offline generate()/generate_batch() entry points honor backend=."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_generate_backend_parity(self, policy):
        model = make_model(policy)
        prompt = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        ref = generate(model, prompt, max_new_tokens=10, temperature=0.0)
        comp = generate(
            model, prompt, max_new_tokens=10, temperature=0.0, backend="compiled"
        )
        np.testing.assert_array_equal(comp, ref)

    def test_generate_sampled_backend_parity(self):
        """Sampled decoding: identical RNG seeds walk identical streams."""
        model = make_model("bf16")
        prompt = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        ref = generate(
            model, prompt, max_new_tokens=10, temperature=0.8,
            rng=np.random.default_rng(99),
        )
        comp = generate(
            model, prompt, max_new_tokens=10, temperature=0.8,
            rng=np.random.default_rng(99), backend="compiled",
        )
        np.testing.assert_array_equal(comp, ref)

    @pytest.mark.parametrize("policy", ["fp64-ref", "bf16-fp8kv"])
    def test_generate_batch_backend_parity(self, policy):
        model = make_model(policy)
        prompts = [np.array([1, 2, 3, 1, 2, 3]), np.array([4, 5, 6, 7, 4, 5])]
        ref = generate_batch(model, prompts, max_new_tokens=8, temperature=0.0)
        comp = generate_batch(
            model, prompts, max_new_tokens=8, temperature=0.0, backend="compiled"
        )
        for got, expected in zip(comp, ref):
            np.testing.assert_array_equal(got, expected)


class TestExecutorContract:
    def test_registry_and_resolution(self):
        model = make_model()
        assert set(EXECUTORS) == {"reference", "compiled"}
        assert isinstance(resolve_executor(None, model), ReferenceExecutor)
        assert isinstance(resolve_executor("compiled", model), CompiledExecutor)
        inst = CompiledExecutor(model)
        assert resolve_executor(inst, model) is inst
        with pytest.raises(KeyError, match="unknown execution backend"):
            resolve_executor("nonsense", model)

    def test_engine_reports_backend_name(self):
        assert ServeEngine(make_model()).executor.name == "reference"
        assert ServeEngine(make_model(), backend="compiled").executor.name == "compiled"

    def test_compiled_rejects_training_mode(self):
        model = make_model()
        model.train()
        executor = CompiledExecutor(model)
        kv = BlockKVPool.for_model(model).sequence()
        with pytest.raises(RuntimeError, match="eval"):
            executor.forward_ragged(np.array([[1, 2, 3]]), [kv], [3])

    def test_plan_invalidated_on_policy_change(self):
        """set_policy after a compiled forward must rebuild the plan: the
        next forward matches a fresh reference under the *new* policy."""
        model = make_model("fp64-ref")
        executor = CompiledExecutor(model)
        prompt = np.array([[1, 2, 3, 4]])
        np.testing.assert_array_equal(executor.forward(prompt), model(prompt))
        model.set_policy("bf16-fp8kv")
        np.testing.assert_array_equal(executor.forward(prompt), model(prompt))
