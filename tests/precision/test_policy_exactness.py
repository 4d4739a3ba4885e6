"""End-to-end guarantees of the precision-policy subsystem.

Two properties are pinned here:

* **fp64-ref is a verbatim passthrough** — the default policy installs the
  shared passthrough op layer, so every pre-policy bit-exactness test in
  the suite keeps covering the refactored code unchanged.
* **Exactness survives quantization** — under fp16 / bf16 / bf16-fp8kv the
  incremental, batched, and continuously served decode paths remain
  bit-identical to each other (quantization is elementwise over the same
  deterministic kernels), and every stored tensor is representable in its
  policy format.
"""

import numpy as np
import pytest

from repro.fpformats.quantize import quantize
from repro.nn.config import get_config
from repro.nn.generation import generate, generate_batch
from repro.nn.model import OPTLanguageModel
from repro.precision.ops import PASSTHROUGH_OPS
from repro.serve import BlockKVPool, Request, ServeEngine

QUANTIZED_POLICIES = ["fp16", "bf16", "bf16-fp8kv"]


def make_model(policy=None, seed=7):
    model = OPTLanguageModel(
        get_config("opt-test"), rng=np.random.default_rng(seed), policy=policy
    )
    model.eval()
    return model


def new_row(model):
    """An empty single-sequence cache from a pool in the model's KV format."""
    return BlockKVPool.for_model(model).sequence()


def prefill(model, ids, kv):
    """Append one row of new tokens to ``kv``; logits at every position."""
    return model.forward_ragged(ids, [kv], [ids.shape[1]], last_only=False)


@pytest.fixture(params=QUANTIZED_POLICIES)
def policy_name(request):
    return request.param


class TestFp64RefPassthrough:
    def test_default_policy_installs_shared_passthrough(self):
        model = make_model()
        assert model.policy.name == "fp64-ref"
        assert model.ops is PASSTHROUGH_OPS
        assert model.blocks[0].attention.ops is PASSTHROUGH_OPS
        assert model.final_norm.ops is PASSTHROUGH_OPS

    def test_normalizer_swap_keeps_passthrough_datapath(self):
        model = make_model()
        model.replace_layernorm("iterl2norm", fmt="fp16", num_steps=5)
        assert model.ops is PASSTHROUGH_OPS
        assert model.policy.name == "fp64-ref@iterl2norm"
        model.restore_layernorm()
        assert model.policy.name == "fp64-ref"
        assert all(n.eval_normalizer is None for n in model.layer_norms())

    def test_normalizer_swap_reuses_quantized_ops(self):
        """Same datapath formats: the ops (and weight memo) are kept."""
        model = make_model("fp16")
        ops_before = model.ops
        model.replace_layernorm("iterl2norm", fmt="fp16", num_steps=5)
        assert model.ops is ops_before
        model.restore_layernorm()
        assert model.ops is ops_before
        model.set_policy("bf16")  # different formats: fresh ops
        assert model.ops is not ops_before

    def test_policy_roundtrip_leaves_logits_bit_identical(self, rng):
        model = make_model()
        ids = rng.integers(0, 64, size=(2, 9))
        before = model(ids)
        model.set_policy("fp16")
        model.set_policy("fp64-ref")
        np.testing.assert_array_equal(model(ids), before)


class TestQuantizedExactness:
    def test_incremental_equals_prefill(self, policy_name, rng):
        """Chunked cached decoding is bit-identical to one-shot prefill."""
        model = make_model(policy_name)
        tokens = rng.integers(0, 64, size=(1, 12))
        full = prefill(model, tokens, new_row(model))
        kv = new_row(model)
        pieces = [
            prefill(model, tokens[:, :5], kv),
            prefill(model, tokens[:, 5:6], kv),
            prefill(model, tokens[:, 6:], kv),
        ]
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), full)

    def test_served_greedy_tokens_match_generate(self, policy_name, fixed_timer):
        """The acceptance property: serving == generate under the policy."""
        model = make_model(policy_name)
        requests = [
            Request("r0", np.array([1, 2, 3]), max_new_tokens=10),
            Request("r1", np.array([7, 8, 9, 10, 11, 12, 13]), max_new_tokens=6),
            Request("r2", np.array([4]), max_new_tokens=12, arrival_time=0.001),
            Request("r3", np.arange(1, 15), max_new_tokens=3, arrival_time=0.002),
        ]
        report = ServeEngine(model, max_batch_size=2, timer=fixed_timer).serve(requests)
        for request in requests:
            reference = generate(
                model,
                request.prompt_ids,
                max_new_tokens=request.max_new_tokens,
                temperature=0.0,
                rng=np.random.default_rng(request.seed),
            )
            np.testing.assert_array_equal(
                report.by_id(request.request_id).tokens,
                reference,
                err_msg=f"{request.request_id} diverged under policy {policy_name}",
            )

    def test_generate_batch_rows_match_solo_generate(self, policy_name):
        model = make_model(policy_name)
        prompts = np.array([[1, 2, 3], [9, 8, 7], [4, 4, 4]])
        batched = generate_batch(model, prompts, max_new_tokens=6, temperature=0.0)
        for row in range(prompts.shape[0]):
            solo = generate(
                model, prompts[row], max_new_tokens=6, temperature=0.0
            )
            np.testing.assert_array_equal(batched[row], solo)

    def test_logits_are_representable_in_activation_format(self, policy_name, rng):
        model = make_model(policy_name)
        logits = prefill(model, rng.integers(0, 64, size=(1, 6)), new_row(model))
        act = model.policy.activation_fmt
        np.testing.assert_array_equal(np.asarray(quantize(logits, act)), logits)

    def test_kv_cache_stores_cache_format(self, policy_name, rng):
        model = make_model(policy_name)
        kv = new_row(model)
        prefill(model, rng.integers(0, 64, size=(1, 7)), kv)
        kv_fmt = model.policy.kv_cache_fmt
        for layer in range(len(kv.layers)):
            k, v = kv.gather(layer)
            np.testing.assert_array_equal(np.asarray(quantize(k, kv_fmt)), k)
            np.testing.assert_array_equal(np.asarray(quantize(v, kv_fmt)), v)

    def test_fp8_kv_actually_narrower_than_activations(self, rng):
        """bf16-fp8kv: the cache stores fewer bits than the bf16 policy's."""
        ids = rng.integers(0, 64, size=(1, 8))
        wide = make_model("bf16")
        mixed = make_model("bf16-fp8kv")
        wide_kv, mixed_kv = new_row(wide), new_row(mixed)
        prefill(wide, ids, wide_kv)
        prefill(mixed, ids, mixed_kv)
        k_wide, _ = wide_kv.gather(0)
        k_mixed, _ = mixed_kv.gather(0)
        # Same projections (same seed, same bf16 datapath) — the only
        # difference is the write-side cache rounding.
        np.testing.assert_array_equal(
            np.asarray(quantize(k_wide, "fp8_e4m3")), k_mixed
        )
        assert not np.array_equal(k_wide, k_mixed)

    def test_quantized_policy_changes_logits(self, rng):
        """Sanity: the quantized datapath is not a silent no-op."""
        ids = rng.integers(0, 64, size=(1, 8))
        reference = make_model("fp64-ref")(ids)
        quantized = make_model("fp16")(ids)
        assert not np.array_equal(reference, quantized)
        np.testing.assert_allclose(reference, quantized, rtol=0.2, atol=0.5)


class TestPolicyOnTrainingPath:
    def test_training_mode_stays_exact_float64(self, rng):
        """Policies shape evaluation only: training forward ignores them."""
        ids = rng.integers(0, 64, size=(2, 6))
        ref = make_model("fp64-ref", seed=3)
        quant = make_model("fp16", seed=3)
        ref.train()
        quant.train()
        np.testing.assert_array_equal(ref(ids), quant(ids))

    def test_eval_requantizes_weights_changed_by_training(self, rng):
        """eval() drops memoized quantized weights, so edits take effect."""
        model = make_model("fp16")
        ids = rng.integers(0, 64, size=(1, 5))
        before = model(ids)
        model.train()
        for p in model.parameters():
            p.data = p.data + 0.01  # stand-in for an optimizer step
        model.eval()
        after = model(ids)
        assert not np.array_equal(before, after)
        # And the new outputs are stable (the memo now holds new weights).
        np.testing.assert_array_equal(model(ids), after)

    def test_repeated_eval_keeps_weight_memo_warm(self, rng):
        """Back-to-back eval() calls (e.g. per-generate) skip the refresh."""
        model = make_model("fp16")
        model.eval()
        ids = rng.integers(0, 64, size=(1, 4))
        model(ids)  # populate the memo
        assert len(model.ops._weight_cache) > 0
        cached = dict(model.ops._weight_cache)
        model.eval()  # no training in between: memo preserved
        assert model.ops._weight_cache == cached

    def test_load_state_dict_marks_weights_dirty(self, rng):
        model = make_model("fp16")
        model.eval()
        ids = rng.integers(0, 64, size=(1, 4))
        before = model(ids)
        state = {k: v + 0.01 for k, v in model.state_dict().items()}
        model.load_state_dict(state)
        model.eval()
        assert not np.array_equal(model(ids), before)

    def test_eval_rebinds_normalizer_to_trained_gamma(self, rng):
        """The policy's normalizer must follow gamma/beta across training."""
        model = make_model("fp64-ref")
        model.replace_layernorm("exact", fmt=None)
        model.eval()
        model.train()
        for norm in model.layer_norms():
            norm.gamma.data = norm.gamma.data * 1.5  # stand-in for training
        model.eval()
        for norm in model.layer_norms():
            np.testing.assert_array_equal(
                norm.eval_normalizer.gamma, norm.gamma.data
            )
            assert norm.eval_normalizer.gamma[0] == 1.5
