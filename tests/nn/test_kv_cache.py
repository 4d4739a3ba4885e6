"""KV-cache regression tests: incremental decoding must be bit-exact."""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.functional import causal_mask, causal_mask_offset, det_matmul
from repro.nn.generation import generate, generate_batch
from repro.nn.model import OPTLanguageModel
from repro.serve.kv_pool import BlockKVPool


@pytest.fixture
def model(rng):
    return OPTLanguageModel(get_config("opt-test"), rng=rng)


class TestDeterministicMatmul:
    def test_row_slices_are_bit_identical(self, rng):
        """The property the KV cache relies on: rows don't see the batch."""
        x = rng.normal(size=(48, 96))
        w = rng.normal(size=(96, 384))
        full = det_matmul(x, w)
        for i in (0, 17, 47):
            np.testing.assert_array_equal(det_matmul(x[i : i + 1], w), full[i : i + 1])

    def test_matches_blas_closely(self, rng):
        x = rng.normal(size=(16, 32))
        w = rng.normal(size=(32, 8))
        np.testing.assert_allclose(det_matmul(x, w), x @ w, rtol=1e-13)

    def test_batched_dims(self, rng):
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        out = det_matmul(a, b)
        assert out.shape == (2, 3, 4, 6)


class TestCausalMaskOffset:
    def test_no_past_equals_square_mask(self):
        np.testing.assert_array_equal(causal_mask_offset(6, 6), causal_mask(6))

    def test_with_past_allows_all_cached_positions(self):
        mask = causal_mask_offset(2, 5)
        # Row 0 is absolute position 3: sees keys 0..3, not 4.
        np.testing.assert_array_equal(mask[0], [0.0, 0.0, 0.0, 0.0, -np.inf])
        np.testing.assert_array_equal(mask[1], np.zeros(5))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            causal_mask_offset(0, 4)
        with pytest.raises(ValueError):
            causal_mask_offset(5, 4)


def new_rows(model, rows=1, **pool_kwargs):
    """Empty single-sequence caches for ``rows`` rows from one pool."""
    pool = BlockKVPool.for_model(model, **pool_kwargs)
    return [pool.sequence() for _ in range(rows)]


def cached(model, ids, kvs, **kwargs):
    """Feed every column of ``ids`` as new tokens of the rows in ``kvs``."""
    kwargs.setdefault("last_only", False)
    return model.forward_ragged(ids, kvs, [ids.shape[1]] * len(kvs), **kwargs)


class TestIncrementalExactness:
    """The acceptance criterion: cached decoding == full re-prefill, exactly."""

    def _incremental_logits(self, model, ids, prefill):
        kvs = new_rows(model, ids.shape[0])
        chunks = [cached(model, ids[:, :prefill], kvs)]
        for t in range(prefill, ids.shape[1]):
            chunks.append(cached(model, ids[:, t : t + 1], kvs))
        return np.concatenate(chunks, axis=1)

    def test_incremental_matches_full_prefill_exactly(self, model, rng):
        model.eval()
        ids = rng.integers(0, 64, size=(2, 20))
        incremental = self._incremental_logits(model, ids, prefill=5)
        full = cached(model, ids, new_rows(model, 2))
        np.testing.assert_array_equal(incremental, full)

    def test_exact_with_normalizer_swap(self, model, rng, paper_format):
        """Bit-exactness holds with the IterL2Norm eval normalizer active."""
        model.eval()
        model.replace_layernorm("iterl2norm", fmt=paper_format, num_steps=5)
        try:
            ids = rng.integers(0, 64, size=(1, 12))
            incremental = self._incremental_logits(model, ids, prefill=4)
            full = cached(model, ids, new_rows(model))
            np.testing.assert_array_equal(incremental, full)
        finally:
            model.restore_layernorm()

    def test_cached_forward_close_to_standard_forward(self, model, rng):
        """The det-matmul path tracks the BLAS forward to float64 precision."""
        model.eval()
        ids = rng.integers(0, 64, size=(2, 10))
        incremental = cached(model, ids, new_rows(model, 2))
        standard = model(ids)
        np.testing.assert_allclose(incremental, standard, atol=1e-9)

    def test_last_only_matches_full_logits_slice(self, model, rng):
        model.eval()
        ids = rng.integers(0, 64, size=(2, 9))
        full = cached(model, ids, new_rows(model, 2))
        last = cached(model, ids, new_rows(model, 2), last_only=True)
        assert last.shape == (2, 1, 64)
        np.testing.assert_array_equal(last, full[:, -1:, :])

    def test_training_mode_rejected(self, model):
        model.train()
        with pytest.raises(RuntimeError):
            cached(model, np.zeros((1, 2), dtype=np.int64), new_rows(model))

    def test_layer_count_validated_by_model(self, model):
        model.eval()
        config = model.config
        pool = BlockKVPool(
            num_layers=config.num_layers - 1,
            num_heads=config.num_heads,
            head_dim=config.embed_dim // config.num_heads,
        )
        with pytest.raises(ValueError, match="layers"):
            cached(model, np.zeros((1, 2), dtype=np.int64), [pool.sequence()])

    def test_cache_overflow_rejected(self, model):
        model.eval()
        kvs = new_rows(model)
        cached(model, np.zeros((1, 32), dtype=np.int64), kvs)
        with pytest.raises(ValueError):
            cached(model, np.zeros((1, 1), dtype=np.int64), kvs)


class TestRollback:
    """KV rollback: speculative decoding's discard-the-rejected-tail path."""

    def test_rollback_then_reappend_is_bit_identical(self, model, rng):
        """Rolling back draft positions and recomputing leaves no trace."""
        model.eval()
        ids = rng.integers(0, 64, size=(1, 14))
        straight = cached(model, ids, new_rows(model))

        kvs = new_rows(model, block_size=4)
        prefix = cached(model, ids[:, :8], kvs)
        # Append four wrong "draft" tokens, then reject them all.
        wrong = (ids[:, 8:12] + 7) % 64
        cached(model, wrong, kvs)
        kvs[0].rollback(4)
        assert kvs[0].seq_len == 8
        tail = cached(model, ids[:, 8:], kvs)
        np.testing.assert_array_equal(
            np.concatenate([prefix, tail], axis=1), straight
        )

    def test_rollback_validates_range(self, model):
        model.eval()
        (kv,) = new_rows(model)
        cached(model, np.zeros((1, 5), dtype=np.int64), [kv])
        with pytest.raises(ValueError):
            kv.rollback(6)
        with pytest.raises(ValueError):
            kv.rollback(-1)
        kv.rollback(0)  # no-op
        assert kv.seq_len == 5
        kv.rollback(5)
        assert kv.seq_len == 0

    def test_rollback_applies_to_every_layer(self, model):
        model.eval()
        (kv,) = new_rows(model)
        cached(model, np.zeros((1, 6), dtype=np.int64), [kv])
        kv.rollback(4)
        assert all(layer.seq_len == 2 for layer in kv.layers)


class TestDraftVerify:
    """Speculative verification: one ``last_k`` call scores every draft."""

    @staticmethod
    def _verify(model, draft, kv):
        n = draft.shape[1]
        logits = model.forward_ragged(draft, [kv], [n], last_k=n)
        return np.argmax(logits, axis=-1)

    def test_verify_matches_sequential_greedy(self, model):
        """One verify call reproduces token-by-token greedy argmax."""
        model.eval()
        prompt = np.array([1, 2, 3])
        out = generate(model, prompt, max_new_tokens=6, temperature=0.0)
        continuation = out[prompt.size :]

        kvs = new_rows(model)
        cached(model, prompt[None, :-1], kvs)
        first = cached(model, prompt[None, -1:], kvs, last_only=True)
        assert int(np.argmax(first[0, -1])) == continuation[0]
        # Feed [first generated, next 4 generated] as drafts in one call.
        chunk = out[None, prompt.size : prompt.size + 5]
        greedy = self._verify(model, chunk, kvs[0])
        np.testing.assert_array_equal(greedy[0], continuation[1:6])

    def test_rejected_drafts_roll_back_exactly(self, model):
        """verify + rollback + continue == plain greedy decoding."""
        model.eval()
        prompt = np.array([4, 5, 6, 7])
        out = generate(model, prompt, max_new_tokens=8, temperature=0.0)
        kvs = new_rows(model)
        cached(model, prompt[None, :], kvs)
        # Draft [correct, wrong, wrong]: one acceptance expected.
        first = int(out[prompt.size])
        draft = np.array([[first, (first + 9) % 64, (first + 11) % 64]])
        greedy = self._verify(model, draft, kvs[0])
        assert int(greedy[0, 0]) == int(out[prompt.size + 1])
        accepted = 0
        while (
            accepted < draft.shape[1] - 1
            and int(greedy[0, accepted]) == int(draft[0, accepted + 1])
        ):
            accepted += 1
        kvs[0].rollback(draft.shape[1] - 1 - accepted)
        assert kvs[0].seq_len == prompt.size + 1 + accepted
        # Continue one token at a time from the rolled-back cache.
        tokens = list(out[: prompt.size + 2 + accepted])
        while len(tokens) < out.size:
            logits = cached(model, np.asarray([[tokens[-1]]]), kvs, last_only=True)
            tokens.append(int(np.argmax(logits[0, -1])))
        np.testing.assert_array_equal(tokens, out)


class TestRaggedLastK:
    def test_last_k_slices_match_full_logits(self, model, rng):
        """Widening last_k returns the same bytes per position as full output."""
        model.eval()
        warm = rng.integers(0, 64, size=(2, 4))
        ids = rng.integers(0, 64, size=(2, 3))
        new_lens = np.array([3, 1])
        ids[1, :2] = 0  # pad lanes of the short row

        def warmed():
            kvs = new_rows(model, 2)
            for row, kv in enumerate(kvs):
                cached(model, warm[row : row + 1], [kv])
            return kvs

        full = model.forward_ragged(ids, warmed(), new_lens, last_only=False)
        sliced = model.forward_ragged(ids, warmed(), new_lens, last_k=3)
        assert sliced.shape == (2, 3, 64)
        np.testing.assert_array_equal(sliced, full)

    def test_last_k_validated(self, model, rng):
        model.eval()
        kvs = new_rows(model)
        ids = rng.integers(0, 64, size=(1, 2))
        with pytest.raises(ValueError):
            model.forward_ragged(ids, kvs, np.array([2]), last_k=3)
        with pytest.raises(ValueError):
            model.forward_ragged(ids, kvs, np.array([2]), last_k=0)


class TestCachedGeneration:
    def test_cached_greedy_is_argmax_of_uncached_reference(self, model):
        """Every cached-path token maximizes the reference (uncached) logits.

        Token-by-token replay against the plain forward, with a tolerance on
        the argmax margin, so the test cannot flake on a BLAS build where
        the two matmul kernels differ in the last ulp.
        """
        prompt = np.array([1, 2, 3])
        max_pos = model.config.max_position
        # 43 tokens > max_position=32: the sliding-window tail is covered.
        out = generate(model, prompt, max_new_tokens=40, temperature=0.0)
        assert out.size == 43
        for t in range(prompt.size, out.size):
            context = out[max(0, t - max_pos) : t][None, :]
            reference = model(context)[0, -1]
            chosen = out[t]
            assert reference[chosen] >= reference.max() - 1e-9

    def test_cached_greedy_is_deterministic(self, model):
        prompt = np.array([1, 2, 3])
        out1 = generate(model, prompt, max_new_tokens=40, temperature=0.0)
        out2 = generate(model, prompt, max_new_tokens=40, temperature=0.0)
        np.testing.assert_array_equal(out1, out2)

    def test_zero_new_tokens_returns_prompt(self, model):
        prompt = np.array([4, 5, 6])
        np.testing.assert_array_equal(
            generate(model, prompt, max_new_tokens=0), prompt
        )

    def test_sampling_reproducible_across_paths_shape(self, model):
        out = generate(
            model,
            np.array([1]),
            max_new_tokens=4,
            temperature=1.0,
            top_k=5,
            rng=np.random.default_rng(0),
        )
        assert out.size == 5
        assert np.all((out >= 0) & (out < 64))


class TestBatchedGeneration:
    def test_batch_rows_match_single_sequences(self, model):
        """Row independence: batched greedy decode equals per-prompt decode."""
        prompts = np.array([[1, 2, 3], [9, 8, 7], [4, 4, 4]])
        batch = generate_batch(model, prompts, max_new_tokens=12, temperature=0.0)
        for row in range(prompts.shape[0]):
            single = generate(model, prompts[row], max_new_tokens=12, temperature=0.0)
            np.testing.assert_array_equal(batch[row], single)

    def test_batch_slides_past_max_position(self, model):
        """Row independence holds across the sliding-window rebuild."""
        prompts = np.tile(np.arange(4), (2, 1))
        out = generate_batch(model, prompts, max_new_tokens=35, temperature=0.0)
        assert out.shape == (2, 39)
        # Same code path with a single row: must be bit-identical.
        alone = generate_batch(model, prompts[:1], max_new_tokens=35, temperature=0.0)
        np.testing.assert_array_equal(out[0], alone[0])

    def test_zero_new_tokens(self, model):
        prompts = np.array([[1, 2], [3, 4]])
        np.testing.assert_array_equal(
            generate_batch(model, prompts, max_new_tokens=0), prompts
        )

    def test_empty_batch(self, model):
        out = generate_batch(model, np.zeros((0, 3), dtype=np.int64), max_new_tokens=4)
        assert out.shape == (0, 7)

    def test_rejects_bad_shapes(self, model):
        with pytest.raises(ValueError):
            generate_batch(model, np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            generate_batch(model, np.zeros((2, 0), dtype=np.int64))


class TestPrivatePool:
    """generate()/generate_batch() keep their KV in a request-sized private
    pool: it never grows, and every block is back when the call returns."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Every pool ``BlockKVPool.for_model`` builds during the test."""
        built = []
        build = BlockKVPool.for_model.__func__

        def spy(cls, model, **kwargs):
            built.append(build(cls, model, **kwargs))
            return built[-1]

        monkeypatch.setattr(BlockKVPool, "for_model", classmethod(spy))
        return built

    @staticmethod
    def assert_drained(pools):
        assert len(pools) == 1
        (pool,) = pools
        assert pool.blocks_allocated > 0
        assert pool.blocks_in_use == 0
        assert pool.grow_events == 0

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    @pytest.mark.parametrize("stop, length", [(63, 24), (None, 43)])
    def test_generate(self, model, pools, backend, stop, length):
        """A stop token ends the run early; without one the window slides."""
        out = generate(
            model, np.array([1, 2, 3]), max_new_tokens=40, temperature=0.0,
            stop_tokens=stop, backend=backend,
        )
        assert out.size == length
        self.assert_drained(pools)

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_generate_batch_row_stops_then_window_slides(self, model, pools, backend):
        prompts = np.array([[1, 2, 3, 4], [9, 8, 7, 6], [4, 4, 4, 4]])
        out = generate_batch(
            model, prompts, max_new_tokens=35, temperature=0.0, stop_tokens=19,
            backend=backend,
        )
        assert out[0, 9] == 19 and np.all(out[0, 10:] == 0)  # row 0 stopped
        assert out.shape[1] > model.config.max_position
        assert np.all(out[1:, -1] != 0)  # the others decoded past the slide
        self.assert_drained(pools)
