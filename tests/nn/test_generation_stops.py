"""Generation satellites: stop-token early exit and per-row batch RNGs."""

import numpy as np
import pytest

from repro.nn.config import get_config
from repro.nn.generation import generate, generate_batch
from repro.nn.model import OPTLanguageModel


@pytest.fixture
def model(rng):
    m = OPTLanguageModel(get_config("opt-test"), rng=rng)
    m.eval()
    return m


def greedy_token_at(model, prompt, index):
    """The index-th token greedy decoding generates after ``prompt``."""
    out = generate(model, prompt, max_new_tokens=index + 1, temperature=0.0)
    return int(out[prompt.size + index])


class TestGenerateStopTokens:
    def test_stops_at_stop_token_keeping_it(self, model):
        prompt = np.array([1, 2, 3])
        eos = greedy_token_at(model, prompt, 3)
        out = generate(model, prompt, max_new_tokens=20, temperature=0.0,
                       stop_tokens=(eos,))
        assert out[-1] == eos
        assert out.size < prompt.size + 20
        # Prefix equals unrestricted greedy decoding.
        full = generate(model, prompt, max_new_tokens=20, temperature=0.0)
        np.testing.assert_array_equal(out, full[: out.size])

    def test_scalar_stop_token_accepted(self, model):
        prompt = np.array([1, 2, 3])
        eos = greedy_token_at(model, prompt, 0)
        out = generate(model, prompt, max_new_tokens=10, temperature=0.0,
                       stop_tokens=eos)
        assert out.size == prompt.size + 1

    def test_no_stop_token_unchanged(self, model):
        prompt = np.array([4, 5])
        a = generate(model, prompt, max_new_tokens=8, temperature=0.0)
        b = generate(model, prompt, max_new_tokens=8, temperature=0.0,
                     stop_tokens=())
        np.testing.assert_array_equal(a, b)

    def test_stop_in_sliding_window_tail(self, model):
        """A stop token found after the window slid still exits early."""
        prompt = np.array([1, 2, 3])
        max_pos = model.config.max_position
        full = generate(model, prompt, max_new_tokens=max_pos + 10, temperature=0.0)
        tail_token = int(full[max_pos + 5])  # produced after the slide
        out = generate(model, prompt, max_new_tokens=max_pos + 10, temperature=0.0,
                       stop_tokens=(tail_token,))
        assert out[-1] == tail_token
        assert out.size < full.size


class TestGenerateBatchStopTokens:
    def test_rows_finish_independently_and_pad(self, model):
        prompts = np.array([[1, 2, 3], [9, 8, 7]])
        eos = greedy_token_at(model, prompts[0], 2)
        out = generate_batch(model, prompts, max_new_tokens=15, temperature=0.0,
                             stop_tokens=(eos,), pad_token_id=0)
        assert out.shape == (2, 18)
        for row in range(2):
            single = generate(model, prompts[row], max_new_tokens=15,
                              temperature=0.0, stop_tokens=(eos,))
            np.testing.assert_array_equal(out[row, : single.size], single)
            assert np.all(out[row, single.size :] == 0)

    def test_all_rows_stopping_ends_loop(self, model):
        prompts = np.array([[1, 2, 3], [1, 2, 3]])
        eos = greedy_token_at(model, prompts[0], 0)
        out = generate_batch(model, prompts, max_new_tokens=10, temperature=0.0,
                             stop_tokens=(eos,))
        assert np.all(out[:, 3] == eos)
        assert np.all(out[:, 4:] == 0)

    def test_stop_across_sliding_rebuild(self, model):
        """Stopped rows stay stopped and exact across the window rebuild."""
        prompts = np.tile(np.arange(4), (2, 1))
        max_new = model.config.max_position + 6
        full = generate_batch(model, prompts, max_new_tokens=max_new, temperature=0.0)
        eos = int(full[0, prompts.shape[1] + 2])
        out = generate_batch(model, prompts, max_new_tokens=max_new, temperature=0.0,
                             stop_tokens=(eos,))
        for row in range(2):
            single = generate_batch(
                model, prompts[row : row + 1], max_new_tokens=max_new,
                temperature=0.0, stop_tokens=(eos,),
            )
            np.testing.assert_array_equal(out[row], single[0])


class TestBatchRowRngIndependence:
    def test_row_draws_do_not_depend_on_batch_partners(self, model):
        """The fixed coupling bug: sampling one row no longer consumes the
        shared stream that other rows' draws depended on."""
        a = np.array([1, 2, 3])
        partner1 = np.array([9, 8, 7])
        partner2 = np.array([60, 61, 62])
        out1 = generate_batch(model, np.stack([a, partner1]), max_new_tokens=8,
                              temperature=1.0, top_k=8,
                              rng=np.random.default_rng(42))
        out2 = generate_batch(model, np.stack([a, partner2]), max_new_tokens=8,
                              temperature=1.0, top_k=8,
                              rng=np.random.default_rng(42))
        np.testing.assert_array_equal(out1[0], out2[0])

    def test_row_index_determines_stream(self, model):
        """Same seed, same row index, different batch width: same tokens."""
        a = np.array([1, 2, 3])
        wide = np.stack([a, a, a])
        out_wide = generate_batch(model, wide, max_new_tokens=6, temperature=1.0,
                                  rng=np.random.default_rng(0))
        out_narrow = generate_batch(model, a[None, :], max_new_tokens=6,
                                    temperature=1.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out_wide[0], out_narrow[0])

    def test_distinct_rows_get_distinct_streams(self, model):
        same = np.stack([np.array([1, 2, 3])] * 2)
        out = generate_batch(model, same, max_new_tokens=10, temperature=1.5,
                             rng=np.random.default_rng(3))
        # Identical prompts but spawned generators: rows should diverge.
        assert not np.array_equal(out[0], out[1])
