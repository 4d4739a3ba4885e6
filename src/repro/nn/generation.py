"""Autoregressive text generation helpers (greedy and top-k sampling).

Decoding is KV-cached: prompt tokens are prefilled once and every later
step projects only the newly generated token, attending over the keys and
values already stored.  The cache is the serving stack's own: each call
runs the executor's ``forward_ragged`` over
:class:`~repro.serve.kv_pool.SequenceKV` rows of a private
:class:`~repro.serve.kv_pool.BlockKVPool`, sized up front to the request
(rows times the longest context) so it never grows, and every row's blocks
are released as soon as the row is done.

:func:`generate_batch` decodes several equal-length prompts together,
sharing one batched forward pass per step.  Both functions accept
``stop_tokens``: a sequence that produces one stops immediately (the stop
token is kept in the output) and — in the batched case — stops consuming
forward passes while the other rows continue.

For serving *ragged* prompts arriving over time, see :mod:`repro.serve`,
which schedules requests into a continuously batched decode loop on the
same forward and cache, preserving these functions' token streams
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.nn.executor import resolve_executor
from repro.nn.functional import softmax
from repro.nn.model import OPTLanguageModel


def _validate(max_new_tokens: int, temperature: float, top_k: int | None) -> None:
    if max_new_tokens < 0:
        raise ValueError(f"max_new_tokens must be non-negative, got {max_new_tokens}")
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")


def _stop_set(stop_tokens) -> frozenset[int]:
    """Normalize ``stop_tokens`` (None, scalar, or iterable) to a set of ids."""
    if stop_tokens is None:
        return frozenset()
    if np.isscalar(stop_tokens):
        return frozenset((int(stop_tokens),))
    return frozenset(int(t) for t in stop_tokens)


def _private_pool(model: OPTLanguageModel, rows: int, max_tokens: int):
    """A pool holding ``rows`` sequences of up to ``max_tokens`` positions
    (capped at ``max_position``), so one generation run never grows it."""
    # Imported here: repro.serve's engine imports this module.
    from repro.serve.kv_pool import BlockKVPool

    block_size = 16
    per_row = -(-min(max_tokens, model.config.max_position) // block_size)
    return BlockKVPool.for_model(
        model, block_size=block_size, initial_blocks=rows * per_row
    )


def _prefill(executor, pool, windows: np.ndarray):
    """Fresh pool sequences holding the K/V of each row of ``windows``;
    returns them and each row's last-position logits."""
    kvs = [pool.sequence() for _ in range(windows.shape[0])]
    logits = executor.forward_ragged(windows, kvs, [windows.shape[1]] * len(kvs))
    return kvs, logits[:, -1]


def select_token(
    logits: np.ndarray,
    temperature: float,
    top_k: int | None,
    rng: np.random.Generator,
) -> int:
    """Pick the next token id from a 1-D logits vector.

    Shared by the generation loops here and the continuous-batching server
    (:mod:`repro.serve.engine`), so both sample identically from identical
    logits and generators.
    """
    if temperature <= 1e-8:
        return int(np.argmax(logits))
    scaled = logits / temperature
    if top_k is not None and top_k < scaled.size:
        cutoff = np.partition(scaled, -top_k)[-top_k]
        scaled = np.where(scaled < cutoff, -np.inf, scaled)
    probs = softmax(scaled)
    return int(rng.choice(probs.size, p=probs))


def generate(
    model: OPTLanguageModel,
    prompt_ids: np.ndarray,
    max_new_tokens: int = 32,
    temperature: float = 1.0,
    top_k: int | None = None,
    rng: np.random.Generator | None = None,
    stop_tokens=None,
    backend: str | None = None,
) -> np.ndarray:
    """Generate tokens autoregressively from a prompt.

    Parameters
    ----------
    model:
        The language model (put into eval mode by this function).
    prompt_ids:
        1-D array of prompt token ids.
    max_new_tokens:
        Number of tokens to append.
    temperature:
        Softmax temperature; ``0`` (or very small) degenerates to greedy.
    top_k:
        When set, sample only from the ``top_k`` most likely tokens.
    rng:
        Random generator for sampling (greedy decoding ignores it).
    stop_tokens:
        Optional token id, or iterable of ids, that end generation early.
        A produced stop token is kept as the final output token and no
        further forward passes run.
    backend:
        Execution backend (:data:`~repro.nn.executor.EXECUTORS` name or
        instance; ``None`` = reference).  Backends never change a token.

    Once the context exceeds ``max_position`` the window slides, and the
    remaining steps run the plain full-window forward, since a slid window
    would force a full re-prefill per step anyway.  That dense forward uses
    BLAS rather than the deterministic einsum of the cached path, so the
    two can differ in the last ulp; the cached path's exactness guarantee
    is *within itself*: incremental decoding is bit-identical to
    re-prefilling the same prefix through ``forward_ragged``.

    Returns
    -------
    numpy.ndarray
        1-D array containing the prompt followed by the generated tokens
        (fewer than ``max_new_tokens`` if a stop token was produced).
    """
    _validate(max_new_tokens, temperature, top_k)
    rng = rng or np.random.default_rng()
    stops = _stop_set(stop_tokens)
    model.eval()
    executor = resolve_executor(backend, model)
    tokens = list(np.asarray(prompt_ids, dtype=np.int64).reshape(-1))
    if not tokens:
        raise ValueError("prompt_ids must contain at least one token")
    if max_new_tokens == 0:
        return np.asarray(tokens, dtype=np.int64)

    max_pos = model.config.max_position
    target = len(tokens) + max_new_tokens
    pool = _private_pool(model, 1, target)
    (kv,), logits = _prefill(executor, pool, np.asarray([tokens[-max_pos:]]))
    while True:
        tokens.append(select_token(logits[0], temperature, top_k, rng))
        done = tokens[-1] in stops or len(tokens) == target
        if done or kv.seq_len >= max_pos:
            break
        new = np.asarray([tokens[-1:]], dtype=np.int64)
        logits = executor.forward_ragged(new, [kv], [1])[:, -1]
    kv.release()
    # Sliding-window tail: once the context exceeds max_position every step
    # needs a full-window forward regardless, so run the remaining steps
    # through the fast BLAS path.
    while not done:
        context = np.asarray(tokens[-max_pos:], dtype=np.int64)[None, :]
        logits = executor.forward(context)[0, -1]
        tokens.append(select_token(logits, temperature, top_k, rng))
        done = tokens[-1] in stops or len(tokens) == target
    return np.asarray(tokens, dtype=np.int64)


def generate_batch(
    model: OPTLanguageModel,
    prompt_ids: np.ndarray,
    max_new_tokens: int = 32,
    temperature: float = 1.0,
    top_k: int | None = None,
    rng: np.random.Generator | None = None,
    stop_tokens=None,
    pad_token_id: int = 0,
    backend: str | None = None,
) -> np.ndarray:
    """KV-cached batched decoding of several equal-length prompts.

    Each decode step runs one batched forward over all sequences, so the
    per-step cost is amortized across the batch.  Sampling uses one child
    generator per row (spawned from ``rng`` with
    :meth:`numpy.random.Generator.spawn`), so a row's sampled tokens depend
    only on ``rng``'s seed and the row's index — **not** on which other
    rows share the batch, nor on when those rows stop.  Decoding the same
    prompt at the same row index therefore yields the same tokens whatever
    the rest of the batch contains (the test suite asserts this).

    Unlike :func:`generate`, the batched decoder stays on the deterministic
    matmul path even after the context window slides (re-prefilling fresh
    pool sequences from the trailing window each step): under greedy decoding
    (``temperature=0``) every row is bit-identical to running this function
    on that prompt alone, at some cost on very long outputs.

    Parameters
    ----------
    prompt_ids:
        2-D array ``(batch, prompt_len)`` of token ids.
    stop_tokens:
        Optional token id, or iterable of ids, that finish a row early.
        The stop token is kept in the row's output; the row's remaining
        positions are filled with ``pad_token_id`` and the row stops
        consuming forward passes (finished rows are compacted out of the
        batch and their pool blocks released, shrinking the per-step cost
        as sequences retire).
    pad_token_id:
        Filler for positions after a row's stop token (default 0).
    backend:
        Execution backend (:data:`~repro.nn.executor.EXECUTORS` name or
        instance; ``None`` = reference).  Backends never change a token.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(batch, prompt_len + max_new_tokens)``.
    """
    _validate(max_new_tokens, temperature, top_k)
    rng = rng or np.random.default_rng()
    stops = _stop_set(stop_tokens)
    prompts = np.asarray(prompt_ids, dtype=np.int64)
    if prompts.ndim != 2 or prompts.shape[1] < 1:
        raise ValueError(
            f"prompt_ids must be (batch, prompt_len >= 1), got shape {prompts.shape}"
        )
    model.eval()
    executor = resolve_executor(backend, model)
    batch = prompts.shape[0]
    if max_new_tokens == 0:
        return prompts.copy()
    row_rngs = rng.spawn(batch)

    max_pos = model.config.max_position
    out = np.full(
        (batch, prompts.shape[1] + max_new_tokens), pad_token_id, dtype=np.int64
    )
    out[:, : prompts.shape[1]] = prompts
    if batch == 0:
        return out  # an empty pool cannot be built, and nothing decodes
    lengths = np.full(batch, prompts.shape[1])  # tokens filled per row
    active = np.arange(batch)  # original row index per live cache row

    sequences = prompts.copy()  # rows of `active`, in cache-row order
    pool = _private_pool(model, batch, out.shape[1])
    kvs, logits = _prefill(executor, pool, sequences[:, -max_pos:])
    for step in range(max_new_tokens):
        next_tokens = np.asarray(
            [
                select_token(row, temperature, top_k, row_rngs[orig])
                for row, orig in zip(logits, active)
            ],
            dtype=np.int64,
        )
        sequences = np.concatenate([sequences, next_tokens[:, None]], axis=1)
        out[active, lengths[active]] = next_tokens
        lengths[active] += 1
        if step + 1 == max_new_tokens:
            break  # no further token will be sampled; skip the forward
        if stops:
            keep = np.asarray([t not in stops for t in next_tokens])
            if not np.all(keep):
                for kv, kept in zip(kvs, keep):
                    if not kept:
                        kv.release()
                kvs = [kv for kv, kept in zip(kvs, keep) if kept]
                active = active[keep]
                if active.size == 0:
                    break
                sequences = sequences[keep]
                next_tokens = next_tokens[keep]
        if kvs[0].seq_len >= max_pos:
            for kv in kvs:
                kv.release()
            kvs, logits = _prefill(executor, pool, sequences[:, -max_pos:])
        else:
            new_lens = [1] * len(kvs)
            logits = executor.forward_ragged(next_tokens[:, None], kvs, new_lens)[:, -1]
    for kv in kvs:
        kv.release()
    return out
