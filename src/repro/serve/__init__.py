"""Continuous-batching inference server over the NumPy transformer substrate.

The ROADMAP's north star is a system that serves heavy traffic, but
:func:`repro.nn.generation.generate_batch` only decodes equal-length
prompts in a static batch: nothing can join mid-flight, and the whole batch
runs until its last row finishes.  This package adds the serving layer:

* :mod:`~repro.serve.request` — request/response types with per-request
  seeded RNGs, so a request's sampled tokens never depend on its batch
  neighbours.
* :mod:`~repro.serve.kv_pool` — a pooled, preallocated, block-granular KV
  cache with per-block reference counts: requests allocate fixed-size
  blocks from a shared pool and return them on retirement; a radix/trie
  prefix index lets later requests *adopt* blocks covering a shared
  prompt prefix (copy-on-write protected) instead of re-prefilling it.
* :mod:`~repro.serve.scheduler` — policy-driven iteration-level
  scheduling: priority-class admission, a per-iteration prefill token
  budget that streams long prompts in as chunks interleaved with decode
  rows, per-row speculative token budgets, and preemption under pool
  exhaustion (victims are re-queued and re-run deterministically —
  decode is bit-reproducible).
* :mod:`~repro.serve.decode` — pluggable decode strategies: the classic
  one-token step, or draft-free **prompt-lookup speculation** (n-gram
  drafts out of the request's own prompt+output, greedily verified in
  one multi-token forward, rejected tails rolled back) — several tokens
  per model step with byte-identical output.
* :mod:`~repro.serve.engine` — drives the model's masked ragged forward
  over the scheduled batch; under greedy decoding each request's token
  stream is **bit-identical** to :func:`repro.nn.generation.generate` on
  that prompt alone (including across the sliding-window spillover).
* :mod:`~repro.serve.workload` — synthetic traffic scenarios (steady,
  bursty, chat-style, codegen-style) built on the arrival processes of
  :mod:`repro.macro.traffic`.
* :mod:`~repro.serve.metrics` — TTFT / inter-token-latency percentiles,
  tokens/sec, queue depth, slot occupancy.
* :mod:`~repro.serve.bench` — the one bench harness behind
  ``serve-bench``, ``cluster-bench`` and ``shard-bench``: a grid of
  seeded serving cells (scenario x normalizer x policy x decode strategy
  x backend x KV tier x replicas x routing) run as engine jobs, each row
  compared with its twins by token digest.

The whole serve path is precision-policy aware: the model's
:class:`~repro.precision.policy.PrecisionPolicy` shapes every op, and the
KV pool quantizes K/V on write to the policy's ``kv_cache_fmt`` — the
bit-exactness guarantee above holds per policy, not just for float64.
"""

from repro.serve.decode import (
    DecodeStrategy,
    GreedyOneToken,
    PromptLookupSpeculator,
    resolve_strategy,
)
from repro.serve.engine import ServeConfig, ServeEngine, ServeReport
from repro.serve.kv_pool import (
    BlockKVPool,
    PoolExhaustedError,
    PrefixIndex,
    SequenceKV,
)
from repro.serve.request import CompletedRequest, Request
from repro.serve.scheduler import Scheduler, StepPlan
from repro.serve.workload import SCENARIOS, Scenario, generate_workload

__all__ = [
    "BlockKVPool",
    "CompletedRequest",
    "DecodeStrategy",
    "GreedyOneToken",
    "PoolExhaustedError",
    "PrefixIndex",
    "PromptLookupSpeculator",
    "Request",
    "SCENARIOS",
    "Scenario",
    "Scheduler",
    "SequenceKV",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "StepPlan",
    "generate_workload",
    "resolve_strategy",
]
