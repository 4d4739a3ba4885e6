"""Pure-NumPy decoder-only transformer substrate (OPT-style).

The paper's LLM-level evaluation (Table IV) swaps the layer-normalization
modules of pre-trained OPT-125M / OPT-350M models for IterL2Norm and measures
the perplexity change.  Pre-trained OPT checkpoints and PyTorch are not
available offline, so this package provides the substrate needed to run the
same experiment end to end in NumPy:

* :mod:`~repro.nn.module` — parameter / module base classes with explicit
  forward + backward (no autograd dependency).
* :mod:`~repro.nn.functional` — softmax, GELU, cross-entropy, and their
  gradients.
* :mod:`~repro.nn.layers` — Linear, Embedding, trainable LayerNorm, Dropout.
* :mod:`~repro.nn.attention` — masked multi-head self-attention.
* :mod:`~repro.nn.block` — the pre-LN decoder block used by OPT.
* :mod:`~repro.nn.config` / :mod:`~repro.nn.model` — OPT-style model
  configurations and the language model itself.  Every config carries a
  :class:`~repro.precision.policy.PrecisionPolicy`; ``model.set_policy``
  applies the emulated datapath formats and the paper's normalizer swap in
  one move (``replace_layernorm`` remains as policy-deriving sugar).
* :mod:`~repro.nn.optimizer` / :mod:`~repro.nn.trainer` — Adam/SGD and a
  small training loop so the evaluation runs on a *trained* model rather
  than random weights.
* :mod:`~repro.nn.generation` — greedy / top-k sampling for the examples,
  KV-cached on a private :class:`~repro.serve.kv_pool.BlockKVPool`.
* :mod:`~repro.nn.executor` — pluggable execution backends (``reference``
  and the pre-fused ``compiled`` plan); byte-identical tokens, faster
  dispatch.
"""

from repro.nn.config import OPT_CONFIGS, OPTConfig
from repro.nn.executor import (
    EXECUTORS,
    CompiledExecutor,
    ModelExecutor,
    ReferenceExecutor,
    resolve_executor,
)
from repro.nn.model import OPTLanguageModel
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.block import TransformerDecoderBlock
from repro.nn.optimizer import Adam, SGD
from repro.nn.trainer import Trainer, TrainingConfig
from repro.nn.generation import generate, generate_batch

__all__ = [
    "EXECUTORS",
    "CompiledExecutor",
    "ModelExecutor",
    "ReferenceExecutor",
    "generate_batch",
    "resolve_executor",
    "Adam",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "MultiHeadSelfAttention",
    "OPTConfig",
    "OPT_CONFIGS",
    "OPTLanguageModel",
    "SGD",
    "Trainer",
    "TrainingConfig",
    "TransformerDecoderBlock",
    "generate",
]
