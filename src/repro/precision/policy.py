"""Named precision policies: the datapath contract of a whole model.

A :class:`PrecisionPolicy` bundles everything the stack needs to know about
reduced-precision execution into one value that travels with the model
configuration:

* ``weight_fmt`` / ``activation_fmt`` / ``accumulation_fmt`` — the emulated
  storage formats of parameters, per-op results, and matmul accumulators
  (see :mod:`repro.fpformats`);
* ``kv_cache_fmt`` — the format K/V tensors are quantized to *on write*
  by the block-pooled KV cache (:class:`~repro.serve.kv_pool.BlockKVPool`,
  which backs both offline generation and serving);
* ``normalizer`` (+ ``normalizer_fmt`` / ``normalizer_kwargs``) — which
  registered normalization method (:mod:`repro.baselines.registry`)
  replaces the trained LayerNorm at evaluation time.  ``None`` keeps the
  trained exact LayerNorm (its output still rounds to ``activation_fmt``).

Policies are the *single* normalizer-attachment mechanism:
:meth:`repro.nn.model.OPTLanguageModel.replace_layernorm` is now sugar for
deriving a policy with :meth:`PrecisionPolicy.with_normalizer` and applying
it via :meth:`~repro.nn.model.OPTLanguageModel.set_policy`.

The named presets mirror common deployment datapaths::

    fp64-ref    all-float64 reference; the ops layer is a zero-overhead
                passthrough, preserving the repo's bit-exactness guarantees
    fp32        pure float32 datapath (fp32 accumulators)
    fp16        fp16 weights/activations/KV, fp32 accumulation
    bf16        bfloat16 weights/activations/KV, fp32 accumulation
    bf16-fp8kv  bfloat16 compute with an FP8 (E4M3) KV cache
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fpformats.spec import FLOAT64, FloatFormat, get_format


def resolve_kv_format(fmt: str | FloatFormat | None) -> FloatFormat | None:
    """Normalize a KV-cache storage format; ``None``/``fp64`` mean unquantized."""
    if fmt is None:
        return None
    fmt = get_format(fmt)
    return None if fmt == FLOAT64 else fmt


def _canonical_fmt(fmt: str) -> str:
    """Validate a format name and return its canonical registry spelling."""
    return get_format(fmt).name


def _canonical_kwargs(kwargs) -> tuple[tuple[str, object], ...]:
    """Normalize normalizer kwargs into a sorted tuple of (key, value) pairs.

    Accepts a dict, or any iterable of pairs (including the lists JSON
    round-trips produce), so policies survive ``to_dict`` → JSON →
    ``from_dict`` unchanged.
    """
    if isinstance(kwargs, dict):
        items = kwargs.items()
    else:
        items = [tuple(pair) for pair in kwargs]
    return tuple(sorted((str(key), value) for key, value in items))


@dataclass(frozen=True)
class PrecisionPolicy:
    """Emulated formats of every datapath plus the normalizer selection.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"fp16"``.  Derived policies (a preset with a
        swapped normalizer) append ``@<method>``.
    weight_fmt / activation_fmt / accumulation_fmt / kv_cache_fmt:
        Registered :mod:`repro.fpformats` format names.  ``"fp64"``
        everywhere makes the datapath a passthrough.
    normalizer:
        Name registered in :mod:`repro.baselines.registry`, or ``None`` for
        the trained exact LayerNorm.
    normalizer_fmt:
        Working format handed to the normalizer factory (``None`` keeps the
        factory's own default, matching the historical
        ``replace_layernorm(fmt=None)`` behaviour).
    normalizer_kwargs:
        Extra factory arguments as a sorted tuple of ``(key, value)`` pairs
        (hashable and JSON-stable), e.g. ``(("num_steps", 5),)``.
    """

    name: str
    weight_fmt: str = "fp64"
    activation_fmt: str = "fp64"
    accumulation_fmt: str = "fp64"
    kv_cache_fmt: str = "fp64"
    normalizer: str | None = None
    normalizer_fmt: str | None = None
    normalizer_kwargs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("policy name must be non-empty")
        for field_name in (
            "weight_fmt", "activation_fmt", "accumulation_fmt", "kv_cache_fmt"
        ):
            object.__setattr__(
                self, field_name, _canonical_fmt(getattr(self, field_name))
            )
        if self.normalizer_fmt is not None:
            object.__setattr__(
                self, "normalizer_fmt", _canonical_fmt(self.normalizer_fmt)
            )
        object.__setattr__(
            self, "normalizer_kwargs", _canonical_kwargs(self.normalizer_kwargs)
        )

    @property
    def is_passthrough(self) -> bool:
        """True when the datapath is plain float64 (no quantization)."""
        return (
            self.weight_fmt == "fp64"
            and self.activation_fmt == "fp64"
            and self.accumulation_fmt == "fp64"
            and self.kv_cache_fmt == "fp64"
        )

    @property
    def variant_normalizer_fmt(self) -> str | None:
        """Working format for a normalizer variant layered on this policy.

        The shared convention of ``precision-sweep`` and ``serve-bench
        --policy``: inside-the-format evaluation — the normalizer works in
        the policy's activation format; under the float64 passthrough,
        ``None`` keeps each factory's historical default.
        """
        return None if self.is_passthrough else self.activation_fmt

    def with_normalizer(
        self, method: str | None, fmt: str | None = None, **kwargs
    ) -> "PrecisionPolicy":
        """Derive a policy with the normalizer swapped (datapath unchanged).

        ``method=None`` restores the trained LayerNorm.  The derived name is
        ``<base>@<method>`` so reports can tell variants apart.
        """
        base = self.name.split("@", 1)[0]
        # replace() re-runs __post_init__, which canonicalizes the kwargs.
        return replace(
            self,
            name=base if method is None else f"{base}@{method}",
            normalizer=method,
            normalizer_fmt=fmt if method is not None else None,
            normalizer_kwargs=kwargs if method is not None else (),
        )

    def to_dict(self) -> dict:
        """Plain JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "weight_fmt": self.weight_fmt,
            "activation_fmt": self.activation_fmt,
            "accumulation_fmt": self.accumulation_fmt,
            "kv_cache_fmt": self.kv_cache_fmt,
            "normalizer": self.normalizer,
            "normalizer_fmt": self.normalizer_fmt,
            "normalizer_kwargs": {key: value for key, value in self.normalizer_kwargs},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PrecisionPolicy":
        """Rebuild a policy from :meth:`to_dict` output (or its JSON round trip)."""
        data = dict(data)
        kwargs = data.get("normalizer_kwargs", ())
        data["normalizer_kwargs"] = _canonical_kwargs(kwargs)
        return cls(**data)


# -- registry --------------------------------------------------------------------

_REGISTRY: dict[str, PrecisionPolicy] = {}


def register_policy(policy: PrecisionPolicy, *aliases: str) -> PrecisionPolicy:
    """Register a policy under its name (and optional aliases).

    Re-registering an existing name raises, to catch collisions between
    built-in and user-defined policies.
    """
    keys = [key.lower() for key in (policy.name, *aliases)]
    # Validate every key before inserting any, so a collision leaves the
    # registry untouched.
    for key in keys:
        if key in _REGISTRY:
            raise ValueError(f"precision policy {key!r} is already registered")
    for key in keys:
        _REGISTRY[key] = policy
    return policy


def available_policies() -> tuple[str, ...]:
    """Names of all registered policies (canonical names only), sorted."""
    return tuple(sorted({policy.name for policy in _REGISTRY.values()}))


def get_policy(policy: "PrecisionPolicy | str | dict") -> PrecisionPolicy:
    """Resolve a policy name, pass an instance through, or rebuild a dict.

    Raises
    ------
    KeyError
        If ``policy`` is a string that does not name a registered policy.
    """
    if isinstance(policy, PrecisionPolicy):
        return policy
    if isinstance(policy, dict):
        return PrecisionPolicy.from_dict(policy)
    key = str(policy).lower()
    if key not in _REGISTRY:
        known = ", ".join(available_policies())
        raise KeyError(f"unknown precision policy {policy!r}; known: {known}")
    return _REGISTRY[key]


#: All-float64 reference: the zero-overhead passthrough datapath.
FP64_REF = register_policy(PrecisionPolicy("fp64-ref"), "fp64", "ref")
FP32_POLICY = register_policy(
    PrecisionPolicy(
        "fp32",
        weight_fmt="fp32",
        activation_fmt="fp32",
        accumulation_fmt="fp32",
        kv_cache_fmt="fp32",
    )
)
FP16_POLICY = register_policy(
    PrecisionPolicy(
        "fp16",
        weight_fmt="fp16",
        activation_fmt="fp16",
        accumulation_fmt="fp32",
        kv_cache_fmt="fp16",
    )
)
BF16_POLICY = register_policy(
    PrecisionPolicy(
        "bf16",
        weight_fmt="bf16",
        activation_fmt="bf16",
        accumulation_fmt="fp32",
        kv_cache_fmt="bf16",
    )
)
BF16_FP8KV_POLICY = register_policy(
    PrecisionPolicy(
        "bf16-fp8kv",
        weight_fmt="bf16",
        activation_fmt="bf16",
        accumulation_fmt="fp32",
        kv_cache_fmt="fp8_e4m3",
    )
)

#: Default policy grid of the ``precision-sweep`` experiment.
DEFAULT_SWEEP_POLICIES: tuple[str, ...] = (
    "fp64-ref",
    "fp32",
    "fp16",
    "bf16",
    "bf16-fp8kv",
)
