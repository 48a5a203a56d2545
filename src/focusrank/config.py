"""Run configuration: `RunConfig`'s documented defaults plus `key=value` overrides.

`apply_overrides(RunConfig(), overrides)` is the one way a run gets its
settings. Unknown keys are rejected (a typo in an ablation script should fail
loudly); keys not overridden keep the defaults below.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigError


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


@dataclass(slots=True)
class RunConfig:
    """Every tunable of the model, training loop, data generator and CLI."""

    # model
    dim: int = 64                 # feature width C
    layers: int = 2               # encoder depth L
    indicator_count: int = 4      # query indicators m (2..6)
    vocab_size: int = 256
    text_len: int = 8             # tokens per generated text; the longest text encoded
    patch_count: int = 16         # local tokens per frame (P^2)
    patch_dim: int = 64           # raw patch feature width before projection
    frame_count: int = 4          # frames per generated clip; the longest clip encoded
    mlp_hidden: int = 128         # hidden width of the delta head
    k: int = 10                   # re-ranked candidates per query
    gumbel_temp: float = 1.0      # fusion attention temperature (training and inference)
    use_query_indicators: bool = True
    use_stage1_scores: bool = True   # include stage-1 scores in composition
    use_gumbel: bool = True          # gumbel noise in fusion attention (training only)
    # training
    batch_size: int = 20
    epochs: int = 5
    lr_fusion: float = 1e-4
    lr_base: float = 1e-6
    weight_decay: float = 0.2
    temperature: float = 0.01     # contrastive temperature tau (learnable via log)
    seed: int = 0
    # synthetic data
    pair_count: int = 500
    cohort_size: int = 5          # hard-negative group size g
    coarse_clusters: int = 0      # 0 = auto: pair_count // cohort_size
    latent_dim: int = 16
    noise_level: float = 0.1
    # io
    checkpoint: str = ""          # parameter file loaded by eval/query
    query_index: int = 0
    query_direction: str = "t2v"

    def resolved_coarse_clusters(self) -> int:
        if self.coarse_clusters == 0:
            return self.pair_count // self.cohort_size
        return self.coarse_clusters

    def validate(self) -> "RunConfig":
        """Check each field's type, then its range; the first bad one raises
        `ConfigError`. An int field takes any integer but a bool, a float
        field any real number but a bool."""

        def require(cond: bool, message: str):
            if not cond:
                raise ConfigError(message)

        for f in fields(self):
            value = getattr(self, f.name)
            require(_TYPE_CHECKS[f.type](value),
                    f"{f.name} must be of type {f.type}, got {value!r}")
            require(f.type != "float" or math.isfinite(value), f"{f.name} must be finite")
        require(self.dim >= 1, "dim must be >= 1")
        require(self.layers >= 1, "layers must be >= 1")
        require(2 <= self.indicator_count <= 6, "indicator_count must be in 2..6")
        require(self.vocab_size >= 2, "vocab_size must be >= 2")
        require(self.text_len >= 3, "text_len must be >= 3")
        require(self.patch_count >= 1, "patch_count must be >= 1")
        require(self.patch_dim >= 1, "patch_dim must be >= 1")
        require(self.frame_count >= 1, "frame_count must be >= 1")
        require(self.mlp_hidden >= 1, "mlp_hidden must be >= 1")
        require(self.k >= 1, "k must be >= 1")
        require(self.gumbel_temp > 0, "gumbel_temp must be > 0")
        require(self.batch_size >= 2, "batch_size must be >= 2 (contrastive training)")
        require(self.epochs >= 1, "epochs must be >= 1")
        require(self.lr_fusion > 0 and self.lr_base > 0, "learning rates must be > 0")
        require(self.weight_decay >= 0, "weight_decay must be >= 0")
        require(self.temperature > 0, "temperature must be > 0")
        require(self.pair_count >= 1, "pair_count must be >= 1")
        require(self.cohort_size >= 1, "cohort_size must be >= 1")
        require(self.pair_count % self.cohort_size == 0,
                "pair_count must be divisible by cohort_size")
        clusters = self.resolved_coarse_clusters()
        require(clusters * self.cohort_size == self.pair_count,
                "coarse_clusters * cohort_size must equal pair_count")
        require(self.latent_dim >= 1, "latent_dim must be >= 1")
        require(self.noise_level >= 0, "noise_level must be >= 0")
        require(self.query_index >= 0, "query_index must be >= 0")
        require(self.query_direction in ("t2v", "v2t"),
                "query_direction must be t2v or v2t")
        return self


# Field types are annotation strings under `from __future__ import annotations`.
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}
# A bool is an int to Python, but neither an int nor a float setting here.
_TYPE_CHECKS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_value(key: str, raw: str):
    """Convert the raw string for `key` to its typed value."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    try:
        return _PARSERS[_FIELD_TYPES[key]](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Set each key from its raw `--set` string, then validate; the CLI passes `RunConfig()`."""
    for key, raw in overrides.items():
        setattr(cfg, key, parse_value(key, raw))
    return cfg.validate()
