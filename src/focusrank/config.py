"""Run configuration: flat `key: value` text files with strict key checking.

Unknown keys are rejected (a typo in an ablation script should fail loudly),
missing keys fall back to the documented defaults below. Lines starting with
`#` (or anything after a `#`) are comments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


@dataclass
class RunConfig:
    """Every tunable of the model, training loop, data generator and CLI."""

    # model
    dim: int = 64                 # feature width C
    layers: int = 2               # encoder depth L
    indicator_count: int = 4      # query indicators m (2..6)
    vocab_size: int = 256
    text_len: int = 8             # tokens per generated text
    max_text_len: int = 16
    patch_count: int = 16         # local tokens per frame (P^2)
    patch_dim: int = 64           # raw patch feature width before projection
    frame_count: int = 4          # frames per generated clip
    max_frames: int = 8
    mlp_hidden: int = 128         # hidden width of the delta head
    fusion_blocks: int = 1        # focused-view cross-attention blocks B_f
    k: int = 10                   # re-ranked candidates per query
    gumbel_temp: float = 1.0
    activation: str = "gelu"      # smooth gate used inside MLPs
    use_query_indicators: bool = True
    use_stage1_scores: bool = True   # include stage-1 scores in composition
    use_gumbel: bool = True          # gumbel noise in fusion attention (training)
    # training
    batch_size: int = 20
    epochs: int = 5
    lr_fusion: float = 1e-4
    lr_base: float = 1e-6
    weight_decay: float = 0.2
    temperature: float = 0.01     # contrastive temperature tau (learnable via log)
    k_train: int = 0              # 0 = auto: min(k, batch_size)
    seed: int = 0
    # synthetic data
    pair_count: int = 500
    cohort_size: int = 5          # hard-negative group size g
    coarse_clusters: int = 0      # 0 = auto: pair_count // cohort_size
    latent_dim: int = 16
    noise_level: float = 0.1
    fine_scale: float = 1.0       # amplitude of the distinguishing detail
    # io
    checkpoint: str = ""          # parameter file loaded by eval/query
    query_index: int = 0
    query_direction: str = "t2v"

    def resolved_k_train(self, batch: int | None = None) -> int:
        b = self.batch_size if batch is None else batch
        k_train = min(self.k, b) if self.k_train == 0 else self.k_train
        return min(k_train, b)

    def resolved_coarse_clusters(self) -> int:
        if self.coarse_clusters == 0:
            return self.pair_count // self.cohort_size
        return self.coarse_clusters

    def validate(self) -> "RunConfig":
        def require(cond: bool, message: str):
            if not cond:
                raise ConfigError(message)

        require(self.dim >= 1, "dim must be >= 1")
        require(self.layers >= 1, "layers must be >= 1")
        require(2 <= self.indicator_count <= 6, "indicator_count must be in 2..6")
        require(self.vocab_size >= 2, "vocab_size must be >= 2")
        require(3 <= self.text_len <= self.max_text_len,
                "text_len must be in 3..max_text_len")
        require(self.patch_count >= 1, "patch_count must be >= 1")
        require(self.patch_dim >= 1, "patch_dim must be >= 1")
        require(1 <= self.frame_count <= self.max_frames,
                "frame_count must be in 1..max_frames")
        require(self.mlp_hidden >= 1, "mlp_hidden must be >= 1")
        require(self.fusion_blocks >= 1, "fusion_blocks must be >= 1")
        require(self.k >= 1, "k must be >= 1")
        require(self.gumbel_temp > 0, "gumbel_temp must be > 0")
        require(self.activation in ("gelu", "silu"), "activation must be gelu or silu")
        require(self.batch_size >= 2, "batch_size must be >= 2 (contrastive training)")
        require(self.epochs >= 1, "epochs must be >= 1")
        require(self.lr_fusion > 0 and self.lr_base > 0, "learning rates must be > 0")
        require(self.weight_decay >= 0, "weight_decay must be >= 0")
        require(self.temperature > 0, "temperature must be > 0")
        require(self.k_train >= 0, "k_train must be >= 0 (0 = auto)")
        if self.k_train:
            require(self.k_train <= self.batch_size, "k_train must be <= batch_size")
            require(self.k_train <= self.k, "k_train must be <= k")
        require(self.pair_count >= 1, "pair_count must be >= 1")
        require(self.cohort_size >= 1, "cohort_size must be >= 1")
        require(self.pair_count % self.cohort_size == 0,
                "pair_count must be divisible by cohort_size")
        clusters = self.resolved_coarse_clusters()
        require(clusters * self.cohort_size == self.pair_count,
                "coarse_clusters * cohort_size must equal pair_count")
        require(self.latent_dim >= 1, "latent_dim must be >= 1")
        require(self.noise_level >= 0, "noise_level must be >= 0")
        require(self.fine_scale >= 0, "fine_scale must be >= 0")
        require(self.query_index >= 0, "query_index must be >= 0")
        require(self.query_direction in ("t2v", "v2t"),
                "query_direction must be t2v or v2t")
        return self


_PARSERS = {bool: _parse_bool, int: int, float: float, str: str}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_TYPE_LOOKUP = {"int": int, "float": float, "bool": bool, "str": str}


def parse_value(key: str, raw: str):
    """Convert the raw string for `key` to its typed value."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    typ = _TYPE_LOOKUP[_FIELD_TYPES[key]] if isinstance(_FIELD_TYPES[key], str) else _FIELD_TYPES[key]
    try:
        return _PARSERS[typ](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def default_config() -> RunConfig:
    return RunConfig()


def load_config(path) -> RunConfig:
    """Parse a config file; unknown keys or bad values fail with a line number."""
    cfg = RunConfig()
    text = Path(path).read_text(encoding="utf-8")
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value', got {body!r}")
        key, raw = body.split(":", 1)
        key = key.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            setattr(cfg, key, parse_value(key, raw))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg.validate()


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply `--set key=value` strings on top of a config, then re-validate."""
    for key, raw in overrides.items():
        setattr(cfg, key, parse_value(key, raw))
    return cfg.validate()
