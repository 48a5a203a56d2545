"""Trainable text and video encoders with query-indicator binding.

Both encoders interleave self-attention over their token sequence with a
cross-attention "binding" step that pulls token information into a small set
of learnable indicator vectors. Indicator 1 (text) and the prepended global
token (video) become the unit-normalized globals used by broad-view
retrieval; indicators 2..m feed the focused view. The binding projection is
zero-initialized, so binding is an exact identity at initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DimensionError, InputError
from .ops import ParameterSet, kaiming_normal, scaled_dot_attention
from .rng import RandomStream
from .tensor import (
    Tensor,
    add_all,
    as_tensor,
    broadcast_to,
    concat,
    layer_norm,
    normalize_rows,
    take,
)


def _typed_array(values, dtype, what: str) -> np.ndarray:
    """`values` as a `dtype` array, if numpy reads them as a rectangular array
    of a kind that casts to `dtype` (an empty one passes): a float token id is
    not truncated, and a bool, string, complex or ragged input is an
    InputError (a bool is no number, as in `RunConfig.validate`)."""
    try:
        array = np.asarray(values)
    except ValueError:
        raise InputError(f"{what} must be a rectangular array") from None
    if array.size and (
        array.dtype.kind == "b" or not np.can_cast(array.dtype, dtype, casting="same_kind")
    ):
        raise InputError(f"{what} must hold {np.dtype(dtype)} values, got {array.dtype}")
    return array.astype(dtype, copy=False)


@dataclass
class TextSequence:
    """Token ids for one query/caption."""

    tokens: np.ndarray

    def __post_init__(self):
        self.tokens = _typed_array(self.tokens, np.int64, "token ids")
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise InputError("text sequence must be a non-empty 1-d token array")


@dataclass
class VideoClip:
    """Synthetic patch-feature grid: frames x patches x feature width."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = _typed_array(self.frames, np.float64, "video clip")
        if self.frames.ndim != 3 or self.frames.shape[0] == 0:
            raise InputError("video clip must be a (T, P^2, D) array with T >= 1")


@dataclass
class EncodedItem:
    """One encoded text or video, as numpy arrays."""

    global_vec: np.ndarray        # (C,), unit L2 norm
    focus_indicators: np.ndarray  # (m-1, C); (0, C) without query indicators


def temporal_mean_pool(features):
    """Average over the frame axis per spatial position: (..., T, P^2, C) -> (..., P^2, C)."""
    features = as_tensor(features)
    if features.ndim < 3:
        raise DimensionError("temporal pooling expects at least (T, P^2, C)")
    return features.mean(axis=-3)


def bind_query_indicators(indicators, tokens, out_w, out_b) -> Tensor:
    """One binding step: indicators + proj(attention(Q=indicators, K=V=tokens)).

    The output projection is expected to be zero at initialization, which
    makes this op the identity on the indicators at step 0. Widths that
    differ raise `DimensionError` in the attention.
    """
    indicators, tokens = as_tensor(indicators), as_tensor(tokens)
    attended = scaled_dot_attention(indicators, tokens, tokens)
    return indicators + (attended @ out_w + out_b)


class _EncoderTrunk:
    """L layers of (self-attention, indicator binding) over one side's tokens.

    Owns `{side}.indicators`, then per layer the pre-normalized residual
    self-attention x + attn(h Wq, h Wk, h Wv) Wo with h = layer_norm(x)
    (`{side}.layer{i}.self_attn.*`; the normalization keeps the residual
    stream bounded, which a 2-layer stack trained from scratch needs), then
    per layer the zero-initialized binding projection `{side}.layer{i}.bind.*`.
    """

    def __init__(self, params: ParameterSet, cfg: RunConfig, side: str, rng: RandomStream):
        self.params = params
        self.cfg = cfg
        self.side = side
        c = cfg.dim
        params.add(
            f"{side}.indicators",
            kaiming_normal(rng.child("indicators"), (cfg.indicator_count, c), c),
        )
        for i in range(cfg.layers):
            sa_rng = rng.child("sa", i)
            for pname in ("wq", "wk", "wv", "wo"):
                params.add(
                    f"{side}.layer{i}.self_attn.{pname}",
                    kaiming_normal(sa_rng.child(pname), (c, c), c),
                )
            params.add(f"{side}.layer{i}.self_attn.ln_gamma", np.ones(c))
            params.add(f"{side}.layer{i}.self_attn.ln_beta", np.zeros(c))
        for i in range(cfg.layers):
            params.add(f"{side}.layer{i}.bind.out_w", np.zeros((c, c)))
            params.add(f"{side}.layer{i}.bind.out_b", np.zeros(c))

    def __call__(self, embed, inputs) -> tuple[Tensor, Tensor]:
        """Run the stack over the (B, S, C) tokens `embed(inputs)`.

        Returns (token states (B, S, C), indicators (B, m, C), or (B, 0, C)
        without query indicators). The tokens are built here, not passed in,
        because a caller holds its call arguments until the call returns:
        passed-in tokens would stay alive through every layer.
        """
        p, cfg = self.params, self.cfg
        x = embed(inputs)
        indicators = p[f"{self.side}.indicators"].reshape(1, cfg.indicator_count, cfg.dim)
        for i in range(cfg.layers):
            x = self._self_attention(x, f"{self.side}.layer{i}.self_attn")
            if cfg.use_query_indicators:
                bind = f"{self.side}.layer{i}.bind"
                indicators = bind_query_indicators(
                    indicators, x, p[f"{bind}.out_w"], p[f"{bind}.out_b"]
                )
        return x, indicators if cfg.use_query_indicators else x[:, :0, :]

    def _self_attention(self, x: Tensor, prefix: str) -> Tensor:
        # A call of its own, so the (B, S, C) temporaries are freed before binding.
        p = self.params
        h = layer_norm(x, p[f"{prefix}.ln_gamma"], p[f"{prefix}.ln_beta"])
        q = h @ p[f"{prefix}.wq"]
        k = h @ p[f"{prefix}.wk"]
        v = h @ p[f"{prefix}.wv"]
        return x + scaled_dot_attention(q, k, v) @ p[f"{prefix}.wo"]


class TextEncoder:
    """Token embedding + L layers of (self-attention, indicator binding)."""

    def __init__(self, params: ParameterSet, cfg: RunConfig, rng: RandomStream):
        self.params = params
        self.cfg = cfg
        c = cfg.dim
        params.add(
            "text.token_embedding",
            kaiming_normal(rng.child("tok"), (cfg.vocab_size, c), c),
        )
        params.add(
            "text.position_embedding",
            rng.child("pos").normal((cfg.text_len, c), scale=0.02),
        )
        self.trunk = _EncoderTrunk(params, cfg, "text", rng)

    def forward(self, tokens: np.ndarray):
        """Encode a (B, M) batch of token ids.

        Returns (global (B, C) unit rows, focus (B, m-1, C), locals (B, M, C)).
        The global is indicator 0, or the mean of the token states without
        query indicators. Every token of every row is attended to: the batch
        holds no padding.
        """
        tokens = _typed_array(tokens, np.int64, "token batch")
        if tokens.ndim != 2 or 0 in tokens.shape:
            raise InputError(f"token batch must be (B, M) with B, M >= 1, not {tokens.shape}")
        if tokens.shape[1] > self.cfg.text_len:
            raise InputError(
                f"sequence length {tokens.shape[1]} exceeds text_len {self.cfg.text_len}"
            )
        if tokens.min() < 0 or tokens.max() >= self.cfg.vocab_size:
            raise InputError("token id outside vocabulary")
        x, indicators = self.trunk(self._input_tokens, tokens)
        pooled = indicators[:, 0, :] if self.cfg.use_query_indicators else x.mean(axis=1)
        return normalize_rows(pooled), indicators[:, 1:, :], x

    def _input_tokens(self, tokens: np.ndarray) -> Tensor:
        """(B, M, C) token plus position embeddings."""
        p, m_len = self.params, tokens.shape[1]
        return take(p["text.token_embedding"], tokens) + p["text.position_embedding"][:m_len]


class VideoEncoder:
    """Patch projection + embeddings + global token + L layers + temporal pooling."""

    def __init__(self, params: ParameterSet, cfg: RunConfig, rng: RandomStream):
        self.params = params
        self.cfg = cfg
        c = cfg.dim
        params.add(
            "video.input_w",
            kaiming_normal(rng.child("in_w"), (cfg.patch_dim, c), cfg.patch_dim),
        )
        params.add("video.input_b", np.zeros(c))
        params.add("video.cls_token", kaiming_normal(rng.child("cls"), (c,), c))
        params.add("video.type_embedding", rng.child("type").normal((c,), scale=0.02))
        params.add(
            "video.frame_embedding",
            rng.child("frame").normal((cfg.frame_count, c), scale=0.02),
        )
        params.add(
            "video.patch_pos_embedding",
            rng.child("pos").normal((cfg.patch_count, c), scale=0.02),
        )
        self.trunk = _EncoderTrunk(params, cfg, "video", rng)

    def forward(self, clips: np.ndarray):
        """Encode a (B, T, P^2, D) batch of patch-feature grids.

        Returns (global (B, C) unit rows, focus (B, m-1, C),
        locals (B, P^2, C) after temporal mean pooling).
        """
        clips = _typed_array(clips, np.float64, "clip batch")
        if clips.ndim != 4:
            raise InputError("clip batch must be (B, T, P^2, D)")
        b, t, n_patches, d = clips.shape
        if b == 0 or t == 0:
            raise InputError(f"clip batch needs B >= 1 clips of T >= 1 frames, not {clips.shape}")
        cfg = self.cfg
        if t > cfg.frame_count:
            raise InputError(f"frame count {t} exceeds frame_count {cfg.frame_count}")
        if n_patches != cfg.patch_count or d != cfg.patch_dim:
            raise DimensionError(
                f"clip patches {(n_patches, d)} != configured {(cfg.patch_count, cfg.patch_dim)}"
            )
        if not np.isfinite(clips).all():
            raise InputError("clip batch holds NaN or infinite values")
        x, indicators = self.trunk(self._input_tokens, clips)
        global_vec = normalize_rows(x[:, 0, :])
        patch_states = x[:, 1:, :].reshape(b, t, n_patches, cfg.dim)
        return global_vec, indicators[:, 1:, :], temporal_mean_pool(patch_states)

    def _input_tokens(self, clips: np.ndarray) -> Tensor:
        """(B, 1 + T*P^2, C): the global token, then the projected patches plus
        type, frame and patch-position embeddings."""
        p, c = self.params, self.cfg.dim
        b, t, n_patches, _ = clips.shape
        x = add_all(
            Tensor(clips) @ p["video.input_w"],
            p["video.input_b"],
            p["video.type_embedding"],
            p["video.frame_embedding"][:t].reshape(1, t, 1, c),
            p["video.patch_pos_embedding"].reshape(1, 1, n_patches, c),
        ).reshape(b, t * n_patches, c)
        cls = broadcast_to(p["video.cls_token"].reshape(1, 1, c), (b, 1, c))
        return concat([cls, x], axis=1)
