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
from .ops import GROUP_BASE, ParameterSet, kaiming_normal, scaled_dot_attention
from .rng import RandomStream
from .tensor import (
    Tensor,
    as_tensor,
    broadcast_to,
    concat,
    layer_norm,
    no_grad,
    normalize_rows,
    take,
)


@dataclass
class TextSequence:
    """Token ids for one query/caption."""

    tokens: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise InputError("text sequence must be a non-empty 1-d token array")


@dataclass
class VideoClip:
    """Synthetic patch-feature grid: frames x patches x feature width."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.frames.shape[0] == 0:
            raise InputError("video clip must be a (T, P^2, D) array with T >= 1")


@dataclass
class EncodedItem:
    """One encoded text or video, as numpy arrays."""

    global_vec: np.ndarray        # (C,), unit L2 norm
    focus_indicators: np.ndarray  # (m-1, C); (0, C) without query indicators
    locals_: np.ndarray           # (M, C) token states or (P^2, C) pooled patches


def temporal_mean_pool(features):
    """Average over the frame axis per spatial position: (..., T, P^2, C) -> (..., P^2, C)."""
    features = as_tensor(features)
    if features.ndim < 3:
        raise DimensionError("temporal pooling expects at least (T, P^2, C)")
    return features.mean(axis=-3)


def bind_query_indicators(indicators, tokens, out_w, out_b, key_mask=None) -> Tensor:
    """One binding step: indicators + proj(attention(Q=indicators, K=V=tokens)).

    The output projection is expected to be zero at initialization, which
    makes this op the identity on the indicators at step 0.
    """
    indicators, tokens = as_tensor(indicators), as_tensor(tokens)
    if indicators.shape[-1] != tokens.shape[-1]:
        raise DimensionError(
            f"indicator width {indicators.shape[-1]} != token width {tokens.shape[-1]}"
        )
    attended = scaled_dot_attention(indicators, tokens, tokens, key_mask=key_mask)
    return indicators + (attended @ out_w + out_b)


class _SelfAttentionLayer:
    """Pre-normalized residual self-attention: x + attn(h Wq, h Wk, h Wv) Wo
    with h = layer_norm(x). The normalization keeps the residual stream
    bounded, which a 2-layer stack trained from scratch needs."""

    def __init__(self, params: ParameterSet, prefix: str, dim: int, rng: RandomStream):
        self.params = params
        self.prefix = prefix
        for pname in ("wq", "wk", "wv", "wo"):
            params.add(
                f"{prefix}.{pname}",
                kaiming_normal(rng.child(pname), (dim, dim), dim),
                GROUP_BASE,
            )
        params.add(f"{prefix}.ln_gamma", np.ones(dim), GROUP_BASE)
        params.add(f"{prefix}.ln_beta", np.zeros(dim), GROUP_BASE)

    def __call__(self, x: Tensor, key_mask=None) -> Tensor:
        p = self.params
        h = layer_norm(x, p[f"{self.prefix}.ln_gamma"], p[f"{self.prefix}.ln_beta"])
        q = h @ p[f"{self.prefix}.wq"]
        k = h @ p[f"{self.prefix}.wk"]
        v = h @ p[f"{self.prefix}.wv"]
        return x + scaled_dot_attention(q, k, v, key_mask=key_mask) @ p[f"{self.prefix}.wo"]


class _BindingLayer:
    """Residual cross-attention from indicators onto tokens; identity at init."""

    def __init__(self, params: ParameterSet, prefix: str, dim: int):
        self.params = params
        self.prefix = prefix
        params.add(f"{prefix}.out_w", np.zeros((dim, dim)), GROUP_BASE)
        params.add(f"{prefix}.out_b", np.zeros(dim), GROUP_BASE)

    def __call__(self, indicators: Tensor, tokens: Tensor, key_mask=None) -> Tensor:
        p = self.params
        return bind_query_indicators(
            indicators,
            tokens,
            p[f"{self.prefix}.out_w"],
            p[f"{self.prefix}.out_b"],
            key_mask=key_mask,
        )


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
            rng.child("pos").normal((cfg.max_text_len, c), scale=0.02),
        )
        params.add(
            "text.indicators",
            kaiming_normal(rng.child("indicators"), (cfg.indicator_count, c), c),
        )
        self.self_attn = [
            _SelfAttentionLayer(params, f"text.layer{i}.self_attn", c, rng.child("sa", i))
            for i in range(cfg.layers)
        ]
        self.binding = [
            _BindingLayer(params, f"text.layer{i}.bind", c) for i in range(cfg.layers)
        ]

    def forward(self, tokens: np.ndarray, key_mask: np.ndarray | None = None):
        """Encode a (B, M) batch of token ids.

        Returns (global (B, C) unit rows, focus (B, m-1, C) or None, locals (B, M, C)).
        A key mask of shape (B, M) marks real tokens with 1; masked positions
        get zero attention weight everywhere, so outputs at real positions are
        unaffected by padding content. Every row needs one real token: a fully
        masked row would softmax over nothing but -inf.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[1] == 0:
            raise InputError("token batch must be (B, M) with M >= 1")
        if tokens.shape[1] > self.cfg.max_text_len:
            raise InputError(
                f"sequence length {tokens.shape[1]} exceeds max_text_len {self.cfg.max_text_len}"
            )
        if tokens.min() < 0 or tokens.max() >= self.cfg.vocab_size:
            raise InputError("token id outside vocabulary")
        if key_mask is not None:
            key_mask = np.asarray(key_mask, dtype=np.float64)
            if key_mask.shape != tokens.shape:
                raise DimensionError(f"key mask {key_mask.shape} != token batch {tokens.shape}")
            if not (key_mask > 0).any(axis=1).all():
                raise InputError("key mask row has no real token")
        p = self.params
        m_len = tokens.shape[1]
        x = take(p["text.token_embedding"], tokens) + p["text.position_embedding"][:m_len]
        indicators = p["text.indicators"].reshape(1, self.cfg.indicator_count, self.cfg.dim)
        for attn, bind in zip(self.self_attn, self.binding):
            x = attn(x, key_mask=key_mask)
            if self.cfg.use_query_indicators:
                indicators = bind(indicators, x, key_mask=key_mask)
        if self.cfg.use_query_indicators:
            indicators = broadcast_to(
                indicators, (tokens.shape[0], self.cfg.indicator_count, self.cfg.dim)
            )
            global_vec = normalize_rows(indicators[:, 0, :])
            focus = indicators[:, 1:, :]
        else:
            if key_mask is None:
                pooled = x.mean(axis=1)
            else:
                mask = np.asarray(key_mask, dtype=np.float64)[:, :, None]
                pooled = (x * mask).sum(axis=1) * (1.0 / mask.sum(axis=1))
            global_vec = normalize_rows(pooled)
            focus = None
        return global_vec, focus, x


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
            rng.child("frame").normal((cfg.max_frames, c), scale=0.02),
        )
        params.add(
            "video.patch_pos_embedding",
            rng.child("pos").normal((cfg.patch_count, c), scale=0.02),
        )
        params.add(
            "video.indicators",
            kaiming_normal(rng.child("indicators"), (cfg.indicator_count, c), c),
        )
        self.self_attn = [
            _SelfAttentionLayer(params, f"video.layer{i}.self_attn", c, rng.child("sa", i))
            for i in range(cfg.layers)
        ]
        self.binding = [
            _BindingLayer(params, f"video.layer{i}.bind", c) for i in range(cfg.layers)
        ]

    def forward(self, clips: np.ndarray):
        """Encode a (B, T, P^2, D) batch of patch-feature grids.

        Returns (global (B, C) unit rows, focus (B, m-1, C) or None,
        locals (B, P^2, C) after temporal mean pooling).
        """
        clips = np.asarray(clips, dtype=np.float64)
        if clips.ndim != 4:
            raise InputError("clip batch must be (B, T, P^2, D)")
        b, t, n_patches, d = clips.shape
        if t == 0:
            raise InputError("video clip has no frames")
        cfg = self.cfg
        if t > cfg.max_frames:
            raise InputError(f"frame count {t} exceeds max_frames {cfg.max_frames}")
        if n_patches != cfg.patch_count or d != cfg.patch_dim:
            raise DimensionError(
                f"clip patches {(n_patches, d)} != configured {(cfg.patch_count, cfg.patch_dim)}"
            )
        p = self.params
        c = cfg.dim
        x = Tensor(clips) @ p["video.input_w"] + p["video.input_b"]
        x = x + p["video.type_embedding"]
        x = x + p["video.frame_embedding"][:t].reshape(1, t, 1, c)
        x = x + p["video.patch_pos_embedding"].reshape(1, 1, n_patches, c)
        x = x.reshape(b, t * n_patches, c)
        cls = broadcast_to(p["video.cls_token"].reshape(1, 1, c), (b, 1, c))
        x = concat([cls, x], axis=1)
        indicators = p["video.indicators"].reshape(1, cfg.indicator_count, c)
        for attn, bind in zip(self.self_attn, self.binding):
            x = attn(x)
            if cfg.use_query_indicators:
                indicators = bind(indicators, x)
        global_vec = normalize_rows(x[:, 0, :])
        patch_states = x[:, 1:, :].reshape(b, t, n_patches, c)
        locals_ = temporal_mean_pool(patch_states)
        if cfg.use_query_indicators:
            focus = broadcast_to(indicators, (b, cfg.indicator_count, c))[:, 1:, :]
        else:
            focus = None
        return global_vec, focus, locals_
