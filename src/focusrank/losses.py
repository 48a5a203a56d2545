"""Dual-stage supervision: symmetric contrastive loss on globals, focused
cross-entropy on the re-ranking logits, and their combination."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InputError, UsageError
from .tensor import Tensor, as_tensor, log_softmax, normalize_rows


@dataclass
class LossReport:
    """Scalar loss terms of one training step."""

    t2v: float
    v2t: float
    focus_t: float
    focus_v: float
    combined: float

    def finite(self) -> bool:
        return all(np.isfinite(v) for v in vars(self).values())


def contrastive_loss(text_globals, video_globals, temperature, direction: str) -> Tensor:
    """InfoNCE: -1/B sum_i log softmax_row(S)[i, i] with S = T Vᵀ / tau.

    `direction` picks the softmax axis: rows for t2v, columns for v2t.
    Rows of both inputs must already be unit-normalized.
    """
    if direction not in ("t2v", "v2t"):
        raise UsageError(f"unknown direction {direction!r}")
    text_globals = as_tensor(text_globals)
    video_globals = as_tensor(video_globals)
    if not float(as_tensor(temperature).data) > 0:
        raise ConfigError("temperature must be > 0")
    if text_globals.shape[0] < 2:
        raise InputError("contrastive loss needs a batch of at least 2")
    if text_globals.shape != video_globals.shape:
        raise InputError("text/video batches must have matching shapes")
    sims = text_globals @ video_globals.T
    if direction == "v2t":
        sims = sims.T
    return cross_entropy(sims / temperature, np.arange(sims.shape[0]))


def cross_entropy(logits, targets) -> Tensor:
    """Mean over rows of -log softmax(logits[i])[targets[i]] for (B, k) logits."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise DimensionError(f"cross-entropy expects (B, k) logits, got {logits.shape}")
    b, k = logits.shape
    if b == 0:
        raise InputError("cross-entropy needs at least one row")
    targets = np.asarray(targets)
    if targets.shape != (b,) or targets.dtype.kind not in "iu":
        raise DimensionError(f"need {b} integer targets, got {targets.dtype} {targets.shape}")
    if targets.min() < 0 or targets.max() >= k:
        raise UsageError(f"target position out of range for k={k}")
    onehot = np.zeros((b, k))
    onehot[np.arange(b), targets] = 1.0
    return -(log_softmax(logits) * Tensor(onehot)).sum() * (1.0 / b)


def combined_loss(t2v, v2t, focus_v, focus_t) -> Tensor:
    """(l_t2v + l_v2t) / 2 + (l_focus_v + l_focus_t) / 2."""
    t2v, v2t = as_tensor(t2v), as_tensor(v2t)
    focus_v, focus_t = as_tensor(focus_v), as_tensor(focus_t)
    return (t2v + v2t) * 0.5 + (focus_v + focus_t) * 0.5
