"""Synthetic paired text/video data with controllable hard negatives, and
its encoding into retrieval galleries.

The generator reads its settings straight from a `RunConfig`. Every
generated pair renders a (coarse, fine) latent: cohorts of
`cohort_size` items share one coarse latent and differ only in a fine
detail. The coarse theme saturates every video patch and two text tokens;
the fine detail occupies a single text token and a single (per-item random)
spatial patch position, so broad global matching tends to confuse cohort
members while local cross-attention can separate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .model import RetrievalModel
from .pipeline import Gallery
from .rng import RandomStream
from .tensor import no_grad

# Token ranges inside the synthetic vocabulary. 0..1 reserved.
_COARSE_LO = 2          # coarse id, low digit (base 16)
_COARSE_HI = 18         # coarse id, high digit
_FINE_BASE = 34         # fine detail token, one per cohort member
_FILLER_BASE = 50       # everything above is filler noise


def spec_from_config(cfg: RunConfig) -> RunConfig:
    """Validate `cfg` for the generator and return it. Beyond `RunConfig.validate`,
    the token layout caps coarse clusters (two base-16 digits) and cohort
    members (one fine token each), and needs filler ids above `_FILLER_BASE`."""
    cfg.validate()
    if cfg.resolved_coarse_clusters() > 256:
        raise ConfigError("at most 256 coarse clusters fit the token layout")
    if cfg.cohort_size > 16:
        raise ConfigError("at most 16 cohort members fit the token layout")
    if cfg.vocab_size < _FILLER_BASE + 2:
        raise ConfigError(f"vocab_size must be >= {_FILLER_BASE + 2}")
    return cfg


@dataclass
class PairedDataset:
    """Index-aligned pairs; group labels mark hard-negative cohorts."""

    texts: np.ndarray    # (N, text_len) int64 token ids
    videos: np.ndarray   # (N, T, P^2, D) float64
    groups: np.ndarray   # (N,) int64 cohort label

    def __len__(self) -> int:
        return len(self.groups)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate_synthetic_pairs(cfg: RunConfig) -> PairedDataset:
    """Deterministically render `cfg.pair_count` (text, video) pairs from latents.

    Cohort c member j shares coarse latent c with its cohort and carries fine
    latent j (a codebook shared across cohorts, so the fine patterns are
    learnable). Text: two coarse-digit tokens + one fine token + seeded
    filler. Video: the projected coarse latent in every patch, the projected
    fine latent added at one seeded patch position (constant over time), and
    gaussian noise scaled by `noise_level`. Every setting comes from `cfg`,
    checked by `spec_from_config`.
    """
    clusters = spec_from_config(cfg).resolved_coarse_clusters()
    root = RandomStream(cfg.seed).child("dataset")
    coarse_latents = root.child("coarse").normal((clusters, cfg.latent_dim))
    fine_latents = root.child("fine").normal((cfg.cohort_size, cfg.latent_dim))
    proj_coarse = root.child("proj-coarse").normal((cfg.latent_dim, cfg.patch_dim))
    proj_fine = root.child("proj-fine").normal((cfg.latent_dim, cfg.patch_dim))

    n = cfg.pair_count
    texts = np.zeros((n, cfg.text_len), dtype=np.int64)
    videos = np.zeros((n, cfg.frame_count, cfg.patch_count, cfg.patch_dim))
    groups = np.zeros(n, dtype=np.int64)

    for item in range(n):
        cluster = item // cfg.cohort_size
        member = item % cfg.cohort_size
        groups[item] = cluster
        item_rng = root.child("item", item)

        tokens = texts[item]
        tokens[0] = _COARSE_LO + cluster % 16
        tokens[1] = _COARSE_HI + cluster // 16
        tokens[2] = _FINE_BASE + member
        tokens[3:] = item_rng.child("filler").integers(
            _FILLER_BASE, cfg.vocab_size, cfg.text_len - 3
        )

        coarse_vec = _unit(coarse_latents[cluster] @ proj_coarse)
        fine_vec = _unit(fine_latents[member] @ proj_fine)
        clip = np.broadcast_to(
            coarse_vec, (cfg.frame_count, cfg.patch_count, cfg.patch_dim)
        ).copy()
        needle = int(item_rng.child("needle").integers(0, cfg.patch_count))
        clip[:, needle, :] += cfg.fine_scale * fine_vec
        if cfg.noise_level > 0:
            clip += cfg.noise_level * item_rng.child("noise").normal(clip.shape)
        videos[item] = clip

    return PairedDataset(texts, videos, groups)


def encode_dataset(model: RetrievalModel, dataset: PairedDataset, chunk: int = 100):
    """Encode every pair; returns numpy (globals, focus, locals) per side."""
    t_parts, v_parts = [], []
    with no_grad():
        for start in range(0, len(dataset), chunk):
            stop = min(start + chunk, len(dataset))
            tg, tf, tl = model.encode_text_batch(dataset.texts[start:stop])
            vg, vf, vl = model.encode_video_batch(dataset.videos[start:stop])
            t_parts.append((tg.data, None if tf is None else tf.data, tl.data))
            v_parts.append((vg.data, None if vf is None else vf.data, vl.data))

    def stitch(parts):
        globals_ = np.concatenate([p[0] for p in parts])
        focus = None if parts[0][1] is None else np.concatenate([p[1] for p in parts])
        locals_ = np.concatenate([p[2] for p in parts])
        return globals_, focus, locals_

    return stitch(t_parts), stitch(v_parts)


def build_galleries(model: RetrievalModel, dataset: PairedDataset):
    """Encode the dataset into a video gallery (t2v) and text gallery (v2t),
    returning (text_queries, video_queries, video_gallery, text_gallery)."""
    (tg, tf, tl), (vg, vf, vl) = encode_dataset(model, dataset)
    return (tg, tf), (vg, vf), Gallery(vg, vl), Gallery(tg, tl)
