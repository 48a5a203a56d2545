"""Synthetic paired text/video data with controllable hard negatives, and
its encoding into retrieval galleries.

Every generated pair renders a (coarse, fine) latent: cohorts of
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


@dataclass
class SyntheticSpec:
    """Generator settings; derived from a RunConfig via `spec_from_config`."""

    pair_count: int
    latent_dim: int
    coarse_clusters: int
    cohort_size: int
    noise_level: float
    fine_scale: float
    text_len: int
    frame_count: int
    patch_count: int
    patch_dim: int
    vocab_size: int
    seed: int

    def validate(self) -> "SyntheticSpec":
        if self.cohort_size < 1:
            raise ConfigError("cohort_size must be >= 1")
        if self.pair_count % self.cohort_size != 0:
            raise ConfigError("pair_count must be divisible by cohort_size")
        if self.coarse_clusters * self.cohort_size != self.pair_count:
            raise ConfigError("coarse_clusters * cohort_size must equal pair_count")
        if self.coarse_clusters > 256:
            raise ConfigError("at most 256 coarse clusters fit the token layout")
        if self.cohort_size > 16:
            raise ConfigError("at most 16 cohort members fit the token layout")
        if self.text_len < 3:
            raise ConfigError("text_len must be >= 3 (coarse x2 + fine token)")
        if self.vocab_size < _FILLER_BASE + 2:
            raise ConfigError(f"vocab_size must be >= {_FILLER_BASE + 2}")
        return self


def spec_from_config(cfg: RunConfig) -> SyntheticSpec:
    return SyntheticSpec(
        pair_count=cfg.pair_count,
        latent_dim=cfg.latent_dim,
        coarse_clusters=cfg.resolved_coarse_clusters(),
        cohort_size=cfg.cohort_size,
        noise_level=cfg.noise_level,
        fine_scale=cfg.fine_scale,
        text_len=cfg.text_len,
        frame_count=cfg.frame_count,
        patch_count=cfg.patch_count,
        patch_dim=cfg.patch_dim,
        vocab_size=cfg.vocab_size,
        seed=cfg.seed,
    ).validate()


@dataclass
class PairedDataset:
    """Index-aligned pairs; group labels mark hard-negative cohorts."""

    texts: np.ndarray    # (N, text_len) int64 token ids
    videos: np.ndarray   # (N, T, P^2, D) float64
    groups: np.ndarray   # (N,) int64 cohort label
    seed: int = 0

    def __len__(self) -> int:
        return len(self.groups)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate_synthetic_pairs(spec: SyntheticSpec) -> PairedDataset:
    """Deterministically render `pair_count` (text, video) pairs from latents.

    Cohort c member j shares coarse latent c with its cohort and carries fine
    latent j (a codebook shared across cohorts, so the fine patterns are
    learnable). Text: two coarse-digit tokens + one fine token + seeded
    filler. Video: the projected coarse latent in every patch, the projected
    fine latent added at one seeded patch position (constant over time), and
    gaussian noise scaled by `noise_level`.
    """
    spec.validate()
    root = RandomStream(spec.seed).child("dataset")
    coarse_latents = root.child("coarse").normal((spec.coarse_clusters, spec.latent_dim))
    fine_latents = root.child("fine").normal((spec.cohort_size, spec.latent_dim))
    proj_coarse = root.child("proj-coarse").normal((spec.latent_dim, spec.patch_dim))
    proj_fine = root.child("proj-fine").normal((spec.latent_dim, spec.patch_dim))

    n = spec.pair_count
    texts = np.zeros((n, spec.text_len), dtype=np.int64)
    videos = np.zeros((n, spec.frame_count, spec.patch_count, spec.patch_dim))
    groups = np.zeros(n, dtype=np.int64)

    for item in range(n):
        cluster = item // spec.cohort_size
        member = item % spec.cohort_size
        groups[item] = cluster
        item_rng = root.child("item", item)

        tokens = texts[item]
        tokens[0] = _COARSE_LO + cluster % 16
        tokens[1] = _COARSE_HI + cluster // 16
        tokens[2] = _FINE_BASE + member
        tokens[3:] = item_rng.child("filler").integers(
            _FILLER_BASE, spec.vocab_size, spec.text_len - 3
        )

        coarse_vec = _unit(coarse_latents[cluster] @ proj_coarse)
        fine_vec = _unit(fine_latents[member] @ proj_fine)
        clip = np.broadcast_to(
            coarse_vec, (spec.frame_count, spec.patch_count, spec.patch_dim)
        ).copy()
        needle = int(item_rng.child("needle").integers(0, spec.patch_count))
        clip[:, needle, :] += spec.fine_scale * fine_vec
        if spec.noise_level > 0:
            clip += spec.noise_level * item_rng.child("noise").normal(clip.shape)
        videos[item] = clip

    return PairedDataset(texts, videos, groups, seed=spec.seed)


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
    ids = np.arange(len(dataset), dtype=np.int64)
    (tg, tf, tl), (vg, vf, vl) = encode_dataset(model, dataset)
    return (tg, tf), (vg, vf), Gallery(ids, vg, vl), Gallery(ids, tg, tl)
