"""Synthetic paired text/video data with controllable hard negatives, and
its encoding into retrieval galleries.

The generator reads its settings straight from a `RunConfig`. Every
generated pair renders a (coarse, fine) latent: cohorts of
`cohort_size` items share one coarse latent and differ only in a fine
detail. The coarse theme saturates every video patch and two text tokens;
the fine detail occupies a single text token and a single (per-item random)
spatial patch position, so broad global matching tends to confuse cohort
members while local cross-attention can separate them.

Generation and encoding both run in fixed-size blocks of items on the block
pool (`pool.on_pool`), each block writing its rows straight into
preallocated arrays. Every generated item draws only from its own keyed
Philox streams (`rng`), which give the same values on any thread and in any
order, so the order in which blocks run does not show in the bytes. Graph
recording is switched off per thread (`tensor.no_grad`), so encoding helpers
never change the calling thread's grad mode.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import pool
from .config import RunConfig
from .errors import ConfigError
from .model import RetrievalModel
from .pipeline import Gallery
from .rng import RandomStream
from .tensor import no_grad

log = logging.getLogger(__name__)

# Token ranges inside the synthetic vocabulary. 0..1 reserved.
_COARSE_LO = 2          # coarse id, low digit (base 16)
_COARSE_HI = 18         # coarse id, high digit
_FINE_BASE = 34         # fine detail token, one per cohort member
_FILLER_BASE = 50       # everything above is filler noise

# Items per block on the pool, generating or encoding. Small blocks keep an
# encoding block's working set, and so each helper thread's malloc arena, small.
BLOCK = 16


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

    Each item draws only from its own keyed streams, so its bytes do not
    depend on which thread renders it or when. The calling thread first
    derives every item's streams and draws its filler tokens and needle
    position: short Python steps that hold the GIL and would only contend on
    other threads. The clips, whose cost is the GIL-free noise fills, are then
    rendered in blocks of `BLOCK` items on the pool (`pool.on_pool`), each
    straight into its row of the video array.
    """
    start_time = time.perf_counter()
    clusters = spec_from_config(cfg).resolved_coarse_clusters()
    root = RandomStream(cfg.seed).child("dataset")
    coarse_latents = root.child("coarse").normal((clusters, cfg.latent_dim))
    fine_latents = root.child("fine").normal((cfg.cohort_size, cfg.latent_dim))
    proj_coarse = root.child("proj-coarse").normal((cfg.latent_dim, cfg.patch_dim))
    proj_fine = root.child("proj-fine").normal((cfg.latent_dim, cfg.patch_dim))
    # One row product per vector, not one GEMM, whose summation order may differ.
    coarse_vecs = np.array([_unit(latent @ proj_coarse) for latent in coarse_latents])
    fine_vecs = np.array([_unit(latent @ proj_fine) for latent in fine_latents])

    n = cfg.pair_count
    items = np.arange(n, dtype=np.int64)
    groups = items // cfg.cohort_size
    texts = np.zeros((n, cfg.text_len), dtype=np.int64)
    texts[:, 0] = _COARSE_LO + groups % 16
    texts[:, 1] = _COARSE_HI + groups // 16
    texts[:, 2] = _FINE_BASE + items % cfg.cohort_size
    needles = np.zeros(n, dtype=np.int64)
    noise_streams = []
    for item in range(n):
        item_rng = root.child("item", item)
        texts[item, 3:] = item_rng.child("filler").rekeyed().integers(
            _FILLER_BASE, cfg.vocab_size, cfg.text_len - 3
        )
        needles[item] = item_rng.child("needle").rekeyed().integers(0, cfg.patch_count)
        noise_streams.append(item_rng.child("noise"))

    videos = np.zeros((n, cfg.frame_count, cfg.patch_count, cfg.patch_dim))

    def render(start: int) -> None:
        for item in range(start, min(start + BLOCK, n)):
            clip = videos[item]
            clip[...] = coarse_vecs[item // cfg.cohort_size]
            clip[:, needles[item], :] += fine_vecs[item % cfg.cohort_size]
            if cfg.noise_level > 0:
                noise = noise_streams[item].rekeyed().normal(0.0, 1.0, clip.shape)
                noise *= cfg.noise_level
                clip += noise

    threads = pool.on_pool(render, range(0, n, BLOCK))
    log.info(
        "generated %d pairs in %.3f s, threads=%d", n, time.perf_counter() - start_time, threads
    )
    return PairedDataset(texts, videos, groups)


def build_galleries(model: RetrievalModel, dataset: PairedDataset):
    """Encode every pair into a video gallery (t2v) and a text gallery (v2t),
    returning (text_queries, video_queries, video_gallery, text_gallery),
    where each queries entry is a (globals, focus) array pair.

    The calling thread encodes each side's first block of `BLOCK` items and
    allocates the side's output arrays from its shapes. The other blocks then
    run on the pool (`pool.on_pool`), each under its own `no_grad` and writing
    its rows in place. A block's arithmetic does not depend on its thread, so
    the result is bit-identical on any number of cores.
    """
    start_time = time.perf_counter()
    n = len(dataset)
    sides = ((model.encode_text_batch, dataset.texts), (model.encode_video_batch, dataset.videos))
    outputs, tasks = [], []
    for encode, items in sides:
        first = _encode_block(encode, items, 0)
        out = tuple(np.empty((n,) + a.shape[1:]) for a in first)
        _write_rows(out, 0, first)
        outputs.append(out)
        tasks += [(encode, items, out, start) for start in range(BLOCK, n, BLOCK)]

    def encode_rows(task) -> None:
        encode, items, out, start = task
        _write_rows(out, start, _encode_block(encode, items, start))

    threads = pool.on_pool(encode_rows, tasks)
    log.info(
        "encoded %d pairs in %.3f s, threads=%d", n, time.perf_counter() - start_time, threads
    )
    (tg, tf, tl), (vg, vf, vl) = outputs
    return (tg, tf), (vg, vf), Gallery(vg, vl), Gallery(tg, tl)


def _encode_block(encode, items: np.ndarray, start: int) -> list:
    with no_grad():
        parts = encode(items[start : start + BLOCK])
    return [t.data for t in parts]


def _write_rows(out, start: int, parts) -> None:
    for array, part in zip(out, parts):
        array[start : start + len(part)] = part
