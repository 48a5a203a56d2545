"""Two-stage retrieval: broad-view scoring, top-k selection, focused-view
fusion and final score composition.

A ranking is one stage-1 order plus a permutation of its first k entries.
Stage 1 scores a chunk of queries against the whole gallery by dot product
of unit-normalized globals, and `select_top_k` orders every row of the chunk
with one `stage1_order` call, the only sort over the gallery. Stage 2
cross-attends the query's remaining indicators over the flattened local
tokens of the top-k candidates (with per-slot index embeddings on keys and
values), projects the fused indicators to k logits, and adds the scaled
logits to the stage-1 scores of the candidates. `compose_scores` re-sorts
each row's k-block of a chunk and keeps the rest of its stage-1 order;
broad-only ranking is that composition with zero deltas.

`focused_fuse` is the one fusion path, in training and at inference alike.
`rank_queries` is the one inference ranking path: it ranks its batch as one
chunk into one `FinalScores` of (Q, N) arrays. `evaluate_two_stage` cuts its
queries into chunks of `FUSION_CHUNK`; `rank_full` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .encoders import EncodedItem, _typed_array
from .errors import ConfigError, DimensionError, InputError
from .ops import Mlp, ParameterSet, kaiming_normal, scaled_dot_attention
from .rng import RandomStream
from .tensor import Tensor, as_tensor, no_grad, take

# Queries per `rank_queries` call in `evaluate_two_stage`: bounds its (Q, k*n, C) tokens.
FUSION_CHUNK = 64


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise InputError(f"{what} hold NaN or infinite values")


@dataclass
class Gallery:
    """Encoded candidates for one retrieval direction; an entry's id is its row index."""

    globals_: np.ndarray  # (N, C) unit rows
    locals_: np.ndarray   # (N, n, C)

    def __post_init__(self):
        self.globals_ = _typed_array(self.globals_, np.float64, "gallery globals")
        self.locals_ = _typed_array(self.locals_, np.float64, "gallery locals")
        if self.globals_.ndim != 2 or self.locals_.ndim != 3:
            raise DimensionError("gallery needs (N, C) globals and (N, n, C) locals")
        if len(self.globals_) == 0:
            raise InputError("gallery must hold at least one entry")
        if self.locals_.shape[0] != len(self.globals_):
            raise DimensionError("gallery arrays disagree on entry count")
        if self.globals_.shape[1] != self.locals_.shape[2]:
            raise DimensionError("gallery globals and locals disagree on width")
        _require_finite(self.globals_, "gallery globals")
        _require_finite(self.locals_, "gallery locals")


@dataclass
class FinalScores:
    """Final orderings plus per-entry score decompositions, gallery-aligned:
    (Q, N) arrays for a chunk of queries, or (N,) rows for one (`rank_full`)."""

    order: np.ndarray         # gallery indices, best first
    final_score: np.ndarray   # aligned to gallery order
    stage1_score: np.ndarray
    delta: np.ndarray         # zero outside the re-ranked block


def broad_view_scores(query_globals: np.ndarray, gallery: Gallery) -> np.ndarray:
    """Stage-1 scores of (Q, C) unit query globals, (Q, N), or of one (C,) query, (N,).

    One matrix product: a batch of one equals `gallery.globals_ @ q` bit for
    bit, a larger batch to rounding. Equal gallery rows may score an ulp apart.
    """
    query_globals = np.asarray(query_globals, dtype=np.float64)
    if query_globals.shape[-1:] != gallery.globals_.shape[1:]:
        raise DimensionError(f"query {query_globals.shape} vs gallery {gallery.globals_.shape}")
    scores = query_globals @ gallery.globals_.T
    # Unit vectors keep the dot in [-1, 1]; clip away float residue in place.
    return np.clip(scores, -1.0, 1.0, out=scores)


def stage1_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorting each row of (N,) or (Q, N) scores descending, ties by
    ascending index; one value sort for the whole array.

    Ties are equal computed scores (0.0 and -0.0 too). Each key is
    `0.0 - score` (both zeros become 0.0) with its low `(N-1).bit_length()`
    bits replaced by the entry's index, so one `np.sort` of the keys carries
    every row's order in their low bits. The bits above them, a finite key's
    high part, fix its sign, exponent and top mantissa bits: the keys sharing
    a high part fill a float interval that no other high part's keys enter
    (only index 0 packs to a zero), so they are neighbours after the sort. If
    no neighbours share a high part, all high parts differ and order the
    packed keys as the true keys, strictly: the sort is the row's unique
    order, equal to the stable one. A row with a clash (a tie, or keys that
    differ only in the index bits) or a non-finite score (whose packed key
    can be NaN) is sorted again by the stable `lexsort`. The result does not
    depend on the numpy version; the speed does (`np.sort` beats `argsort`).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2):
        raise DimensionError(f"stage-1 scores must be (N,) or (Q, N), not {scores.shape}")
    rows = np.atleast_2d(scores)
    n = rows.shape[1]
    low = (1 << max(n - 1, 0).bit_length()) - 1
    keys = np.subtract(0.0, rows)
    packed = keys.view(np.int64)
    packed &= ~low
    packed |= np.arange(n)
    keys.sort(axis=-1)
    high = packed & ~low
    # Any NaN or inf makes its row's sum non-finite; an overflow only costs a fallback.
    with np.errstate(invalid="ignore", over="ignore"):
        redo = ~np.isfinite(rows.sum(axis=-1))
    redo |= (high[:, 1:] == high[:, :-1]).any(axis=-1)
    packed &= low
    for row in np.flatnonzero(redo):
        packed[row] = np.lexsort((np.arange(n), -rows[row]))
    return packed.reshape(scores.shape)


def select_top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort the (N,) or (Q, N) scores once: each row's stage-1 order, and its
    first k entries, the candidates; k above N clamps to N."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise InputError(f"k must be an integer >= 1, not {k!r}")
    order = stage1_order(scores)
    return order, order[..., :k]


class FusionNetwork:
    """Focused-view fusion: one residual cross-attention block plus the delta head.

    `candidate_tokens`, for training and inference alike, flattens candidate
    locals to one key/value sequence of k*n tokens, each plus the index
    embedding of its candidate slot so the k output logits can be
    candidate-specific. Every parameter is named `fusion.*`, and by that
    name `training.AdamW` gives it the `lr_fusion` learning rate. The
    block's residual output projection (`fusion.block0.out_w`, `out_b`) and
    the delta scale are zero-initialized: the whole stage is a no-op on
    rankings at step 0.
    """

    def __init__(self, params: ParameterSet, cfg: RunConfig, rng: RandomStream):
        self.params = params
        self.cfg = cfg
        c = cfg.dim
        params.add("fusion.index_embedding", kaiming_normal(rng.child("index"), (cfg.k, c), c))
        params.add("fusion.block0.out_w", np.zeros((c, c)))
        params.add("fusion.block0.out_b", np.zeros(c))
        self.mlp = Mlp(
            params,
            "fusion.mlp",
            (cfg.indicator_count - 1) * c,
            cfg.mlp_hidden,
            cfg.k,
            rng.child("mlp"),
        )
        params.add("fusion.delta_scale", np.zeros(()))

    def candidate_tokens(self, locals_, cand_indices) -> Tensor:
        """(B, k'*n, C) tokens of rows `cand_indices[b]` of the (N, n, C) Tensor
        or ndarray locals, each plus the index embedding of its slot. While a
        graph is recorded (the embedding slice then requires a gradient) the
        sum is a graph node, for the gradients; without one (inference) the
        embedding is added in place into the fresh gather: the same sums
        without a second (B, k', n, C) array and its page faults."""
        tokens = take(locals_, cand_indices)
        if tokens.ndim != 4:
            raise DimensionError("candidate tokens need (N, n, C) locals and (B, k') indices")
        b, k_sel, n, c = tokens.shape
        if c != self.cfg.dim:
            raise DimensionError(f"candidate locals are {c} wide, the network {self.cfg.dim}")
        if k_sel > self.cfg.k:
            raise ConfigError(f"candidate count {k_sel} incompatible with network k {self.cfg.k}")
        slots = self.params["fusion.index_embedding"][:k_sel].reshape(1, k_sel, 1, self.cfg.dim)
        if slots.requires_grad:
            tokens = tokens + slots
        else:
            tokens.data += slots.data
        return tokens.reshape(b, k_sel * n, c)

    def fuse(
        self, indicators: Tensor, cand_tokens: Tensor, rng: RandomStream | None = None
    ) -> Tensor:
        """Run the residual cross-attention block over the candidate tokens.

        The attention logits are divided by `gumbel_temp`, in training and at
        inference alike. Gumbel noise from `rng` perturbs them when a stream
        is given; inference passes none.
        """
        if cand_tokens.shape[-2] == 0:
            raise InputError("focused fusion needs at least one candidate token")
        attended = scaled_dot_attention(
            indicators,
            cand_tokens,
            cand_tokens,
            temperature=self.cfg.gumbel_temp,
            rng=None if rng is None else rng.child("fusion-block", 0),
        )
        p = self.params
        return indicators + (attended @ p["fusion.block0.out_w"] + p["fusion.block0.out_b"])

    def project(self, fused: Tensor) -> Tensor:
        """Map (B, m-1, C) fused indicators to (B, k) delta-head logits, before `delta_scale`."""
        flat = fused.reshape(fused.shape[0], -1)
        expect = (self.cfg.indicator_count - 1) * self.cfg.dim
        if flat.shape[-1] != expect:
            raise ConfigError(
                f"fused indicators width {flat.shape[-1]} != network input {expect}"
            )
        return self.mlp(flat)


def focused_fuse(
    focus_indicators, locals_, cand_indices, net: FusionNetwork, rng: RandomStream | None = None
) -> Tensor:
    """Query b's (m-1, C) focus indicators attend over the tokens of its
    candidates, rows `cand_indices[b]` of the (N, n, C) locals: (B, m-1, C).
    The one fusion entry point: training passes Tensor locals and a Gumbel
    stream; `rank_queries` passes gallery ndarrays under `no_grad`, no stream."""
    return net.fuse(as_tensor(focus_indicators), net.candidate_tokens(locals_, cand_indices), rng)


def project_deltas(fused: Tensor, net: FusionNetwork) -> np.ndarray:
    """Numpy (Q, k) deltas for inference: `fusion.delta_scale` times `net.project`'s logits."""
    return (net.params["fusion.delta_scale"] * net.project(fused)).data


def compose_scores(
    order: np.ndarray, scores: np.ndarray, deltas: np.ndarray, include_stage1: bool = True
) -> FinalScores:
    """Compose a chunk's (Q, N) stage-1 orders and scores with (Q, k) deltas:
    refined = stage-1 + delta in each row's first k entries. Each block is
    re-sorted by refined score (ties by ascending gallery index) and occupies
    final ranks 1..k; the rest of the stage-1 order follows as is. The result's
    `stage1_score` is `scores`; no input is modified."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if (scores.ndim != 2 or order.shape != scores.shape or deltas.ndim != 2
            or len(deltas) != len(scores) or deltas.shape[1] > scores.shape[1]):
        raise DimensionError(f"{deltas.shape} deltas for {scores.shape} orders and scores")
    k = deltas.shape[1]
    block = order[:, :k]
    rows = np.arange(len(block))[:, None]
    refined = (scores[rows, block] if include_stage1 else 0.0) + deltas
    final_order = order.copy()
    final_order[:, :k] = block[rows, np.lexsort((block, -refined))]
    final_score = scores.copy()
    final_score[rows, block] = refined
    delta = np.zeros(scores.shape)
    delta[rows, block] = deltas
    return FinalScores(final_order, final_score, scores, delta)


def rank_full(query: EncodedItem, gallery: Gallery, net: FusionNetwork | None,
              k: int) -> FinalScores:
    """`rank_queries` on a batch of one; the result holds (N,) views of its rows."""
    final = rank_queries(query.global_vec[None], query.focus_indicators[None], gallery, net, k)
    return FinalScores(**{name: rows[0] for name, rows in vars(final).items()})


def rank_queries(
    query_globals: np.ndarray,
    query_focus: np.ndarray,
    gallery: Gallery,
    net: FusionNetwork | None,
    k: int,
) -> FinalScores:
    """Rank (Q, C) query globals against one gallery as one chunk, deterministically.

    One `broad_view_scores` product, one `select_top_k` sort and one
    `compose_scores` call; memory grows with Q·N. Without a network
    (`net=None`), or with one built without query indicators, every delta is
    zero: broad-only. Otherwise the (Q, m-1, C) focus indicators re-rank each
    block in one fusion call.
    """
    query_globals = np.asarray(query_globals, dtype=np.float64)
    if query_globals.ndim != 2:
        raise DimensionError("query globals must be (Q, C)")
    if len(query_globals) == 0:
        raise InputError("need at least one query to rank")
    _require_finite(query_globals, "query globals")
    if net is not None and not net.cfg.use_query_indicators:
        net = None  # no indicators, nothing to fuse: stage 1 ranks alone
    if net is not None:
        query_focus = np.asarray(query_focus, dtype=np.float64)
        if query_focus.ndim != 3:
            raise InputError("two-stage ranking needs (Q, m-1, C) query focus indicators")
        if len(query_focus) != len(query_globals):
            raise DimensionError("one set of focus indicators required per query")
        _require_finite(query_focus, "query focus indicators")

    with no_grad():
        scores = broad_view_scores(query_globals, gallery)
        order, block = select_top_k(scores, k)
        if net is None:
            deltas = np.zeros(block.shape)
        else:
            # An overflow in the attention (of 1/gumbel_temp, say) ends in NaN
            # deltas, which the check below reports without numpy's warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                fused = focused_fuse(query_focus, gallery.locals_, block, net)
                deltas = project_deltas(fused, net)[:, : block.shape[1]]
            _require_finite(deltas, f"re-ranking deltas at gumbel_temp={net.cfg.gumbel_temp!r}")
        return compose_scores(order, scores, deltas, net is None or net.cfg.use_stage1_scores)
