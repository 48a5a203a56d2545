"""Two-stage retrieval: broad-view scoring, top-k selection, focused-view
fusion and final score composition.

Stage 1 ranks the whole gallery by dot product of unit-normalized globals.
Stage 2 cross-attends the query's remaining indicators over the flattened
local tokens of the top-k candidates (with per-slot index embeddings on keys
and values), projects the fused indicators to k logits, and adds the scaled
logits to the stage-1 scores of the candidates. Re-ranking permutes the
top-k block only; everything below keeps its stage-1 order.

`rank_queries` is the one inference ranking path: it ranks a batch of
queries, fusing each chunk of them in one call. A single query is a batch
of one (`rank_full`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .encoders import EncodedItem
from .errors import ConfigError, DimensionError, InputError
from .ops import GROUP_FUSION, Mlp, ParameterSet, kaiming_normal, scaled_dot_attention
from .rng import RandomStream
from .tensor import Tensor, as_tensor, no_grad

SIDE_VIDEO = "video"
SIDE_TEXT = "text"


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise InputError(f"{what} hold NaN or infinite values")


@dataclass
class Gallery:
    """Encoded candidates for one retrieval direction."""

    ids: np.ndarray       # (N,) unique int64
    globals_: np.ndarray  # (N, C) unit rows
    locals_: np.ndarray   # (N, n, C)
    side: str             # SIDE_VIDEO for t2v, SIDE_TEXT for v2t

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.globals_ = np.asarray(self.globals_, dtype=np.float64)
        self.locals_ = np.asarray(self.locals_, dtype=np.float64)
        if self.side not in (SIDE_VIDEO, SIDE_TEXT):
            raise InputError(f"unknown gallery side {self.side!r}")
        if len(self.ids) == 0:
            raise InputError("gallery must hold at least one entry")
        if len(self.ids) != len(set(self.ids.tolist())):
            raise InputError("gallery ids must be unique")
        n = len(self.ids)
        if self.globals_.shape[0] != n or self.locals_.shape[0] != n:
            raise DimensionError("gallery arrays disagree on entry count")
        if self.globals_.ndim != 2 or self.locals_.ndim != 3:
            raise DimensionError("gallery needs (N, C) globals and (N, n, C) locals")
        if self.globals_.shape[1] != self.locals_.shape[2]:
            raise DimensionError("gallery globals and locals disagree on width")
        _require_finite(self.globals_, "gallery globals")
        _require_finite(self.locals_, "gallery locals")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class CandidateSet:
    """Top-k stage-1 candidates for one query."""

    indices: np.ndarray        # (k',) gallery indices, scores non-increasing
    stage1_scores: np.ndarray  # (k',)
    clamped: bool = False      # k exceeded the gallery size and was clamped
    locals_: np.ndarray | None = None  # (k', n, C) local tokens

    @property
    def k(self) -> int:
        return len(self.indices)


@dataclass
class FinalScores:
    """Final ordering plus per-entry score decomposition, gallery-aligned."""

    order: np.ndarray         # (N,) gallery indices, best first
    final_score: np.ndarray   # (N,) aligned to gallery order
    stage1_score: np.ndarray  # (N,)
    delta: np.ndarray         # (N,); zero outside the re-ranked block
    clamped: bool = False

    def ranked_ids(self, gallery: Gallery) -> np.ndarray:
        return gallery.ids[self.order]


def broad_view_scores(query_global: np.ndarray, gallery: Gallery) -> np.ndarray:
    """Stage-1 scores: dot product of the unit query global with every entry."""
    if len(gallery) == 0:
        raise InputError("cannot score an empty gallery")
    query_global = np.asarray(query_global, dtype=np.float64)
    if query_global.shape != (gallery.globals_.shape[1],):
        raise DimensionError(
            f"query width {query_global.shape} != gallery width {gallery.globals_.shape[1]}"
        )
    # Unit vectors keep the dot in [-1, 1]; clip away float residue.
    return np.clip(gallery.globals_ @ query_global, -1.0, 1.0)


def stage1_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending, ties broken by ascending index."""
    scores = np.asarray(scores)
    return np.lexsort((np.arange(len(scores)), -scores))


def select_top_k(scores: np.ndarray, k: int, gallery: Gallery | None = None) -> CandidateSet:
    """Pick the k best entries (score desc, ties by ascending index).

    k larger than the gallery clamps to N and sets the `clamped` flag.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if k < 1:
        raise InputError("k must be >= 1")
    clamped = k > n
    k = min(k, n)
    order = stage1_order(scores)[:k]
    locals_ = gallery.locals_[order] if gallery is not None else None
    return CandidateSet(order, scores[order], clamped, locals_)


class FusionNetwork:
    """Focused-view fusion: cross-attention blocks plus the delta head.

    Candidate locals are flattened to one key/value sequence of k*n tokens;
    each token gets the index embedding of its candidate slot so the k output
    logits can be candidate-specific. All parameters live in the `fusion`
    learning-rate group. Residual output projections and the delta scale are
    zero-initialized: the whole stage is a no-op on rankings at step 0.
    """

    def __init__(self, params: ParameterSet, cfg: RunConfig, rng: RandomStream):
        self.params = params
        self.cfg = cfg
        c = cfg.dim
        self.k = cfg.k
        self.blocks = cfg.fusion_blocks
        params.add(
            "fusion.index_embedding",
            kaiming_normal(rng.child("index"), (cfg.k, c), c),
            GROUP_FUSION,
        )
        for b in range(cfg.fusion_blocks):
            params.add(f"fusion.block{b}.out_w", np.zeros((c, c)), GROUP_FUSION)
            params.add(f"fusion.block{b}.out_b", np.zeros(c), GROUP_FUSION)
        self.mlp = Mlp(
            params,
            "fusion.mlp",
            (cfg.indicator_count - 1) * c,
            cfg.mlp_hidden,
            cfg.k,
            rng.child("mlp"),
            group=GROUP_FUSION,
            activation=cfg.activation,
        )
        params.add("fusion.delta_scale", np.zeros(()), GROUP_FUSION)

    def candidate_tokens(self, locals_, slot_count: int) -> Tensor:
        """Flatten (B, k', n, C) locals and add per-slot index embeddings."""
        locals_ = as_tensor(locals_)
        if locals_.ndim != 4:
            raise DimensionError("candidate locals must be (B, k', n, C)")
        b, k_sel, n, c = locals_.shape
        if k_sel != slot_count or k_sel > self.k:
            raise ConfigError(
                f"candidate count {k_sel} incompatible with network k {self.k}"
            )
        idx = self.params["fusion.index_embedding"][:k_sel].reshape(1, k_sel, 1, c)
        return (locals_ + idx).reshape(b, k_sel * n, c)

    def fuse(
        self,
        indicators: Tensor,
        cand_tokens: Tensor,
        rng: RandomStream | None = None,
        deterministic: bool = True,
    ) -> Tensor:
        """Run the residual cross-attention blocks over the candidate tokens.

        Gumbel noise perturbs the attention logits only when the config asks
        for it and `deterministic` is off; inference always runs deterministic.
        """
        if cand_tokens.shape[-2] == 0:
            raise InputError("focused fusion needs at least one candidate token")
        use_gumbel = self.cfg.use_gumbel
        for b in range(self.blocks):
            noise_rng = None
            if use_gumbel and not deterministic:
                if rng is None:
                    raise ConfigError("stochastic fusion requires a random stream")
                noise_rng = rng.child("fusion-block", b)
            attended = scaled_dot_attention(
                indicators,
                cand_tokens,
                cand_tokens,
                use_gumbel=use_gumbel,
                gumbel_temp=self.cfg.gumbel_temp,
                rng=noise_rng,
            )
            w = self.params[f"fusion.block{b}.out_w"]
            bias = self.params[f"fusion.block{b}.out_b"]
            indicators = indicators + (attended @ w + bias)
        return indicators

    def project(self, fused: Tensor) -> tuple[Tensor, Tensor]:
        """Map (B, m-1, C) fused indicators to (B, k) logits and deltas = delta_scale * logits."""
        flat = fused.reshape(fused.shape[0], -1)
        expect = (self.cfg.indicator_count - 1) * self.cfg.dim
        if flat.shape[-1] != expect:
            raise ConfigError(
                f"fused indicators width {flat.shape[-1]} != network input {expect}"
            )
        logits = self.mlp(flat)
        deltas = self.params["fusion.delta_scale"] * logits
        return logits, deltas


def focused_fuse(
    focus_indicators: np.ndarray,
    candidates: list[CandidateSet],
    net: FusionNetwork,
) -> Tensor:
    """Deterministic fusion of a batch: query q's (m-1, C) indicators attend
    over the local tokens of `candidates[q]`. Returns (Q, m-1, C)."""
    for cand in candidates:
        if cand.k == 0:
            raise InputError("empty candidate set")
        if cand.locals_ is None:
            raise InputError("candidate set has no local tokens attached")
    tokens = net.candidate_tokens(
        Tensor(np.stack([c.locals_ for c in candidates])), candidates[0].k
    )
    return net.fuse(Tensor(np.asarray(focus_indicators, dtype=np.float64)), tokens)


def project_deltas(fused: Tensor, net: FusionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Numpy (logits, deltas) of the delta head, both (Q, k), for inference."""
    logits, deltas = net.project(fused)
    return logits.data, deltas.data


def compose_scores(
    candidates: CandidateSet,
    deltas: np.ndarray,
    broad: np.ndarray,
    include_stage1: bool = True,
) -> FinalScores:
    """Eq-style composition: refined = stage-1 + delta inside the top-k block.

    The block is re-sorted by refined score (ties by ascending gallery index)
    and occupies final ranks 1..k; all other entries follow in stage-1 order.
    """
    broad = np.asarray(broad, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if len(deltas) != candidates.k:
        raise DimensionError(
            f"{len(deltas)} deltas for {candidates.k} candidates"
        )
    n = len(broad)
    refined = (candidates.stage1_scores if include_stage1 else 0.0) + deltas
    block_sort = np.lexsort((candidates.indices, -refined))
    block = candidates.indices[block_sort]

    full_order = stage1_order(broad)
    in_block = np.zeros(n, dtype=bool)
    in_block[candidates.indices] = True
    remainder = full_order[~in_block[full_order]]
    order = np.concatenate([block, remainder])

    final_score = broad.copy()
    delta_full = np.zeros(n)
    final_score[candidates.indices] = refined
    delta_full[candidates.indices] = deltas
    return FinalScores(order, final_score, broad.copy(), delta_full, candidates.clamped)


def rank_full(query: EncodedItem, gallery: Gallery, net: FusionNetwork, k: int) -> FinalScores:
    """Full two-stage ranking of one query: `rank_queries` on a batch of one."""
    return rank_queries(query.global_vec[None], query.focus_indicators[None], gallery, net, k)[0]


def rank_broad_only(query_global: np.ndarray, gallery: Gallery) -> FinalScores:
    """Stage-1-only ranking (no fusion, zero deltas)."""
    broad = broad_view_scores(query_global, gallery)
    return FinalScores(
        stage1_order(broad), broad.copy(), broad.copy(), np.zeros(len(broad))
    )


def rank_queries(
    query_globals: np.ndarray,
    query_focus: np.ndarray | None,
    gallery: Gallery,
    net: FusionNetwork | None,
    k: int,
    mode: str = "two-stage",
    chunk: int = 64,
) -> list[FinalScores]:
    """Rank (Q, C) query globals against one gallery, deterministically.

    Broad-only mode, or no network, ranks by stage-1 scores alone. Two-stage
    mode needs the (Q, m-1, C) focus indicators and fuses `chunk` queries per
    call. Stage-1 scores are one matrix-vector product per query, so they
    equal `gallery.globals_ @ q` bit for bit.
    """
    if mode not in ("broad-only", "two-stage"):
        raise InputError(f"unknown mode {mode!r}")
    query_globals = np.asarray(query_globals, dtype=np.float64)
    if query_globals.ndim != 2:
        raise DimensionError("query globals must be (Q, C)")
    _require_finite(query_globals, "query globals")
    if mode == "broad-only" or net is None:
        return [rank_broad_only(q, gallery) for q in query_globals]
    if query_focus is None:
        raise InputError("two-stage ranking needs query focus indicators")
    query_focus = np.asarray(query_focus, dtype=np.float64)
    if len(query_focus) != len(query_globals):
        raise DimensionError("one set of focus indicators required per query")
    _require_finite(query_focus, "query focus indicators")

    results: list[FinalScores] = []
    with no_grad():
        for start in range(0, len(query_globals), chunk):
            broads = [broad_view_scores(q, gallery) for q in query_globals[start : start + chunk]]
            cands = [select_top_k(broad, k, gallery) for broad in broads]
            fused = focused_fuse(query_focus[start : start + chunk], cands, net)
            _, deltas = project_deltas(fused, net)
            for broad, cand, delta in zip(broads, cands, deltas):
                results.append(
                    compose_scores(
                        cand, delta[: cand.k], broad, include_stage1=net.cfg.use_stage1_scores
                    )
                )
    return results
