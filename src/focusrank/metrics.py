"""Retrieval metrics: recall at 1/5/10, median rank and mean rank, computed
from final orderings for either retrieval direction and either stage.

An item's id is its gallery row index, so orderings and truth are indices."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import pool
from .errors import InputError
from .pipeline import FUSION_CHUNK, FinalScores, Gallery, rank_queries

log = logging.getLogger(__name__)


@dataclass
class MetricsReport:
    """One direction's and stage's recall at 1/5/10 in %, median and mean rank.
    `scores()` gives them in the order of their CSV column names `COLUMNS`."""

    r1: float
    r5: float
    r10: float
    mdr: float
    mnr: float
    direction: str = ""
    stage: str = ""

    COLUMNS = ("R@1", "R@5", "R@10", "MdR", "MnR")

    def scores(self) -> tuple[float, ...]:
        return (self.r1, self.r5, self.r10, self.mdr, self.mnr)


def compute_ranks(orders: np.ndarray, truth_ids) -> np.ndarray:
    """1-based rank of each query's true item in its row of the (Q, N) final
    orders of gallery indices: one comparison and one `argmax` for the chunk."""
    try:
        orders = np.asarray(orders)
    except ValueError as exc:  # ragged rows
        raise InputError("orders must be one (Q, N) array") from exc
    if orders.ndim != 2 or orders.shape[1] == 0:
        raise InputError(f"orders must be (Q, N) with N >= 1, not {orders.shape}")
    truth = np.asarray(truth_ids)
    if truth.shape != orders.shape[:1]:
        raise InputError("one truth id required per query")
    hits = orders == truth[:, None]
    ranks = hits.argmax(axis=1)
    missing = ~hits[np.arange(len(ranks)), ranks]
    if missing.any():
        raise InputError(f"truth id {truth[missing][0]} not present in gallery ordering")
    return ranks.astype(np.int64) + 1


def summarize(ranks: np.ndarray, direction: str = "", stage: str = "") -> MetricsReport:
    """R@k = 100 * |ranks <= k| / Q; MdR uses midpoint averaging for even Q."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise InputError("need at least one rank")
    q = ranks.size

    def recall(k: int) -> float:
        return 100.0 * int((ranks <= k).sum()) / q

    return MetricsReport(
        recall(1),
        recall(5),
        recall(10),
        float(np.median(ranks)),
        float(ranks.mean()),
        direction,
        stage,
    )


def evaluate_two_stage(
    text_queries,
    video_gallery: Gallery,
    video_queries,
    text_gallery: Gallery,
    net,
    k: int,
    mode: str = "two-stage",
    truth_t2v: list[int] | None = None,
    truth_v2t: list[int] | None = None,
) -> dict[str, MetricsReport]:
    """Rank every query in both directions and summarize; returns the "t2v"
    and "v2t" reports, labelled with `mode`.

    `mode` is "broad-only" (stage 1 alone, `net` unused) or "two-stage"
    (`net` re-ranks as `rank_queries` decides). `text_queries` /
    `video_queries` are (globals, focus_indicators) array pairs; truth
    defaults to index-aligned pairing (query i's true item is gallery entry i);
    a direction without queries, or an id outside [0, N), raises first.

    The queries are ranked `FUSION_CHUNK` at a time, so only one chunk's
    rankings are held, whatever the query count. For each chunk the two
    directions are `rank_queries` calls that run at once on the block pool
    (`pool.on_pool`). Their ranks are then computed in the calling thread,
    t2v first, so the results are the same on any number of cores.
    """
    start_time = time.perf_counter()
    if mode not in ("broad-only", "two-stage"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "broad-only":
        net = None
    directions = []
    for direction, (globals_, focus), gallery, truth in (
        ("t2v", text_queries, video_gallery, truth_t2v),
        ("v2t", video_queries, text_gallery, truth_v2t),
    ):
        if len(globals_) == 0:
            raise InputError(f"no {direction} queries to rank")
        truth = np.asarray(range(len(globals_)) if truth is None else truth)
        if len(truth) != len(globals_):
            raise InputError("one truth id required per query")
        size = len(gallery.globals_)
        if truth.dtype.kind not in "iu" or truth.min() < 0 or truth.max() >= size:
            raise InputError(f"{direction} truth ids must be integers in [0, {size})")
        if np.ndim(focus) != 3 or len(focus) != len(globals_):
            raise InputError("one (m-1, C) set of focus indicators required per query")
        directions.append((direction, globals_, focus, gallery, truth))
    ranks = {direction: np.empty(len(globals_), dtype=np.int64)
             for direction, globals_, *_ in directions}
    finals: dict[str, FinalScores] = {}

    def rank(task) -> None:
        (direction, globals_, focus, gallery, _), rows = task
        finals[direction] = rank_queries(globals_[rows], focus[rows], gallery, net, k)

    threads = 0
    for start in range(0, max(map(len, ranks.values())), FUSION_CHUNK):
        rows = slice(start, start + FUSION_CHUNK)
        tasks = [d for d in directions if start < len(d[1])]
        threads = max(threads, pool.on_pool(rank, [(d, rows) for d in tasks]))
        for direction, *_, truth in tasks:
            ranks[direction][rows] = compute_ranks(finals.pop(direction).order, truth[rows])
    log.info(
        "evaluated %s on %d t2v and %d v2t queries in %.3f s, threads=%d",
        mode, len(text_queries[0]), len(video_queries[0]), time.perf_counter() - start_time,
        threads,
    )
    return {direction: summarize(r, direction, mode) for direction, r in ranks.items()}
