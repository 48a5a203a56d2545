"""Retrieval metrics: recall at 1/5/10, median rank and mean rank, computed
from final orderings for either retrieval direction and either stage."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .pipeline import Gallery, rank_queries


@dataclass
class MetricsReport:
    r1: float
    r5: float
    r10: float
    mdr: float
    mnr: float
    direction: str = ""
    stage: str = ""

    CSV_HEADER = ("direction", "stage", "R@1", "R@5", "R@10", "MdR", "MnR")

    def csv_row(self) -> tuple:
        return (self.direction, self.stage, self.r1, self.r5, self.r10, self.mdr, self.mnr)


def compute_ranks(ranked_ids: list[np.ndarray], truth_ids: list[int]) -> np.ndarray:
    """1-based rank of the true item in each query's final ordering."""
    if len(ranked_ids) != len(truth_ids):
        raise InputError("one truth id required per query")
    ranks = np.empty(len(truth_ids), dtype=np.int64)
    for i, (ordering, truth) in enumerate(zip(ranked_ids, truth_ids)):
        hits = np.nonzero(np.asarray(ordering) == truth)[0]
        if hits.size == 0:
            raise InputError(f"truth id {truth} not present in gallery ordering")
        ranks[i] = hits[0] + 1
    return ranks


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
    video_queries=None,
    text_gallery: Gallery | None = None,
    net=None,
    k: int = 10,
    mode: str = "two-stage",
    truth_t2v: list[int] | None = None,
    truth_v2t: list[int] | None = None,
) -> dict[str, MetricsReport]:
    """Rank every query (stage-1 only, or the full two-stage path) and
    summarize. The v2t direction is reported when a text gallery is supplied.

    `text_queries` / `video_queries` are (globals, focus_indicators) array
    pairs; truth defaults to index-aligned pairing (query i's true item is
    gallery entry i's id).
    """
    directions = [("t2v", text_queries, video_gallery, truth_t2v)]
    if video_queries is not None and text_gallery is not None:
        directions.append(("v2t", video_queries, text_gallery, truth_v2t))
    reports: dict[str, MetricsReport] = {}
    for direction, (globals_, focus), gallery, truth in directions:
        if truth is None:
            truth = gallery.ids[: len(globals_)].tolist()
        finals = rank_queries(globals_, focus, gallery, net, k, mode)
        ranks = compute_ranks([f.ranked_ids(gallery) for f in finals], truth)
        reports[direction] = summarize(ranks, direction, mode)
    return reports
