"""Output checks, written against plain numpy and independent of the
ranking code they check.

Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def reference_scores(gallery_globals: np.ndarray, query_global: np.ndarray) -> np.ndarray:
    """Stage-1 scores: the dot product of each gallery row with the query, in [-1, 1]."""
    return np.clip(gallery_globals @ query_global, -1.0, 1.0)


def reference_rank(scores: np.ndarray, truth: int) -> int:
    """1-based rank of entry `truth`: entries scoring above it, plus ties at a lower index."""
    s = scores[truth]
    return 1 + int(np.count_nonzero(scores > s)) + int(np.count_nonzero(scores[:truth] == s))


def reference_order(scores: np.ndarray) -> np.ndarray:
    """Gallery indices by score descending, ties by ascending index."""
    return np.argsort(-scores, kind="stable")


def check_broad_ranks(ranks, query_globals, gallery_globals, truths) -> list[str]:
    """Check (a): broad-only ranks equal the reference count."""
    problems = []
    for rank, q, truth in zip(ranks, query_globals, truths):
        want = reference_rank(reference_scores(gallery_globals, q), int(truth))
        if int(rank) != want:
            problems.append(f"broad rank of item {truth} is {rank}, reference {want}")
    return problems


def check_two_stage_order(order, scores: np.ndarray, k: int) -> list[str]:
    """Check (b): `order` is a permutation of the gallery whose first k
    entries are the stage-1 top-k set and whose rest keeps stage-1 order."""
    order = np.asarray(order)
    n = len(scores)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        return ["ordering is not a permutation of the gallery"]
    ref = reference_order(scores)
    k = min(k, n)
    if not np.array_equal(np.sort(order[:k]), np.sort(ref[:k])):
        return ["re-ranked block is not the stage-1 top-k set"]
    if not np.array_equal(order[k:], ref[k:]):
        return ["entries below the re-ranked block left stage-1 order"]
    return []


def digest(*arrays) -> str:
    """Short hex digest of the arrays' bytes, to compare runs bit for bit."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]
