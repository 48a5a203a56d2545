"""Rank computation and the R@k / MdR / MnR summary."""

import numpy as np
import pytest

from focusrank.config import default_config
from focusrank.errors import InputError
from focusrank.metrics import compute_ranks, evaluate_two_stage, summarize
from focusrank.ops import ParameterSet
from focusrank.pipeline import SIDE_VIDEO, FusionNetwork, Gallery
from focusrank.rng import RandomStream

RNG = np.random.default_rng(53)


def rank_oracle(ordering, truth):
    """Linear scan: 1 + number of entries strictly ahead of the true item."""
    ahead = 0
    for candidate in ordering:
        if candidate == truth:
            return ahead + 1
        ahead += 1
    raise AssertionError("truth missing")


def summary_oracle(ranks):
    ranks = sorted(ranks)
    q = len(ranks)
    recalls = [100.0 * sum(1 for r in ranks if r <= k) / q for k in (1, 5, 10)]
    mid = q // 2
    mdr = float(ranks[mid]) if q % 2 else (ranks[mid - 1] + ranks[mid]) / 2.0
    return recalls, mdr, sum(ranks) / q


class TestComputeRanks:
    def test_perfect_retrieval(self):
        orderings = [np.array([7, 3, 5]), np.array([2, 9, 1])]
        ranks = compute_ranks(orderings, [7, 2])
        np.testing.assert_array_equal(ranks, [1, 1])

    def test_true_item_last(self):
        ranks = compute_ranks([np.array([4, 5, 6])], [6])
        assert ranks[0] == 3

    def test_matches_scan_oracle(self):
        for _ in range(500):
            n = int(RNG.integers(2, 40))
            ordering = RNG.permutation(n) + 100
            truth = int(ordering[RNG.integers(0, n)])
            got = compute_ranks([ordering], [truth])[0]
            assert got == rank_oracle(ordering.tolist(), truth)

    def test_missing_truth_rejected(self):
        with pytest.raises(InputError):
            compute_ranks([np.array([1, 2, 3])], [9])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InputError):
            compute_ranks([np.array([1])], [1, 2])


class TestSummarize:
    def test_perfect(self):
        report = summarize(np.ones(8, dtype=int))
        assert (report.r1, report.r5, report.r10) == (100.0, 100.0, 100.0)
        assert report.mdr == 1.0 and report.mnr == 1.0

    def test_two_query_arithmetic(self):
        report = summarize(np.array([1, 3]))
        assert report.r1 == 50.0
        assert report.r5 == 100.0
        assert report.mdr == 2.0
        assert report.mnr == 2.0

    def test_matches_sort_oracle_including_even_medians(self):
        for _ in range(1000):
            q = int(RNG.integers(1, 30))
            ranks = RNG.integers(1, 50, size=q)
            report = summarize(ranks)
            (r1, r5, r10), mdr, mnr = summary_oracle(ranks.tolist())
            assert (report.r1, report.r5, report.r10) == (r1, r5, r10)
            assert report.mdr == mdr
            assert report.mnr == pytest.approx(mnr, abs=1e-12)

    def test_recall_monotonic(self):
        for _ in range(100):
            ranks = RNG.integers(1, 60, size=int(RNG.integers(1, 20)))
            report = summarize(ranks)
            assert report.r1 <= report.r5 <= report.r10 <= 100.0
            assert report.mdr >= 1.0 and report.mnr >= 1.0

    def test_permutation_invariant(self):
        ranks = RNG.integers(1, 30, size=11)
        a = summarize(ranks)
        b = summarize(ranks[RNG.permutation(11)])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            summarize(np.array([], dtype=int))


def test_rank_invariant_under_increasing_transform():
    # Ranks come from orderings; any strictly increasing transform of the
    # scores produces the same ordering, hence the same rank.
    from focusrank.pipeline import stage1_order

    scores = RNG.normal(size=25)
    base = stage1_order(scores)
    for transform in (lambda s: 3 * s + 1, np.tanh, lambda s: s**3):
        np.testing.assert_array_equal(stage1_order(transform(scores)), base)


def test_two_stage_evaluation_without_focus_rejected():
    cfg = default_config()
    cfg.dim, cfg.k, cfg.mlp_hidden = 8, 4, 16
    net = FusionNetwork(ParameterSet(), cfg.validate(), RandomStream(0))
    globals_ = RNG.normal(size=(6, 8))
    globals_ /= np.linalg.norm(globals_, axis=1, keepdims=True)
    gallery = Gallery(np.arange(6), globals_, RNG.normal(size=(6, 2, 8)), SIDE_VIDEO)
    with pytest.raises(InputError):
        evaluate_two_stage((globals_, None), gallery, net=net, k=4)
