"""Rank computation, the R@k / MdR / MnR summary and two-direction evaluation."""

import logging
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from focusrank import metrics
from focusrank.config import RunConfig
from focusrank.data import build_galleries, generate_synthetic_pairs
from focusrank.errors import InputError
from focusrank.metrics import compute_ranks, evaluate_two_stage, summarize
from focusrank.model import RetrievalModel
from focusrank.ops import ParameterSet
from focusrank.pipeline import FUSION_CHUNK, FusionNetwork, Gallery, rank_queries
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
        orders = np.array([[0, 1, 2], [2, 1, 0], [1, 0, 2]])
        with pytest.raises(InputError, match="truth id 7 not present"):
            compute_ranks(orders, [2, 7, 0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InputError):
            compute_ranks([np.array([1])], [1, 2])

    def test_chunk_matches_per_row_scan(self):
        # The per-row `np.nonzero` scan that a (Q, N) chunk's one comparison replaced.
        rng = np.random.default_rng(59)
        orders = np.stack([rng.permutation(4096) for _ in range(64)])
        truth = rng.integers(0, 4096, size=64)
        expected = [np.nonzero(row == t)[0][0] + 1 for row, t in zip(orders, truth, strict=True)]
        ranks = compute_ranks(orders, truth)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, expected)

    @pytest.mark.parametrize("orders", [
        [np.array([1, 2, 3]), np.array([1, 2])],
        np.array([1, 2, 3]),
        np.zeros((2, 3, 1), dtype=int),
    ], ids=["ragged", "1-D", "3-D"])
    def test_orders_must_be_one_chunk(self, orders):
        with pytest.raises(InputError, match="orders must be"):
            compute_ranks(orders, [1, 2])


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
    cfg = RunConfig()
    cfg.dim, cfg.k, cfg.mlp_hidden = 8, 4, 16
    net = FusionNetwork(ParameterSet(), cfg.validate(), RandomStream(0))
    globals_ = RNG.normal(size=(6, 8))
    globals_ /= np.linalg.norm(globals_, axis=1, keepdims=True)
    gallery = Gallery(globals_, RNG.normal(size=(6, 2, 8)))
    with pytest.raises(InputError):
        evaluate_two_stage((globals_, None), gallery, (globals_, None), gallery, net=net, k=4)


def test_model_without_indicators_evaluates_by_stage1():
    # Its encoders give width-0 focus indicators, and its network re-ranks nothing.
    cfg = RunConfig(dim=16, layers=1, vocab_size=64, text_len=6, patch_count=4, patch_dim=16,
                    frame_count=2, mlp_hidden=16, k=3, pair_count=12, cohort_size=3,
                    latent_dim=6, use_query_indicators=False).validate()
    model = RetrievalModel(cfg)
    text_q, video_q, videos, texts = build_galleries(model, generate_synthetic_pairs(cfg))
    assert text_q[1].shape == video_q[1].shape == (cfg.pair_count, 0, cfg.dim)
    for mode in ("broad-only", "two-stage"):
        got = evaluate_two_stage(text_q, videos, video_q, texts, model.fusion, cfg.k, mode=mode)
        assert got == evaluate_two_stage(text_q, videos, video_q, texts, None, cfg.k, mode=mode)


def test_unknown_mode_rejected():
    globals_ = RNG.normal(size=(3, 8))
    globals_ /= np.linalg.norm(globals_, axis=1, keepdims=True)
    gallery = Gallery(globals_, RNG.normal(size=(3, 2, 8)))
    with pytest.raises(InputError):
        evaluate_two_stage((globals_, None), gallery, (globals_, None), gallery, None, 4,
                           mode="focused")


@pytest.mark.parametrize("bad", [
    ({"truth_t2v": [0, 1, 5]}, r"t2v truth ids must be integers in \[0, 3\)"),
    ({"truth_v2t": [0, -1, 2]}, r"v2t truth ids must be integers in \[0, 3\)"),
    ({"truth_t2v": [0.0, 1.0, 2.0]}, r"t2v truth ids must be integers in \[0, 3\)"),
    ({"truth_v2t": [True, False, True]}, r"v2t truth ids must be integers in \[0, 3\)"),
    ({"text_queries": (np.zeros((0, 8)), np.zeros((0, 0, 8)))}, "no t2v queries to rank"),
    ({"truth_v2t": [0, 1]}, "one truth id required per query"),
])
def test_truth_outside_gallery_rejected_before_ranking(monkeypatch, bad):
    overrides, match = bad
    globals_ = RNG.normal(size=(3, 8))
    globals_ /= np.linalg.norm(globals_, axis=1, keepdims=True)
    gallery = Gallery(globals_, RNG.normal(size=(3, 2, 8)))
    queries = (globals_, np.zeros((3, 0, 8)))
    calls = []
    monkeypatch.setattr(metrics, "rank_queries", lambda *args: calls.append(args))
    with pytest.raises(InputError, match=match):
        evaluate_two_stage(**{"text_queries": queries, "video_gallery": gallery,
                              "video_queries": queries, "text_gallery": gallery,
                              "net": None, "k": 2, **overrides})
    assert calls == []


def random_evaluation_inputs(cfg, t2v_queries, v2t_queries, gallery_size, seed):
    """Random (t2v queries, video gallery, v2t queries, text gallery) of
    `cfg`'s shapes, and a fusion network whose zero-initialised parameters
    hold random values, so that re-ranking moves candidates."""
    rng = np.random.default_rng(seed)

    def unit(n):
        x = rng.normal(size=(n, cfg.dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def queries(n):
        return unit(n), rng.normal(size=(n, cfg.indicator_count - 1, cfg.dim))

    inputs = (
        queries(t2v_queries),
        Gallery(unit(gallery_size), rng.normal(size=(gallery_size, cfg.patch_count, cfg.dim))),
        queries(v2t_queries),
        Gallery(unit(gallery_size), rng.normal(size=(gallery_size, cfg.text_len, cfg.dim))),
    )
    net = FusionNetwork(ParameterSet(), cfg, RandomStream(seed))
    for name in net.params.names():
        if name.endswith(("out_w", "out_b", "delta_scale")):
            net.params[name].data = rng.normal(size=net.params[name].data.shape, scale=0.5)
    return inputs, net


@pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
def test_evaluation_ranks_a_chunk_at_a_time(monkeypatch, mode):
    # Directions of different lengths, and truth that is not the query index.
    cfg = RunConfig(dim=8, k=4, mlp_hidden=16, patch_count=3, text_len=5).validate()
    counts = {"t2v": 2 * FUSION_CHUNK + 2, "v2t": FUSION_CHUNK - 5}
    (text_q, videos, video_q, texts), net = random_evaluation_inputs(
        cfg, counts["t2v"], counts["v2t"], gallery_size=150, seed=3)
    rng = np.random.default_rng(4)
    truth = {d: rng.permutation(150)[:count].tolist() for d, count in counts.items()}
    sizes = []

    def recording(globals_, *args):
        sizes.append(len(globals_))
        return rank_queries(globals_, *args)

    monkeypatch.setattr(metrics, "rank_queries", recording)
    got = evaluate_two_stage(text_q, videos, video_q, texts, net, cfg.k, mode=mode,
                             truth_t2v=truth["t2v"], truth_v2t=truth["v2t"])
    assert max(sizes) <= FUSION_CHUNK and sum(sizes) == sum(counts.values())
    network = net if mode == "two-stage" else None
    for direction, (globals_, focus), gallery in (("t2v", text_q, videos), ("v2t", video_q, texts)):
        final = rank_queries(globals_, focus, gallery, network, cfg.k)
        ranks = compute_ranks(final.order, truth[direction])
        assert got[direction] == summarize(ranks, direction, mode)


@pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
def test_evaluation_memory_does_not_grow_with_every_query(mode):
    # Holding every query's four (N,) arrays peaks at 26-31 MB here.
    cfg = RunConfig().validate()
    (text_q, videos, video_q, texts), net = random_evaluation_inputs(cfg, 640, 640, 640, seed=5)
    tracemalloc.start()
    try:
        evaluate_two_stage(text_q, videos, video_q, texts, net, cfg.k, mode=mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15e6


class TestConcurrentEvaluation:
    """`evaluate_two_stage` ranks each chunk's two directions at once on the
    block pool, then computes the chunk's ranks in the calling thread, t2v
    first."""

    QUERIES = 80  # two fusion chunks per direction, the second one short
    CHUNKS = 2

    @pytest.fixture(scope="class")
    def inputs(self):
        cfg = RunConfig(dim=16, layers=1, vocab_size=64, text_len=6, patch_count=4,
                        patch_dim=16, frame_count=2, mlp_hidden=16, k=3,
                        pair_count=self.QUERIES, cohort_size=4, latent_dim=6).validate()
        model = RetrievalModel(cfg)
        rng = np.random.default_rng(7)
        for name in model.params.names():  # zero-initialised: deltas would be zero
            if name.endswith(("out_w", "out_b", "delta_scale")):
                model.params[name].data = rng.normal(size=model.params[name].data.shape, scale=0.5)
        text_q, video_q, videos, texts = build_galleries(model, generate_synthetic_pairs(cfg))
        return (text_q, videos, video_q, texts), model.fusion, cfg.k

    @staticmethod
    def evaluate(monkeypatch, cores, inputs, mode, rank_queries=metrics.rank_queries):
        """Reports, each direction's chunk `FinalScores` per `rank_queries`
        call, and the (thread, orders) of every `compute_ranks` call, with
        `cores` usable cores."""
        (text_q, videos, video_q, texts), net, k = inputs
        chunks, rank_calls = {"t2v": [], "v2t": []}, []
        compute_ranks = metrics.compute_ranks

        def recording_rank(globals_, focus, gallery, *args):
            ranked = rank_queries(globals_, focus, gallery, *args)
            chunks["t2v" if gallery is videos else "v2t"].append(ranked)
            return ranked

        def recording_compute(ranked_ids, truth_ids):
            rank_calls.append((threading.get_ident(), ranked_ids))
            return compute_ranks(ranked_ids, truth_ids)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(metrics, "rank_queries", recording_rank)
        monkeypatch.setattr(metrics, "compute_ranks", recording_compute)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reports = metrics.evaluate_two_stage(text_q, videos, video_q, texts, net, k, mode=mode)
        finally:
            sys.setswitchinterval(interval)
        return reports, chunks, rank_calls

    @staticmethod
    def orders(chunks, direction):
        return np.concatenate([chunk.order for chunk in chunks[direction]])

    @pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
    def test_same_bits_on_one_and_four_cores(self, monkeypatch, inputs, mode):
        one, one_chunks, _ = self.evaluate(monkeypatch, 1, inputs, mode)
        many, many_chunks, _ = self.evaluate(monkeypatch, 4, inputs, mode)
        assert one == many
        for direction in ("t2v", "v2t"):
            assert len(one_chunks[direction]) == self.CHUNKS
            assert len(self.orders(one_chunks, direction)) == self.QUERIES
            for a, b in zip(one_chunks[direction], many_chunks[direction], strict=True):
                assert a.order.tobytes() == b.order.tobytes()
                assert a.final_score.tobytes() == b.final_score.tobytes()
        if mode == "two-stage":  # the network reorders candidate blocks
            _, broad, _ = self.evaluate(monkeypatch, 1, inputs, "broad-only")
            _, _, k = inputs
            assert not np.array_equal(self.orders(one_chunks, "t2v")[:, :k],
                                      self.orders(broad, "t2v")[:, :k])

    @pytest.mark.parametrize("cores", [1, 4])
    def test_ranks_computed_in_the_calling_thread_t2v_first(self, monkeypatch, inputs, cores):
        _, chunks, rank_calls = self.evaluate(monkeypatch, cores, inputs, "two-stage")
        assert [thread for thread, _ in rank_calls] == [threading.get_ident()] * 2 * self.CHUNKS
        expected = [chunks[d][c] for c in range(self.CHUNKS) for d in ("t2v", "v2t")]
        for (_, ranked_ids), chunk in zip(rank_calls, expected, strict=True):
            assert ranked_ids is chunk.order  # not copied on the way

    def test_helper_thread_ranks_a_direction_on_four_cores(self, monkeypatch, inputs):
        threads = []
        both_running = threading.Barrier(2, timeout=30)  # broken if the directions run in turn
        rank_queries = metrics.rank_queries

        def meeting(*args):
            both_running.wait()
            threads.append(threading.get_ident())
            return rank_queries(*args)

        self.evaluate(monkeypatch, 4, inputs, "two-stage", rank_queries=meeting)
        pairs = [threads[i : i + 2] for i in range(0, len(threads), 2)]
        assert len(pairs) == self.CHUNKS
        assert all(len(set(pair)) == 2 and threading.get_ident() in pair for pair in pairs)

    @pytest.mark.parametrize("cores", [1, 4])
    def test_logs_time_and_threads(self, monkeypatch, inputs, caplog, cores):
        caplog.set_level(logging.INFO, logger="focusrank.metrics")
        self.evaluate(monkeypatch, cores, inputs, "broad-only")
        (message,) = [r.getMessage() for r in caplog.records if r.name == "focusrank.metrics"]
        assert re.fullmatch(rf"evaluated broad-only on {self.QUERIES} t2v and {self.QUERIES} "
                            rf"v2t queries in \d+\.\d{{3}} s, threads={min(cores, 2)}", message)
