"""Two-stage retrieval pipeline: scoring, selection, fusion, composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank.config import default_config
from focusrank.encoders import EncodedItem
from focusrank.errors import DimensionError, InputError
from focusrank.ops import ParameterSet
from focusrank.pipeline import (
    SIDE_VIDEO,
    CandidateSet,
    FusionNetwork,
    Gallery,
    broad_view_scores,
    compose_scores,
    focused_fuse,
    project_deltas,
    rank_broad_only,
    rank_full,
    rank_queries,
    select_top_k,
    stage1_order,
)
from focusrank.rng import RandomStream
from focusrank.tensor import Tensor

RNG = np.random.default_rng(31)


def unit_rows(n, c, rng=RNG):
    x = rng.normal(size=(n, c))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_gallery(n=12, c=8, n_local=3, rng=RNG):
    return Gallery(
        np.arange(n), unit_rows(n, c, rng), rng.normal(size=(n, n_local, c)), SIDE_VIDEO
    )


def make_net(cfg=None, seed=0, randomize=False):
    if cfg is None:
        cfg = default_config()
        cfg.dim = 8
        cfg.indicator_count = 4
        cfg.k = 4
        cfg.mlp_hidden = 16
        cfg.validate()
    params = ParameterSet()
    net = FusionNetwork(params, cfg, RandomStream(seed).child("net"))
    if randomize:
        rng = np.random.default_rng(seed + 1)
        for name in params.names():
            if name.endswith(("out_w", "out_b", "delta_scale")):
                t = params[name]
                t.data = rng.normal(size=t.data.shape, scale=0.5)
    return net


def compose_oracle(scores, cand_indices, deltas, include_stage1=True):
    """Brute force: add deltas, sort the block, append the stage-1 remainder."""
    refined = [
        ((scores[i] if include_stage1 else 0.0) + d, i)
        for i, d in zip(cand_indices, deltas)
    ]
    block = [i for _, i in sorted(refined, key=lambda t: (-t[0], t[1]))]
    rest = [
        i
        for i, _ in sorted(enumerate(scores), key=lambda t: (-t[1], t[0]))
        if i not in set(cand_indices)
    ]
    return np.array(block + rest)


class TestBroadViewScores:
    def test_orthonormal_construction(self):
        globals_ = np.eye(6)
        gallery = Gallery(np.arange(6), globals_, np.zeros((6, 2, 6)), SIDE_VIDEO)
        scores = broad_view_scores(globals_[3], gallery)
        np.testing.assert_array_equal(scores, [0, 0, 0, 1, 0, 0])

    def test_single_entry(self):
        gallery = make_gallery(n=1)
        q = unit_rows(1, 8)[0]
        scores = broad_view_scores(q, gallery)
        assert scores.shape == (1,)
        assert abs(scores[0] - q @ gallery.globals_[0]) < 1e-15

    def test_matches_dot_loop_oracle(self):
        gallery = make_gallery(n=64)
        q = unit_rows(1, 8)[0]
        scores = broad_view_scores(q, gallery)
        expected = np.array([np.dot(q, g) for g in gallery.globals_])
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        assert np.all(scores >= -1) and np.all(scores <= 1)

    def test_empty_gallery_rejected(self):
        with pytest.raises(InputError):
            Gallery(np.array([], dtype=np.int64), np.zeros((0, 4)), np.zeros((0, 1, 4)), SIDE_VIDEO)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            broad_view_scores(np.ones(5), make_gallery(c=8))


class TestSelectTopK:
    def test_tie_broken_by_lower_index(self):
        cands = select_top_k(np.array([0.9, 0.1, 0.9, 0.5]), 2)
        np.testing.assert_array_equal(cands.indices, [0, 2])
        assert not cands.clamped

    def test_full_selection_is_sorted_order(self):
        scores = RNG.normal(size=9)
        cands = select_top_k(scores, 9)
        np.testing.assert_array_equal(cands.indices, stage1_order(scores))

    def test_matches_sort_oracle(self):
        for _ in range(1000):
            scores = RNG.normal(size=RNG.integers(10, 40))
            k = int(RNG.integers(1, 11))
            cands = select_top_k(scores, k)
            expected = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
            np.testing.assert_array_equal(cands.indices, expected)
            assert np.all(np.diff(cands.stage1_scores) <= 0)

    def test_clamps_and_flags(self):
        cands = select_top_k(np.array([0.3, 0.1]), 5)
        assert cands.clamped and cands.k == 2

    def test_attaches_gallery_locals(self):
        gallery = make_gallery(n=6)
        scores = broad_view_scores(unit_rows(1, 8)[0], gallery)
        cands = select_top_k(scores, 3, gallery)
        np.testing.assert_array_equal(cands.locals_, gallery.locals_[cands.indices])


class TestFocusedFuse:
    def test_zero_init_projection_is_identity(self):
        net = make_net()
        gallery = make_gallery()
        cands = select_top_k(broad_view_scores(unit_rows(1, 8)[0], gallery), 4, gallery)
        ind = RNG.normal(size=(1, 3, 8))
        fused = focused_fuse(ind, [cands], net)
        np.testing.assert_array_equal(fused.data, ind)

    def test_single_candidate_single_token(self):
        cfg = default_config()
        cfg.dim = 8
        cfg.indicator_count = 4
        cfg.k = 1
        cfg.mlp_hidden = 16
        cfg.use_gumbel = False
        cfg.validate()
        net = make_net(cfg, randomize=True)
        local = RNG.normal(size=(1, 1, 8))
        cands = CandidateSet(np.array([0]), np.array([0.5]), locals_=local)
        ind = RNG.normal(size=(3, 8))
        fused = focused_fuse(ind[None], [cands], net)
        token = local[0, 0] + net.params["fusion.index_embedding"].data[0]
        w = net.params["fusion.block0.out_w"].data
        b = net.params["fusion.block0.out_b"].data
        expected = ind + (token @ w + b)
        np.testing.assert_allclose(fused.data[0], expected, atol=1e-12)

    def test_matches_flattened_attention_oracle(self):
        cfg = default_config()
        cfg.dim = 8
        cfg.indicator_count = 3
        cfg.k = 2
        cfg.mlp_hidden = 16
        cfg.gumbel_temp = 0.8
        cfg.validate()
        net = make_net(cfg, randomize=True)
        # Two queries, each with its own k=2 candidates of n=3 tokens.
        cands = [
            CandidateSet(np.array(idx), np.array(scores), locals_=RNG.normal(size=(2, 3, 8)))
            for idx, scores in (([1, 0], [0.8, 0.2]), ([0, 2], [0.5, 0.4]))
        ]
        ind = RNG.normal(size=(2, 2, 8))
        fused = focused_fuse(ind, cands, net)  # deterministic: g = 0

        idx_emb = net.params["fusion.index_embedding"].data
        for q, cand in enumerate(cands):
            locals_ = cand.locals_
            tokens = np.concatenate([locals_[0] + idx_emb[0], locals_[1] + idx_emb[1]])
            logits = ind[q] @ tokens.T / np.sqrt(8) / cfg.gumbel_temp
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            w_attn = e / e.sum(axis=1, keepdims=True)
            attended = w_attn @ tokens
            expected = ind[q] + (
                attended @ net.params["fusion.block0.out_w"].data
                + net.params["fusion.block0.out_b"].data
            )
            np.testing.assert_allclose(fused.data[q], expected, atol=1e-12)

    def test_empty_candidates_rejected(self):
        net = make_net()
        cands = CandidateSet(np.array([], dtype=int), np.array([]), locals_=np.zeros((0, 2, 8)))
        with pytest.raises(InputError):
            focused_fuse(RNG.normal(size=(1, 3, 8)), [cands], net)

    def test_stochastic_fusion_without_stream_rejected(self):
        from focusrank.errors import ConfigError

        net = make_net()  # default config samples Gumbel noise in training
        tokens = net.candidate_tokens(Tensor(RNG.normal(size=(1, 4, 3, 8))), 4)
        with pytest.raises(ConfigError):
            net.fuse(Tensor(RNG.normal(size=(1, 3, 8))), tokens, deterministic=False)


class TestProjectDeltas:
    def test_zero_scale_zeroes_deltas(self):
        net = make_net()
        fused = Tensor(RNG.normal(size=(1, 3, 8)))
        logits, deltas = project_deltas(fused, net)
        assert np.array_equal(deltas, np.zeros((1, 4)))
        assert not np.allclose(logits, 0)

    def test_uniform_logits_give_uniform_distribution(self):
        from focusrank.tensor import softmax

        probs = softmax(Tensor(np.full(10, 2.5))).data
        np.testing.assert_allclose(probs, 0.1, atol=1e-15)

    def test_logits_match_mlp_oracle(self):
        from focusrank.ops import mlp_forward

        net = make_net(randomize=True)
        fused = RNG.normal(size=(2, 3, 8))
        logits, deltas = project_deltas(Tensor(fused), net)
        expected = np.stack([
            mlp_forward(Tensor(f.reshape(-1)), net.params, "fusion.mlp", net.cfg.activation).data
            for f in fused
        ])
        np.testing.assert_allclose(logits, expected, atol=1e-12)
        np.testing.assert_allclose(
            deltas, float(net.params["fusion.delta_scale"].data) * expected, atol=1e-12
        )

    def test_wrong_indicator_width_rejected(self):
        from focusrank.errors import ConfigError

        net = make_net()
        with pytest.raises(ConfigError):
            net.project(Tensor(RNG.normal(size=(1, 2, 8))))  # needs (m-1)=3 rows


class TestComposeScores:
    def test_zero_deltas_keep_stage1_ranking(self):
        scores = RNG.normal(size=20)
        cands = select_top_k(scores, 5)
        final = compose_scores(cands, np.zeros(5), scores)
        np.testing.assert_array_equal(final.order, stage1_order(scores))

    def test_delta_promotes_candidate(self):
        scores = np.array([0.8, 0.7])
        cands = select_top_k(scores, 2)
        final = compose_scores(cands, np.array([0.0, 0.2]), scores)
        np.testing.assert_allclose(final.final_score, [0.8, 0.9])
        np.testing.assert_array_equal(final.order, [1, 0])

    def test_matches_composition_oracle(self):
        for _ in range(300):
            n = int(RNG.integers(5, 64))
            k = int(RNG.integers(1, min(10, n) + 1))
            scores = RNG.normal(size=n)
            cands = select_top_k(scores, k)
            deltas = RNG.normal(size=k)
            final = compose_scores(cands, deltas, scores)
            expected = compose_oracle(scores, cands.indices.tolist(), deltas.tolist())
            np.testing.assert_array_equal(final.order, expected)

    def test_stage1_excluded_mode(self):
        scores = RNG.normal(size=10)
        cands = select_top_k(scores, 4)
        deltas = RNG.normal(size=4)
        final = compose_scores(cands, deltas, scores, include_stage1=False)
        expected = compose_oracle(scores, cands.indices.tolist(), deltas.tolist(), False)
        np.testing.assert_array_equal(final.order, expected)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 12))
def test_rerank_containment_and_tail_preservation(seed, n, k):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    k = min(k, n)
    cands = select_top_k(scores, k)
    final = compose_scores(cands, rng.normal(size=k), scores)
    stage1 = stage1_order(scores)
    # Containment: the re-ranked block is a permutation of the stage-1 top-k.
    assert set(final.order[:k]) == set(stage1[:k])
    # Preservation: below the block, stage-1 relative order survives exactly.
    np.testing.assert_array_equal(final.order[k:], stage1[k:])


class TestRankFull:
    def test_untrained_network_equals_stage1(self):
        net = make_net()  # zero out_w / delta_scale
        gallery = make_gallery(n=20)
        for _ in range(25):
            q = EncodedItem(unit_rows(1, 8)[0], RNG.normal(size=(3, 8)), np.zeros((0, 8)))
            full = rank_full(q, gallery, net, 4)
            broad = rank_broad_only(q.global_vec, gallery)
            np.testing.assert_array_equal(full.order, broad.order)

    def test_small_gallery_clamps_and_composes(self):
        net = make_net(randomize=True)
        gallery = make_gallery(n=3)  # N < k = 4
        q = EncodedItem(unit_rows(1, 8)[0], RNG.normal(size=(3, 8)), np.zeros((0, 8)))
        final = rank_full(q, gallery, net, 4)
        assert final.clamped
        scores = broad_view_scores(q.global_vec, gallery)
        cands = select_top_k(scores, 4, gallery)
        fused = focused_fuse(q.focus_indicators[None], [cands], net)
        _, deltas = project_deltas(fused, net)
        expected = compose_oracle(scores, cands.indices.tolist(), deltas[0, :3].tolist())
        np.testing.assert_array_equal(final.order, expected)

    def test_positive_rescaling_of_stage1_scores_keeps_argmax(self):
        scores = RNG.normal(size=15)
        for c in (0.1, 3.0, 42.0):
            np.testing.assert_array_equal(stage1_order(scores * c), stage1_order(scores))

    def test_determinism_same_seed_bitwise(self):
        net = make_net(randomize=True)
        gallery = make_gallery(n=10)
        q = EncodedItem(unit_rows(1, 8)[0], RNG.normal(size=(3, 8)), np.zeros((0, 8)))
        a = rank_full(q, gallery, net, 4)
        b = rank_full(q, gallery, net, 4)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.final_score, b.final_score)
        assert np.array_equal(a.delta, b.delta)


class TestRankQueries:
    def test_one_batch_matches_single_queries(self):
        # The batched fusion matmul may sum in another order than a batch of
        # one, so scores agree to rounding while orders are identical.
        net = make_net(randomize=True)
        gallery = make_gallery(n=500)
        globals_ = unit_rows(64, 8)
        focus = RNG.normal(size=(64, 3, 8))
        batched = rank_queries(globals_, focus, gallery, net, 4)
        assert len(batched) == 64
        for i, got in enumerate(batched):
            (single,) = rank_queries(globals_[i : i + 1], focus[i : i + 1], gallery, net, 4)
            np.testing.assert_array_equal(got.order, single.order)
            for name in ("final_score", "stage1_score", "delta"):
                np.testing.assert_allclose(
                    getattr(got, name), getattr(single, name), rtol=0, atol=1e-12
                )
        assert any(np.any(f.delta != 0) for f in batched)

    def test_rank_full_is_a_batch_of_one(self):
        net = make_net(randomize=True)
        gallery = make_gallery(n=30)
        q = EncodedItem(unit_rows(1, 8)[0], RNG.normal(size=(3, 8)), np.zeros((0, 8)))
        full = rank_full(q, gallery, net, 4)
        (batched,) = rank_queries(q.global_vec[None], q.focus_indicators[None], gallery, net, 4)
        assert np.array_equal(full.order, batched.order)
        assert np.array_equal(full.final_score, batched.final_score)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_globals_rejected(self, bad):
        net = make_net(randomize=True)
        globals_ = unit_rows(3, 8)
        globals_[1, 2] = bad
        for mode in ("broad-only", "two-stage"):
            with pytest.raises(InputError):
                rank_queries(globals_, RNG.normal(size=(3, 3, 8)), make_gallery(), net, 4, mode)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_focus_indicators_rejected(self, bad):
        focus = RNG.normal(size=(3, 3, 8))
        focus[2, 0, 5] = bad
        with pytest.raises(InputError):
            rank_queries(unit_rows(3, 8), focus, make_gallery(), make_net(randomize=True), 4)

    def test_two_stage_without_focus_rejected(self):
        with pytest.raises(InputError):
            rank_queries(unit_rows(2, 8), None, make_gallery(), make_net(), 4)

    def test_focus_count_must_match_queries(self):
        with pytest.raises(DimensionError):
            rank_queries(unit_rows(2, 8), RNG.normal(size=(3, 3, 8)), make_gallery(), make_net(), 4)
