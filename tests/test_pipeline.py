"""Two-stage retrieval pipeline: scoring, selection, fusion, composition."""

import importlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focusrank.config import RunConfig
from focusrank.encoders import EncodedItem
from focusrank.errors import DimensionError, InputError
from focusrank.metrics import evaluate_two_stage
from focusrank import pipeline
from focusrank.ops import ParameterSet
from focusrank.pipeline import (
    FUSION_CHUNK,
    FusionNetwork,
    Gallery,
    broad_view_scores,
    compose_scores,
    focused_fuse,
    project_deltas,
    rank_full,
    rank_queries,
    select_top_k,
    stage1_order,
)
from focusrank.rng import RandomStream
from focusrank.tensor import Tensor, no_grad

RNG = np.random.default_rng(31)


def unit_rows(n, c, rng=RNG):
    x = rng.normal(size=(n, c))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_gallery(n=12, c=8, n_local=3, rng=RNG):
    return Gallery(unit_rows(n, c, rng), rng.normal(size=(n, n_local, c)))


def make_net(cfg=None, seed=0, randomize=False):
    if cfg is None:
        cfg = RunConfig()
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
        gallery = Gallery(globals_, np.zeros((6, 2, 6)))
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
            Gallery(np.zeros((0, 4)), np.zeros((0, 1, 4)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            broad_view_scores(np.ones(5), make_gallery(c=8))
        with pytest.raises(DimensionError):
            broad_view_scores(np.ones((3, 9)), make_gallery(c=8))

    def test_batch_matches_matrix_vector_products(self):
        gallery = make_gallery(n=4096, c=64, n_local=1)
        queries = unit_rows(FUSION_CHUNK, 64)
        reference = np.array([gallery.globals_ @ q for q in queries])
        for i in (0, FUSION_CHUNK - 1):
            one = broad_view_scores(queries[i : i + 1], gallery)
            assert np.array_equal(one, reference[i : i + 1])
            assert np.array_equal(broad_view_scores(queries[i], gallery), reference[i])
        batch = broad_view_scores(queries, gallery)
        assert batch.shape == (FUSION_CHUNK, 4096)
        np.testing.assert_allclose(batch, reference, rtol=0, atol=1e-15)

    def test_batch_clipped_to_unit_interval(self):
        gallery = Gallery(2 * np.eye(3), np.zeros((3, 1, 3)))
        np.testing.assert_array_equal(broad_view_scores(-np.eye(3), gallery), -np.eye(3))


SPECIAL_SCORES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, -0.5, 1.0])


# SPECIAL_SCORES plus values whose packed sort keys share all but the index
# bits with another's: the smallest subnormals beside the zeros, and 0.5's
# one-ulp neighbours.
EDGE_SCORES = np.concatenate(
    [SPECIAL_SCORES, [5e-324, -5e-324, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)]]
)


def stable_order(scores):
    return np.lexsort((np.arange(len(scores)), -scores))


def packed_keys_collide(row):
    """Whether two of the row's `stage1_order` keys agree above the index bits."""
    high = (-row + 0.0).view(np.int64) >> max(len(row) - 1, 0).bit_length()
    return len(np.unique(high)) < len(row)


def counting_lexsort(calls):
    """An `np.lexsort` that appends the length of each row it sorts to `calls`."""
    lexsort = np.lexsort

    def counting(keys):
        calls.append(len(keys[0]))
        return lexsort(keys)

    return counting


class TestStage1Order:
    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 600),
        st.floats(0.0, 1.0),
        st.sets(st.sampled_from(range(len(SPECIAL_SCORES))), min_size=1),
    )
    def test_equals_stable_lexsort(self, seed, n, share, pool):
        # A pool of one value (NaN alone, say) gives repeats of it with no other tie.
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        special = rng.random(n) < share
        scores[special] = rng.choice(SPECIAL_SCORES[sorted(pool)], size=int(special.sum()))
        np.testing.assert_array_equal(stage1_order(scores), stable_order(scores))

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 4),
        st.sampled_from([0, 1, 2, 3, 40, 600, 4097]),
        st.floats(0.0, 1.0),
        st.sets(st.sampled_from(range(len(EDGE_SCORES))), min_size=1),
        st.booleans(),
    )
    @example(seed=0, q=3, n=0, share=0.5, pool={0}, repeats=False)
    @example(seed=1, q=0, n=4097, share=0.5, pool={0}, repeats=False)
    @example(seed=2, q=1, n=1, share=0.0, pool={0}, repeats=False)
    @example(seed=3, q=4, n=4097, share=0.01, pool={3, 4, 8, 9}, repeats=True)
    def test_chunk_rows_equal_stable_lexsort(self, seed, q, n, share, pool, repeats):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(q, n))
        special = rng.random((q, n)) < share
        scores[special] = rng.choice(EDGE_SCORES[sorted(pool)], size=int(special.sum()))
        if repeats and n > 1:
            # Duplicated gallery rows: some columns repeat others exactly, some one ulp up.
            src, dst = rng.integers(0, n, size=(2, n // 8 + 1))
            scores[:, dst] = scores[:, src]
            src, dst = rng.integers(0, n, size=(2, n // 8 + 1))
            scores[:, dst] = np.nextafter(scores[:, src], np.inf)
        expected = [stable_order(row) for row in scores]
        calls = []
        with mock.patch.object(np, "lexsort", counting_lexsort(calls)):
            got = stage1_order(scores)
        assert got.shape == scores.shape
        for row, want in zip(got, expected):
            np.testing.assert_array_equal(row, want)
        # The stable sort runs on exactly the rows whose packed keys agree
        # above the index bits, every row holding a tie (0.0 against -0.0
        # too) among them, and on the rows holding a non-finite score.
        irregular = [not np.isfinite(row).all() for row in scores]
        tied = sum(bad or len(np.unique(row)) < n for row, bad in zip(scores, irregular))
        colliding = sum(bad or packed_keys_collide(row) for row, bad in zip(scores, irregular))
        assert tied <= len(calls) == colliding
        assert calls == [n] * len(calls)

    def test_lexsort_runs_only_on_a_tie(self, monkeypatch):
        scores = RNG.permutation(4096) / 4096.0
        tied = scores.copy()
        tied[7] = tied[3000]
        expected = stable_order(scores), stable_order(tied)
        calls = []
        monkeypatch.setattr(np, "lexsort", counting_lexsort(calls))
        np.testing.assert_array_equal(stage1_order(scores), expected[0])
        assert calls == []
        np.testing.assert_array_equal(stage1_order(tied), expected[1])
        assert calls == [4096]

    def test_distinct_eval_chunk_needs_no_lexsort(self, monkeypatch):
        # An eval_4096-sized chunk of real stage-1 scores, none of whose
        # rows has two keys agreeing above the index bits.
        rng = np.random.default_rng(23)
        scores = broad_view_scores(unit_rows(FUSION_CHUNK, 64, rng),
                                   make_gallery(n=4096, c=64, n_local=1, rng=rng))
        assert not any(packed_keys_collide(row) for row in scores)
        expected = [stable_order(row) for row in scores]
        calls = []
        monkeypatch.setattr(np, "lexsort", counting_lexsort(calls))
        got = stage1_order(scores)
        assert calls == []
        for row, want in zip(got, expected, strict=True):
            np.testing.assert_array_equal(row, want)

    def test_only_the_row_with_keys_an_ulp_apart_falls_back(self, monkeypatch):
        # Row 5 gets a score one ulp above its entry 3000's, at index 100:
        # the two packed keys differ only in the index bits, which put 3000
        # first, wrongly.
        rng = np.random.default_rng(29)
        scores = np.stack([rng.permutation(4096) / 4096.0 for _ in range(8)])
        scores[5, 100] = np.nextafter(scores[5, 3000], np.inf)
        assert [packed_keys_collide(row) for row in scores] == [i == 5 for i in range(8)]
        expected = [stable_order(row) for row in scores]
        calls = []
        monkeypatch.setattr(np, "lexsort", counting_lexsort(calls))
        got = stage1_order(scores)
        assert calls == [4096]
        for row, want in zip(got, expected, strict=True):
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_scores_must_be_a_row_or_a_chunk(self, shape):
        with pytest.raises(DimensionError):
            stage1_order(np.zeros(shape))
        with pytest.raises(DimensionError):
            select_top_k(np.zeros(shape), 1)


def test_fusion_chunk_matches_eval_benchmark_op(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    assert FUSION_CHUNK == workloads.Eval4096.sizes["full"]["chunk"], (
        "pipeline.FUSION_CHUNK differs from the eval_4096 op size, so an "
        "eval_4096 op is no longer one fusion batch"
    )


class TestSelectTopK:
    def test_tie_broken_by_lower_index(self):
        _, block = select_top_k(np.array([0.9, 0.1, 0.9, 0.5]), 2)
        np.testing.assert_array_equal(block, [0, 2])

    def test_full_selection_is_sorted_order(self):
        scores = RNG.normal(size=9)
        order, block = select_top_k(scores, 9)
        np.testing.assert_array_equal(block, stage1_order(scores))
        np.testing.assert_array_equal(order, block)

    def test_matches_sort_oracle(self):
        for _ in range(1000):
            scores = RNG.normal(size=RNG.integers(10, 40))
            k = int(RNG.integers(1, 11))
            order, block = select_top_k(scores, k)
            expected = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            np.testing.assert_array_equal(order, expected)
            np.testing.assert_array_equal(block, expected[:k])
            assert np.all(np.diff(scores[order]) <= 0)

    def test_clamps_k_to_gallery_size(self):
        _, block = select_top_k(np.array([0.1, 0.3]), 5)
        np.testing.assert_array_equal(block, [1, 0])

    @pytest.mark.parametrize("k", [0, -1, 2.5, "3", True])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(InputError, match="k must be an integer >= 1"):
            select_top_k(np.zeros(5), k)
        with pytest.raises(InputError, match="k must be an integer >= 1"):
            rank_queries(unit_rows(2, 8), None, make_gallery(), None, k)


class TestFocusedFuse:
    def test_parameter_names_are_those_checkpoints_hold(self):
        # A saved model.bin names its parameters; the one block keeps index 0.
        assert make_net().params.names() == [
            "fusion.index_embedding", "fusion.block0.out_w", "fusion.block0.out_b",
            "fusion.mlp.w1", "fusion.mlp.b1", "fusion.mlp.w2", "fusion.mlp.b2",
            "fusion.delta_scale",
        ]

    def test_zero_init_projection_is_identity(self):
        net = make_net()
        gallery = make_gallery()
        _, block = select_top_k(broad_view_scores(unit_rows(1, 8)[0], gallery), 4)
        ind = RNG.normal(size=(1, 3, 8))
        fused = focused_fuse(ind, gallery.locals_, block[None], net)
        np.testing.assert_array_equal(fused.data, ind)

    def test_single_candidate_single_token(self):
        cfg = RunConfig()
        cfg.dim = 8
        cfg.indicator_count = 4
        cfg.k = 1
        cfg.mlp_hidden = 16
        cfg.use_gumbel = False
        cfg.validate()
        net = make_net(cfg, randomize=True)
        local = RNG.normal(size=(1, 1, 8))
        ind = RNG.normal(size=(3, 8))
        fused = focused_fuse(ind[None], local, np.zeros((1, 1), dtype=int), net)
        token = local[0, 0] + net.params["fusion.index_embedding"].data[0]
        w = net.params["fusion.block0.out_w"].data
        b = net.params["fusion.block0.out_b"].data
        expected = ind + (token @ w + b)
        np.testing.assert_allclose(fused.data[0], expected, atol=1e-12)

    def test_matches_flattened_attention_oracle(self):
        cfg = RunConfig()
        cfg.dim = 8
        cfg.indicator_count = 3
        cfg.k = 2
        cfg.mlp_hidden = 16
        cfg.gumbel_temp = 0.8
        cfg.validate()
        net = make_net(cfg, randomize=True)
        # Two queries, each with its own k=2 candidates of n=3 tokens: query q
        # gets gallery entries 2q and 2q+1.
        cand_locals = RNG.normal(size=(2, 2, 3, 8))
        ind = RNG.normal(size=(2, 2, 8))
        gallery_locals, cand_indices = cand_locals.reshape(4, 3, 8), np.arange(4).reshape(2, 2)
        fused = focused_fuse(ind, gallery_locals, cand_indices, net)  # deterministic: g = 0

        idx_emb = net.params["fusion.index_embedding"].data
        for q, locals_ in enumerate(cand_locals):
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
        with pytest.raises(InputError):
            focused_fuse(RNG.normal(size=(1, 3, 8)), np.zeros((1, 2, 8)),
                         np.zeros((1, 0), dtype=int), net)

    def test_candidate_indices_must_be_a_batch(self):
        # One row of indices gathers (k', n, C) tokens, not a batch of them.
        with pytest.raises(DimensionError, match=r"\(B, k'\) indices"):
            make_net().candidate_tokens(np.zeros((5, 2, 8)), np.arange(3))

    def test_noise_only_with_a_stream(self):
        net = make_net(randomize=True)  # default config samples Gumbel noise in training
        tokens = net.candidate_tokens(Tensor(RNG.normal(size=(4, 3, 8))), np.arange(4)[None])
        ind = Tensor(RNG.normal(size=(1, 3, 8)))
        plain = net.fuse(ind, tokens).data
        np.testing.assert_array_equal(net.fuse(ind, tokens).data, plain)
        noisy = net.fuse(ind, tokens, rng=RandomStream(3)).data
        np.testing.assert_array_equal(net.fuse(ind, tokens, rng=RandomStream(3)).data, noisy)
        assert not np.array_equal(noisy, plain)

    def test_graph_and_inference_give_the_same_bits(self):
        """Training's call (Tensor locals that need gradients, graph recorded)
        and `rank_queries`' call (gallery ndarray under `no_grad`) fuse alike."""
        net = make_net(randomize=True)
        gallery = make_gallery(n=12)
        cand_indices = np.array([[3, 0, 7, 11], [5, 1, 2, 9], [11, 10, 0, 4]])
        focus = RNG.normal(size=(3, 3, 8))
        before = gallery.locals_.tobytes()
        with no_grad():
            inference = focused_fuse(focus, gallery.locals_, cand_indices, net)
        assert gallery.locals_.tobytes() == before
        locals_ = Tensor(gallery.locals_.copy(), requires_grad=True)
        training = focused_fuse(Tensor(focus, requires_grad=True), locals_, cand_indices, net)
        assert training.data.tobytes() == inference.data.tobytes()
        # The training call is a graph that reaches the slot embedding and the locals.
        training.sum().backward()
        assert np.abs(net.params["fusion.index_embedding"].grad).sum() > 0
        assert np.abs(locals_.grad[cand_indices.reshape(-1)]).sum() > 0
        assert not inference.requires_grad


class TestProjectDeltas:
    def test_zero_scale_zeroes_deltas(self):
        net = make_net()
        fused = Tensor(RNG.normal(size=(1, 3, 8)))
        assert np.array_equal(project_deltas(fused, net), np.zeros((1, 4)))
        assert not np.allclose(net.project(fused).data, 0)

    def test_uniform_logits_give_uniform_distribution(self):
        # Width-1 query 2.5 against ten unit keys: every logit is 2.5, and the
        # identity values make the output row the attention weights.
        from focusrank.ops import scaled_dot_attention

        probs = scaled_dot_attention(
            Tensor(np.full((1, 1), 2.5)), Tensor(np.ones((10, 1))), Tensor(np.eye(10))
        ).data[0]
        np.testing.assert_allclose(probs, 0.1, atol=1e-15)

    def test_logits_match_mlp_oracle(self):
        def gelu_ref(v):
            return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)))

        net = make_net(randomize=True)
        fused = RNG.normal(size=(2, 3, 8))
        logits = net.project(Tensor(fused)).data
        deltas = project_deltas(Tensor(fused), net)
        w = {name: net.params[f"fusion.mlp.{name}"].data for name in ("w1", "b1", "w2", "b2")}
        expected = np.stack([
            gelu_ref(f.reshape(-1) @ w["w1"] + w["b1"]) @ w["w2"] + w["b2"] for f in fused
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


def compose(scores, deltas, include_stage1=True):
    """`compose_scores` on the stage-1 ranking of a (Q, N) chunk, k the width of `deltas`."""
    order, _ = select_top_k(scores, deltas.shape[1])
    return compose_scores(order, scores, deltas, include_stage1)


class TestComposeScores:
    def test_zero_deltas_keep_stage1_ranking(self):
        scores = RNG.normal(size=(3, 20))
        final = compose(scores, np.zeros((3, 5)))
        assert final.order.shape == final.final_score.shape == final.delta.shape == (3, 20)
        assert final.stage1_score is scores
        for order, final_score, delta, row in zip(final.order, final.final_score, final.delta,
                                                   scores, strict=True):
            np.testing.assert_array_equal(order, stage1_order(row))
            np.testing.assert_array_equal(final_score, row)
            np.testing.assert_array_equal(delta, np.zeros(20))

    def test_delta_promotes_candidate(self):
        final = compose(np.array([[0.8, 0.7]]), np.array([[0.0, 0.2]]))
        np.testing.assert_allclose(final.final_score, [[0.8, 0.9]])
        np.testing.assert_array_equal(final.order, [[1, 0]])

    def test_matches_composition_oracle(self):
        # Chunks of one to four rows, each row against the oracle; neither
        # the stage-1 ranking nor the deltas may change.
        for _ in range(300):
            q, n = int(RNG.integers(1, 5)), int(RNG.integers(5, 64))
            k = int(RNG.integers(1, min(10, n) + 1))
            scores = RNG.normal(size=(q, n))
            order, block = select_top_k(scores, k)
            deltas = RNG.normal(size=(q, k))
            before = [a.copy() for a in (order, scores, deltas)]
            final = compose_scores(order, scores, deltas)
            assert final.order.shape == (q, n)
            for row, got in enumerate(final.order):
                expected = compose_oracle(scores[row], block[row].tolist(), deltas[row].tolist())
                np.testing.assert_array_equal(got, expected)
            for old, new in zip(before, (order, scores, deltas)):
                assert np.array_equal(old, new)

    def test_stage1_excluded_mode(self):
        scores = RNG.normal(size=(3, 10))
        order, block = select_top_k(scores, 4)
        deltas = RNG.normal(size=(3, 4))
        final = compose_scores(order, scores, deltas, include_stage1=False)
        for row, got in enumerate(final.order):
            expected = compose_oracle(scores[row], block[row].tolist(),
                                      deltas[row].tolist(), False)
            np.testing.assert_array_equal(got, expected)

    def test_only_chunks_compose(self):
        row = RNG.normal(size=10)
        with pytest.raises(DimensionError):
            compose_scores(stage1_order(row), row, np.zeros(4))
        chunk = RNG.normal(size=(2, 10))
        order = stage1_order(chunk)
        for deltas in (np.zeros((3, 4)), np.zeros((2, 11)), np.zeros(4)):
            with pytest.raises(DimensionError):
                compose_scores(order, chunk, deltas)
        with pytest.raises(DimensionError):
            compose_scores(order[:, :9], chunk, np.zeros((2, 4)))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 30), st.integers(1, 12))
def test_rerank_containment_and_tail_preservation(seed, q, n, k):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(q, n))
    k = min(k, n)
    final = compose(scores, rng.normal(size=(q, k)))
    for order, row in zip(final.order, scores, strict=True):
        stage1 = stage1_order(row)
        # Containment: the re-ranked block is a permutation of the stage-1 top-k.
        assert set(order[:k]) == set(stage1[:k])
        # Preservation: below the block, stage-1 relative order survives exactly.
        np.testing.assert_array_equal(order[k:], stage1[k:])


class TestRankFull:
    def test_untrained_network_equals_stage1(self):
        net = make_net()  # zero out_w / delta_scale
        gallery = make_gallery(n=20)
        for _ in range(25):
            q = EncodedItem(unit_rows(1, 8)[0], RNG.normal(size=(3, 8)))
            full = rank_full(q, gallery, net, 4)
            broad = stage1_order(broad_view_scores(q.global_vec, gallery))
            np.testing.assert_array_equal(full.order, broad)

    def test_small_gallery_clamps_and_composes(self):
        net = make_net(randomize=True)
        gallery = make_gallery(n=3)  # N < k = 4
        q = EncodedItem(unit_rows(1, 8)[0], RNG.normal(size=(3, 8)))
        final = rank_full(q, gallery, net, 4)
        scores = broad_view_scores(q.global_vec, gallery)
        _, block = select_top_k(scores, 4)
        assert block.shape == (3,)
        fused = focused_fuse(q.focus_indicators[None], gallery.locals_, block[None], net)
        deltas = project_deltas(fused, net)
        expected = compose_oracle(scores, block.tolist(), deltas[0, :3].tolist())
        np.testing.assert_array_equal(final.order, expected)
        for name in ("order", "final_score", "stage1_score", "delta"):
            assert getattr(final, name).shape == (3,)

    def test_positive_rescaling_of_stage1_scores_keeps_argmax(self):
        scores = RNG.normal(size=15)
        for c in (0.1, 3.0, 42.0):
            np.testing.assert_array_equal(stage1_order(scores * c), stage1_order(scores))

    def test_determinism_same_seed_bitwise(self):
        net = make_net(randomize=True)
        gallery = make_gallery(n=10)
        q = EncodedItem(unit_rows(1, 8)[0], RNG.normal(size=(3, 8)))
        a = rank_full(q, gallery, net, 4)
        b = rank_full(q, gallery, net, 4)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.final_score, b.final_score)
        assert np.array_equal(a.delta, b.delta)


# One fusion chunk, and a batch crossing the chunk boundary (64 + 64 + 2).
BATCH_SIZES = (FUSION_CHUNK, 2 * FUSION_CHUNK + 2)


def net_for(mode):
    """The network `rank_queries` gets in each mode: broad-only ranks without one."""
    return make_net(randomize=True) if mode == "two-stage" else None


class TestRankQueries:
    # Each batch size in each mode; the two-stage cases keep their original ids.
    @pytest.mark.parametrize(
        "q, mode",
        [pytest.param(q, "two-stage", id=str(q)) for q in BATCH_SIZES]
        + [pytest.param(q, "broad-only", id=f"{q}-broad-only") for q in BATCH_SIZES],
    )
    def test_one_batch_matches_single_queries(self, q, mode):
        # The batched stage-1 and fusion matmuls may sum in another order than
        # a batch of one, so scores agree to rounding while orders are identical.
        net = net_for(mode)
        gallery = make_gallery(n=500)
        globals_ = unit_rows(q, 8)
        focus = RNG.normal(size=(q, 3, 8))
        batched = rank_queries(globals_, focus, gallery, net, 4)
        assert batched.order.shape == (q, 500)
        for i in range(q):
            single = rank_queries(globals_[i : i + 1], focus[i : i + 1], gallery, net, 4)
            np.testing.assert_array_equal(batched.order[i : i + 1], single.order)
            for name in ("final_score", "stage1_score", "delta"):
                np.testing.assert_allclose(
                    getattr(batched, name)[i : i + 1], getattr(single, name), rtol=0, atol=1e-12
                )
        assert np.any(batched.delta != 0) == (mode == "two-stage")

    @pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
    def test_one_stage1_sort_per_chunk(self, mode, monkeypatch):
        # A batch, of any size, is one chunk: one product, one sort, at most
        # one fusion and one composition.
        stages = ("broad_view_scores", "select_top_k", "focused_fuse", "compose_scores")
        spies = {name: mock.Mock(wraps=getattr(pipeline, name)) for name in stages}
        for name, spy in spies.items():
            monkeypatch.setattr(pipeline, name, spy)
        q = 2 * FUSION_CHUNK + 2
        final = rank_queries(unit_rows(q, 8), RNG.normal(size=(q, 3, 8)), make_gallery(n=40),
                             net_for(mode), 4)
        fusions = [(q, 3, 8)] if mode == "two-stage" else []
        shapes = {name: [np.shape(call.args[0]) for call in spy.call_args_list]
                  for name, spy in spies.items()}
        assert shapes == {"broad_view_scores": [(q, 8)], "select_top_k": [(q, 40)],
                          "focused_fuse": fusions, "compose_scores": [(q, 40)]}
        assert final.order.shape == (q, 40)

    @pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
    def test_one_stage1_product_per_chunk(self, mode, monkeypatch):
        # Evaluation cuts each direction into FUSION_CHUNK rows and ranks each
        # chunk with one stage-1 product. The galleries differ in size so the
        # calls of each direction can be told apart; the two may interleave.
        calls = []

        def counting(query_globals, gallery):
            calls.append((len(gallery.globals_), len(np.atleast_2d(query_globals))))
            return broad_view_scores(query_globals, gallery)

        monkeypatch.setattr(pipeline, "broad_view_scores", counting)
        q = 2 * FUSION_CHUNK + 2
        videos, texts = make_gallery(n=40), make_gallery(n=41)
        queries = (unit_rows(q, 8), RNG.normal(size=(q, 3, 8)))
        reports = evaluate_two_stage(queries, videos, queries, texts, net_for(mode), 4, mode=mode,
                                     truth_t2v=list(np.arange(q) % 40),
                                     truth_v2t=list(np.arange(q) % 41))
        chunks = [FUSION_CHUNK, FUSION_CHUNK, 2]
        assert sorted(calls) == sorted([(40, r) for r in chunks] + [(41, r) for r in chunks])
        assert set(reports) == {"t2v", "v2t"}

    @pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
    def test_empty_batch_rejected_before_any_work(self, mode, monkeypatch):
        monkeypatch.setattr(pipeline, "broad_view_scores", mock.Mock(side_effect=AssertionError))
        with pytest.raises(InputError, match="at least one query"):
            rank_queries(np.zeros((0, 8)), np.zeros((0, 3, 8)), make_gallery(), net_for(mode), 4)

    @pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
    def test_ranking_mutates_no_input(self, mode):
        gallery = make_gallery(n=300)
        globals_ = unit_rows(FUSION_CHUNK + 3, 8)
        focus = RNG.normal(size=(FUSION_CHUNK + 3, 3, 8))
        inputs = (gallery.locals_, gallery.globals_, globals_, focus)
        before = [a.tobytes() for a in inputs]
        rank_queries(globals_, focus, gallery, net_for(mode), 4)
        assert [a.tobytes() for a in inputs] == before

    @pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
    def test_wrong_query_width_rejected(self, mode):
        # The width check runs before the stage-1 matmul, whose ValueError
        # would not be a FocusrankError.
        with pytest.raises(DimensionError):
            rank_queries(unit_rows(3, 9), RNG.normal(size=(3, 3, 8)), make_gallery(c=8),
                         net_for(mode), 4)

    def test_rank_full_is_a_batch_of_one(self):
        net = make_net(randomize=True)
        gallery = make_gallery(n=30)
        q = EncodedItem(unit_rows(1, 8)[0], RNG.normal(size=(3, 8)))
        full = rank_full(q, gallery, net, 4)
        batched = rank_queries(q.global_vec[None], q.focus_indicators[None], gallery, net, 4)
        for name in ("order", "final_score", "stage1_score", "delta"):
            row = getattr(full, name)
            assert row.shape == (30,)
            assert np.array_equal(row, getattr(batched, name)[0])

    def test_network_without_indicators_ranks_by_stage1(self):
        # A model built without query indicators encodes (0, C) focus and has
        # nothing to fuse: its network ranks exactly as no network does.
        cfg = RunConfig(dim=8, k=4, mlp_hidden=16, use_query_indicators=False).validate()
        gallery = make_gallery(n=30)
        q = EncodedItem(unit_rows(1, 8)[0], np.zeros((0, 8)))
        got = rank_full(q, gallery, make_net(cfg, randomize=True), 4)
        want = rank_full(q, gallery, None, 4)
        for name in ("order", "final_score", "stage1_score", "delta"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_globals_rejected(self, bad):
        globals_ = unit_rows(3, 8)
        globals_[1, 2] = bad
        for mode in ("broad-only", "two-stage"):
            with pytest.raises(InputError):
                rank_queries(globals_, RNG.normal(size=(3, 3, 8)), make_gallery(), net_for(mode), 4)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_focus_indicators_rejected(self, bad):
        focus = RNG.normal(size=(3, 3, 8))
        focus[2, 0, 5] = bad
        with pytest.raises(InputError):
            rank_queries(unit_rows(3, 8), focus, make_gallery(), make_net(randomize=True), 4)

    @pytest.mark.parametrize("mode", ["broad-only", "two-stage"])
    def test_query_globals_must_be_a_chunk(self, mode):
        with pytest.raises(DimensionError, match=r"\(Q, C\)"):
            rank_queries(unit_rows(1, 8)[0], RNG.normal(size=(1, 3, 8)), make_gallery(),
                         net_for(mode), 4)

    def test_two_stage_without_focus_rejected(self):
        with pytest.raises(InputError):
            rank_queries(unit_rows(2, 8), None, make_gallery(), make_net(), 4)

    def test_focus_count_must_match_queries(self):
        with pytest.raises(DimensionError):
            rank_queries(unit_rows(2, 8), RNG.normal(size=(3, 3, 8)), make_gallery(), make_net(), 4)
