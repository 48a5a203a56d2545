"""Encoder mechanics: binding, pooling, normalization, padding invariance."""

import numpy as np
import pytest

from focusrank.config import default_config
from focusrank.encoders import (
    TextSequence,
    VideoClip,
    bind_query_indicators,
    temporal_mean_pool,
)
from focusrank.errors import DimensionError, InputError
from focusrank.model import RetrievalModel
from focusrank.tensor import Tensor

RNG = np.random.default_rng(23)


def tiny_config(**overrides):
    cfg = default_config()
    cfg.dim = 16
    cfg.layers = 2
    cfg.vocab_size = 64
    cfg.text_len = 6
    cfg.max_text_len = 10
    cfg.patch_count = 4
    cfg.patch_dim = 16
    cfg.frame_count = 2
    cfg.max_frames = 8
    cfg.mlp_hidden = 16
    cfg.k = 3
    cfg.pair_count = 20
    cfg.cohort_size = 5
    cfg.batch_size = 4
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg.validate()


class TestBinding:
    def test_zero_projection_is_bitwise_identity(self):
        ind = RNG.normal(size=(4, 8))
        tokens = RNG.normal(size=(6, 8))
        out = bind_query_indicators(
            Tensor(ind), Tensor(tokens), Tensor(np.zeros((8, 8))), Tensor(np.zeros(8))
        )
        assert np.array_equal(out.data, ind)

    def test_single_token_attention_term(self):
        ind = RNG.normal(size=(4, 8))
        token = RNG.normal(size=(1, 8))
        w = RNG.normal(size=(8, 8))
        b = RNG.normal(size=8)
        out = bind_query_indicators(Tensor(ind), Tensor(token), Tensor(w), Tensor(b))
        expected = ind + (token[0] @ w + b)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_attention_residual_oracle(self):
        ind = RNG.normal(size=(4, 8))
        tokens = RNG.normal(size=(6, 8))
        w = RNG.normal(size=(8, 8))
        b = RNG.normal(size=8)
        out = bind_query_indicators(Tensor(ind), Tensor(tokens), Tensor(w), Tensor(b))
        # Hand-evaluated: softmax(I Tt / sqrt(C)) T W + b + I.
        logits = ind @ tokens.T / np.sqrt(8)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights = e / e.sum(axis=1, keepdims=True)
        expected = ind + ((weights @ tokens) @ w + b)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_width_mismatch_raises(self):
        with pytest.raises(DimensionError):
            bind_query_indicators(
                Tensor(np.ones((2, 4))), Tensor(np.ones((3, 5))),
                Tensor(np.zeros((5, 5))), Tensor(np.zeros(5)),
            )


class TestTemporalMeanPool:
    def test_single_frame_identity(self):
        frames = RNG.normal(size=(1, 4, 8))
        np.testing.assert_array_equal(temporal_mean_pool(frames).data, frames[0])

    def test_opposite_frames_cancel(self):
        x = RNG.normal(size=(4, 8))
        out = temporal_mean_pool(np.stack([x, -x])).data
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_matches_elementwise_mean(self):
        frames = RNG.normal(size=(3, 5, 7))
        expected = np.zeros((5, 7))
        for p in range(5):
            for c in range(7):
                expected[p, c] = sum(frames[t, p, c] for t in range(3)) / 3
        np.testing.assert_allclose(temporal_mean_pool(frames).data, expected, atol=1e-12)

    def test_permutation_invariant_over_frames(self):
        frames = RNG.normal(size=(5, 4, 6))
        perm = RNG.permutation(5)
        a = temporal_mean_pool(frames).data
        b = temporal_mean_pool(frames[perm]).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_batched(self):
        frames = RNG.normal(size=(2, 3, 4, 6))
        out = temporal_mean_pool(frames).data
        np.testing.assert_allclose(out, frames.mean(axis=1), atol=1e-12)


class TestTextEncoder:
    def test_init_global_is_normalized_first_indicator(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=9)
        init_ind = model.params["text.indicators"].data[0]
        expected = init_ind / np.linalg.norm(init_ind)
        enc = model.encode_text(TextSequence(RNG.integers(0, cfg.vocab_size, 6)))
        np.testing.assert_allclose(enc.global_vec, expected, atol=1e-12)

    def test_trained_parameters_separate_sequences(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=9)
        # Give the binding projections random (nonzero) values.
        for name in model.params.names():
            if ".bind." in name:
                t = model.params[name]
                t.data = np.random.default_rng(1).normal(size=t.data.shape)
        a = model.encode_text(TextSequence(np.arange(6)))
        b = model.encode_text(TextSequence(np.arange(6) + 7))
        assert not np.allclose(a.global_vec, b.global_vec)

    def test_global_unit_norm_and_focus_shape(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=0)
        enc = model.encode_text(TextSequence(RNG.integers(0, cfg.vocab_size, 6)))
        assert abs(np.linalg.norm(enc.global_vec) - 1.0) < 1e-9
        assert enc.focus_indicators.shape == (cfg.indicator_count - 1, cfg.dim)
        assert enc.locals_.shape == (6, cfg.dim)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            TextSequence(np.array([], dtype=np.int64))

    def test_token_out_of_vocabulary_rejected(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=0)
        with pytest.raises(InputError):
            model.encode_text(TextSequence(np.array([cfg.vocab_size])))

    def test_padding_invariance_with_key_mask(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=4)
        for name in model.params.names():  # nonzero bindings: harder case
            if ".bind." in name:
                t = model.params[name]
                t.data = np.random.default_rng(2).normal(size=t.data.shape, scale=0.3)
        tokens = RNG.integers(0, cfg.vocab_size, (1, 5))
        g1, f1, l1 = model.encode_text_batch(tokens, key_mask=np.ones((1, 5)))
        padded = np.concatenate([tokens, RNG.integers(0, cfg.vocab_size, (1, 3))], axis=1)
        mask = np.concatenate([np.ones((1, 5)), np.zeros((1, 3))], axis=1)
        g2, f2, l2 = model.encode_text_batch(padded, key_mask=mask)
        np.testing.assert_allclose(g1.data, g2.data, atol=1e-12)
        np.testing.assert_allclose(f1.data, f2.data, atol=1e-12)
        np.testing.assert_allclose(l1.data, l2.data[:, :5], atol=1e-12)

    @pytest.mark.parametrize("indicators", [True, False])
    def test_fully_masked_row_rejected(self, indicators):
        model = RetrievalModel(tiny_config(use_query_indicators=indicators), seed=4)
        mask = np.ones((2, 5))
        mask[1] = 0.0
        with pytest.raises(InputError):
            model.encode_text_batch(RNG.integers(0, 64, (2, 5)), key_mask=mask)

    def test_key_mask_shape_mismatch_rejected(self):
        model = RetrievalModel(tiny_config(), seed=4)
        with pytest.raises(DimensionError):
            model.encode_text_batch(RNG.integers(0, 64, (2, 5)), key_mask=np.ones((2, 6)))


class TestVideoEncoder:
    def test_identical_clip_bit_identical_encoding(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=5)
        clip = VideoClip(RNG.normal(size=(2, 4, 16)))
        a = model.encode_video(clip)
        b = model.encode_video(clip)
        assert np.array_equal(a.global_vec, b.global_vec)
        assert np.array_equal(a.locals_, b.locals_)
        assert np.array_equal(a.focus_indicators, b.focus_indicators)

    def test_global_unit_norm(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=5)
        for _ in range(5):
            enc = model.encode_video(VideoClip(RNG.normal(size=(2, 4, 16)) * 10))
            assert abs(np.linalg.norm(enc.global_vec) - 1.0) < 1e-9

    @pytest.mark.parametrize("frames", [1, 2, 8])
    def test_locals_row_count_is_patch_count(self, frames):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=5)
        enc = model.encode_video(VideoClip(RNG.normal(size=(frames, 4, 16))))
        assert enc.locals_.shape == (cfg.patch_count, cfg.dim)

    def test_empty_clip_rejected(self):
        with pytest.raises(InputError):
            VideoClip(np.zeros((0, 4, 16)))

    def test_wrong_patch_grid_rejected(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg, seed=5)
        with pytest.raises(DimensionError):
            model.encode_video(VideoClip(RNG.normal(size=(2, 5, 16))))


def test_prenormalization_scale_invariance():
    # Scaling every pre-normalization feature by a positive constant must not
    # move the normalized global.
    from focusrank.tensor import normalize_rows

    x = RNG.normal(size=(3, 16))
    for scale in (1e-3, 7.0, 1e4):
        np.testing.assert_allclose(
            normalize_rows(Tensor(x * scale)).data,
            normalize_rows(Tensor(x)).data,
            atol=1e-9,
        )
