"""Encoder mechanics: binding, pooling, normalization, input validation."""

import numpy as np
import pytest

from focusrank.config import RunConfig
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
    cfg = RunConfig()
    cfg.dim = 16
    cfg.layers = 2
    cfg.vocab_size = 64
    cfg.text_len = 6
    cfg.patch_count = 4
    cfg.patch_dim = 16
    cfg.frame_count = 2
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

    def test_below_3d_rejected(self):
        with pytest.raises(DimensionError):
            temporal_mean_pool(np.zeros((4, 16)))

    def test_batched(self):
        frames = RNG.normal(size=(2, 3, 4, 6))
        out = temporal_mean_pool(frames).data
        np.testing.assert_allclose(out, frames.mean(axis=1), atol=1e-12)


class TestTextEncoder:
    def test_init_global_is_normalized_first_indicator(self):
        cfg = tiny_config(seed=9)
        model = RetrievalModel(cfg)
        init_ind = model.params["text.indicators"].data[0]
        expected = init_ind / np.linalg.norm(init_ind)
        enc = model.encode_text(TextSequence(RNG.integers(0, cfg.vocab_size, 6)))
        np.testing.assert_allclose(enc.global_vec, expected, atol=1e-12)

    def test_trained_parameters_separate_sequences(self):
        cfg = tiny_config(seed=9)
        model = RetrievalModel(cfg)
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
        model = RetrievalModel(cfg)
        tokens = RNG.integers(0, cfg.vocab_size, 6)
        enc = model.encode_text(TextSequence(tokens))
        assert abs(np.linalg.norm(enc.global_vec) - 1.0) < 1e-9
        assert enc.focus_indicators.shape == (cfg.indicator_count - 1, cfg.dim)
        assert model.encode_text_batch(tokens[None])[2].shape == (1, 6, cfg.dim)

    def test_text_longer_than_text_len_rejected(self):
        # The position table has text_len rows: the generated length is the bound.
        cfg = tiny_config()
        model = RetrievalModel(cfg)
        assert model.params["text.position_embedding"].shape == (cfg.text_len, cfg.dim)
        model.encode_text(TextSequence(np.arange(cfg.text_len)))
        with pytest.raises(InputError):
            model.encode_text(TextSequence(np.arange(cfg.text_len + 1)))
        with pytest.raises(InputError):
            model.encode_text_batch(np.zeros((2, cfg.text_len + 1), dtype=np.int64))

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            TextSequence(np.array([], dtype=np.int64))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 1), (0, 4), (2, 0)])
    def test_batch_must_be_rows_of_tokens(self, shape):
        model = RetrievalModel(tiny_config())
        with pytest.raises(InputError, match="token batch must be"):
            model.encode_text_batch(np.zeros(shape, dtype=np.int64))

    def test_token_out_of_vocabulary_rejected(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg)
        with pytest.raises(InputError):
            model.encode_text(TextSequence(np.array([cfg.vocab_size])))

    @pytest.mark.parametrize(
        "bad", [[1.5], [np.nan], [2.0, 3.0], ["1"], [[1, 2], [3]], None, [True, False, True]]
    )
    def test_only_integer_token_ids_accepted(self, bad):
        # A float id is not truncated to an integer, nor a bool read as 0 or 1;
        # anything else is typed too.
        with pytest.raises(InputError):
            TextSequence(bad)
        model = RetrievalModel(tiny_config())
        with pytest.raises(InputError):
            model.encode_text_batch([bad])


class TestVideoEncoder:
    def test_identical_clip_bit_identical_encoding(self):
        cfg = tiny_config(seed=5)
        model = RetrievalModel(cfg)
        clip = VideoClip(RNG.normal(size=(2, 4, 16)))
        a = model.encode_video(clip)
        b = model.encode_video(clip)
        assert np.array_equal(a.global_vec, b.global_vec)
        assert np.array_equal(a.focus_indicators, b.focus_indicators)
        locals_a = model.encode_video_batch(clip.frames[None])[2].data
        locals_b = model.encode_video_batch(clip.frames[None])[2].data
        assert np.array_equal(locals_a, locals_b)

    def test_global_unit_norm(self):
        cfg = tiny_config(seed=5)
        model = RetrievalModel(cfg)
        for _ in range(5):
            enc = model.encode_video(VideoClip(RNG.normal(size=(2, 4, 16)) * 10))
            assert abs(np.linalg.norm(enc.global_vec) - 1.0) < 1e-9

    @pytest.mark.parametrize("frames", [1, 2])
    def test_locals_row_count_is_patch_count(self, frames):
        cfg = tiny_config(seed=5)
        model = RetrievalModel(cfg)
        _, _, locals_ = model.encode_video_batch(RNG.normal(size=(1, frames, 4, 16)))
        assert locals_.shape == (1, cfg.patch_count, cfg.dim)

    def test_clip_longer_than_frame_count_rejected(self):
        # The frame table has frame_count rows: the generated length is the bound.
        cfg = tiny_config(seed=5)
        model = RetrievalModel(cfg)
        assert model.params["video.frame_embedding"].shape == (cfg.frame_count, cfg.dim)
        with pytest.raises(InputError):
            model.encode_video(VideoClip(RNG.normal(size=(cfg.frame_count + 1, 4, 16))))
        with pytest.raises(InputError):
            model.encode_video_batch(RNG.normal(size=(2, cfg.frame_count + 1, 4, 16)))

    def test_empty_clip_rejected(self):
        with pytest.raises(InputError):
            VideoClip(np.zeros((0, 4, 16)))

    @pytest.mark.parametrize("shape", [(2, 4, 16), (1, 2, 2, 4, 16)])
    def test_batch_must_be_4d(self, shape):
        model = RetrievalModel(tiny_config(seed=5))
        with pytest.raises(InputError, match=r"clip batch must be \(B, T, P\^2, D\)"):
            model.encode_video_batch(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 2, 4, 16), (2, 0, 4, 16)])
    def test_batch_without_clips_or_frames_rejected(self, shape):
        model = RetrievalModel(tiny_config(seed=5))
        with pytest.raises(InputError, match="B >= 1 clips of T >= 1 frames"):
            model.encode_video_batch(np.zeros(shape))

    @pytest.mark.parametrize("bad", [[[["a"]]], [[[1.0, 2.0], [3.0]]], [[[1j]]], [[[True]]]])
    def test_non_numeric_clip_rejected(self, bad):
        with pytest.raises(InputError):
            VideoClip(bad)
        with pytest.raises(InputError):
            RetrievalModel(tiny_config(seed=5)).encode_video_batch([bad])

    def test_wrong_patch_grid_rejected(self):
        cfg = tiny_config(seed=5)
        model = RetrievalModel(cfg)
        with pytest.raises(DimensionError):
            model.encode_video(VideoClip(RNG.normal(size=(2, 5, 16))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_clip_rejected(self, bad):
        model = RetrievalModel(tiny_config(seed=5))
        clips = RNG.normal(size=(3, 2, 4, 16))
        clips[1, 0, 2, 7] = bad
        with pytest.raises(InputError):
            model.encode_video(VideoClip(clips[1]))
        with pytest.raises(InputError):
            model.encode_video_batch(clips)


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
