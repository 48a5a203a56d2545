"""Synthetic data generation, gallery validation, and config parsing."""

import hashlib
import os
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from focusrank import pool
from focusrank.config import RunConfig, apply_overrides, load_config
from focusrank.data import BLOCK, build_galleries, generate_synthetic_pairs
from focusrank.encoders import TextSequence, VideoClip
from focusrank.errors import ConfigError, DimensionError, InputError
from focusrank.model import RetrievalModel
from focusrank.pipeline import Gallery

RNG = np.random.default_rng(61)


def small_config(**overrides):
    # Fields set after construction, as `apply_overrides` does, so that the
    # generator's own validation is what rejects a bad combination.
    cfg = RunConfig(
        pair_count=20,
        latent_dim=6,
        coarse_clusters=4,
        cohort_size=5,
        noise_level=0.1,
        text_len=6,
        frame_count=2,
        patch_count=4,
        patch_dim=8,
        vocab_size=64,
        seed=0,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestGenerator:
    def test_same_spec_bit_identical(self):
        a = generate_synthetic_pairs(small_config())
        b = generate_synthetic_pairs(small_config())
        assert np.array_equal(a.texts, b.texts)
        assert np.array_equal(a.videos, b.videos)
        assert np.array_equal(a.groups, b.groups)

    def test_different_seed_differs(self):
        a = generate_synthetic_pairs(small_config())
        b = generate_synthetic_pairs(small_config(seed=1))
        assert not np.array_equal(a.videos, b.videos)

    def test_group_labels_partition_cohorts(self):
        ds = generate_synthetic_pairs(small_config())
        counts = np.bincount(ds.groups)
        assert np.all(counts == 5)
        assert len(counts) == 4

    def test_noiseless_items_pairwise_distinct(self):
        ds = generate_synthetic_pairs(small_config(noise_level=0.0))
        n = len(ds)
        for i in range(n):
            for j in range(i + 1, n):
                assert not np.array_equal(ds.texts[i], ds.texts[j]) or not np.array_equal(
                    ds.videos[i], ds.videos[j]
                )

    def test_cohort_of_one_has_no_hard_negatives(self):
        ds = generate_synthetic_pairs(small_config(cohort_size=1, coarse_clusters=20))
        assert len(np.unique(ds.groups)) == len(ds)

    def test_fine_token_distinguishes_cohort_members(self):
        ds = generate_synthetic_pairs(small_config())
        for cohort in range(4):
            members = np.nonzero(ds.groups == cohort)[0]
            fine_tokens = ds.texts[members, 2]
            assert len(set(fine_tokens.tolist())) == len(members)
            # shared coarse tokens within the cohort
            assert len(set(ds.texts[members, 0].tolist())) == 1
            assert len(set(ds.texts[members, 1].tolist())) == 1

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_pairs(small_config(cohort_size=3))  # 20 % 3 != 0
        with pytest.raises(ConfigError):
            generate_synthetic_pairs(small_config(coarse_clusters=5))  # 5*5 != 20

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(pair_count=257, cohort_size=1, coarse_clusters=0),  # > 256 coarse ids
            dict(pair_count=17, cohort_size=17, coarse_clusters=0),  # > 16 fine tokens
            dict(vocab_size=51),  # no room for filler ids
        ],
        ids=["clusters", "cohort", "vocab"],
    )
    def test_token_layout_limits_rejected(self, overrides):
        cfg = small_config(**overrides)
        cfg.validate()  # a valid RunConfig; only the token layout rejects it
        with pytest.raises(ConfigError):
            generate_synthetic_pairs(cfg)


# sha256 of the generated texts, videos and groups (`tobytes()`), pinned from
# the item-by-item generator that drew every stream from its own fresh Philox.
# Any change to the generator must keep these bytes.
GENERATOR_DIGESTS = {
    "default": ({}, (
        "bd406462e47ab074cbb98ec7169201d873fd809fb0c995c67b8e2a735f79a08a",
        "d1aac88a8a33e92801b16a31850aa77dc5ec2e1c8edd5f70d467777afc9a3bb0",
        "2ad296ae134c954e300bfe76c628b7a5a38a01226eef0c054020aa2008ad04f2",
    )),
    "several_blocks": ({"pair_count": 1024, "cohort_size": 16}, (
        "d0a197036893fcf7607b8d17daf22d59295868a66aa698e1f07a5b918133979e",
        "078db52c1db8485f1f14a94cc3be6b2804c2150c9b663ac2ad545f815aa4e189",
        "6f9a04216ce84ed3a2ef19a2010723c498d866f2bb5d6eda67ea1bd16782bfd8",
    )),
    "noiseless": ({"noise_level": 0.0}, (
        "bd406462e47ab074cbb98ec7169201d873fd809fb0c995c67b8e2a735f79a08a",
        "5b7c53e8762ce897e26e2ab52b0c4a3b11147e5c28b636469b5213c4903268f1",
        "2ad296ae134c954e300bfe76c628b7a5a38a01226eef0c054020aa2008ad04f2",
    )),
    "cohort_of_one": ({"pair_count": 200, "cohort_size": 1}, (
        "db6a1a3a51dfc53d7569b3e052b9dc6ecfeb0f5d8287d67bd8eb27fe20aa36d8",
        "abe8406d1215889a198d29a7be05c51b3f549e4e2f822d75b5edecc9d133c594",
        "de663cfb3b82787ec7c32624aba8cd8de6555fc906b507971a2c2f3207b5fe52",
    )),
}


@pytest.mark.parametrize("case", GENERATOR_DIGESTS)
def test_generator_bytes_pinned(case):
    overrides, digests = GENERATOR_DIGESTS[case]
    cfg = RunConfig()
    for key, value in overrides.items():
        setattr(cfg, key, value)
    ds = generate_synthetic_pairs(cfg)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (ds.texts, ds.videos, ds.groups))
    assert got == digests


class TestBlockPool:
    """Encoding and generation share one block pool (`pool.on_pool`)."""

    PAIRS = 60  # four blocks (of each side), the last one short
    CASES = ("encode", "generate")

    def setup_method(self):
        assert self.PAIRS > 3 * BLOCK
        self.cfg = small_config(pair_count=self.PAIRS, coarse_clusters=self.PAIRS // 5)

    def run(self, case):
        dataset = generate_synthetic_pairs(self.cfg)
        if case == "generate":
            return dataset.texts, dataset.videos, dataset.groups
        text_q, video_q, videos, texts = build_galleries(RetrievalModel(self.cfg), dataset)
        return [*text_q, *video_q, videos.locals_, texts.locals_]

    @staticmethod
    def set_cores(monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)

    @pytest.mark.parametrize("case", CASES)
    def test_output_bit_identical_on_any_core_count(self, monkeypatch, case):
        threads = set()
        on_pool = pool.on_pool

        def recording_pool(work, tasks):
            def recorded(task):
                threads.add(threading.get_ident())
                work(task)
            return on_pool(recorded, tasks)

        monkeypatch.setattr(pool, "on_pool", recording_pool)
        self.set_cores(monkeypatch, 1)
        one = self.run(case)
        assert threads == {threading.get_ident()}

        # More threads than this machine may have cores, switching often.
        self.set_cores(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            many = self.run(case)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) > 1
        for a, b in zip(one, many, strict=True):
            assert a.shape[0] == self.PAIRS
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", CASES)
    def test_error_in_a_late_block_raised_after_helpers_joined(self, monkeypatch, case):
        if case == "encode":
            dataset = generate_synthetic_pairs(self.cfg)
            dataset.videos[self.PAIRS - 3, 1, 2, 0] = np.nan  # the video encoder rejects it
            fail = lambda: build_galleries(RetrievalModel(self.cfg), dataset)  # noqa: E731
        else:
            on_pool = pool.on_pool

            def failing_pool(work, tasks):
                def work_or_fail(task):
                    if task == tasks[-1]:
                        raise InputError("NaN in the last block")
                    work(task)
                    time.sleep(0.05)  # other blocks still run when the error surfaces
                return on_pool(work_or_fail, tasks)

            monkeypatch.setattr(pool, "on_pool", failing_pool)
            fail = lambda: generate_synthetic_pairs(self.cfg)  # noqa: E731
        self.set_cores(monkeypatch, 4)
        before = threading.active_count()
        with pytest.raises(InputError, match="NaN"):
            fail()
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [1, 4])
    def test_error_of_the_first_failing_task_raised(self, monkeypatch, cores):
        def work(task):
            if task == 0:
                time.sleep(0.05)  # on two threads, task 1 fails first
            raise InputError(f"task {task} failed")

        self.set_cores(monkeypatch, cores)
        before = threading.active_count()
        with pytest.raises(InputError, match="task 0 failed"):
            pool.on_pool(work, range(2))
        assert threading.active_count() == before


def test_single_item_encoding_equals_its_batched_row():
    """`encode_text`/`encode_video` of one item give its `build_galleries` row
    bit for bit; the `query` verb encodes its one request this way."""
    cfg = RunConfig(pair_count=20)
    model = RetrievalModel(cfg)
    dataset = generate_synthetic_pairs(cfg)
    (tg, tf), (vg, vf), _, _ = build_galleries(model, dataset)
    for i in range(cfg.pair_count):
        for item, global_vec, focus in (
            (model.encode_text(TextSequence(dataset.texts[i])), tg[i], tf[i]),
            (model.encode_video(VideoClip(dataset.videos[i])), vg[i], vf[i]),
        ):
            assert item.global_vec.tobytes() == global_vec.tobytes()
            assert item.focus_indicators.tobytes() == focus.tobytes()


def test_model_without_indicators_encodes_width_zero_focus_in_both_paths():
    """Without query indicators, one item's focus and its row of
    `build_galleries`' focus take one form: a (0, C) array."""
    cfg = small_config(use_query_indicators=False)
    model = RetrievalModel(cfg)
    dataset = generate_synthetic_pairs(cfg)
    (_, tf), (_, vf), _, _ = build_galleries(model, dataset)
    assert tf.shape == vf.shape == (cfg.pair_count, 0, cfg.dim)
    for i in (0, cfg.pair_count - 1):
        for item, focus in (
            (model.encode_text(TextSequence(dataset.texts[i])), tf[i]),
            (model.encode_video(VideoClip(dataset.videos[i])), vf[i]),
        ):
            assert item.focus_indicators.shape == focus.shape == (0, cfg.dim)
            assert item.focus_indicators.dtype == focus.dtype == np.float64


def make_gallery(n=6, c=8, n_local=3):
    globals_ = RNG.normal(size=(n, c))
    globals_ /= np.linalg.norm(globals_, axis=1, keepdims=True)
    return Gallery(globals_, RNG.normal(size=(n, n_local, c)))


class TestGalleryValidation:
    def test_empty_gallery_rejected_at_construction(self):
        with pytest.raises(InputError):
            Gallery(np.zeros((0, 4)), np.zeros((0, 1, 4)))

    @pytest.mark.parametrize("globals_shape, locals_shape, match", [
        ((4,), (4, 2, 3), "needs"),
        ((4, 3), (4, 3), "needs"),
        ((4, 3), (5, 2, 3), "entry count"),
        ((4, 3), (4, 2, 5), "width"),
    ])
    def test_mis_shaped_arrays_rejected(self, globals_shape, locals_shape, match):
        with pytest.raises(DimensionError, match=match):
            Gallery(np.zeros(globals_shape), np.zeros(locals_shape))

    @pytest.mark.parametrize("part", ["globals", "locals"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, part, bad):
        gallery = make_gallery()
        globals_, locals_ = gallery.globals_.copy(), gallery.locals_.copy()
        (globals_ if part == "globals" else locals_)[3, 1] = bad
        with pytest.raises(InputError):
            Gallery(globals_, locals_)


class TestConfig:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.indicator_count == 4
        assert cfg.k == 10
        assert cfg.temperature == 0.01
        assert cfg.weight_decay == 0.2
        assert cfg.lr_fusion == 1e-4
        assert cfg.lr_base == 1e-6

    def test_zero_k_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k: 0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_indicator_count_range(self, tmp_path):
        path = tmp_path / "m6.cfg"
        path.write_text("indicator_count: 6\n")
        assert load_config(path).indicator_count == 6
        path.write_text("indicator_count: 7\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("dim: 32\nindicater_count: 4\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert ":2:" in str(err.value)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\ndim: 32  # trailing\nuse_gumbel: false\n")
        cfg = load_config(path)
        assert cfg.dim == 32
        assert cfg.use_gumbel is False

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("dim 32\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert ":1:" in str(err.value)

    def test_non_utf8_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(path) in str(err.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("dim: 32\ndim: 64\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides_validate(self):
        cfg = RunConfig()
        apply_overrides(cfg, {"k": "5"})
        assert cfg.k == 5
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"banana": "1"})
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"temperature": "-1"})

    @pytest.mark.parametrize(
        "key", ["temperature", "gumbel_temp", "lr_base", "lr_fusion", "weight_decay"]
    )
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {key: value})

    def test_removed_keys_rejected(self):
        # Training always uses min(k, batch) candidates, the generated text_len
        # and frame_count bound the encoders' inputs, and one fusion block and
        # unit fine detail are the only ones built; the knobs are gone.
        for key in ("k_train", "max_text_len", "max_frames", "fusion_blocks", "fine_scale"):
            with pytest.raises(ConfigError):
                apply_overrides(RunConfig(), {key: "2"})

    def test_removed_key_in_a_file_rejected(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("fine_scale: 1.0\n")
        with pytest.raises(ConfigError, match=":1: unknown config key: 'fine_scale'"):
            load_config(path)

    @pytest.mark.parametrize("raw", ["yes", "1", "True", ""])
    def test_bool_value_must_be_true_or_false(self, tmp_path, raw):
        with pytest.raises(ConfigError, match="expected true/false"):
            apply_overrides(RunConfig(), {"use_gumbel": raw})
        path = tmp_path / "b.cfg"
        path.write_text(f"use_gumbel: {raw}\n")
        with pytest.raises(ConfigError, match=":1: bad value for 'use_gumbel'"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("k", 2.5), ("dim", 8.0), ("k", True), ("seed", None), ("dim", "8"),
        ("use_gumbel", 1), ("use_gumbel", "true"), ("use_stage1_scores", np.bool_(True)),
        ("temperature", True), ("temperature", "0.1"), ("noise_level", None),
        ("query_direction", 1), ("checkpoint", None),
    ])
    def test_wrongly_typed_value_rejected(self, key, value):
        # Set in code, past the parser: the model would fail with a bare TypeError.
        with pytest.raises(ConfigError, match=f"^{key} must be of type"):
            RunConfig(**{key: value}).validate()
        with pytest.raises(ConfigError, match=f"^{key} must be of type"):
            RetrievalModel(RunConfig(**{key: value}))

    @pytest.mark.parametrize("key, value", [
        ("k", np.int64(3)), ("temperature", 1), ("temperature", np.float32(0.5)),
        ("noise_level", Fraction(1, 20)), ("weight_decay", np.int64(0)),
    ])
    def test_integers_and_real_numbers_accepted(self, key, value):
        assert getattr(RunConfig(**{key: value}).validate(), key) == value

    def test_unknown_attribute_rejected(self):
        # A removed or misspelt key set in code fails instead of being ignored.
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.k_train = 2
