"""Synthetic data generation, gallery validation, and config parsing."""

import os
import sys
import threading

import numpy as np
import pytest

from focusrank.config import RunConfig, apply_overrides, load_config
from focusrank.data import ENCODE_BLOCK, build_galleries, encode_dataset, generate_synthetic_pairs
from focusrank.errors import ConfigError, InputError
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
        fine_scale=1.0,
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


class TestEncodeDataset:
    PAIRS = 40  # three blocks per side, the last one short

    def setup_method(self):
        assert self.PAIRS > 2 * ENCODE_BLOCK
        cfg = small_config(pair_count=self.PAIRS, coarse_clusters=self.PAIRS // 5)
        self.dataset = generate_synthetic_pairs(cfg)
        self.model = RetrievalModel(cfg)

    @staticmethod
    def set_cores(monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)

    def test_output_bit_identical_on_any_core_count(self, monkeypatch):
        threads = set()
        for name in ("encode_text_batch", "encode_video_batch"):
            def recording(items, encode=getattr(self.model, name)):
                threads.add(threading.get_ident())
                return encode(items)
            monkeypatch.setattr(self.model, name, recording)

        self.set_cores(monkeypatch, 1)
        one = encode_dataset(self.model, self.dataset)
        assert threads == {threading.get_ident()}

        # More threads than this machine may have cores, switching often.
        self.set_cores(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            many = encode_dataset(self.model, self.dataset)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) > 1
        for side_one, side_many in zip(one, many, strict=True):
            for a, b in zip(side_one, side_many, strict=True):
                assert a.shape[0] == self.PAIRS
                assert np.array_equal(a, b)

    def test_error_in_a_late_block_raised_after_helpers_joined(self, monkeypatch):
        self.dataset.videos[self.PAIRS - 3, 1, 2, 0] = np.nan
        self.set_cores(monkeypatch, 4)
        before = threading.active_count()
        with pytest.raises(InputError, match="NaN"):
            build_galleries(self.model, self.dataset)
        assert threading.active_count() == before


def make_gallery(n=6, c=8, n_local=3):
    globals_ = RNG.normal(size=(n, c))
    globals_ /= np.linalg.norm(globals_, axis=1, keepdims=True)
    return Gallery(globals_, RNG.normal(size=(n, n_local, c)))


class TestGalleryValidation:
    def test_empty_gallery_rejected_at_construction(self):
        with pytest.raises(InputError):
            Gallery(np.zeros((0, 4)), np.zeros((0, 1, 4)))

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
        assert cfg.fusion_blocks == 1
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
        # Training always uses min(k, batch) candidates, and the generated
        # text_len and frame_count bound the encoders' inputs; the knobs are gone.
        for key in ("k_train", "max_text_len", "max_frames"):
            with pytest.raises(ConfigError):
                apply_overrides(RunConfig(), {key: "2"})

    def test_unknown_attribute_rejected(self):
        # A removed or misspelt key set in code fails instead of being ignored.
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.k_train = 2
