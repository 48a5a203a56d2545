"""Synthetic data generation, gallery validation, and config parsing."""

import numpy as np
import pytest

from focusrank.config import RunConfig, apply_overrides, default_config, load_config
from focusrank.data import PairedDataset, SyntheticSpec, generate_synthetic_pairs
from focusrank.errors import ConfigError, InputError
from focusrank.pipeline import SIDE_VIDEO, Gallery

RNG = np.random.default_rng(61)


def small_spec(**overrides):
    spec = SyntheticSpec(
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
        setattr(spec, key, value)
    return spec


class TestGenerator:
    def test_same_spec_bit_identical(self):
        a = generate_synthetic_pairs(small_spec())
        b = generate_synthetic_pairs(small_spec())
        assert np.array_equal(a.texts, b.texts)
        assert np.array_equal(a.videos, b.videos)
        assert np.array_equal(a.groups, b.groups)

    def test_different_seed_differs(self):
        a = generate_synthetic_pairs(small_spec())
        b = generate_synthetic_pairs(small_spec(seed=1))
        assert not np.array_equal(a.videos, b.videos)

    def test_group_labels_partition_cohorts(self):
        ds = generate_synthetic_pairs(small_spec())
        counts = np.bincount(ds.groups)
        assert np.all(counts == 5)
        assert len(counts) == 4

    def test_noiseless_items_pairwise_distinct(self):
        ds = generate_synthetic_pairs(small_spec(noise_level=0.0))
        n = len(ds)
        for i in range(n):
            for j in range(i + 1, n):
                assert not np.array_equal(ds.texts[i], ds.texts[j]) or not np.array_equal(
                    ds.videos[i], ds.videos[j]
                )

    def test_cohort_of_one_has_no_hard_negatives(self):
        ds = generate_synthetic_pairs(small_spec(cohort_size=1, coarse_clusters=20))
        assert len(np.unique(ds.groups)) == len(ds)

    def test_fine_token_distinguishes_cohort_members(self):
        ds = generate_synthetic_pairs(small_spec())
        for cohort in range(4):
            members = np.nonzero(ds.groups == cohort)[0]
            fine_tokens = ds.texts[members, 2]
            assert len(set(fine_tokens.tolist())) == len(members)
            # shared coarse tokens within the cohort
            assert len(set(ds.texts[members, 0].tolist())) == 1
            assert len(set(ds.texts[members, 1].tolist())) == 1

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_pairs(small_spec(cohort_size=3))  # 20 % 3 != 0
        with pytest.raises(ConfigError):
            generate_synthetic_pairs(small_spec(coarse_clusters=5))  # 5*5 != 20


def make_gallery(n=6, c=8, n_local=3):
    globals_ = RNG.normal(size=(n, c))
    globals_ /= np.linalg.norm(globals_, axis=1, keepdims=True)
    return Gallery(np.arange(n) * 3 + 1, globals_, RNG.normal(size=(n, n_local, c)), SIDE_VIDEO)


class TestGalleryValidation:
    def test_empty_gallery_rejected_at_construction(self):
        with pytest.raises(InputError):
            Gallery(np.array([], dtype=np.int64), np.zeros((0, 4)), np.zeros((0, 1, 4)), SIDE_VIDEO)

    @pytest.mark.parametrize("part", ["globals", "locals"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, part, bad):
        gallery = make_gallery()
        globals_, locals_ = gallery.globals_.copy(), gallery.locals_.copy()
        (globals_ if part == "globals" else locals_)[3, 1] = bad
        with pytest.raises(InputError):
            Gallery(gallery.ids, globals_, locals_, SIDE_VIDEO)


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
        cfg = default_config()
        apply_overrides(cfg, {"k": "5"})
        assert cfg.k == 5
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), {"banana": "1"})
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), {"temperature": "-1"})

    def test_k_train_bounds(self):
        cfg = default_config()
        cfg.k_train = cfg.batch_size + 1
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = default_config()
        assert cfg.resolved_k_train() == min(cfg.k, cfg.batch_size)
        assert cfg.resolved_k_train(batch=3) == 3
