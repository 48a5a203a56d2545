"""Training step mechanics, the optimizer, and in-batch candidate building."""

import gc
from dataclasses import replace

import numpy as np
import pytest

from focusrank.config import RunConfig
from focusrank.data import generate_synthetic_pairs, spec_from_config
from focusrank.errors import InputError, TrainingAbort, UsageError
from focusrank.model import RetrievalModel
from focusrank.ops import ParameterSet
from focusrank.pipeline import FusionNetwork
from focusrank.rng import RandomStream
from focusrank.tensor import Tensor
from focusrank.training import (
    AdamW,
    Batch,
    build_candidates,
    iterate_batches,
    shuffle_cohorts,
    train_loop,
    train_step,
    training_loss,
)

RNG = np.random.default_rng(71)


def tiny_config(**overrides):
    cfg = RunConfig()
    cfg.dim = 16
    cfg.layers = 1
    cfg.vocab_size = 64
    cfg.text_len = 6
    cfg.patch_count = 4
    cfg.patch_dim = 16
    cfg.frame_count = 2
    cfg.mlp_hidden = 16
    cfg.k = 3
    cfg.pair_count = 12
    cfg.cohort_size = 3
    cfg.coarse_clusters = 0
    cfg.batch_size = 4
    cfg.epochs = 1
    cfg.lr_base = 1e-3
    cfg.lr_fusion = 1e-2
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg.validate()


def make_batch(cfg, n=None, seed=0):
    n = n or cfg.batch_size
    rng = np.random.default_rng(seed)
    return Batch(
        texts=rng.integers(0, cfg.vocab_size, (n, cfg.text_len)),
        videos=rng.normal(size=(n, cfg.frame_count, cfg.patch_count, cfg.patch_dim)),
        item_ids=np.arange(n),
    )


class TestBuildCandidates:
    # Every row scores the batch alike; row i's true item is entry i.
    SIMS = np.tile([0.9, 0.5, 0.8, 0.1], (4, 1))

    def test_true_already_present(self):
        cands, pos = build_candidates(self.SIMS, k=2)
        np.testing.assert_array_equal(cands[[0, 2]], [[0, 2], [0, 2]])
        np.testing.assert_array_equal(pos[[0, 2]], [0, 1])

    def test_true_injected_into_last_slot(self):
        cands, pos = build_candidates(self.SIMS, k=2)
        np.testing.assert_array_equal(cands[[1, 3]], [[0, 1], [0, 3]])
        np.testing.assert_array_equal(pos[[1, 3]], [1, 1])

    def test_k_equals_batch_never_injects(self):
        sims = RNG.normal(size=(6, 6))
        cands, pos = build_candidates(sims, k=6)
        for true_index in range(6):
            np.testing.assert_array_equal(np.sort(cands[true_index]), np.arange(6))
            assert cands[true_index, pos[true_index]] == true_index


class TestTrainStep:
    def test_bitwise_deterministic(self):
        cfg = tiny_config()
        reports = []
        for _ in range(2):
            model = RetrievalModel(replace(cfg, seed=3))
            opt = AdamW(model.params, cfg.lr_base, cfg.lr_fusion, cfg.weight_decay)
            report = train_step(
                model, make_batch(cfg), opt, RandomStream(7).child("step")
            )
            reports.append(report)
        assert reports[0] == reports[1]

    def test_one_backward_over_both_terms_equals_two(self):
        # train_step runs one backward over combined + calibration. That is
        # exact while the calibration reaches no tensor the combined
        # objective reaches, which leaves the delta scale to it alone.
        cfg = tiny_config()
        model = RetrievalModel(replace(cfg, seed=3))
        model.params["fusion.delta_scale"].data = np.asarray(0.3)
        batch = make_batch(cfg)
        grads = []
        for summed in (False, True):
            bundle = training_loss(model, batch, rng=RandomStream(2).child("s"))
            model.params.zero_grad()
            if summed:
                (bundle.combined_tensor + bundle.scale_calibration).backward()
            else:
                bundle.combined_tensor.backward()
                bundle.scale_calibration.backward()
            grads.append({n: g.copy() for n, g in model.params.gradients().items()})
        for name, g in grads[0].items():
            assert np.array_equal(g, grads[1][name]), name
        assert grads[0]["fusion.delta_scale"] != 0

    def backward_once(self):
        cfg = tiny_config()
        model = RetrievalModel(replace(cfg, seed=3))
        batch = make_batch(cfg)
        bundle = training_loss(model, batch, rng=RandomStream(2).child("s"))
        model.params.zero_grad()
        (bundle.combined_tensor + bundle.scale_calibration).backward()
        return model, batch, cfg, bundle

    def test_backward_leaves_no_graph_behind(self):
        def live_tensors():
            gc.collect()
            return sum(isinstance(o, Tensor) for o in gc.get_objects())

        model, batch, cfg, _ = self.backward_once()
        before = live_tensors()
        bundle = training_loss(model, batch, rng=RandomStream(2).child("s"))
        model.params.zero_grad()
        (bundle.combined_tensor + bundle.scale_calibration).backward()
        own = sum(isinstance(v, Tensor) for v in vars(bundle).values())
        assert own == 2
        # Only the bundle's own tensors outlive the backward: none of the graph
        # beneath them, and no intermediate gradient.
        assert live_tensors() - before <= own

    def test_parameter_gradients_are_owned(self):
        # A handed-over gradient must be an array of its own: a parameter's
        # gradient sharing memory with another's, or with any parameter's
        # values, would be changed by AdamW's in-place updates or accumulation.
        model, _, _, _ = self.backward_once()
        grads = [(name, t.grad) for name, t in model.params.items() if t.grad is not None]
        assert len(grads) > len(model.params.names()) // 2
        values = [t.data for _, t in model.params.items()]
        for i, (name, g) in enumerate(grads):
            for other, h in grads[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)
            for data in values:
                assert not np.shares_memory(g, data), name

    def test_calibration_composes_like_inference_without_stage1(self):
        # Inference ranks the block by scale * logits alone when stage-1 scores
        # are off, so the calibration must leave them out too: at scale 0 every
        # composed score is 0 and each direction's cross-entropy is ln(k_train).
        cfg = tiny_config(seed=3, use_stage1_scores=False)
        model = RetrievalModel(cfg)
        model.params["fusion.delta_scale"].data = np.asarray(0.0)
        bundle = training_loss(model, make_batch(cfg))
        k_train = min(cfg.k, cfg.batch_size)
        assert abs(float(bundle.scale_calibration.data) - 2 * np.log(k_train)) < 1e-12

    def test_parameters_change_and_ce_reaches_mlp(self):
        cfg = tiny_config()
        model = RetrievalModel(replace(cfg, seed=3))
        before = {n: t.data.copy() for n, t in model.params.items()}

        bundle = training_loss(model, make_batch(cfg))
        model.params.zero_grad()
        bundle.combined_tensor.backward()
        grads = model.params.gradients()
        # Even with delta scale frozen at 0, the focused CE feeds the MLP.
        assert float(np.abs(grads["fusion.mlp.w2"]).max()) > 0
        assert float(np.abs(grads["fusion.mlp.w1"]).max()) > 0

        opt = AdamW(model.params, cfg.lr_base, cfg.lr_fusion, cfg.weight_decay)
        opt.step()
        changed = [n for n, t in model.params.items() if not np.array_equal(t.data, before[n])]
        assert "fusion.mlp.w2" in changed
        assert "text.token_embedding" in changed

    def test_batch_of_two_candidates_cover_batch(self):
        cfg = tiny_config(batch_size=2)
        model = RetrievalModel(replace(cfg, seed=1))
        batch = make_batch(cfg, n=2)
        bundle = training_loss(model, batch)
        assert np.isfinite(float(bundle.combined_tensor.data))

    @pytest.mark.parametrize("batch_size,width", [(2, 2), (3, 3), (4, 3), (6, 3)])
    def test_candidate_rows_hold_min_k_and_batch(self, batch_size, width, monkeypatch):
        cfg = tiny_config(batch_size=batch_size)  # k = 3
        model = RetrievalModel(replace(cfg, seed=1))
        widths = []
        candidate_tokens = model.fusion.candidate_tokens

        def record(locals_, cand_indices):
            widths.append(cand_indices.shape[1])
            return candidate_tokens(locals_, cand_indices)

        monkeypatch.setattr(model.fusion, "candidate_tokens", record)
        training_loss(model, make_batch(cfg))
        assert widths == [width, width]  # one row width per direction

    def test_loss_terms_permutation_equivariant(self):
        cfg = tiny_config(batch_size=6)
        model = RetrievalModel(replace(cfg, seed=2))
        # nonzero fusion weights so the focused path is nontrivial
        rng = np.random.default_rng(5)
        for name in model.params.names():
            if name.endswith(("out_w", "out_b", "delta_scale")):
                t = model.params[name]
                t.data = rng.normal(size=t.data.shape, scale=0.2)
        batch = make_batch(cfg, n=6)
        a = training_loss(model, batch).report
        perm = np.random.default_rng(9).permutation(6)
        permuted = Batch(batch.texts[perm], batch.videos[perm], batch.item_ids[perm])
        b = training_loss(model, permuted).report
        assert abs(a.t2v - b.t2v) < 1e-12
        assert abs(a.v2t - b.v2t) < 1e-12
        assert abs(a.focus_t - b.focus_t) < 1e-12
        assert abs(a.focus_v - b.focus_v) < 1e-12

    def test_batch_of_one_rejected(self):
        cfg = tiny_config()
        with pytest.raises(InputError, match="at least 2 pairs"):
            training_loss(RetrievalModel(cfg), make_batch(cfg, n=1))

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        cfg = tiny_config()
        model = RetrievalModel(replace(cfg, seed=3))
        emb = model.params["text.token_embedding"]
        emb.data = np.full_like(emb.data, np.nan)
        opt = AdamW(model.params, cfg.lr_base, cfg.lr_fusion, cfg.weight_decay)
        with pytest.raises(TrainingAbort) as err:
            train_step(model, make_batch(cfg), opt, RandomStream(0))
        assert "batch items" in str(err.value)

    def test_gumbel_noise_changes_loss_but_not_deterministic_mode(self):
        cfg = tiny_config()
        model = RetrievalModel(replace(cfg, seed=3))
        rng = np.random.default_rng(5)
        for name in model.params.names():
            if name.endswith("out_w"):
                t = model.params[name]
                t.data = rng.normal(size=t.data.shape, scale=0.2)
        batch = make_batch(cfg)
        det1 = training_loss(model, batch).report  # no stream: no noise
        det2 = training_loss(model, batch).report
        assert det1 == det2
        noisy1 = training_loss(model, batch, rng=RandomStream(1).child("a")).report
        noisy2 = training_loss(model, batch, rng=RandomStream(1).child("b")).report
        assert noisy1.focus_t != noisy2.focus_t
        # use_gumbel=false ignores the stream.
        model.cfg.use_gumbel = False
        quiet = training_loss(model, batch, rng=RandomStream(1).child("a")).report
        assert quiet == det1


class TestAdamW:
    def test_group_rates_differ(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg)
        opt = AdamW(model.params, lr_base=0.0, lr_fusion=1.0, weight_decay=0.0)
        bundle = training_loss(model, make_batch(cfg))
        model.params.zero_grad()
        bundle.combined_tensor.backward()
        before = {n: t.data.copy() for n, t in model.params.items()}
        opt.step()
        for name, t in model.params.items():
            if not name.startswith("fusion."):
                assert np.array_equal(t.data, before[name]), name

    def test_only_fusion_network_parameters_are_named_fusion(self):
        cfg = tiny_config()
        own = ParameterSet()
        FusionNetwork(own, cfg, RandomStream(0))
        assert own.names() and all(name.startswith("fusion.") for name in own.names())
        others = set(RetrievalModel(cfg).params.names()) - set(own.names())
        assert others and not any(name.startswith("fusion.") for name in others)

    @pytest.mark.parametrize("frozen", ["base", "fusion"])
    def test_learning_rate_follows_the_fusion_name(self, frozen):
        cfg = tiny_config()
        model = RetrievalModel(cfg)
        rates = {"lr_base": 0.1, "lr_fusion": 0.1, f"lr_{frozen}": 0.0}
        opt = AdamW(model.params, **rates, weight_decay=0.5)
        bundle = training_loss(model, make_batch(cfg))
        model.params.zero_grad()
        bundle.combined_tensor.backward()
        for _, t in model.params.items():
            t.data += 0.5  # no zero left, so a nonzero rate moves each one, by decay at least
        before = {n: t.data.copy() for n, t in model.params.items()}
        opt.step()
        unchanged = {n for n, t in model.params.items() if np.array_equal(t.data, before[n])}
        fusion = {n for n in model.params.names() if n.startswith("fusion.")}
        assert unchanged == (set(model.params.names()) - fusion if frozen == "base" else fusion)

    def test_weight_decay_shrinks_unused_weights(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg)
        opt = AdamW(model.params, lr_base=0.1, lr_fusion=0.1, weight_decay=0.5)
        w = model.params["text.token_embedding"]
        w.grad = None  # no gradient: pure decay
        before = np.abs(w.data).sum()
        opt.step()
        assert np.abs(w.data).sum() < before

    def test_log_temperature_exempt_from_decay(self):
        cfg = tiny_config()
        model = RetrievalModel(cfg)
        opt = AdamW(model.params, lr_base=0.1, lr_fusion=0.1, weight_decay=0.5)
        lt = model.params["log_temperature"]
        before = lt.data.copy()
        opt.step()
        assert np.array_equal(lt.data, before)


class TestTrainLoop:
    def test_single_batch_epoch_equals_one_step(self):
        cfg = tiny_config(pair_count=4, cohort_size=2, batch_size=4, epochs=1)
        dataset = generate_synthetic_pairs(spec_from_config(cfg))

        loop_model = RetrievalModel(cfg)
        logs = train_loop(dataset, loop_model, cfg)
        assert len(logs) == 1

        manual_model = RetrievalModel(cfg)
        opt = AdamW(manual_model.params, cfg.lr_base, cfg.lr_fusion, cfg.weight_decay)
        order = shuffle_cohorts(
            dataset.groups, RandomStream(cfg.seed).child("train").child("shuffle", 0)
        )
        batch = Batch(dataset.texts[order], dataset.videos[order], order)
        report = train_step(
            manual_model, batch, opt,
            RandomStream(cfg.seed).child("train").child("step", 0, 0),
        )
        assert report == logs[0].report
        for name, t in loop_model.params.items():
            assert np.array_equal(t.data, manual_model.params[name].data)

    def test_out_dir_gets_the_trained_model_once(self, tmp_path):
        cfg = tiny_config(pair_count=8, cohort_size=2, batch_size=4, epochs=2)
        dataset = generate_synthetic_pairs(spec_from_config(cfg))
        model = RetrievalModel(cfg)
        train_loop(dataset, model, cfg, out_dir=str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        reloaded = RetrievalModel(replace(cfg, seed=1))
        reloaded.load(tmp_path / "model.bin")
        for name, t in model.params.items():
            assert np.array_equal(reloaded.params[name].data, t.data), name

    def test_foreign_config_rejected_before_any_work(self, tmp_path):
        # The steps read the model's own config; a second one would be ignored.
        cfg = tiny_config(pair_count=8, cohort_size=2, batch_size=4, use_query_indicators=False)
        dataset = generate_synthetic_pairs(spec_from_config(cfg))
        model = RetrievalModel(cfg)
        before = model.params.state()
        with pytest.raises(UsageError):
            train_loop(dataset, model, replace(cfg, use_query_indicators=True), str(tmp_path))
        assert list(tmp_path.iterdir()) == []
        for name, value in before.items():
            assert np.array_equal(model.params[name].data, value), name

    def test_trailing_singleton_batch_dropped(self):
        cfg = tiny_config(pair_count=9, cohort_size=3, batch_size=4, epochs=1)
        dataset = generate_synthetic_pairs(spec_from_config(cfg))
        batches = list(iterate_batches(dataset, np.arange(9), 4))
        assert [len(b) for b in batches] == [4, 4]
