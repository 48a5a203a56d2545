"""Contrastive, focused cross-entropy and combined objectives."""

import math

import numpy as np
import pytest

from focusrank.errors import ConfigError, DimensionError, InputError, UsageError
from focusrank.losses import combined_loss, contrastive_loss, cross_entropy
from focusrank.tensor import Tensor

RNG = np.random.default_rng(41)


def unit_rows(n, c, rng=RNG):
    x = rng.normal(size=(n, c))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def ce_oracle(logits, targets):
    """Row-by-row numpy evaluation of mean_i -log softmax(logits[i])[targets[i]]."""
    total = 0.0
    for row, target in zip(logits, targets):
        shifted = row - row.max()
        total += -(shifted[target] - math.log(np.exp(shifted).sum()))
    return total / len(targets)


def nce_oracle(sims, tau, axis):
    """Scalar-by-scalar evaluation of -1/B sum_i log softmax(S/tau)[i, i]."""
    s = sims / tau
    if axis == 0:
        s = s.T
    total = 0.0
    for i in range(s.shape[0]):
        row = s[i] - s[i].max()
        total += -(row[i] - math.log(np.exp(row).sum()))
    return total / s.shape[0]


class TestContrastiveLoss:
    def test_perfect_orthonormal_pairs_tiny_loss(self):
        text = np.eye(2)
        video = np.eye(2)
        loss = contrastive_loss(Tensor(text), Tensor(video), 0.01, "t2v")
        # correct logit is 1/0.01 = 100 above the off-diagonal
        assert float(loss.data) <= 1e-3

    def test_all_equal_similarities_log2(self):
        v = unit_rows(1, 6)[0]
        text = np.stack([v, v])
        video = np.stack([v, v])
        for direction in ("t2v", "v2t"):
            loss = contrastive_loss(Tensor(text), Tensor(video), 0.5, direction)
            assert abs(float(loss.data) - math.log(2)) < 1e-12

    def test_uniform_similarity_equals_log_b(self):
        for b in (2, 3, 7):
            v = unit_rows(1, 8)[0]
            batch = np.tile(v, (b, 1))
            loss = contrastive_loss(Tensor(batch), Tensor(batch.copy()), 1.0, "t2v")
            assert abs(float(loss.data) - math.log(b)) < 1e-12

    def test_symmetric_matrix_equal_directions(self):
        # identical batches => S is symmetric => both directions coincide.
        batch = unit_rows(5, 8)
        a = contrastive_loss(Tensor(batch), Tensor(batch.copy()), 0.1, "t2v")
        b = contrastive_loss(Tensor(batch), Tensor(batch.copy()), 0.1, "v2t")
        assert float(a.data) == float(b.data)

    def test_matches_scalar_oracle(self):
        text = unit_rows(4, 8)
        video = unit_rows(4, 8)
        sims = text @ video.T
        for direction, axis in (("t2v", 1), ("v2t", 0)):
            loss = contrastive_loss(Tensor(text), Tensor(video), 0.07, direction)
            assert abs(float(loss.data) - nce_oracle(sims, 0.07, axis)) < 1e-12

    def test_nonnegative(self):
        for _ in range(20):
            text, video = unit_rows(3, 8), unit_rows(3, 8)
            loss = contrastive_loss(Tensor(text), Tensor(video), 0.3, "t2v")
            assert float(loss.data) >= 0

    def test_constant_logit_shift_invariance(self):
        # Shifting every similarity by a constant c shifts every logit by
        # c / tau, which softmax ignores.
        text, video = unit_rows(4, 8), unit_rows(4, 8)
        base = contrastive_loss(Tensor(text), Tensor(video), 1.0, "t2v")
        sims = Tensor(text @ video.T + 5.0)
        from focusrank.tensor import log_softmax

        shifted = -(log_softmax(sims) * Tensor(np.eye(4))).sum() * 0.25
        assert abs(float(base.data) - float(shifted.data)) < 1e-12

    def test_permutation_equivariance(self):
        text, video = unit_rows(6, 8), unit_rows(6, 8)
        perm = RNG.permutation(6)
        for direction in ("t2v", "v2t"):
            a = contrastive_loss(Tensor(text), Tensor(video), 0.2, direction)
            b = contrastive_loss(Tensor(text[perm]), Tensor(video[perm]), 0.2, direction)
            assert abs(float(a.data) - float(b.data)) < 1e-12

    def test_bad_temperature_rejected(self):
        batch = unit_rows(2, 4)
        with pytest.raises(ConfigError):
            contrastive_loss(Tensor(batch), Tensor(batch), 0.0, "t2v")

    @pytest.mark.parametrize("tau", [math.nan, Tensor(math.nan), Tensor(-1.0)])
    def test_nan_or_negative_temperature_rejected(self, tau):
        batch = unit_rows(2, 4)
        with pytest.raises(ConfigError):
            contrastive_loss(Tensor(batch), Tensor(batch), tau, "t2v")

    def test_batch_of_one_rejected(self):
        batch = unit_rows(1, 4)
        with pytest.raises(InputError):
            contrastive_loss(Tensor(batch), Tensor(batch), 0.1, "t2v")

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InputError, match="matching shapes"):
            contrastive_loss(Tensor(unit_rows(3, 4)), Tensor(unit_rows(4, 4)), 0.1, "t2v")

    def test_unknown_direction_rejected(self):
        batch = unit_rows(2, 4)
        with pytest.raises(UsageError):
            contrastive_loss(Tensor(batch), Tensor(batch), 0.1, "sideways")


class TestFocusedCeLoss:
    """The focused loss is `cross_entropy` over (B, k) candidate rows."""

    def test_uniform_logits_log_k(self):
        loss = cross_entropy(Tensor(np.zeros((1, 10))), [3])
        assert abs(float(loss.data) - 2.302585092994046) < 1e-12

    def test_saturated_true_logit(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 20.0
        loss = cross_entropy(Tensor(logits), [2])
        assert float(loss.data) <= 1e-8

    def test_matches_scalar_oracle(self):
        logits = RNG.normal(size=(1, 5))
        loss = cross_entropy(Tensor(logits), [4])
        assert abs(float(loss.data) - ce_oracle(logits, [4])) < 1e-12

    def test_out_of_range_position_rejected(self):
        with pytest.raises(UsageError):
            cross_entropy(Tensor(np.zeros((1, 4))), [4])
        with pytest.raises(UsageError):
            cross_entropy(Tensor(np.zeros((1, 4))), [-1])

    def test_batch_version_is_mean_of_singles(self):
        logits = RNG.normal(size=(3, 5))
        targets = np.array([0, 4, 2])
        batch = cross_entropy(Tensor(logits), targets)
        singles = [
            float(cross_entropy(Tensor(row[None]), [t]).data) for row, t in zip(logits, targets)
        ]
        assert abs(float(batch.data) - np.mean(singles)) < 1e-12
        assert abs(float(batch.data) - ce_oracle(logits, targets)) < 1e-12

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        targets = np.array([1, 1, 3])
        cross_entropy(logits, targets).backward()
        probs = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        probs[np.arange(3), targets] -= 1.0
        np.testing.assert_allclose(logits.grad, probs / 3, atol=1e-15)

    def test_contrastive_is_cross_entropy_on_the_diagonal(self):
        text, video = Tensor(unit_rows(4, 6)), Tensor(unit_rows(4, 6))
        sims = text @ video.T
        for direction, logits in (("t2v", sims), ("v2t", sims.T)):
            got = contrastive_loss(text, video, 0.1, direction)
            want = cross_entropy(logits / 0.1, np.arange(4))
            assert float(got.data) == float(want.data)

    @pytest.mark.parametrize(
        "logits,targets",
        [((5,), [1]), ((2, 5), [1]), ((2, 5), [[0], [1]]), ((2, 5), [0.0, 1.0])],
    )
    def test_mis_shaped_input_rejected(self, logits, targets):
        with pytest.raises(DimensionError):
            cross_entropy(Tensor(np.zeros(logits)), targets)

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            cross_entropy(Tensor(np.zeros((0, 5))), [])


class TestCombinedLoss:
    def test_all_zero(self):
        assert float(combined_loss(0.0, 0.0, 0.0, 0.0).data) == 0.0

    def test_direct_arithmetic(self):
        assert float(combined_loss(1.0, 1.0, 2.0, 2.0).data) == 3.0

    def test_matches_formula(self):
        for _ in range(50):
            a, b, c, d = RNG.normal(size=4)
            got = float(combined_loss(a, b, c, d).data)
            assert abs(got - ((a + b) / 2 + (c + d) / 2)) < 1e-15
