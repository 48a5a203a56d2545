"""Attention (with and without Gumbel noise), the MLP and the parameter registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank.errors import ConfigError, DimensionError, UsageError
from focusrank.gradcheck import check_gradients
from focusrank.ops import (
    Mlp,
    ParameterSet,
    kaiming_normal,
    mlp_forward,
    scaled_dot_attention,
)
from focusrank.rng import RandomStream
from focusrank.tensor import Tensor, softmax

RNG = np.random.default_rng(11)


def brute_force_attention(q, k, v):
    """Independent elementwise evaluation of softmax(q kT / sqrt(d)) v."""
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        logits = np.array([np.dot(q[i], k[j]) / np.sqrt(q.shape[1]) for j in range(k.shape[0])])
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        for j in range(k.shape[0]):
            out[i] += w[j] * v[j]
    return out


class TestScaledDotAttention:
    def test_single_key_returns_value_row(self):
        q = Tensor(RNG.normal(size=(3, 4)))
        k = Tensor(RNG.normal(size=(1, 4)))
        v = Tensor(RNG.normal(size=(1, 4)))
        out = scaled_dot_attention(q, k, v).data
        for row in out:
            np.testing.assert_allclose(row, v.data[0], atol=1e-12)

    def test_uniform_logits_average_values(self):
        # Orthogonal queries: every logit is zero, weights are uniform.
        q = Tensor(np.zeros((2, 4)))
        v_val = RNG.normal(size=(5, 4))
        out = scaled_dot_attention(q, Tensor(RNG.normal(size=(5, 4))), Tensor(v_val)).data
        np.testing.assert_allclose(out, np.tile(v_val.mean(axis=0), (2, 1)), atol=1e-12)

    def test_matches_brute_force_oracle(self):
        q, k, v = (RNG.normal(size=(3, 4)) for _ in range(3))
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(out, brute_force_attention(q, k, v), atol=1e-12)

    def test_key_mask_zeroes_masked_positions(self):
        q = Tensor(RNG.normal(size=(2, 4)))
        k = RNG.normal(size=(5, 4))
        v = RNG.normal(size=(5, 4))
        mask = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        out = scaled_dot_attention(Tensor(q.data), Tensor(k), Tensor(v), key_mask=mask).data
        keep = mask > 0
        expected = brute_force_attention(q.data, k[keep], v[keep])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))))
        with pytest.raises(DimensionError):
            scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))

    def test_bad_gumbel_temp_raises(self):
        args = [Tensor(np.ones((1, 2)))] * 3
        with pytest.raises(ConfigError):
            scaled_dot_attention(*args, use_gumbel=True, gumbel_temp=0.0)

    def test_gumbel_deterministic_divides_by_temp(self):
        q, k, v = (Tensor(RNG.normal(size=(3, 4))) for _ in range(3))
        out = scaled_dot_attention(q, k, v, use_gumbel=True, gumbel_temp=0.5).data
        logits = (q.data @ k.data.T) / np.sqrt(4)
        expected = softmax(Tensor(logits / 0.5)).data @ v.data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gumbel_weights_sum_to_one(self):
        # Identity values make the output rows the attention weights.
        q, k = Tensor(RNG.normal(size=(4, 3))), Tensor(RNG.normal(size=(6, 3)))
        rng = RandomStream(3).child("g")
        out = scaled_dot_attention(
            q, k, Tensor(np.eye(6)), use_gumbel=True, gumbel_temp=0.3, rng=rng
        ).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_gumbel_argmax_frequencies_match_softmax(self):
        # Gumbel-max: argmax(logits + g) ~ Categorical(softmax(logits)).
        # A unit query against keys 1, 0, -1 (width 1) gives logits 1, 0, -1.
        logits = np.array([1.0, 0.0, -1.0])
        draws = 100_000
        rng = RandomStream(12).child("mc")
        weights = scaled_dot_attention(
            Tensor(np.ones((draws, 1))),
            Tensor(logits[:, None]),
            Tensor(np.eye(3)),
            use_gumbel=True,
            rng=rng,
        ).data
        counts = np.bincount(weights.argmax(axis=1), minlength=3) / draws
        expected = softmax(Tensor(logits)).data
        np.testing.assert_allclose(counts, expected, atol=0.02)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_attention_output_in_value_convex_hull(seed, n_q, n_k):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n_q, 5))
    k = rng.normal(size=(n_k, 5))
    v = rng.normal(size=(n_k, 5))
    out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
    lo, hi = v.min(axis=0), v.max(axis=0)
    assert np.all(out >= lo - 1e-12)
    assert np.all(out <= hi + 1e-12)


class TestMlp:
    def test_zero_second_layer_outputs_bias(self):
        p = ParameterSet()
        rng = RandomStream(1)
        Mlp(p, "mlp", 5, 7, 3, rng)
        p["mlp.w2"].data[:] = 0.0
        p["mlp.b2"].data[:] = [1.0, -2.0, 0.5]
        for _ in range(3):
            out = mlp_forward(Tensor(RNG.normal(size=5)), p)
            np.testing.assert_allclose(out.data, [1.0, -2.0, 0.5], atol=1e-15)

    def test_identity_configuration(self):
        # Linear region of the gate: gelu(x) ~= x for large positive x, so use
        # explicit pass-through weights with zero bias and positive inputs far
        # from the nonlinearity's bend.
        p = ParameterSet()
        rng = RandomStream(2)
        Mlp(p, "mlp", 3, 3, 3, rng)
        p["mlp.w1"].data[:] = np.eye(3) * 30.0
        p["mlp.b1"].data[:] = 0.0
        p["mlp.w2"].data[:] = np.eye(3) / 30.0
        p["mlp.b2"].data[:] = 0.0
        x = np.array([1.0, 2.0, 3.0])
        out = mlp_forward(Tensor(x), p)
        np.testing.assert_allclose(out.data, x, rtol=1e-9)

    def test_matches_matrix_oracle(self):
        p = ParameterSet()
        Mlp(p, "mlp", 8, 16, 4, RandomStream(3))
        x = RNG.normal(size=8)
        out = mlp_forward(Tensor(x), p).data

        def gelu_ref(v):
            return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)))

        h = gelu_ref(x @ p["mlp.w1"].data + p["mlp.b1"].data)
        expected = h @ p["mlp.w2"].data + p["mlp.b2"].data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_missing_parameter_raises(self):
        p = ParameterSet()
        with pytest.raises(ConfigError):
            mlp_forward(Tensor(np.zeros(3)), p, prefix="nope")

    def test_unknown_activation_raises(self):
        p = ParameterSet()
        Mlp(p, "mlp", 3, 3, 3, RandomStream(0))
        with pytest.raises(ConfigError):
            mlp_forward(Tensor(np.zeros(3)), p, activation="relu6")


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        p = ParameterSet()
        p.add("w", np.zeros(2))
        with pytest.raises(ConfigError):
            p.add("w", np.zeros(2))

    def test_groups_and_missing(self):
        p = ParameterSet()
        p.add("a", np.zeros(2), group="fusion")
        assert p.group("a") == "fusion"
        with pytest.raises(ConfigError):
            p["missing"]

    def test_untouched_parameter_gradient_is_exact_zero(self):
        p = ParameterSet()
        used = p.add("used", np.ones(3))
        unused = p.add("unused", np.ones(3))
        (used * used).sum().backward()
        grads = p.gradients()
        assert np.array_equal(grads["unused"], np.zeros(3))
        assert np.all(grads["used"] != 0)

    def test_load_state_validates(self):
        p = ParameterSet()
        p.add("w", np.ones((2, 2)))
        with pytest.raises(ConfigError):
            p.load_state({"w": np.ones(3)})
        with pytest.raises(ConfigError):
            p.load_state({"w": np.ones((2, 2)), "extra": np.ones(1)})
        with pytest.raises(ConfigError):
            p.load_state({})


class TestCheckGradients:
    def test_quadratic_matches_closed_form(self):
        p = ParameterSet()
        x = p.add("x", RNG.normal(size=6))
        result = check_gradients(lambda: (x * x).sum(), p, eps=1e-5)
        assert result.max_rel_error < 1e-8

    def test_attention_mlp_composite(self):
        p = ParameterSet()
        rng = RandomStream(5)
        q = p.add("q", kaiming_normal(rng.child("q"), (2, 4), 4))
        kv = p.add("kv", kaiming_normal(rng.child("kv"), (3, 4), 4))
        mlp = Mlp(p, "mlp", 4, 8, 1, rng.child("m"))
        result = check_gradients(
            lambda: mlp(scaled_dot_attention(q, kv, kv)).sum(), p, eps=1e-5
        )
        assert result.max_rel_error < 1e-4

    def test_constant_loss_zero_gradient(self):
        p = ParameterSet()
        p.add("unused", np.ones(4))
        used = p.add("used", np.ones(2))
        result = check_gradients(lambda: (used * used).sum(), p, eps=1e-5)
        assert result.per_param["unused"] == 0.0

    def test_nonscalar_loss_rejected(self):
        p = ParameterSet()
        x = p.add("x", np.ones(3))
        with pytest.raises(UsageError):
            check_gradients(lambda: x * 2, p)

    def test_eps_out_of_range_rejected(self):
        p = ParameterSet()
        x = p.add("x", np.ones(1))
        with pytest.raises(UsageError):
            check_gradients(lambda: (x * x).sum(), p, eps=1e-2)
