"""Attention (with and without Gumbel noise), layer normalization, the MLP and
the parameter registry."""

import math

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
    scaled_dot_attention,
)
from focusrank.rng import RandomStream
from focusrank.tensor import Tensor, _result, layer_norm, no_grad

RNG = np.random.default_rng(11)


def softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# Attention and layer normalization composed from separate graph nodes: the
# reference the fused single-node versions must match bit for bit forward,
# and within 1e-12 relative in their gradients.


def composed_softmax(t):
    shifted = t.data - np.max(t.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _result(y, (t,))
    if out._parents:
        out._grad_fn = lambda g: t._acc(y * (g - np.sum(g * y, axis=-1, keepdims=True)))
    return out


def composed_attention(q, k, v, *, temperature=1.0, rng=None):
    logits = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    if rng is not None:
        logits = logits + Tensor(rng.gumbel(logits.shape))
    logits = logits * (1.0 / temperature)
    return composed_softmax(logits) @ v


def composed_layer_norm(t, gamma, beta, eps=1e-5):
    centered = t - t.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * gamma + beta


def assert_grads_match(fused, composed, rel=1e-12):
    assert len(fused) == len(composed) > 0
    for a, b in zip(fused, composed):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= rel * np.abs(b).max()


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

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))))
        with pytest.raises(DimensionError):
            scaled_dot_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_operand_below_2d_raises(self, which):
        args = [Tensor(np.ones((2, 3))) for _ in range(3)]
        args[which] = Tensor(np.ones(3))
        with pytest.raises(DimensionError, match="at least 2-d"):
            scaled_dot_attention(*args)

    def test_bad_gumbel_temp_raises(self):
        args = [Tensor(np.ones((1, 2)))] * 3
        for temperature in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError):
                scaled_dot_attention(*args, temperature=temperature)

    def test_gumbel_deterministic_divides_by_temp(self):
        q, k, v = (Tensor(RNG.normal(size=(3, 4))) for _ in range(3))
        out = scaled_dot_attention(q, k, v, temperature=0.5).data
        logits = (q.data @ k.data.T) / np.sqrt(4)
        expected = softmax_rows(logits / 0.5) @ v.data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gumbel_weights_sum_to_one(self):
        # Identity values make the output rows the attention weights.
        q, k = Tensor(RNG.normal(size=(4, 3))), Tensor(RNG.normal(size=(6, 3)))
        rng = RandomStream(3).child("g")
        out = scaled_dot_attention(
            q, k, Tensor(np.eye(6)), temperature=0.3, rng=rng
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
            rng=rng,
        ).data
        counts = np.bincount(weights.argmax(axis=1), minlength=3) / draws
        expected = softmax_rows(logits)
        np.testing.assert_allclose(counts, expected, atol=0.02)


# (q shape, k shape, v shape, gumbel temperature, noise seed)
ATTENTION_CASES = {
    "plain": ((2, 3, 4), (2, 5, 4), (2, 5, 3), None, None),
    "noisy-broadcast": ((1, 3, 4), (2, 5, 4), (2, 5, 6), 0.7, 5),
    "unbatched-temp": ((3, 4), (5, 4), (5, 2), 1.3, None),
    "kv-add-batch": ((3, 4), (2, 5, 4), (2, 5, 2), None, None),
}


def run_attention(attend, case, trained=""):
    """(q, k, v) and the output of `attend` on one case; the tensors named in
    `trained` require gradients."""
    *shapes, temp, seed = ATTENTION_CASES[case]
    rng = np.random.default_rng(3)
    inputs = [
        Tensor(rng.normal(size=shape), requires_grad=name in trained)
        for name, shape in zip("qkv", shapes)
    ]
    out = attend(
        *inputs,
        temperature=temp or 1.0,
        rng=None if seed is None else RandomStream(seed).child("noise"),
    )
    return inputs, out


def backward_with_weights(out):
    (out * Tensor(np.random.default_rng(4).normal(size=out.shape))).sum().backward()


class TestFusedAttention:
    @pytest.mark.parametrize("case", ATTENTION_CASES)
    @pytest.mark.parametrize("trained", ["", "qkv"])
    def test_forward_equals_composed_bit_for_bit(self, case, trained):
        _, fused = run_attention(scaled_dot_attention, case, trained)
        _, composed = run_attention(composed_attention, case, trained)
        assert np.array_equal(fused.data, composed.data)

    @pytest.mark.parametrize("case", ATTENTION_CASES)
    @pytest.mark.parametrize("trained", ["qkv", "v", "q", "k"])
    def test_gradients_match_composed(self, case, trained):
        grads = []
        for attend in (scaled_dot_attention, composed_attention):
            inputs, out = run_attention(attend, case, trained)
            backward_with_weights(out)
            grads.append([t.grad for t in inputs if t.requires_grad])
        assert_grads_match(*grads)

    def test_self_attention_aliasing(self):
        # q is k is v: three gradients accumulate into one tensor.
        x_data = RNG.normal(size=(2, 4, 3))
        results = []
        for attend in (scaled_dot_attention, composed_attention):
            x = Tensor(x_data.copy(), requires_grad=True)
            out = attend(x, x, x)
            backward_with_weights(out)
            results.append((out.data, x.grad))
        (fused, fused_grad), (composed, composed_grad) = results
        assert np.array_equal(fused, composed)
        assert_grads_match([fused_grad], [composed_grad])


class TestLayerNorm:
    def make(self, requires_grad=True):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 8)) * 3.0 + 1.5, requires_grad=requires_grad)
        gamma = Tensor(rng.normal(size=8), requires_grad=requires_grad)
        beta = Tensor(rng.normal(size=8), requires_grad=requires_grad)
        return x, gamma, beta

    def test_forward_equals_composed_bit_for_bit(self):
        args = self.make()
        assert np.array_equal(layer_norm(*args).data, composed_layer_norm(*args).data)
        with no_grad():
            assert np.array_equal(layer_norm(*args).data, composed_layer_norm(*args).data)

    def test_gradients_match_composed(self):
        weight = RNG.normal(size=(2, 3, 8))
        grads = []
        for norm in (layer_norm, composed_layer_norm):
            args = self.make()
            (norm(*args) * Tensor(weight)).sum().backward()
            grads.append([t.grad for t in args])
        assert_grads_match(grads[0], grads[1])

    def test_rows_are_standardized(self):
        x, _, _ = self.make(requires_grad=False)
        y = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, rtol=1e-5)

    @pytest.mark.parametrize("shape", [(4, 1, 1, 8), (5,), (2, 3, 8)])
    def test_affine_other_than_per_feature_raises(self, shape):
        x, gamma, beta = self.make(requires_grad=False)
        with pytest.raises(DimensionError):
            layer_norm(x, Tensor(np.ones(shape)), beta)
        with pytest.raises(DimensionError):
            layer_norm(x, gamma, Tensor(np.ones(shape)))


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
        mlp = Mlp(p, "mlp", 5, 7, 3, rng)
        p["mlp.w2"].data[:] = 0.0
        p["mlp.b2"].data[:] = [1.0, -2.0, 0.5]
        for _ in range(3):
            out = mlp(Tensor(RNG.normal(size=(1, 5))))
            np.testing.assert_allclose(out.data, [[1.0, -2.0, 0.5]], atol=1e-15)

    def test_identity_configuration(self):
        # Linear region of the gate: gelu(x) ~= x for large positive x, so use
        # explicit pass-through weights with zero bias and positive inputs far
        # from the nonlinearity's bend.
        p = ParameterSet()
        rng = RandomStream(2)
        mlp = Mlp(p, "mlp", 3, 3, 3, rng)
        p["mlp.w1"].data[:] = np.eye(3) * 30.0
        p["mlp.b1"].data[:] = 0.0
        p["mlp.w2"].data[:] = np.eye(3) / 30.0
        p["mlp.b2"].data[:] = 0.0
        x = np.array([[1.0, 2.0, 3.0]])
        out = mlp(Tensor(x))
        np.testing.assert_allclose(out.data, x, rtol=1e-9)

    def test_matches_matrix_oracle(self):
        p = ParameterSet()
        mlp = Mlp(p, "mlp", 8, 16, 4, RandomStream(3))
        x = RNG.normal(size=(2, 8))
        out = mlp(Tensor(x)).data

        def gelu_ref(v):
            return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)))

        h = gelu_ref(x @ p["mlp.w1"].data + p["mlp.b1"].data)
        expected = h @ p["mlp.w2"].data + p["mlp.b2"].data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_missing_parameter_raises(self):
        p = ParameterSet()
        mlp = Mlp(p, "mlp", 3, 3, 3, RandomStream(0))
        mlp.prefix = "nope"
        with pytest.raises(ConfigError):
            mlp(Tensor(np.zeros((1, 3))))


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        p = ParameterSet()
        p.add("w", np.zeros(2))
        with pytest.raises(ConfigError):
            p.add("w", np.zeros(2))

    def test_groups_and_missing(self):
        p = ParameterSet()
        p.add("a", np.zeros(2))
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

    def test_failed_load_changes_nothing(self):
        p = ParameterSet()
        p.add("a", np.zeros(2))
        p.add("b", np.zeros(3))
        with pytest.raises(ConfigError):
            p.load_state({"a": np.ones(2), "b": np.ones(4)})
        assert np.array_equal(p["a"].data, np.zeros(2))
        assert np.array_equal(p["b"].data, np.zeros(3))


class TestCheckGradients:
    def test_quadratic_matches_closed_form(self):
        p = ParameterSet()
        x = p.add("x", RNG.normal(size=6))
        result = check_gradients(lambda: (x * x).sum(), p)
        assert result.max_rel_error < 1e-8

    def test_attention_mlp_composite(self):
        p = ParameterSet()
        rng = RandomStream(5)
        q = p.add("q", kaiming_normal(rng.child("q"), (2, 4), 4))
        kv = p.add("kv", kaiming_normal(rng.child("kv"), (3, 4), 4))
        mlp = Mlp(p, "mlp", 4, 8, 1, rng.child("m"))
        result = check_gradients(lambda: mlp(scaled_dot_attention(q, kv, kv)).sum(), p)
        assert result.max_rel_error < 1e-4

    def test_constant_loss_zero_gradient(self):
        p = ParameterSet()
        p.add("unused", np.ones(4))
        used = p.add("used", np.ones(2))
        result = check_gradients(lambda: (used * used).sum(), p)
        assert result.per_param["unused"] == 0.0

    def test_nonscalar_loss_rejected(self):
        p = ParameterSet()
        x = p.add("x", np.ones(3))
        with pytest.raises(UsageError):
            check_gradients(lambda: x * 2, p)
