"""Core autodiff engine: op correctness, broadcasting, graph mechanics."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusrank.errors import DimensionError, InputError, UsageError
from focusrank.ops import scaled_dot_attention
from focusrank.tensor import (
    Tensor,
    add_all,
    as_tensor,
    broadcast_to,
    concat,
    gelu,
    log_softmax,
    no_grad,
    normalize_rows,
    take,
)

RNG = np.random.default_rng(7)


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at ndarray x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def attention_softmax(t):
    """Softmax over the last axis of a 2-d `t`, read off as the weights of
    scaled_dot_attention(q, k, I): q holds 4t padded to width 16 and k the
    first n rows of I16, so q kT / sqrt(16) is `t` exactly."""
    t = as_tensor(t)
    rows, n = t.shape
    q = concat([t * 4.0, Tensor(np.zeros((rows, 16 - n)))], axis=1)
    return scaled_dot_attention(q, Tensor(np.eye(n, 16)), Tensor(np.eye(n)))


def check_op(op, shape, positive=False):
    x_val = RNG.uniform(0.5, 2.0, shape) if positive else RNG.normal(size=shape)
    x = Tensor(x_val.copy(), requires_grad=True)
    out = op(x)
    loss = (out * out).sum()
    loss.backward()

    def f(arr):
        return float((op(Tensor(arr)) ** 2).data.sum())

    expected = numeric_grad(f, x_val.copy())
    np.testing.assert_allclose(x.grad, expected, rtol=1e-5, atol=1e-7)


class TestElementwiseGradients:
    def test_add_mul(self):
        check_op(lambda t: t * 3.0 + t * t, (4, 3))

    def test_matmul(self):
        w = Tensor(RNG.normal(size=(3, 5)))
        check_op(lambda t: t @ w, (4, 3))

    def test_batched_matmul_broadcast(self):
        w = Tensor(RNG.normal(size=(3, 5)))
        check_op(lambda t: t @ w, (2, 4, 3))

    def test_exp(self):
        check_op(lambda t: t.exp(), (6,), positive=True)

    def test_pow(self):
        check_op(lambda t: t**1.5, (5,), positive=True)

    def test_division_by_tensor(self):
        d = Tensor(np.array(0.37), requires_grad=True)
        x = Tensor(RNG.normal(size=(3,)))
        loss = ((x / d) ** 2).sum()
        loss.backward()
        expected = numeric_grad(
            lambda a: float(((x.data / a) ** 2).sum()), np.array(0.37)
        )
        np.testing.assert_allclose(d.grad, expected, rtol=1e-6)

    def test_gelu(self):
        check_op(gelu, (7,))

    def test_softmax_grad(self):
        check_op(attention_softmax, (3, 4))

    def test_log_softmax_grad(self):
        check_op(log_softmax, (3, 4))

    def test_reductions(self):
        check_op(lambda t: t.sum(axis=0) * t.mean(axis=1).sum(), (3, 4))

    def test_getitem_reshape_swap(self):
        check_op(lambda t: t[1:, :2].reshape(2, 2).swapaxes(0, 1), (3, 3))

    def test_take_scatter_add(self):
        idx = np.array([[0, 2], [2, 2]])
        check_op(lambda t: take(t, idx), (3, 4))

    def test_take_backward_equals_add_at_bit_for_bit(self):
        # Candidate rows as build_candidates gives them: the top items of one
        # batch recur across rows, so one source row sums many pieces.
        from focusrank.training import build_candidates

        scores = RNG.normal(size=(6, 6))
        idx = build_candidates(scores, 4)[0]
        assert np.bincount(idx.ravel()).max() > 2
        t = Tensor(RNG.normal(size=(6, 3, 5)), requires_grad=True)
        g = RNG.normal(size=(6, 4, 3, 5)) * np.logspace(-8, 8, 4)[:, None, None]
        (take(t, idx) * Tensor(g)).sum().backward()
        expected = np.zeros_like(t.data)
        np.add.at(expected, idx, g)
        assert np.array_equal(t.grad, expected)

    @pytest.mark.parametrize(
        "key",
        [
            np.array([0, 0, 2]),
            [0, 0, 2],
            (slice(None), np.array([1, 1])),
            np.array([True, False, True, True]),
        ],
    )
    def test_array_index_rejected(self, key):
        # `__getitem__` would route a repeated index's gradient only once.
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with pytest.raises(UsageError):
            x[key]

    def test_concat(self):
        other = Tensor(RNG.normal(size=(2, 4)))
        check_op(lambda t: concat([t, other, t], axis=0), (2, 4))

    def test_broadcast_to(self):
        check_op(lambda t: broadcast_to(t, (5, 3, 4)), (3, 4))


class TestBroadcastingBackward:
    def test_bias_add_unbroadcasts(self):
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        x = Tensor(RNG.normal(size=(3, 4)))
        ((x + b) ** 2).sum().backward()
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, (2 * (x.data + b.data)).sum(axis=0))

    def test_keepdim_mul(self):
        s = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
        x = Tensor(RNG.normal(size=(3, 4)))
        ((x * s).sum()).backward()
        np.testing.assert_allclose(s.grad, x.data.sum(axis=1, keepdims=True))


class TestGraphMechanics:
    @pytest.mark.parametrize("data_t,g_t", [(True, False), (False, True)])
    def test_first_gradient_has_the_layout_of_zeros_like(self, data_t, g_t):
        # The layout of a gradient decides the summation order of the GEMMs
        # that read it, so it must not follow the layout of the first `g`.
        base = RNG.normal(size=(4, 3))
        x = Tensor(base.T if data_t else base.T.copy(), requires_grad=True)
        g = RNG.normal(size=(4, 3))
        x._acc(g.T if g_t else g.T.copy())
        assert x.grad.strides == np.zeros_like(x.data).strides
        assert np.array_equal(x.grad, g.T)

    def test_diamond_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert float(x.grad) == pytest.approx(2 * 2.0 + 3.0)

    def test_backward_releases_nodes_and_leaves_keep_gradients(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = x * 3.0
        loss = h.sum()
        loss.backward()
        assert np.array_equal(x.grad, np.full(3, 3.0))
        for node in (h, loss):
            assert node.grad is None and node._parents == ()

    def test_second_backward_through_a_released_graph_raises(self):
        x = Tensor(RNG.normal(size=3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(UsageError, match="graph already released by backward"):
            loss.backward()
        assert np.array_equal(x.grad, first)

    def test_new_graph_on_a_released_node_raises(self):
        x = Tensor(RNG.normal(size=3), requires_grad=True)
        h = x * 3.0
        h.sum().backward()
        first = x.grad.copy()
        with pytest.raises(UsageError, match="graph already released by backward"):
            (h * 2.0).sum().backward()
        assert np.array_equal(x.grad, first)

    def test_self_aliasing_gradients_are_unchanged(self):
        # One tensor on both sides of an op takes two gradients. The expected
        # arrays repeat the arithmetic of storing the first, then adding the
        # second, whichever of them is handed over.
        data, w = RNG.normal(size=(4, 4)), RNG.normal(size=(4, 4))
        x = Tensor(data.copy(), requires_grad=True)
        ((x * x) * Tensor(w)).sum().backward()
        expected = w * data
        expected += w * data
        assert np.array_equal(x.grad, expected)

        x = Tensor(data.copy(), requires_grad=True)
        ((x @ x) * Tensor(w)).sum().backward()
        expected = w @ data.T
        expected += data.T @ w
        assert np.array_equal(x.grad, expected)

        x = Tensor(data.copy(), requires_grad=True)
        (x + x).sum().backward()
        assert np.array_equal(x.grad, np.full((4, 4), 2.0))

    @pytest.mark.parametrize("data_t,g_t", [(True, False), (False, True), (False, False)])
    def test_fresh_gradient_is_stored_only_in_the_layout_of_zeros_like(self, data_t, g_t):
        base = RNG.normal(size=(4, 3))
        x = Tensor(base.T if data_t else base.T.copy(), requires_grad=True)
        g = RNG.normal(size=(4, 3))
        fresh = g.T if g_t else g.T.copy()
        x._acc(fresh, fresh=True)
        assert x.grad.strides == np.zeros_like(x.data).strides
        assert np.array_equal(x.grad, g.T)
        assert (x.grad is fresh) == (not data_t and not g_t)

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: a @ b,
        lambda a, b: concat([a, b]),
        lambda a, b: add_all(a, b),
    ], ids=["add", "mul", "matmul", "concat", "add_all"])
    def test_two_parents_never_share_a_gradient(self, op):
        # A handed-over gradient belongs to one tensor: shared memory would let
        # one tensor's later accumulation change the other's gradient.
        a = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        out = op(a, b)
        (out * Tensor(RNG.normal(size=out.shape))).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        for g in (a.grad, b.grad):
            assert not np.shares_memory(g, a.data) and not np.shares_memory(g, b.data)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            (x * 2).backward()

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad and y._parents == ()

    def test_no_grad_in_another_thread_leaves_this_one_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        inside, release = threading.Event(), threading.Event()
        helper_records = []

        def helper():
            with no_grad():
                inside.set()
                release.wait(timeout=10)
                helper_records.append((x * 2).requires_grad)

        thread = threading.Thread(target=helper)
        thread.start()
        assert inside.wait(timeout=10)
        main_records = (x * 2).requires_grad
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert main_records and helper_records == [False]
        assert (x * 2).requires_grad

    def test_no_grad_here_leaves_another_thread_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        helper_records = []
        with no_grad():
            thread = threading.Thread(target=lambda: helper_records.append((x * 2).requires_grad))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert not (x * 2).requires_grad
        assert helper_records == [True]

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x.detach() * 2).sum()
        assert not y.requires_grad

    def test_matmul_shape_errors(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))

    def test_float64_everywhere(self):
        out = Tensor(np.ones(3, dtype=np.float32)) + 1
        assert out.data.dtype == np.float64


class TestAddAll:
    # The video input's shapes: projected patches, bias, type, frame, position.
    SHAPES = [(2, 3, 4, 5), (5,), (5,), (1, 3, 1, 5), (1, 1, 4, 5)]

    def run(self, fold, trained):
        rng = np.random.default_rng(9)
        terms = [Tensor(rng.normal(size=s), requires_grad=i in trained)
                 for i, s in enumerate(self.SHAPES)]
        if fold:
            out = add_all(*terms)
        else:
            out = terms[0]
            for t in terms[1:]:
                out = out + t
        if out.requires_grad:
            (out * Tensor(rng.normal(size=self.SHAPES[0]))).sum().backward()
        return out.data, [t.grad for t in terms]

    @pytest.mark.parametrize("trained", [(0, 1, 2, 3, 4), (1, 3), (0,), ()])
    def test_equals_the_chain_of_adds_bit_for_bit(self, trained):
        (folded, folded_grads), (chain, chain_grads) = (
            self.run(fold, trained) for fold in (True, False))
        assert np.array_equal(folded, chain)
        for i, (a, b) in enumerate(zip(folded_grads, chain_grads)):
            assert (a is None) == (b is None) == (i not in trained)
            assert a is None or (a.shape == b.shape and np.array_equal(a, b))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_rows_are_distributions(values):
    y = attention_softmax(np.array([values])).data
    assert np.all(y >= 0)
    assert abs(y.sum() - 1.0) < 1e-12


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(-30, 30), min_size=2, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance(values, shift):
    base = attention_softmax(np.array([values])).data
    shifted = attention_softmax(np.array([values]) + shift).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_operations_keep_finite_inputs_finite():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Tensor(rng.normal(size=(4, 6)) * 100)
        outputs = [
            attention_softmax(x).data,
            log_softmax(x).data,
            gelu(x).data,
            (x * x).sum().data,
            normalize_rows(x).data,
        ]
        for out in outputs:
            assert np.all(np.isfinite(out))


def test_normalize_rows_unit_norm():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 8)) * np.logspace(-3, 3, 5)[:, None]
    norms = np.linalg.norm(normalize_rows(Tensor(x)).data, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_normalize_rows_rejects_zero_row():
    # A zero row has no direction; scaling it by 0**-0.5 would give NaN.
    x = np.random.default_rng(4).normal(size=(3, 8))
    x[1] = 0.0
    with pytest.raises(InputError):
        normalize_rows(Tensor(x))


def test_normalize_rows_scale_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 8))
    a = normalize_rows(Tensor(x)).data
    b = normalize_rows(Tensor(x * 137.5)).data
    np.testing.assert_allclose(a, b, atol=1e-9)
