"""Array-valued reverse-mode automatic differentiation over float64.

Every operation produces a new `Tensor` that records its parents and a
closure routing the output gradient back to them; `backward()` on a scalar
walks the recorded graph once in reverse topological order. Only the ops
this package needs are implemented; everything is eager numpy underneath.

A graph serves one backward. The walk releases each node once its closure
has run: the node drops its gradient, closure and parents, which frees the
arrays the closure saved. Only leaves (tensors built with
`requires_grad=True`, such as parameters) keep their gradients; reaching a
released node again raises `UsageError`. A closure hands `_acc` the
gradient arrays it has just allocated, and the first one is stored, not
copied, when it has the layout of `empty_like(data)`.

Composite ops on the training path are single nodes with a hand-written
backward, which keeps the graph small: `log_softmax`, `gelu` and
`layer_norm` here, and `ops.scaled_dot_attention`. The forward of
`layer_norm` and of the attention runs the arithmetic of the same op
composed from elementary nodes, in the same order, so both give equal
outputs bit for bit; their gradients differ in the last bits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, InputError, UsageError

_BASIC_KEYS = (int, np.integer, slice, type(None), type(Ellipsis))


class _GradMode(threading.local):
    """Whether ops record a graph, kept per thread: a helper thread encoding
    under `no_grad` leaves every other thread's mode as it was."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording (inference mode) in the calling thread."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _released(g):
    """The closure of a node whose backward has run."""
    raise UsageError("graph already released by backward")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` back down to `shape` (the reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 ndarray plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def _acc(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` into this tensor's gradient.

        The first gradient takes the layout `zeros_like` would give, not that
        of `g`: `g` may be a transposed view, and the layout of the gradient
        decides the summation order of the GEMMs that read it. `fresh` says
        that the caller has just allocated `g` and keeps no other reference
        to it; then `g` itself becomes the gradient when that layout is
        already its own (a C-contiguous array, like a C-contiguous `data`,
        and of its shape). A view, or one `g` passed to two parents, is
        never fresh.
        """
        if self.grad is not None:
            self.grad += g
        elif (
            fresh
            and isinstance(g, np.ndarray)  # not a numpy scalar from a 0-d product
            and g.shape == self.data.shape
            and g.flags.c_contiguous
            and self.data.flags.c_contiguous
        ):
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        Releases the graph as it goes: once a node's closure has run, the
        node drops its gradient, closure and parents. So one graph serves one
        backward, intermediate gradients are not kept, and a second backward
        that reaches a released node raises `UsageError` before any gradient
        is accumulated.
        """
        if self.data.shape != ():
            raise UsageError("backward() requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._grad_fn is _released:
                raise UsageError("graph already released by backward")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._acc(np.ones_like(self.data), fresh=True)
        while topo:
            node = topo.pop()
            grad_fn = node._grad_fn
            if grad_fn is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                grad_fn(node.grad)
            node.grad = None
            node._grad_fn = _released
            node._parents = ()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return add_all(self, other)

    def __mul__(self, other):
        other = as_tensor(other)
        out = _result(self.data * other.data, (self, other))
        if out._parents:

            def grad_fn(g):
                if self.requires_grad:
                    self._acc(_unbroadcast(g * other.data, self.data.shape), fresh=True)
                if other.requires_grad:
                    other._acc(_unbroadcast(g * self.data, other.data.shape), fresh=True)

            out._grad_fn = grad_fn
        return out

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise UsageError("only scalar exponents are supported")
        out = _result(self.data**exponent, (self,))
        if out._parents:

            def grad_fn(g):
                self._acc(g * exponent * self.data ** (exponent - 1), fresh=True)

            out._grad_fn = grad_fn
        return out

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise DimensionError(
                f"matmul requires >=2-d operands, got {self.data.shape} @ {other.data.shape}"
            )
        if self.data.shape[-1] != other.data.shape[-2]:
            raise DimensionError(
                f"matmul inner dims differ: {self.data.shape} @ {other.data.shape}"
            )
        out = _result(self.data @ other.data, (self, other))
        if out._parents:

            def grad_fn(g):
                if self.requires_grad:
                    ga = g @ np.swapaxes(other.data, -1, -2)
                    self._acc(_unbroadcast(ga, self.data.shape), fresh=True)
                if other.requires_grad:
                    if other.data.ndim == 2 and self.data.ndim > 2:
                        # A 2-d weight: fold the batch axes into the rows of
                        # one GEMM instead of one product per batch and a sum.
                        rows = self.data.reshape(-1, self.data.shape[-1])
                        gb = rows.T @ g.reshape(-1, g.shape[-1])
                    else:
                        gb = np.swapaxes(self.data, -1, -2) @ g
                    other._acc(_unbroadcast(gb, other.data.shape), fresh=True)

            out._grad_fn = grad_fn
        return out

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __truediv__(self, other):
        other = as_tensor(other)
        return self * other**-1.0

    def __getitem__(self, key):
        """Basic indexing only: ints, slices, None and Ellipsis. Array and list
        keys are rejected; `take` is the gather, since a repeated index needs
        its scatter-add backward."""
        if not all(isinstance(k, _BASIC_KEYS) for k in (key if isinstance(key, tuple) else (key,))):
            raise UsageError(f"Tensor index {key!r} is not basic; gather with take()")
        out = _result(self.data[key], (self,))
        if out._parents:

            def grad_fn(g):
                full = np.zeros_like(self.data)
                full[key] += g
                self._acc(full, fresh=True)

            out._grad_fn = grad_fn
        return out

    # -- shape manipulation ---------------------------------------------

    def reshape(self, *shape):
        out = _result(self.data.reshape(*shape), (self,))
        if out._parents:

            def grad_fn(g):
                self._acc(g.reshape(self.data.shape))

            out._grad_fn = grad_fn
        return out

    def swapaxes(self, a: int, b: int):
        out = _result(np.swapaxes(self.data, a, b), (self,))
        if out._parents:

            def grad_fn(g):
                self._acc(np.swapaxes(g, a, b))

            out._grad_fn = grad_fn
        return out

    @property
    def T(self):
        return self.swapaxes(-1, -2)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = _result(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:

            def grad_fn(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._acc(np.broadcast_to(g, self.data.shape))

            out._grad_fn = grad_fn
        return out

    def mean(self, axis: int, keepdims: bool = False):
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / self.data.shape[axis])

    # -- elementwise transcendentals --------------------------------------

    def exp(self):
        y = np.exp(self.data)
        out = _result(y, (self,))
        if out._parents:
            out._grad_fn = lambda g: self._acc(g * y, fresh=True)
        return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, inputs: tuple) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data if data.dtype == np.float64 else data.astype(np.float64)
    out.grad = None
    out._grad_fn = None
    if _grad_mode.enabled:
        parents = tuple(p for p in inputs if p.requires_grad)
    else:
        parents = ()
    out._parents = parents
    out.requires_grad = bool(parents)
    return out


# -- free functions --------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = _result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out._parents:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def grad_fn(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t._acc(piece)

        out._grad_fn = grad_fn
    return out


def add_all(*terms) -> Tensor:
    """Sum tensors left to right as one node: the bits of the chain of
    two-term sums t0 + t1 + t2 + ..., summed into one array. Every term after
    the second must broadcast to the shape of t0 + t1. `Tensor.__add__` is
    the two-term case."""
    terms = [as_tensor(t) for t in terms]
    total = terms[0].data + terms[1].data
    for t in terms[2:]:
        total += t.data
    out = _result(total, tuple(terms))
    if out._parents:

        def grad_fn(g):
            for t in terms:
                if t.requires_grad:
                    t._acc(_unbroadcast(g, t.data.shape))

        out._grad_fn = grad_fn
    return out


def take(t: Tensor, indices) -> Tensor:
    """Gather rows along axis 0 with an integer index array (scatter-add backward)."""
    t = as_tensor(t)
    idx = np.asarray(indices)
    out = _result(t.data[idx], (t,))
    if out._parents:

        def grad_fn(g):
            # Row by row in index order: the sums of `np.add.at`, bit for bit,
            # at a fraction of its per-element cost.
            full = np.zeros_like(t.data)
            for row, piece in zip(idx.reshape(-1), g.reshape(idx.size, *t.data.shape[1:])):
                full[row] += piece
            t._acc(full, fresh=True)

        out._grad_fn = grad_fn
    return out


def broadcast_to(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)
    out = _result(np.broadcast_to(t.data, shape), (t,))
    if out._parents:
        out._grad_fn = lambda g: t._acc(_unbroadcast(g, t.data.shape))
    return out


def log_softmax(t: Tensor) -> Tensor:
    """Log-probabilities over the last axis, shifted by each row's maximum."""
    t = as_tensor(t)
    shifted = t.data - np.max(t.data, axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    y = shifted - lse
    out = _result(y, (t,))
    if out._parents:
        sm = np.exp(y)

        def grad_fn(g):
            t._acc(g - sm * np.sum(g, axis=-1, keepdims=True), fresh=True)

        out._grad_fn = grad_fn
    return out


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(t: Tensor) -> Tensor:
    """Smooth gating nonlinearity x * Phi(x), tanh approximation."""
    t = as_tensor(t)
    x = t.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    th = np.tanh(inner)
    y = 0.5 * x * (1.0 + th)
    out = _result(y, (t,))
    if out._parents:

        def grad_fn(g):
            d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
            dy = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * d_inner
            t._acc(g * dy, fresh=True)

        out._grad_fn = grad_fn
    return out


def normalize_rows(t: Tensor) -> Tensor:
    """Scale the last axis to unit L2 norm. Rows must be nonzero."""
    t = as_tensor(t)
    squared = (t * t).sum(axis=-1, keepdims=True)
    if (squared.data == 0).any():
        raise InputError("cannot normalize a row whose norm is zero")
    return t * squared**-0.5


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Standardize the last axis to zero mean / unit variance (the variance
    plus 1e-5 under the square root), then the per-feature affine map with
    (C,) `gamma` and `beta`.

    One graph node. The forward runs the arithmetic of the composed ops in
    their order, reusing its scratch array for the output.
    """
    t, gamma, beta = as_tensor(t), as_tensor(gamma), as_tensor(beta)
    x = t.data
    n = x.shape[-1]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise DimensionError(
            f"layer_norm gamma {gamma.data.shape} and beta {beta.data.shape} must be ({n},)"
        )
    xhat = x - x.sum(axis=-1, keepdims=True) * (1.0 / n)
    y = xhat * xhat
    inv = (y.sum(axis=-1, keepdims=True) * (1.0 / n) + 1e-5) ** -0.5
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = _result(y, (t, gamma, beta))
    if out._parents:

        def grad_fn(g):
            if gamma.requires_grad:
                gamma._acc(_unbroadcast(g * xhat, gamma.data.shape), fresh=True)
            if beta.requires_grad:
                beta._acc(_unbroadcast(g, beta.data.shape))
            if t.requires_grad:
                gx = g * gamma.data
                mean_gx = gx.sum(axis=-1, keepdims=True) * (1.0 / n)
                mean_gx_xhat = (gx * xhat).sum(axis=-1, keepdims=True) * (1.0 / n)
                gx -= mean_gx
                gx -= xhat * mean_gx_xhat
                gx *= inv
                t._acc(gx, fresh=True)

        out._grad_fn = grad_fn
    return out
