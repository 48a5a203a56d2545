"""Neural building blocks: named parameters, attention (optionally with
Gumbel-perturbed weights) and MLPs."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError
from .rng import RandomStream
from .tensor import Tensor, _result, _unbroadcast, as_tensor, gelu

GROUP_BASE = "base"
GROUP_FUSION = "fusion"


def kaiming_normal(rng: RandomStream, shape, fan_in: int) -> np.ndarray:
    """Kaiming-normal init: zero-mean gaussian with std sqrt(2 / fan_in)."""
    return rng.normal(shape, scale=math.sqrt(2.0 / fan_in))


class ParameterSet:
    """Named trainable tensors, each tagged with a learning-rate group.

    Names are unique; iteration order is insertion order, which fixes the
    optimizer update order and keeps runs bit-reproducible.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}

    def add(self, name: str, value: np.ndarray, group: str = GROUP_BASE) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name!r}")
        if group not in (GROUP_BASE, GROUP_FUSION):
            raise ConfigError(f"unknown parameter group: {group!r}")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        self._groups[name] = group
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ConfigError(f"missing parameter: {name!r}") from None

    def names(self) -> list[str]:
        return list(self._params)

    def group(self, name: str) -> str:
        self[name]
        return self._groups[name]

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Per-name gradients; parameters untouched by the loss get exact zeros."""
        out = {}
        for name, t in self._params.items():
            out[name] = np.zeros_like(t.data) if t.grad is None else t.grad
        return out

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        unknown = set(arrays) - set(self._params)
        if unknown:
            raise ConfigError(f"unknown parameters in state: {sorted(unknown)}")
        missing = set(self._params) - set(arrays)
        if missing:
            raise ConfigError(f"state missing parameters: {sorted(missing)}")
        values = {name: np.asarray(value, dtype=np.float64) for name, value in arrays.items()}
        # Every shape is checked before any parameter changes.
        for name, value in values.items():
            shape = self._params[name].data.shape
            if value.shape != shape:
                raise ConfigError(f"shape mismatch for {name!r}: {value.shape} vs {shape}")
        for name, value in values.items():
            t = self._params[name]
            t.data = value.copy()
            t.grad = None


def scaled_dot_attention(
    q,
    k,
    v,
    *,
    temperature: float = 1.0,
    rng: RandomStream | None = None,
) -> Tensor:
    """softmax((q kᵀ / sqrt(d) + g) / temperature) v.

    q: (..., m, d); k, v: (..., s, d). g is per-logit Gumbel(0, 1) noise drawn
    from `rng` when a stream is given, and zero otherwise.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise DimensionError("attention operands must be at least 2-d")
    d = q.shape[-1]
    if k.shape[-1] != d:
        raise DimensionError(f"query width {d} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(
            f"key count {k.shape[-2]} != value count {v.shape[-2]}"
        )
    if not temperature > 0:
        raise ConfigError("attention temperature must be > 0")
    # One graph node. The forward runs the arithmetic of the composed ops in
    # their order, in place on one (..., m, s) array that ends up holding the
    # weights: a fresh array per step costs page faults at batch scale.
    scale = 1.0 / math.sqrt(d)
    chain = scale  # d logits / d (q kᵀ), for the backward
    w = q.data @ np.swapaxes(k.data, -1, -2)
    w *= scale
    if rng is not None:
        w += rng.gumbel(w.shape)
    if temperature != 1.0:  # multiplying by 1.0 is exact: skip it
        w *= 1.0 / temperature
        chain *= 1.0 / temperature
    w -= np.max(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    out = _result(w @ v.data, (q, k, v))
    if out._parents:

        def grad_fn(g):
            if v.requires_grad:
                v._acc(_unbroadcast(np.swapaxes(w, -1, -2) @ g, v.data.shape), fresh=True)
            gw = g @ np.swapaxes(v.data, -1, -2)
            gw -= np.sum(gw * w, axis=-1, keepdims=True)
            gw *= w
            gw *= chain
            if q.requires_grad:
                q._acc(_unbroadcast(gw @ k.data, q.data.shape), fresh=True)
            if k.requires_grad:
                k._acc(_unbroadcast(np.swapaxes(gw, -1, -2) @ q.data, k.data.shape), fresh=True)

        out._grad_fn = grad_fn
    return out


class Mlp:
    """Two affine layers with a GELU gate between, w2ᵀ gelu(w1ᵀ x + b1) + b2,
    owning `{prefix}.w1/.b1/.w2/.b2` in a parameter set."""

    def __init__(
        self,
        params: ParameterSet,
        prefix: str,
        d_in: int,
        d_hidden: int,
        d_out: int,
        rng: RandomStream,
        group: str = GROUP_BASE,
    ):
        self.params = params
        self.prefix = prefix
        params.add(f"{prefix}.w1", kaiming_normal(rng.child("w1"), (d_in, d_hidden), d_in), group)
        params.add(f"{prefix}.b1", np.zeros(d_hidden), group)
        params.add(f"{prefix}.w2", kaiming_normal(rng.child("w2"), (d_hidden, d_out), d_hidden), group)
        params.add(f"{prefix}.b2", np.zeros(d_out), group)

    def __call__(self, x) -> Tensor:
        """Map (..., d_in) rows to (..., d_out); `x` needs a batch axis."""
        p, prefix = self.params, self.prefix
        h = gelu(as_tensor(x) @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"])
        return h @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]
