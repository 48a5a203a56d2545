"""Neural building blocks: named parameters, attention (optionally with
Gumbel-perturbed weights) and MLPs."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError
from .rng import RandomStream
from .tensor import Tensor, as_tensor, gelu, silu, softmax

ACTIVATIONS = {"gelu": gelu, "silu": silu}

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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

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
        for name, value in arrays.items():
            t = self._params[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != t.data.shape:
                raise ConfigError(
                    f"shape mismatch for {name!r}: {value.shape} vs {t.data.shape}"
                )
            t.data = value.copy()
            t.grad = None


def scaled_dot_attention(
    q,
    k,
    v,
    *,
    use_gumbel: bool = False,
    gumbel_temp: float = 1.0,
    rng: RandomStream | None = None,
    key_mask: np.ndarray | None = None,
) -> Tensor:
    """softmax(q kᵀ / sqrt(d)) v, optionally with Gumbel-perturbed weights.

    q: (..., m, d); k, v: (..., s, d). When `use_gumbel` is set, per-logit
    Gumbel(0, 1) noise from `rng` is added before normalizing and the logits
    are divided by `gumbel_temp`; passing rng=None keeps the noise at zero
    (deterministic mode). `key_mask` (..., s) marks valid keys with 1;
    masked keys receive exactly zero attention weight.
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
    if use_gumbel and gumbel_temp <= 0:
        raise ConfigError("gumbel_temp must be > 0")
    logits = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d))
    if key_mask is not None:
        mask = np.asarray(key_mask, dtype=np.float64)
        bias = np.where(mask > 0, 0.0, -np.inf)
        logits = logits + Tensor(np.expand_dims(bias, -2))
    if use_gumbel:
        if rng is not None:
            logits = logits + Tensor(rng.gumbel(logits.shape))
        logits = logits * (1.0 / gumbel_temp)
    weights = softmax(logits, axis=-1)
    return weights @ v


def affine(x, w, b) -> Tensor:
    return x @ w + b


def mlp_forward(x, params: ParameterSet, prefix: str = "mlp", activation: str = "gelu") -> Tensor:
    """Two affine layers with a smooth gate between: w2ᵀ act(w1ᵀ x + b1) + b2.

    Reads `{prefix}.w1/.b1/.w2/.b2` from `params`; a missing name raises
    ConfigError. `x` may carry leading batch axes.
    """
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation: {activation!r}")
    act = ACTIVATIONS[activation]
    x = as_tensor(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x.reshape(1, -1)
    h = act(affine(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    y = affine(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return y.reshape(-1) if squeeze else y


class Mlp:
    """Owns the parameters of a two-layer MLP registered under a name prefix."""

    def __init__(
        self,
        params: ParameterSet,
        prefix: str,
        d_in: int,
        d_hidden: int,
        d_out: int,
        rng: RandomStream,
        group: str = GROUP_BASE,
        activation: str = "gelu",
    ):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation: {activation!r}")
        self.params = params
        self.prefix = prefix
        self.activation = activation
        params.add(f"{prefix}.w1", kaiming_normal(rng.child("w1"), (d_in, d_hidden), d_in), group)
        params.add(f"{prefix}.b1", np.zeros(d_hidden), group)
        params.add(f"{prefix}.w2", kaiming_normal(rng.child("w2"), (d_hidden, d_out), d_hidden), group)
        params.add(f"{prefix}.b2", np.zeros(d_out), group)

    def __call__(self, x) -> Tensor:
        return mlp_forward(x, self.params, self.prefix, self.activation)
