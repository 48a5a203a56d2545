"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .config import RunConfig
from .encoders import bind_query_indicators
from .errors import UsageError
from .model import RetrievalModel
from .ops import Mlp, ParameterSet, kaiming_normal, scaled_dot_attention
from .rng import RandomStream
from .tensor import Tensor, layer_norm, no_grad
from .training import Batch, training_loss

# Central-difference step of every check; `focusrank gradcheck` output is pinned at it.
EPS = 1e-5


@dataclass
class GradCheckResult:
    """Max relative error between tape and central-difference gradients, and
    the parameter it was found in."""

    name: str
    max_rel_error: float
    worst_param: str

    def passed(self) -> bool:
        """Whether the error is below 1e-4."""
        return self.max_rel_error < 1e-4


def check_gradients(loss_fn, params: ParameterSet, name: str = "loss") -> GradCheckResult:
    """Compare tape gradients of `loss_fn()` against central finite differences
    of step `EPS`.

    `loss_fn` must rebuild the forward computation from the current parameter
    values and return a scalar Tensor. Relative error per coordinate uses the
    denominator max(|analytic|, |numeric|, 1e-8). The finite-difference
    forwards record no graph.
    """
    params.zero_grad()
    loss = loss_fn()
    if not isinstance(loss, Tensor) or loss.data.shape != ():
        raise UsageError("loss_fn must return a scalar Tensor")
    loss.backward()
    analytic = params.gradients()

    per_param: dict[str, float] = {}
    for pname in params.names():
        tensor = params[pname]
        a = analytic[pname]
        worst = 0.0
        flat = tensor.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + EPS
                f_plus = float(loss_fn().data)
                flat[i] = orig - EPS
                f_minus = float(loss_fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * EPS)
            a_i = a.reshape(-1)[i]
            denom = max(abs(a_i), abs(numeric), 1e-8)
            worst = max(worst, abs(a_i - numeric) / denom)
        per_param[pname] = worst
    params.zero_grad()
    worst_param = max(per_param, key=per_param.get) if per_param else ""
    max_err = per_param.get(worst_param, 0.0)
    return GradCheckResult(name, max_err, worst_param)


def run_gradient_suite(seed: int) -> list[GradCheckResult]:
    """Gradient-check every differentiable operation on toy shapes.

    Covers indicator binding, fused cross-attention, attention with Gumbel
    noise across broadcast batches, layer normalization, the MLP head,
    both contrastive directions, the focused cross-entropy, and the combined
    training objective of a miniature end-to-end model (width 8, batch 2,
    3 re-rank candidates).
    """
    rng = RandomStream(seed).child("gradcheck")
    results = []

    def sum_of_squares(t: Tensor) -> Tensor:
        return (t * t).sum()

    # Indicator binding: residual cross-attention with an output projection.
    p = ParameterSet()
    ind = p.add("indicators", kaiming_normal(rng.child("bind", "ind"), (4, 8), 8))
    tok = p.add("tokens", kaiming_normal(rng.child("bind", "tok"), (6, 8), 8))
    w_o = p.add("out_w", kaiming_normal(rng.child("bind", "w"), (8, 8), 8))
    b_o = p.add("out_b", rng.child("bind", "b").normal(8, scale=0.1))
    results.append(
        check_gradients(
            lambda: sum_of_squares(bind_query_indicators(ind, tok, w_o, b_o)),
            p,
            name="binding-attention",
        )
    )

    # Fused cross-attention at a temperature other than 1.
    p = ParameterSet()
    q = p.add("q", kaiming_normal(rng.child("fuse", "q"), (3, 8), 8))
    kv = p.add("kv", kaiming_normal(rng.child("fuse", "kv"), (5, 8), 8))
    results.append(
        check_gradients(
            lambda: sum_of_squares(
                scaled_dot_attention(q, kv, kv, temperature=0.7)
            ),
            p,
            name="fusion-attention",
        )
    )

    # Broadcast attention: one query batch against two key/value batches,
    # Gumbel noise from a stream that replays on every call.
    p = ParameterSet()
    q = p.add("q", kaiming_normal(rng.child("broadcast", "q"), (1, 2, 8), 8))
    k = p.add("k", kaiming_normal(rng.child("broadcast", "k"), (2, 5, 8), 8))
    v = p.add("v", kaiming_normal(rng.child("broadcast", "v"), (2, 5, 8), 8))
    noise = rng.child("broadcast", "noise")
    results.append(
        check_gradients(
            lambda: sum_of_squares(
                scaled_dot_attention(q, k, v, temperature=0.7, rng=noise.child("draw"))
            ),
            p,
            name="broadcast-attention",
        )
    )

    # Layer normalization with a non-trivial affine map.
    p = ParameterSet()
    x = p.add("x", rng.child("ln", "x").normal((3, 8), scale=2.0))
    gamma = p.add("gamma", 1.0 + rng.child("ln", "gamma").normal(8, scale=0.5))
    beta = p.add("beta", rng.child("ln", "beta").normal(8, scale=0.5))
    results.append(
        check_gradients(
            lambda: sum_of_squares(layer_norm(x, gamma, beta) * Tensor(np.arange(1.0, 9.0))),
            p,
            name="layer-norm",
        )
    )

    # MLP head.
    p = ParameterSet()
    x = p.add("x", rng.child("mlp", "x").normal(8).reshape(1, 8))
    mlp = Mlp(p, "mlp", 8, 16, 3, rng.child("mlp"))
    results.append(
        check_gradients(lambda: sum_of_squares(mlp(x)), p, name="mlp-head")
    )

    # Contrastive losses over raw (graph-normalized) globals, both directions.
    p = ParameterSet()
    tg = p.add("text", kaiming_normal(rng.child("nce", "t"), (2, 8), 8))
    vg = p.add("video", kaiming_normal(rng.child("nce", "v"), (2, 8), 8))
    log_temp = p.add("log_temp", np.log(0.07))
    for direction in ("t2v", "v2t"):
        results.append(
            check_gradients(
                lambda d=direction: losses.contrastive_loss(
                    losses.normalize_rows(tg),
                    losses.normalize_rows(vg),
                    log_temp.exp(),
                    d,
                ),
                p,
                name=f"contrastive-{direction}",
            )
        )

    # Focused cross-entropy.
    p = ParameterSet()
    logits = p.add("logits", rng.child("ce").normal(3).reshape(1, 3))
    results.append(
        check_gradients(
            lambda: losses.cross_entropy(logits, [1]), p, name="focused-ce"
        )
    )

    # Combined objective through the full miniature model.
    cfg = RunConfig(
        dim=8, layers=1, vocab_size=16, text_len=4, patch_count=4, patch_dim=8,
        frame_count=2, mlp_hidden=8, k=3, batch_size=2, use_gumbel=False, seed=seed,
    ).validate()
    model = RetrievalModel(cfg)
    # Randomize the residual projections and delta scale so every gradient
    # path is exercised away from its zero-initialized point.
    for pname in model.params.names():
        if pname.endswith(("out_w", "out_b", "delta_scale")):
            t = model.params[pname]
            t.data = rng.child("jitter", pname).normal(t.data.shape, scale=0.3)
    data_rng = rng.child("batch").rekeyed()  # one generator for both draws
    batch = Batch(
        texts=np.asarray(data_rng.integers(0, cfg.vocab_size, (2, cfg.text_len))),
        videos=data_rng.normal(0.0, 1.0, (2, cfg.frame_count, cfg.patch_count, cfg.patch_dim)),
        item_ids=np.arange(2),
    )
    results.append(
        check_gradients(
            lambda: training_loss(model, batch, rng.child("noise")).combined_tensor,
            model.params,
            name="combined-objective",
        )
    )
    return results
