"""Training loop: in-batch candidate construction, dual-stage objective and
a decoupled-weight-decay adaptive optimizer with learning rates by name."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import InputError, TrainingAbort, UsageError
from .losses import LossReport, combined_loss, contrastive_loss, cross_entropy
from .model import RetrievalModel
from .ops import ParameterSet
from .pipeline import focused_fuse, stage1_order
from .rng import RandomStream
from .tensor import Tensor


@dataclass
class Batch:
    """Index-aligned text/video pairs."""

    texts: np.ndarray     # (B, M) token ids
    videos: np.ndarray    # (B, T, P^2, D)
    item_ids: np.ndarray  # (B,) dataset indices, for diagnostics

    def __len__(self) -> int:
        return len(self.item_ids)


@dataclass
class LossBundle:
    """The two loss tensors of one forward pass that backward needs, and the
    float report of its terms.

    `scale_calibration` lives outside the combined objective: it is the
    cross-entropy of the composed scores (stage-1 + delta, or the delta alone
    without `use_stage1_scores`) over detached inputs, so its gradient touches
    only the delta scale. The spec's focused loss reads the raw logits and
    therefore leaves the scale without any gradient; this term calibrates it
    toward values that make the composed re-ranking put the true candidate first.
    Without query indicators it is a constant zero, like both focused terms.
    """

    combined_tensor: Tensor
    scale_calibration: Tensor
    report: LossReport


def build_candidates(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k in-batch candidates of each row of (B, B) similarities, with the
    row's true item, its own index, force-included; one `stage1_order` call.

    When the true item misses a row's top-k it replaces the lowest-ranked
    candidate. Returns the (B, k) candidate indices and the (B,) position of
    the true item in each row.
    """
    top = stage1_order(sims)[:, :k]
    truth = np.arange(len(top))
    hits = top == truth[:, None]
    missed = ~hits.any(axis=1)
    top[missed, -1] = truth[missed]
    return top, np.where(missed, k - 1, hits.argmax(axis=1))


def training_loss(model: RetrievalModel, batch: Batch, rng: RandomStream) -> LossBundle:
    """Forward pass of one step: both contrastive terms plus both focused
    cross-entropy terms over injected in-batch candidate sets of min(k, B)
    items, every switch read from `model.cfg`. Fusion samples Gumbel noise
    from `rng` when `use_gumbel` is on, and ignores the stream when it is off."""
    b = len(batch)
    if b < 2:
        raise InputError("training batch must have at least 2 pairs")
    cfg = model.cfg
    k_train = min(cfg.k, b)

    t_global, t_focus, t_locals = model.encode_text_batch(batch.texts)
    v_global, v_focus, v_locals = model.encode_video_batch(batch.videos)

    tau = model.temperature
    l_t2v = contrastive_loss(t_global, v_global, tau, "t2v")
    l_v2t = contrastive_loss(t_global, v_global, tau, "v2t")

    if cfg.use_query_indicators:
        sims = t_global.data @ v_global.data.T
        l_focus_t, cal_t = _focused_direction(model, t_focus, v_locals, sims, k_train, rng, "t")
        l_focus_v, cal_v = _focused_direction(model, v_focus, t_locals, sims.T, k_train, rng, "v")
        calibration = cal_t + cal_v
    else:
        l_focus_t = Tensor(0.0)
        l_focus_v = Tensor(0.0)
        calibration = Tensor(0.0)

    combined = combined_loss(l_t2v, l_v2t, l_focus_v, l_focus_t)
    terms = (l_t2v, l_v2t, l_focus_t, l_focus_v, combined)
    return LossBundle(combined, calibration, LossReport(*(float(t.data) for t in terms)))


def _focused_direction(model, query_focus, cand_locals, sims, k_train, rng, tag):
    cand_idx, positions = build_candidates(sims, k_train)
    noise_rng = rng.child("gumbel", tag) if model.cfg.use_gumbel else None
    fused = focused_fuse(query_focus, cand_locals, cand_idx, model.fusion, noise_rng)
    logits = model.fusion.project(fused)
    focus = cross_entropy(logits[:, :k_train], positions)
    # Calibration of the delta scale over detached logits and stage-1 scores:
    # cross-entropy of the candidate scores composed as `compose_scores` does,
    # gradient on the scale only.
    scale = model.fusion.params["fusion.delta_scale"]
    composed = scale * logits[:, :k_train].detach()
    if model.cfg.use_stage1_scores:
        composed = Tensor(np.take_along_axis(sims, cand_idx, axis=1)) + composed
    calibration = cross_entropy(composed, positions)
    return focus, calibration


# AdamW moment decay rates and denominator floor.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class AdamW:
    """Adaptive-moment update with decoupled weight decay, its policy by name.

    `fusion.*` parameters step at `lr_fusion`, the rest at `lr_base`, and
    `log_temperature` is exempt from weight decay (decaying it would
    silently drag tau toward 1).
    """

    def __init__(self, params: ParameterSet, lr_base: float, lr_fusion: float, weight_decay: float):
        self.params = params
        self.lr_base, self.lr_fusion = lr_base, lr_fusion
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in params.items()}
        # Two scratch arrays per parameter, so a step allocates nothing.
        self._scratch = {
            name: (np.empty_like(t.data), np.empty_like(t.data)) for name, t in params.items()
        }

    def step(self) -> None:
        """Update every parameter in place, in the operation order of
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        update = (m/bias1) / (sqrt(v/bias2) + eps) + wd*data, data -= lr*update."""
        self.step_count += 1
        b1, b2 = ADAM_BETAS
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        for name, tensor in self.params.items():
            g = tensor.grad
            if g is None:
                g = np.zeros_like(tensor.data)
            m = self._m[name]
            v = self._v[name]
            a, update = self._scratch[name]
            m *= b1
            np.multiply(1 - b1, g, out=a)
            m += a
            v *= b2
            np.multiply(1 - b2, g, out=a)
            a *= g
            v += a
            lr = self.lr_fusion if name.startswith("fusion.") else self.lr_base
            np.divide(v, bias2, out=a)
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(m, bias1, out=update)
            update /= a
            if self.weight_decay and name != "log_temperature":
                np.multiply(self.weight_decay, tensor.data, out=a)
                update += a
            update *= lr
            tensor.data -= update


def train_step(
    model: RetrievalModel, batch: Batch, optimizer: AdamW, rng: RandomStream
) -> LossReport:
    """One optimizer update; aborts with diagnostics on a non-finite loss or
    when the update leaves a parameter non-finite. Fusion draws its Gumbel
    noise from `rng` when `use_gumbel` is on (see `training_loss`).

    Overflow and invalid values are not warned about: the finiteness checks
    below report a diverging run, naming its parameters and batch items."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bundle = training_loss(model, batch, rng=rng)
        report = bundle.report
        if not report.finite():
            raise TrainingAbort(
                f"non-finite loss {report} on batch items {batch.item_ids.tolist()}"
            )
        model.params.zero_grad()
        # One backward pass for both terms: the calibration reaches only the
        # delta scale, which the combined objective does not, so the sum's
        # gradients are those of two separate passes.
        (bundle.combined_tensor + bundle.scale_calibration).backward()
        optimizer.step()
    # A finite loss can hide a diverged parameter (an infinite temperature
    # gives uniform logits); training on would only end at the checkpoint.
    broken = [name for name, t in model.params.items() if not np.isfinite(t.data).all()]
    if broken:
        raise TrainingAbort(
            f"parameters {broken} hold NaN or infinite values after the update "
            f"on batch items {batch.item_ids.tolist()}"
        )
    model.params.zero_grad()
    return report


@dataclass
class StepLog:
    epoch: int
    step: int
    report: LossReport


def iterate_batches(dataset, order: np.ndarray, batch_size: int):
    """Slice a shuffled dataset into batches; a trailing batch of one pair is
    dropped (contrastive training needs at least two)."""
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        if len(idx) < 2:
            break
        yield Batch(dataset.texts[idx], dataset.videos[idx], idx)


def shuffle_cohorts(groups: np.ndarray, rng: RandomStream) -> np.ndarray:
    """Seeded epoch shuffle that keeps hard-negative cohorts contiguous.

    Cohort order and the member order inside each cohort are both permuted,
    so batches contain whole cohorts and the focused head trains against the
    distractors it has to separate at evaluation time. A plain item shuffle
    would almost never co-locate cohort members within a batch.
    """
    labels = np.unique(groups)
    cohort_perm = rng.child("cohorts").permutation(len(labels))
    pieces = []
    for rank, which in enumerate(cohort_perm):
        members = np.nonzero(groups == labels[which])[0]
        inner = rng.child("members", rank).permutation(len(members))
        pieces.append(members[inner])
    return np.concatenate(pieces)


def train_loop(dataset, model: RetrievalModel, cfg: RunConfig, out_dir) -> list[StepLog]:
    """Seeded epochs of train_step; saves the trained parameters as
    `out_dir/model.bin` and returns the per-step loss log. `cfg` must equal
    `model.cfg`, which the steps read."""
    if cfg != model.cfg:
        raise UsageError("train_loop needs the config the model was built with")
    if len(dataset) < 2:
        raise InputError(f"contrastive training needs at least 2 pairs, got {len(dataset)}")
    stream = RandomStream(cfg.seed).child("train")
    optimizer = AdamW(
        model.params, cfg.lr_base, cfg.lr_fusion, weight_decay=cfg.weight_decay
    )
    logs: list[StepLog] = []
    for epoch in range(cfg.epochs):
        order = shuffle_cohorts(dataset.groups, stream.child("shuffle", epoch))
        for step, batch in enumerate(iterate_batches(dataset, order, cfg.batch_size)):
            report = train_step(model, batch, optimizer, stream.child("step", epoch, step))
            logs.append(StepLog(epoch, step, report))
    model.save(f"{out_dir}/model.bin")
    return logs
