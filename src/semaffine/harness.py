"""Losses, SGD with schedule, and segmentation metrics.

The training objective is a weighted sum of a final-level cross entropy over
integer point labels and, per supervised mid level, a binary cross entropy of
the raw class scores against the multi-hot labels that shadow the pooling
hierarchy. Each term is one tape node (``tensor.cross_entropy``,
``tensor.bce_with_logits``, which validate labels and targets);
``total_loss`` creates, weights and sums them.

The learning rate is ``base * group_factor * warm(t) * (1 - t/T)^2`` with a
linear warmup over the first 5% of steps; ``sgd_step`` gives the parameters
named under ``model.ATTENTION_PREFIXES`` the reduced attention factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, NumericError, ShapeError, require_finite
from .model import ATTENTION_PREFIXES, ForwardOutput
from .tensor import Tensor


@dataclass
class TrainConfig:
    base_lr: float = 2e-2
    attention_lr_factor: float = 0.1
    weight_decay: float = 1e-4
    momentum: float = 0.9
    epochs: int = 20
    batch_size: int = 4
    warmup_fraction: float = 0.05
    w_final: float = 1.0
    w_mid: float = 1.0
    seed: int = 0

    def validate(self):
        require_finite(self)
        if self.base_lr <= 0 or self.attention_lr_factor <= 0:
            raise ConfigError("learning rates must be positive")
        if self.weight_decay < 0 or self.momentum < 0 or not 0 <= self.warmup_fraction < 1:
            raise ConfigError("invalid optimizer settings")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.w_final < 0 or self.w_mid < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# -- losses --------------------------------------------------------------------


def total_loss(
    fwd: ForwardOutput,
    labels,
    shadows: dict[int, np.ndarray],
    w_final: float = 1.0,
    w_mid: float = 1.0,
) -> Tensor:
    """w_final * CE(final logits, labels) + w_mid * the sum over mid levels of
    each level's mean entrywise BCE against ``shadows[level]``, that level's
    multi-hot targets. Over a batch of scenes (row ``fwd.offsets``) each term
    is the mean of the scenes' terms, so the loss is the mean of the scenes'
    losses."""
    ce = T.cross_entropy(fwd.final_logits, labels, fwd.offsets[0])
    bce = None
    for mid in fwd.mids:  # level by level: bce_0 + bce_1 + ...
        level_bce = T.bce_with_logits(mid.conf.logits, shadows[mid.level], fwd.offsets[mid.level])
        bce = level_bce if bce is None else bce + level_bce
    return T.scale(ce, w_final) + T.scale(bce, w_mid)


# -- optimizer -----------------------------------------------------------------


def learning_rate(cfg: TrainConfig, t: int, total_steps: int, group_factor: float = 1.0) -> float:
    """base * factor * warm(t) * (1 - t/T)^2, warm ramping over the first 5%."""
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")
    warmup_steps = cfg.warmup_fraction * total_steps
    warm = min(1.0, t / warmup_steps) if warmup_steps > 0 else 1.0
    lr = cfg.base_lr * group_factor * warm * (1.0 - t / total_steps) ** 2
    if lr < 0:
        raise ConfigError(f"schedule produced negative lr at step {t}")
    return lr


@dataclass
class SgdState:
    velocities: dict = field(default_factory=dict)  # name -> np.ndarray


def sgd_step(
    params: list[tuple[str, Tensor]],
    state: SgdState,
    cfg: TrainConfig,
    t: int,
    total_steps: int,
) -> None:
    """One momentum-SGD update; parameters named under ``ATTENTION_PREFIXES``
    take the rate times ``cfg.attention_lr_factor``, the rest the full rate.
    A non-finite gradient raises ``NumericError`` before anything is updated.

    velocity = momentum * velocity + grad + wd * param
    param   -= lr(t, group) * velocity
    """
    full_lr = learning_rate(cfg, t, total_steps)
    attention_lr = learning_rate(cfg, t, total_steps, cfg.attention_lr_factor)
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for _, p in params]
    for (name, _), grad in zip(params, grads):  # all of them before the first update
        if not np.isfinite(grad).all():
            raise NumericError(f"sgd_step: non-finite gradient for {name}")
    for (name, p), grad in zip(params, grads):
        v = state.velocities.get(name)
        if v is None:
            v = state.velocities[name] = np.zeros_like(p.data)
        # in place, in the order (momentum * v + grad) + wd * param
        v *= cfg.momentum
        v += grad
        v += cfg.weight_decay * p.data
        p.data -= (attention_lr if name.startswith(ATTENTION_PREFIXES) else full_lr) * v


# -- metrics -------------------------------------------------------------------


@dataclass
class Metrics:
    iou: np.ndarray  # per class; NaN where the class is absent from pred and gt
    miou: float
    accuracy: float
    confusion: np.ndarray  # (N, N), rows = ground truth


def confusion_matrix(preds, labels, n_classes: int) -> np.ndarray:
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ShapeError(f"confusion: preds {preds.shape} vs labels {labels.shape}")
    if preds.size == 0:
        raise ContractError("confusion: empty prediction array")
    for arr, what in ((preds, "prediction"), (labels, "label")):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ContractError(f"confusion: {what} out of range [0, {n_classes})")
    idx = labels * n_classes + preds
    return np.bincount(idx, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    """Per class IoU = tp / (tp + fp + fn); classes absent from both prediction
    and ground truth are NaN and excluded from the mean."""
    n_classes = confusion.shape[0]
    tp = np.diag(confusion).astype(np.float64)
    gt = confusion.sum(axis=1)
    pred = confusion.sum(axis=0)
    union = gt + pred - tp
    iou = np.full(n_classes, np.nan)
    present = union > 0
    iou[present] = tp[present] / union[present]
    miou = float(np.nanmean(iou)) if present.any() else float("nan")
    accuracy = float(tp.sum() / confusion.sum())
    return Metrics(iou=iou, miou=miou, accuracy=accuracy, confusion=confusion)
