"""Training and evaluation loops over scene corpora (the ablation driver is ``ablate``).

Everything downstream of (config, seed) is deterministic: scene order comes
from seeded per-epoch permutations, initialization from per-component seed
streams, and all math is float64 numpy, so repeated runs produce
byte-identical metric logs and checkpoints.

One SGD step is one tape: ``stack_scenes`` stacks the batch's prepared
scenes, and one forward, one backward and one ``sgd_step`` run on the stack.
Its loss is the mean of the scenes' losses; evaluation runs one scene per
forward.

The per-epoch metrics log is tab-separated: ``epoch  train_loss  val_miou  lr``
with the learning rate sampled at the epoch's first optimizer step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from .config import configs_from_snapshot, snapshot
from .errors import ContractError, NumericError
from .harness import (
    Metrics,
    SgdState,
    TrainConfig,
    confusion_matrix,
    learning_rate,
    metrics_from_confusion,
    sgd_step,
    total_loss,
)
from .hierarchy import Hierarchy, build_hierarchy, shadow_labels, stack_hierarchies
from .model import ModelConfig, ModelParams, build_model, model_forward
from .scenes import LabeledCloud, read_manifest, read_scene


@dataclass
class PreparedScene:
    cloud: LabeledCloud
    hier: Hierarchy
    shadows: dict[int, np.ndarray]  # per level 1..L-1, the (n_i, N) multi-hot label rows


def prepare_scene(cloud: LabeledCloud, cfg: ModelConfig) -> PreparedScene:
    hier = build_hierarchy(cloud.coords, cfg.base_voxel, cfg.levels)
    shadows = shadow_labels(hier, cloud.labels, cfg.n_classes)
    return PreparedScene(cloud=cloud, hier=hier, shadows=shadows)


def stack_scenes(scenes: list[PreparedScene]) -> tuple[Hierarchy, np.ndarray, dict[int, np.ndarray]]:
    """A batch's stacked hierarchy, level-0 labels and per-level shadows,
    scene after scene: one forward and one loss cover the whole batch."""
    hier = stack_hierarchies([scene.hier for scene in scenes])
    labels = np.concatenate([scene.cloud.labels for scene in scenes])
    shadows = {level: np.concatenate([scene.shadows[level] for scene in scenes]) for level in scenes[0].shadows}
    return hier, labels, shadows


def load_corpus(manifest_path, cfg: ModelConfig):
    """Load and prepare every scene in a manifest, keyed by split tag."""
    entries = read_manifest(manifest_path)
    if not entries:
        raise ContractError(f"empty manifest: {manifest_path}")
    root = Path(manifest_path).parent
    splits: dict[str, list[PreparedScene]] = {"train": [], "val": []}
    for rel_path, tag in entries:
        path = Path(rel_path)
        if not path.is_absolute():
            path = root / path
        cloud = read_scene(path)
        if cloud.n_classes != cfg.n_classes:
            raise ContractError(
                f"{path}: scene has {cloud.n_classes} classes, model expects {cfg.n_classes}")
        splits[tag].append(prepare_scene(cloud, cfg))
    return splits


def evaluate_scenes(params: ModelParams, scenes: list[PreparedScene]) -> Metrics:
    """Pool confusion counts over all scenes before computing IoU."""
    if not scenes:
        raise ContractError("evaluate_scenes: no scenes")
    n = params.cfg.n_classes
    pooled = np.zeros((n, n), dtype=np.int64)
    for scene in scenes:
        logits = model_forward(params, scene.hier).final_logits.data
        if not np.isfinite(logits).all():
            raise NumericError(f"non-finite logits on the scene with seed {scene.cloud.seed}")
        preds = logits.argmax(axis=1)
        pooled += confusion_matrix(preds, scene.cloud.labels, n)
    return metrics_from_confusion(pooled)


@dataclass
class TrainResult:
    params: ModelParams
    log_lines: list[str]
    final_val: Metrics | None


def train_model(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    train_scenes: list[PreparedScene],
    val_scenes: list[PreparedScene],
    out_ckpt=None,
) -> TrainResult:
    model_cfg.validate()
    train_cfg.validate()
    if not train_scenes:
        raise ContractError("train_model: no training scenes")

    params = build_model(model_cfg, seed=train_cfg.seed)
    named = params.named_parameters()
    state = SgdState()

    n_train = len(train_scenes)
    steps_per_epoch = math.ceil(n_train / train_cfg.batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch

    log_lines: list[str] = []
    final_val: Metrics | None = None
    t = 0
    for epoch in range(train_cfg.epochs):
        order = np.random.default_rng([train_cfg.seed, 1000 + epoch]).permutation(n_train)
        epoch_losses = []
        epoch_lr = learning_rate(train_cfg, t, total_steps)
        for s in range(steps_per_epoch):
            batch = order[s * train_cfg.batch_size:(s + 1) * train_cfg.batch_size]
            for _, p in named:
                p.zero_grad()
            hier, labels, shadows = stack_scenes([train_scenes[idx] for idx in batch])
            loss = total_loss(model_forward(params, hier), labels, shadows)
            batch_loss = loss.item()  # the mean of the batch's scene losses
            if not np.isfinite(batch_loss):
                raise NumericError(f"non-finite loss at epoch {epoch} step {s}")
            loss.backward()
            sgd_step(named, state, train_cfg, t, total_steps)
            epoch_losses.append(batch_loss)
            t += 1
        train_loss = float(np.mean(epoch_losses))
        if val_scenes:
            final_val = evaluate_scenes(params, val_scenes)
            val_miou = final_val.miou
        else:
            val_miou = float("nan")
        log_lines.append(f"{epoch}\t{train_loss:.17g}\t{val_miou:.17g}\t{epoch_lr:.17g}")

    if out_ckpt is not None:
        save_checkpoint(out_ckpt, named, snapshot(model_cfg, train_cfg), step=t)
    return TrainResult(params=params, log_lines=log_lines, final_val=final_val)


def train_run(manifest_path, model_cfg: ModelConfig, train_cfg: TrainConfig,
              out_ckpt, log_path=None) -> TrainResult:
    """Manifest-driven training; writes the final checkpoint and optionally
    the per-epoch metrics log. Both output directories must exist before
    the corpus is loaded, so that a bad path costs no training."""
    for path in (out_ckpt, log_path):
        if path is not None and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"output directory of {path} does not exist")
    splits = load_corpus(manifest_path, model_cfg)
    result = train_model(model_cfg, train_cfg, splits["train"], splits["val"], out_ckpt=out_ckpt)
    if log_path is not None:
        Path(log_path).write_text("\n".join(result.log_lines) + "\n", encoding="utf-8")
    return result


def eval_run(ckpt_path, manifest_path, split: str = "val") -> Metrics:
    """Restore a checkpoint and compute pooled metrics over one split
    (``val`` by default, ``train`` or ``all`` otherwise)."""
    config, _, entries = load_checkpoint(ckpt_path)
    model_cfg, train_cfg = configs_from_snapshot(config)
    params = build_model(model_cfg, seed=train_cfg.seed)
    restore_parameters(params.named_parameters(), entries)
    splits = load_corpus(manifest_path, model_cfg)
    if split == "all":
        scenes = splits["train"] + splits["val"]
    elif split in splits:
        scenes = splits[split]
    else:
        raise ContractError(f"eval split must be train|val|all, got {split!r}")
    if not scenes:
        raise ContractError(f"no scenes with split {split!r} in {manifest_path}")
    return evaluate_scenes(params, scenes)
