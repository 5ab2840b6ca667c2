"""Ablation driver: train the classifier x affine-stage lattice on a shared
synthetic corpus and compare validation mIoU across seeds.

The corpus is generated once from a corpus seed; per-run seeds only change
initialization and shuffling, so variant comparisons are paired by seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .harness import TrainConfig
from .model import AFFINE_MODES, CLASSIFIERS, ModelConfig
from .scenes import SceneSpec, generate_scene
from .train import PreparedScene, evaluate_scenes, prepare_scene, train_model

def parse_variants(tokens) -> list[tuple[str, str]]:
    """Split variant tokens into the two ablation axes and return their product;
    an axis with no token takes the ``ModelConfig`` default."""
    tokens = [t.strip() for t in tokens if t.strip()]
    unknown = [t for t in tokens if t not in CLASSIFIERS + AFFINE_MODES]
    if unknown:
        raise ConfigError(f"unknown ablation variants {unknown}; valid: {','.join(CLASSIFIERS + AFFINE_MODES)}")
    classifiers = [t for t in CLASSIFIERS if t in tokens] or [ModelConfig.classifier]
    affines = [t for t in AFFINE_MODES if t in tokens] or [ModelConfig.affine]
    return [(c, a) for c in classifiers for a in affines]


def build_corpus(spec: SceneSpec, n_train: int, n_val: int, model_cfg: ModelConfig,
                 corpus_seed: int = 0) -> tuple[list[PreparedScene], list[PreparedScene]]:
    base = corpus_seed * 1_000_000
    train = [prepare_scene(generate_scene(spec, base + i), model_cfg) for i in range(n_train)]
    val = [prepare_scene(generate_scene(spec, base + n_train + i), model_cfg) for i in range(n_val)]
    return train, val


@dataclass
class AblationResult:
    variants: list[tuple[str, str]]
    seeds: int
    miou: dict  # (classifier, affine) -> list of per-seed val mIoU

    def summary_lines(self) -> list[str]:
        lines = ["variant            " + "  ".join(f"seed{s}" for s in range(self.seeds)) + "  median"]
        for key in self.variants:
            vals = self.miou[key]
            lines.append(
                f"{key[0]:>4s}/{key[1]:<12s} "
                + "  ".join(f"{v:.4f}" for v in vals)
                + f"  {np.median(vals):.4f}"
            )
        return lines

    def paired_comparison(self, a: tuple[str, str], b: tuple[str, str]):
        """Per-seed wins of a over b and the median improvement."""
        va, vb = np.asarray(self.miou[a]), np.asarray(self.miou[b])
        diffs = va - vb
        return int((diffs > 0).sum()), float(np.median(diffs))


def run_ablation(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    spec: SceneSpec,
    n_train: int,
    n_val: int,
    variants: list[tuple[str, str]],
    seeds: int,
    corpus_seed: int = 0,
    progress=None,
) -> AblationResult:
    train_scenes, val_scenes = build_corpus(spec, n_train, n_val, model_cfg, corpus_seed)
    results: dict[tuple[str, str], list[float]] = {}
    for classifier, affine in variants:
        cfg = replace(model_cfg, classifier=classifier, affine=affine)
        per_seed = []
        for seed in range(seeds):
            run_cfg = replace(train_cfg, seed=seed)
            # skip per-epoch validation; only the final metrics matter here
            result = train_model(cfg, run_cfg, train_scenes, [], out_ckpt=None)
            metrics = evaluate_scenes(result.params, val_scenes)
            per_seed.append(metrics.miou)
            if progress is not None:
                progress(f"{classifier}/{affine} seed {seed}: val mIoU {metrics.miou:.4f}")
        results[(classifier, affine)] = per_seed
    return AblationResult(variants=variants, seeds=seeds, miou=results)
