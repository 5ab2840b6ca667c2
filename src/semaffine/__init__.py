"""Semantic-affine transformation of mid-level decoder features in a toy
point-cloud segmentation pipeline, with a from-scratch autodiff core, a
synthetic benchmark, and finite-difference verification throughout."""

from .affine import (
    AffineParams,
    ConfidenceMatrix,
    combine_affine,
    mask_confidences,
    predict_affine_params,
    predict_masks,
    semantic_affine_transform,
)
from .errors import (
    ConfigError,
    ContractError,
    NumericError,
    ParseError,
    SemaffineError,
    ShapeError,
)
from .gradcheck import finite_diff_check
from .harness import Metrics, TrainConfig, compute_miou, midlevel_bce_loss, total_loss
from .hierarchy import Hierarchy, MultiHotLabels, build_hierarchy, pool_features, shadow_labels, unpool_features
from .model import ForwardOutput, ModelConfig, build_model, model_forward
from .scenes import LabeledCloud, SceneSpec, generate_scene, read_scene, write_scene
from .tensor import Tensor, backward, bce_with_logits, cross_entropy, layer_norm, matmul, softmax
from .train import eval_run, train_run

__version__ = "0.1.0"
