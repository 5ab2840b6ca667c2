"""Semantic-affine feature transformation.

A bank of per-class (scale, bias) vectors is blended per point by its class
confidence distribution, and the blend rescales the point's normalized
feature row:

    S_j = sum_k A[j, k] * s_k      B_j = sum_k A[j, k] * b_k
    out_j = S_j * normalize(f_j) + B_j

Points with similar class distributions are pulled toward similar scales and
offsets; points with different distributions are pushed apart. Scales are
kept nonnegative by a softplus on the regression head, so S stays
nonnegative for any confidence simplex. The transform is one
``tensor.layer_norm`` node with the (n, d) blends as gain and bias; the
class-agnostic AdaIN and bn controls are the same op with one learned (d,)
row for every point.

Confidence rows come from dot products between per-class mask vectors and
per-point features projected into mask space, one ``tensor.mask_logits``
node; a per-point softmax turns the raw scores into the required
distribution (raw logits are retained for the multi-hot mid-level loss,
which needs sigmoid semantics instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import tensor as T
from .blocks import LinearParams, mlp_forward
from .tensor import Tensor


@dataclass
class AffineParams:
    scales: Tensor  # (N, d_i), entrywise >= 0
    biases: Tensor  # (N, d_i)


@dataclass
class ConfidenceMatrix:
    logits: Tensor  # (n_i, N) raw per-class scores
    probs: Tensor  # (n_i, N) softmax rows, each summing to 1


def predict_masks(h_final: Tensor, head: Sequence[LinearParams]) -> Tensor:
    """One mask row per class from the final class-feature rows: (N, d_m)."""
    return mlp_forward(head, h_final)


def mask_confidences(masks: Tensor, f: Tensor, proj: LinearParams, offsets=None) -> ConfidenceMatrix:
    """logits[j, k] = masks_k . proj(f_j); probs = per-point softmax over classes.

    With the row ``offsets`` of several scenes in f, masks stacks one (N, d_m)
    block per scene and each point is scored against its scene's block."""
    return confidences_from_logits(T.mask_logits(f, masks, proj.weight, proj.bias, offsets))


def confidences_from_logits(logits: Tensor) -> ConfidenceMatrix:
    """Wrap externally produced class scores (e.g. a fully connected head)."""
    return ConfidenceMatrix(logits=logits, probs=T.softmax(logits))


def predict_affine_params(
    h_u: Tensor,
    scale_head: Sequence[LinearParams],
    bias_head: Sequence[LinearParams],
) -> AffineParams:
    """Regress per-class scale/bias rows from one decoder layer's class features.

    Each class row is mapped independently; the softplus keeps scales >= 0.
    """
    return AffineParams(
        scales=T.softplus(mlp_forward(scale_head, h_u)),
        biases=mlp_forward(bias_head, h_u),
    )


def semantic_affine_transform(
    f: Tensor,
    conf: ConfidenceMatrix,
    p: AffineParams,
    offsets=None,
) -> Tensor:
    """Replace each feature row with S_j * normalize(f_j) + B_j, where S_j and
    B_j are the confidence-weighted sums of the class rows of the point's own
    scene's bank (row ``offsets``; None for one scene)."""
    s = T.matmul(conf.probs, p.scales, offsets)
    b = T.matmul(conf.probs, p.biases, offsets)
    return T.layer_norm(f, s, b)
