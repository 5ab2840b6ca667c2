"""Toy encoder-decoder segmentation model with semantic-affine decoding.

Pipeline: a voxel-hierarchy point encoder lifts coordinates to per-level
features; a self-attention stack enriches the coarsest tokens; a class-query
cross-attention decoder emits per-class mask vectors and, from its
intermediate layers, per-class affine banks. The feature decoder then walks
the hierarchy top-down: at each mid level it classifies every point against
the masks, re-scales the features with the confidence-blended affine bank,
and unpools to the next finer level with a skip connection. The finest level
is classified the same way to produce the output logits.

Decoder layer u supplies the affine bank for mid stage i via
u = i + ``LEVEL_OFFSET``, so the decoder has ``len(level_dims) + 1`` layers
and its final layer feeds both the finest mid stage and the d_h-wide masks.

Every parameter exists in every configuration; the ``classifier`` and
``affine`` switches only select which forward path consumes them, so
configurations share initial weights and differ only in the intended stage.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .affine import (
    AffineParams,
    ConfidenceMatrix,
    confidences_from_logits,
    mask_confidences,
    predict_affine_params,
    predict_masks,
    semantic_affine_transform,
)
from .blocks import (
    LayerNormParams,
    LinearParams,
    decoder_block,
    encoder_block,
    fan_in_uniform,
    init_decoder_block,
    init_encoder_block,
    init_layer_norm,
    init_linear,
    init_mlp,
    linear_forward,
    mlp_forward,
    named_parameters,
)
from .errors import ConfigError, SemaffineError, require_finite
from .hierarchy import Hierarchy, pool_features, unpool_features
from .tensor import Tensor

# the ablation axes, in the order the ablation lattice runs them
CLASSIFIERS = ("fc", "mask")
AFFINE_MODES = ("bn", "adain", "sa")

# parameter-name prefixes whose learning rate ``harness.sgd_step`` reduces by the
# attention factor: the transformer machinery (positional MLP, token encoder,
# queries, query-decoder blocks, mask head). The small per-level affine
# regression heads train with the backbone at full rate, otherwise their class
# banks never leave the identity start at this scale.
ATTENTION_PREFIXES = ("pos_mlp.", "token_encoder.", "query_decoder.")

_SOFTPLUS_INV_1 = math.log(math.e - 1.0)  # softplus of this is 1: the identity scale
LEVEL_OFFSET = 2  # mid stage i reads query-decoder layer i + LEVEL_OFFSET

# size bounds checked before any draw; at both, a model holds 36.5 M float64
# parameters (290 MB, three times that with gradients and momentum)
MAX_WIDTH = 256  # n_classes, d_h and each level_dims entry; 4x the default d_h
MAX_DEPTH = 16  # encoder_depth and decoder_depth, so at most 15 levels; 3-4x the defaults


@dataclass
class ModelConfig:
    n_classes: int = 4
    level_dims: tuple = (32, 64, 96, 128)  # feature width per hierarchy level, finest first
    d_h: int = 64
    encoder_depth: int = 4  # self-attention blocks over top tokens
    heads: int = 4
    base_voxel: float = 0.4
    classifier: str = "mask"
    affine: str = "sa"

    @property
    def levels(self) -> int:
        return len(self.level_dims)

    @property
    def decoder_depth(self) -> int:  # class-query decoder blocks
        return self.n_mid + LEVEL_OFFSET  # the finest mid stage reads the final one

    @property
    def n_mid(self) -> int:
        return self.levels - 1

    @property
    def mid_levels(self) -> list[int]:
        """Hierarchy level of each mid stage, coarsest first."""
        return [self.levels - i for i in range(1, self.n_mid + 1)]

    def validate(self):
        require_finite(self)
        if self.n_classes < 1:
            raise ConfigError(f"n_classes must be >= 1, got {self.n_classes}")
        if not 2 <= self.levels <= MAX_DEPTH + 1 - LEVEL_OFFSET:  # so that decoder_depth <= MAX_DEPTH
            raise ConfigError(f"level_dims must have 2 to {MAX_DEPTH + 1 - LEVEL_OFFSET} entries, got {self.levels}")
        if any(d <= 0 for d in self.level_dims) or self.d_h <= 0:
            raise ConfigError("all dimensions must be positive")
        if max(self.n_classes, self.d_h, *self.level_dims) > MAX_WIDTH:
            raise ConfigError(f"n_classes, d_h and level_dims must be <= {MAX_WIDTH}")
        if self.encoder_depth > MAX_DEPTH:
            raise ConfigError(f"encoder_depth must be <= {MAX_DEPTH}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.d_h % self.heads != 0 or self.level_dims[-1] % self.heads != 0:
            raise ConfigError(f"{self.heads} heads must divide d_h={self.d_h} and top dim={self.level_dims[-1]}")
        if self.encoder_depth < 0:
            raise ConfigError(f"encoder_depth must be >= 0, got {self.encoder_depth}")
        if self.base_voxel <= 0:
            raise ConfigError(f"base_voxel must be positive, got {self.base_voxel}")
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(f"classifier must be one of {CLASSIFIERS}, got {self.classifier!r}")
        if self.affine not in AFFINE_MODES:
            raise ConfigError(f"affine must be one of {AFFINE_MODES}, got {self.affine!r}")


@dataclass
class AdainParams:
    pre_scale: Tensor  # (d,), softplus gives the shared scale row
    bias: Tensor  # (d,)


@dataclass
class SiteParams:
    """Per supervised site: projection into mask space, an FC alternative,
    and the class-agnostic pairs of the bn (``norm``) and adain modes, which
    only mid sites have."""

    mask_proj: LinearParams
    fc: LinearParams
    norm: Optional[LayerNormParams] = None
    adain: Optional[AdainParams] = None


@dataclass
class ModelParams:
    cfg: ModelConfig
    enc_mlps: list  # per level, list[LinearParams]
    pos_mlp: list  # 3 linear layers, coords -> top dim
    token_encoder: list  # EncoderBlockParams
    queries: Tensor  # (N, d_h)
    query_decoder: list  # DecoderBlockParams
    mask_head: list  # 3 linear layers, d_h -> d_h
    scale_heads: dict  # mid stage -> 5 linear layers, d_h -> level dim
    bias_heads: dict
    down_proj: dict  # mid stage -> LinearParams level dim -> next finer dim
    sites: dict  # hierarchy level -> SiteParams
    parts: dict  # checkpoint name prefix -> parameter record, in checkpoint order

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return named_parameters(self.parts)


def _component_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def build_model(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Draw every parameter record from the (seed, checkpoint prefix) stream,
    so two builds agree record by record regardless of configuration; the
    streams are independent, so records are built in checkpoint order."""
    cfg.validate()
    dims = list(cfg.level_dims)
    top = dims[-1]
    parts = {}

    def part(prefix: str, init, *args):
        parts[prefix] = init(_component_rng(seed, prefix), *args)
        return parts[prefix]

    enc_mlps = [part(f"backbone.enc{level}", init_mlp, [dims[level - 1] if level else 3, dims[level], dims[level]])
                for level in range(cfg.levels)]
    down_proj = {i: part(f"backbone.down{i}", init_linear, dims[level - 1], dims[level])
                 for i, level in enumerate(cfg.mid_levels, start=1)}
    sites = {}
    for level in cfg.mid_levels + [0]:
        prefix, d_level = f"backbone.site{level}", dims[level]
        sites[level] = site = SiteParams(mask_proj=part(f"{prefix}.mask_proj", init_linear, cfg.d_h, d_level),
                                         fc=part(f"{prefix}.fc", init_linear, cfg.n_classes, d_level))
        if level > 0:
            site.norm = parts[f"{prefix}.norm"] = init_layer_norm(d_level)
            site.adain = parts[f"{prefix}.adain"] = AdainParams(
                pre_scale=Tensor(np.full(d_level, _SOFTPLUS_INV_1), requires_grad=True),
                bias=Tensor(np.zeros(d_level), requires_grad=True))

    pos_mlp = part("pos_mlp", init_mlp, [3, top, top, top])
    token_encoder = [part(f"token_encoder.block{b}", init_encoder_block, cfg.heads, top)
                     for b in range(cfg.encoder_depth)]
    queries = part("query_decoder.queries", lambda rng: Tensor(
        fan_in_uniform(rng, cfg.n_classes, cfg.d_h, bias=False)[0], requires_grad=True))
    query_decoder = [part(f"query_decoder.block{b}", init_decoder_block, cfg.heads, cfg.d_h, top)
                     for b in range(cfg.decoder_depth)]
    mask_head = part("query_decoder.mask_head", init_mlp, [cfg.d_h] * 4)

    scale_heads, bias_heads = {}, {}
    for i, level in enumerate(cfg.mid_levels, start=1):
        head_dims = [cfg.d_h] * 5 + [dims[level]]  # 5 linear layers, hidden width d_h
        scale_heads[i] = part(f"affine_heads.scale{i}", init_mlp, head_dims)
        bias_heads[i] = part(f"affine_heads.bias{i}", init_mlp, head_dims)
        # shift the scale head toward softplus^-1(1) for a near-identity start
        scale_heads[i][-1].bias.data += _SOFTPLUS_INV_1

    return ModelParams(cfg, enc_mlps, pos_mlp, token_encoder, queries, query_decoder, mask_head,
                       scale_heads, bias_heads, down_proj, sites, parts)


@dataclass
class MidLevelOutput:
    level: int  # hierarchy level of this stage
    conf: ConfidenceMatrix
    affine: Optional[AffineParams]


@dataclass
class ForwardOutput:
    final_logits: Tensor  # (n_0, N)
    mids: list  # MidLevelOutput, coarsest stage first
    offsets: list  # per level, the hierarchy's scene row offsets


def backbone_encode(params: ModelParams, hier: Hierarchy) -> list[Tensor]:
    """Per-point MLP at the finest level, then pool + per-level MLP upward."""
    feats = [mlp_forward(params.enc_mlps[0], Tensor(hier.coords[0]))]
    for level in range(1, params.cfg.levels):
        pooled = pool_features(hier, level - 1, feats[level - 1])
        feats.append(mlp_forward(params.enc_mlps[level], pooled))
    return feats


def encode_tokens(params: ModelParams, top_feats: Tensor, top_coords: np.ndarray, offsets) -> Tensor:
    """Self-attention stack over the coarsest tokens, each scene's (row
    ``offsets``) attending among themselves, with coordinate positional
    embeddings added once at the input."""
    pos = mlp_forward(params.pos_mlp, Tensor(top_coords))
    x = top_feats + pos
    for block in params.token_encoder:
        x = encoder_block(block, x, offsets)
    return x


def decode_queries(params: ModelParams, memory: Tensor, offsets):
    """Run the class queries through the cross-attention decoder, one copy
    of them per scene of the memory (row ``offsets``);
    returns every layer's output (for the affine heads), each the scenes'
    (N, d_h) rows stacked, and the final layer."""
    n_classes = params.cfg.n_classes
    scenes = len(offsets) - 1
    h = T.gather_rows(params.queries, np.arange(n_classes * scenes) % n_classes)
    query_offsets = tuple(range(0, n_classes * scenes + 1, n_classes))
    h_layers = []
    for block in params.query_decoder:
        h = decoder_block(block, h, memory, query_offsets, offsets)
        h_layers.append(h)
    return h_layers, h_layers[-1]


def _site_confidences(params: ModelParams, level: int, feats: Tensor, masks: Tensor, offsets) -> ConfidenceMatrix:
    """A mid site's class scores and their per-point softmax rows."""
    site = params.sites[level]
    if params.cfg.classifier == "mask":
        return mask_confidences(masks, feats, site.mask_proj, offsets)
    return confidences_from_logits(linear_forward(site.fc, feats))


def _site_logits(params: ModelParams, level: int, feats: Tensor, masks: Tensor, offsets) -> Tensor:
    """The final site's class scores alone: nothing reads a softmax of them."""
    site = params.sites[level]
    if params.cfg.classifier == "mask":
        return T.mask_logits(feats, masks, site.mask_proj.weight, site.mask_proj.bias, offsets)
    return linear_forward(site.fc, feats)


def model_forward(params: ModelParams, hier: Hierarchy) -> ForwardOutput:
    """Full forward pass over a prepared voxel hierarchy of one scene, or of
    a batch stacked by ``hierarchy.stack_hierarchies``: row-wise layers run
    once over the stacked rows, and each scene's points attend to, are
    scored against and are transformed by its own copy of the class queries."""
    cfg = params.cfg
    enc = backbone_encode(params, hier)
    tokens = encode_tokens(params, enc[-1], hier.coords[-1], hier.offsets[-1])
    h_layers, h_final = decode_queries(params, tokens, hier.offsets[-1])
    masks = predict_masks(h_final, params.mask_head)

    feats = tokens
    mids = []
    for i, level in enumerate(cfg.mid_levels, start=1):
        try:
            conf = _site_confidences(params, level, feats, masks, hier.offsets[level])
            affine = None
            if cfg.affine == "sa":
                h_u = h_layers[i + LEVEL_OFFSET - 1]
                affine = predict_affine_params(h_u, params.scale_heads[i], params.bias_heads[i])
                transformed = semantic_affine_transform(feats, conf, affine, hier.offsets[level])
            elif cfg.affine == "adain":  # one shared (scale, bias) row for every point
                site = params.sites[level]
                transformed = T.layer_norm(feats, T.softplus(site.adain.pre_scale), site.adain.bias)
            else:  # bn: plain normalization with a learned class-agnostic pair
                site = params.sites[level]
                transformed = T.layer_norm(feats, site.norm.gain, site.norm.bias)
            mids.append(MidLevelOutput(level=level, conf=conf, affine=affine))
            down = linear_forward(params.down_proj[i], transformed)
            feats = unpool_features(hier, level - 1, down, enc[level - 1])
        except SemaffineError as e:
            raise type(e)(f"decoder stage {i} (hierarchy level {level}): {e}") from e

    return ForwardOutput(final_logits=_site_logits(params, 0, feats, masks, hier.offsets[0]), mids=mids,
                         offsets=hier.offsets)
