"""Named gradient-check suite covering every differentiable operation and a
small end-to-end model; the CLI ``gradcheck`` subcommand runs it."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import blocks as B
from . import tensor as T
from .affine import mask_confidences, predict_affine_params, predict_masks, semantic_affine_transform
from .errors import ConfigError
from .gradcheck import TOL, finite_diff_check
from .harness import total_loss
from .hierarchy import build_hierarchy, pool_features, shadow_labels, unpool_features
from .model import ModelConfig, build_model, model_forward
from .tensor import Tensor


class Check(NamedTuple):
    """One named finite-difference check of the scalar ``loss()`` over ``params``."""

    name: str
    loss: Callable[[], Tensor]
    params: list  # (name, Tensor) pairs
    tol: float = TOL
    max_entries: int | None = None  # None: every entry


def _mix(out, seed=0):
    """A smooth scalar of the (n, d) ``out`` that every entry moves: the
    BCE against fixed random 0/1 targets from a stream of its own, whose
    gradient (sigmoid(x) - t) / size is never zero."""
    return T.bce_with_logits(out, np.random.default_rng(seed).integers(0, 2, out.shape))


def _tensor_checks(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    c = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = Tensor(rng.uniform(0.2, 1.5, (3, 5)) * rng.choice([-1.0, 1.0], (3, 5)), requires_grad=True)

    yield Check("matmul", lambda: _mix(T.matmul(a, b)), [("a", a), ("b", b)])
    yield Check("add", lambda: _mix(T.add(a, c)), [("a", a), ("c", c)])
    yield Check("softplus", lambda: _mix(T.softplus(x)), [("x", x)])
    yield Check("softmax", lambda: _mix(T.softmax(a)), [("a", a)])
    yield Check("scale", lambda: _mix(T.scale(a, 1.7)), [("a", a)])

    # the fused ops draw from streams of their own so the later checks keep their inputs
    fused, more = np.random.default_rng(7), np.random.default_rng(10)
    # three layers, 4 -> 5 -> 4 -> 3; each hidden bias is shifted so that the ReLU
    # kink falls midway in the widest gap between its unit's pre-activations:
    # every hidden unit has live and dead rows, all well clear of the kink
    layers = [(Tensor(draw.standard_normal((out, n_in)), requires_grad=True),
               Tensor(draw.standard_normal(out), requires_grad=True))
              for draw, out, n_in in ((fused, 5, 4), (more, 4, 5), (more, 3, 4))]
    h = a.data
    for w, bias in layers[:-1]:
        pre = np.sort(h @ w.data.T + bias.data, axis=0)
        widest, units = np.diff(pre, axis=0).argmax(axis=0), np.arange(pre.shape[1])
        bias.data -= (pre[widest, units] + pre[widest + 1, units]) / 2
        h = np.maximum(h @ w.data.T + bias.data, 0.0)
    yield Check("mlp", lambda: _mix(T.mlp(a, layers)),
                [("x", a)] + [(f"{name}{i}", t) for i, layer in enumerate(layers) for name, t in zip("wb", layer)])

    # two heads of width 2, q/k/v each stacked as (4, 4) weight and (4,) bias
    proj = [(f"{kind}.{part}", Tensor(fused.standard_normal(shape), requires_grad=True))
            for kind in "qkv" for part, shape in (("w", (4, 4)), ("b", 4))]
    yield Check("attention", lambda: _mix(T.attention(a, c, *(t for _, t in proj), heads=2)),
                [("q_in", a), ("kv_in", c)] + proj)

    # (d,) gain/bias rows as in the Transformer, AdaIN and bn norms, with a residual
    # input as in the post-norm Transformer sublayers; (n, d) per-point gain/bias as
    # in the semantic-affine transform
    rows = [Tensor(fused.standard_normal(4), requires_grad=True) for _ in range(2)]
    points = [Tensor(fused.standard_normal((3, 4)), requires_grad=True) for _ in range(2)]
    residual = Tensor(more.standard_normal((3, 4)), requires_grad=True)
    yield Check("layer_norm",
                lambda: T.add(_mix(T.layer_norm(a, *rows, residual=residual)), _mix(T.layer_norm(c, *points), seed=1)),
                [("x_rows", a), ("gain_row", rows[0]), ("bias_row", rows[1]), ("residual_rows", residual),
                 ("x_points", c), ("gain_points", points[0]), ("bias_points", points[1])])

    # two class masks in a 3-wide mask space, projected from 4 features
    masks, w_m, b_m = (Tensor(fused.standard_normal(shape), requires_grad=True) for shape in ((2, 3), (3, 4), 3))
    yield Check("mask_logits", lambda: _mix(T.mask_logits(a, masks, w_m, b_m)),
                [("f", a), ("masks", masks), ("w", w_m), ("b", b_m)])

    # the scene-offset paths: two ragged scenes, drawn from a stream of their own
    yield from _scene_offset_checks(np.random.default_rng(8))


def _scene_offset_checks(rng):
    """Each op that keeps scenes apart, on rows cut into two ragged scenes."""
    q_offsets, kv_offsets = [0, 2, 5], [0, 4, 6]  # 2 + 3 query rows, 4 + 2 key rows

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    q_in, kv_in = leaf(5, 2), leaf(6, 2)
    proj = [(f"{kind}.{part}", leaf(*shape)) for kind in "qkv" for part, shape in (("w", (2, 2)), ("b", (2,)))]
    yield Check("attention_scenes",
                lambda: _mix(T.attention(q_in, kv_in, *(t for _, t in proj), 2, q_offsets, kv_offsets)),
                [("q_in", q_in), ("kv_in", kv_in)] + proj)

    f, masks, w, b = leaf(5, 3), leaf(4, 2), leaf(2, 3), leaf(2)  # one (2, 2) mask block per scene
    yield Check("mask_logits_scenes", lambda: _mix(T.mask_logits(f, masks, w, b, q_offsets)),
                [("f", f), ("masks", masks), ("w", w), ("b", b)])

    probs, bank = leaf(5, 2), leaf(4, 3)  # one (2, 3) bank per scene
    yield Check("matmul_scenes", lambda: _mix(T.matmul(probs, bank, q_offsets)), [("a", probs), ("b", bank)])


def _block_checks(rng):
    lin = B.init_linear(rng, 4, 3)
    x3 = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    yield Check("linear", lambda: _mix(B.linear_forward(lin, x3)), B.named_parameters(lin, "lin.") + [("x", x3)])

    mlp = B.init_mlp(rng, [3, 6, 4])
    yield Check("mlp", lambda: _mix(B.mlp_forward(mlp, x3)), B.named_parameters(mlp, "mlp.") + [("x", x3)])

    attn = B.init_attention(rng, heads=2, model_dim=4)
    q_in = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    kv = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    yield Check("multi_head_attention", lambda: _mix(B.multi_head_attention(attn, q_in, kv)),
                B.named_parameters(attn, "attn.") + [("q_in", q_in), ("kv", kv)])

    enc = B.init_encoder_block(rng, heads=2, model_dim=4)
    xe = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    yield Check("encoder_block", lambda: _mix(B.encoder_block(enc, xe)), B.named_parameters(enc, "enc.") + [("x", xe)])

    dec = B.init_decoder_block(rng, heads=2, model_dim=4, kv_dim=6)
    qd = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    mem = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    yield Check("decoder_block", lambda: _mix(B.decoder_block(dec, qd, mem)),
                B.named_parameters(dec, "dec.") + [("q", qd), ("mem", mem)])


def _hierarchy_checks(rng):
    coords = rng.uniform(-1, 1, (12, 3))
    hier = build_hierarchy(coords, 0.8, 3)
    f = Tensor(rng.standard_normal((12, 3)), requires_grad=True)
    skip = Tensor(rng.standard_normal((12, 3)), requires_grad=True)

    def loss():
        pooled = pool_features(hier, 0, f)
        return _mix(unpool_features(hier, 0, pooled, skip))

    yield Check("pool_unpool", loss, [("f", f), ("skip", skip)])


def _affine_checks(rng):
    n, n_classes, d, d_m, d_h = 4, 3, 4, 5, 6
    h_u = Tensor(rng.standard_normal((n_classes, d_h)), requires_grad=True)
    mask_head = B.init_mlp(rng, [d_h, d_m])
    scale_head = B.init_mlp(rng, [d_h, d])
    bias_head = B.init_mlp(rng, [d_h, d])
    proj = B.init_linear(rng, d_m, d)
    f = Tensor(rng.standard_normal((n, d)), requires_grad=True)

    def loss():
        masks = predict_masks(h_u, mask_head)
        conf = mask_confidences(masks, f, proj)
        affine = predict_affine_params(h_u, scale_head, bias_head)
        return _mix(semantic_affine_transform(f, conf, affine))

    heads = {"mask_head": mask_head, "scale_head": scale_head, "bias_head": bias_head, "proj": proj}
    yield Check("composed_transform", loss, [("h_u", h_u), ("f", f)] + B.named_parameters(heads))


def _loss_checks(rng):
    # each loss scaled by 0.37, so the checks cover its backward's upstream gradient
    logits = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    labels = rng.integers(0, 4, 6)
    yield Check("cross_entropy", lambda: T.scale(T.cross_entropy(logits, labels), 0.37), [("logits", logits)])

    mid = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    targets = (rng.random((5, 4)) < 0.4).astype(float)
    yield Check("midlevel_bce", lambda: T.scale(T.bce_with_logits(mid, targets), 0.37), [("logits", mid)])

    # per-scene means over two ragged scenes, drawn from a stream of their own
    scenes = np.random.default_rng(9)
    offsets = [0, 2, 5]
    logits_s = Tensor(scenes.standard_normal((5, 3)), requires_grad=True)
    labels_s = scenes.integers(0, 3, 5)
    yield Check("cross_entropy_scenes",
                lambda: T.scale(T.cross_entropy(logits_s, labels_s, offsets), 0.37), [("logits", logits_s)])
    mid_s = Tensor(scenes.standard_normal((5, 3)), requires_grad=True)
    targets_s = (scenes.random((5, 3)) < 0.4).astype(float)
    yield Check("midlevel_bce_scenes",
                lambda: T.scale(T.bce_with_logits(mid_s, targets_s, offsets), 0.37), [("logits", mid_s)])


def _model_check(rng):
    cfg = ModelConfig(
        n_classes=3, levels=3, level_dims=(4, 6, 8), d_h=4, d_m=4,
        encoder_depth=1, decoder_depth=4, heads=2, level_offset=2, base_voxel=0.6,
    )
    params = build_model(cfg, seed=5)
    for _, t in params.named_parameters():
        t.data += rng.uniform(-0.05, 0.05, t.shape)
    coords = rng.uniform(-1.2, 1.2, (16, 3))
    labels = rng.integers(0, 3, 16)
    hier = build_hierarchy(coords, cfg.base_voxel, cfg.levels)
    shadows = shadow_labels(hier, labels, 3)

    def loss():
        return total_loss(model_forward(params, hier), labels, shadows)

    # 6 sampled entries per parameter: 2150 replayed losses, plus 2 full forwards
    yield Check("end_to_end_16pt", loss, params.named_parameters(), tol=1e-4, max_entries=6)


# module -> generator of its checks; every generator draws from one stream in this order
CHECKS = {"tensor": _tensor_checks, "blocks": _block_checks, "hierarchy": _hierarchy_checks,
          "affine": _affine_checks, "losses": _loss_checks, "model": _model_check}
MODULES = tuple(CHECKS)


def iter_checks(module: str | None = None):
    """``(module, *Check)`` of one module's checks, or of all of them; the
    other modules' checks are still drawn, so every check gets the same inputs."""
    rng = np.random.default_rng(2024)
    for mod, gen in CHECKS.items():
        for check in gen(rng):
            if module is None or mod == module:
                yield (mod, *check)


def run_suite(module: str | None = None, tol: float | None = None, emit=print) -> bool:
    """Run the named checks of one of ``MODULES`` (None: all of them);
    returns True when everything passes. An unknown module or a ``tol``
    that is not a finite number > 0 raises ConfigError before any check runs."""
    if module is not None and module not in MODULES:
        raise ConfigError(f"gradcheck module must be one of {', '.join(MODULES)}, got {module!r}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"gradcheck tol must be a finite number > 0, got {tol!r}")
    all_ok = True
    for mod, name, loss, params, check_tol, max_entries in iter_checks(module):
        use_tol = tol if tol is not None else check_tol
        report = finite_diff_check(loss, params, tol=use_tol, max_entries=max_entries, seed=0)
        status = "PASS" if report.passed else "FAIL"
        emit(f"{status}  {mod}.{name}  max_rel_err={report.max_rel_err:.3e}  tol={use_tol:g}  "
             f"groups={len(report.params)}")
        if not report.passed:
            for line in report.lines():
                if line.startswith("FAIL"):
                    emit("      " + line)
            all_ok = False
    return all_ok
