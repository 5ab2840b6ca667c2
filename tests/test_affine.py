"""Semantic-affine transform oracles: hand-evaluated blends, hard/soft
consistency, symmetry collapses, and gradients through the composed path."""

import math
from unittest import mock

import numpy as np
import pytest

from semaffine import affine as A
from semaffine import blocks as B
from semaffine import tensor as T
from semaffine.errors import ShapeError
from semaffine.gradcheck import finite_diff_check
from semaffine.tensor import Tensor
from upstream import weighted_sum


def identity_proj(d):
    """A mask projection that passes d-wide features through unchanged."""
    return B.LinearParams(Tensor(np.eye(d)), Tensor(np.zeros(d)))


def blend(conf, p):
    """The per-point (S, B) that ``semantic_affine_transform`` hands to its
    ``layer_norm`` node as gain and bias."""
    with mock.patch.object(T, "layer_norm", wraps=T.layer_norm) as spy:
        A.semantic_affine_transform(Tensor(np.zeros((conf.probs.shape[0], p.scales.shape[1]))), conf, p)
    _, s, b = spy.call_args.args
    return s, b


def normalize_oracle(x):
    """Rows to zero mean and unit variance, with the variance floor 1e-5."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5)


def transform_oracle(f, probs, scales, biases):
    """Entrywise loops over points, classes, channels."""
    n, d = f.shape
    f_hat = normalize_oracle(f)
    out = np.zeros((n, d))
    for j in range(n):
        s = np.zeros(d)
        b = np.zeros(d)
        for k in range(probs.shape[1]):
            s += probs[j, k] * scales[k]
            b += probs[j, k] * biases[k]
        out[j] = s * f_hat[j] + b
    return out


class TestPredictMasks:
    def test_identity_head(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((3, 4))
        head = [B.LinearParams(Tensor(np.eye(4)), Tensor(np.zeros(4)))]
        masks = A.predict_masks(Tensor(h), head)
        np.testing.assert_array_equal(masks.data, h)

    def test_zero_head_constant_rows(self):
        head = [B.LinearParams(Tensor(np.zeros((2, 4))), Tensor(np.array([1.0, -1.0])))]
        masks = A.predict_masks(Tensor(np.random.default_rng(1).standard_normal((3, 4))), head)
        np.testing.assert_array_equal(masks.data, np.tile([1.0, -1.0], (3, 1)))

    def test_random_matches_mlp(self):
        rng = np.random.default_rng(2)
        head = B.init_mlp(rng, [4, 6, 6, 5])
        h = Tensor(rng.standard_normal((3, 4)))
        masks = A.predict_masks(h, head)
        np.testing.assert_array_equal(masks.data, B.mlp_forward(head, h).data)


class TestMaskConfidences:
    def test_identical_masks_give_uniform_rows(self):
        rng = np.random.default_rng(3)
        mask_row = rng.standard_normal(4)
        masks = Tensor(np.tile(mask_row, (5, 1)))
        conf = A.mask_confidences(masks, Tensor(rng.standard_normal((7, 4))), identity_proj(4))
        np.testing.assert_allclose(conf.probs.data, np.full((7, 5), 0.2), atol=1e-12)

    def test_orthonormal_masks_peak_on_matching_class(self):
        n_classes = 4
        masks = Tensor(np.eye(n_classes))
        f = Tensor(10.0 * np.eye(n_classes)[2:3])
        conf = A.mask_confidences(masks, f, identity_proj(n_classes))
        assert conf.probs.data[0].argmax() == 2
        expect = math.exp(10) / (math.exp(10) + (n_classes - 1))
        np.testing.assert_allclose(conf.probs.data[0, 2], expect, atol=1e-12)

    def test_two_class_analytic_softmax(self):
        masks = Tensor(np.array([[0.0, 0.0], [0.0, 1.0]]))
        f = Tensor(np.array([[5.0, math.log(2.0)]]))  # logits [0, ln 2]
        conf = A.mask_confidences(masks, f, identity_proj(2))
        np.testing.assert_allclose(conf.probs.data, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_rows_lie_on_simplex(self):
        rng = np.random.default_rng(4)
        masks = Tensor(rng.standard_normal((6, 8)))
        conf = A.mask_confidences(masks, Tensor(rng.standard_normal((20, 8)) * 3), identity_proj(8))
        sums = conf.probs.data.sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(20), atol=1e-9)
        assert (conf.probs.data >= 0).all() and (conf.probs.data <= 1).all()

    def test_shape_mismatch(self):
        masks = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            A.mask_confidences(masks, Tensor(np.zeros((5, 6))), identity_proj(6))


class TestPredictAffineParams:
    def test_zero_head_gives_ln2_scales(self):
        rng = np.random.default_rng(5)
        zero = [B.LinearParams(Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))]
        p = A.predict_affine_params(Tensor(rng.standard_normal((2, 4))), zero, zero)
        np.testing.assert_allclose(p.scales.data, np.full((2, 3), math.log(2.0)), atol=1e-12)
        np.testing.assert_array_equal(p.biases.data, np.zeros((2, 3)))

    def test_identity_scale_init(self):
        bias_val = math.log(math.e - 1.0)
        head = [B.LinearParams(Tensor(np.zeros((3, 4))), Tensor(np.full(3, bias_val)))]
        p = A.predict_affine_params(Tensor(np.ones((2, 4))), head, head)
        np.testing.assert_allclose(p.scales.data, np.ones((2, 3)), atol=1e-12)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(6)
        scale_head = B.init_mlp(rng, [4, 5, 3])
        bias_head = B.init_mlp(rng, [4, 5, 3])
        h = rng.standard_normal((4, 4))
        p = A.predict_affine_params(Tensor(h), scale_head, bias_head)
        for k in range(4):
            row = A.predict_affine_params(Tensor(h[k:k + 1]), scale_head, bias_head)
            np.testing.assert_allclose(p.scales.data[k], row.scales.data[0], atol=1e-12)
            np.testing.assert_allclose(p.biases.data[k], row.biases.data[0], atol=1e-12)
        assert (p.scales.data >= 0).all()


class TestCombineAffine:
    """The confidence-weighted blend of class rows inside the transform."""

    def test_one_hot_selects_class_params(self):
        rng = np.random.default_rng(7)
        p = A.AffineParams(Tensor(np.abs(rng.standard_normal((3, 4)))), Tensor(rng.standard_normal((3, 4))))
        probs = Tensor(np.eye(3)[[2, 0, 1, 2]].astype(float))
        conf = A.ConfidenceMatrix(logits=probs, probs=probs)
        s, b = blend(conf, p)
        np.testing.assert_allclose(s.data, p.scales.data[[2, 0, 1, 2]], atol=1e-15)
        np.testing.assert_allclose(b.data, p.biases.data[[2, 0, 1, 2]], atol=1e-15)

    def test_hand_worked_blend(self):
        probs = Tensor(np.array([[0.25, 0.75]]))
        p = A.AffineParams(
            Tensor(np.array([[1.0, 1.0], [3.0, 1.0]])),
            Tensor(np.array([[0.0, 0.0], [1.0, 1.0]])),
        )
        conf = A.ConfidenceMatrix(logits=probs, probs=probs)
        s, b = blend(conf, p)
        np.testing.assert_allclose(s.data, [[2.5, 1.0]], atol=1e-12)
        np.testing.assert_allclose(b.data, [[0.75, 0.75]], atol=1e-12)

    def test_shared_params_are_fixed_point(self):
        rng = np.random.default_rng(8)
        s_star = np.abs(rng.standard_normal(4))
        b_star = rng.standard_normal(4)
        p = A.AffineParams(Tensor(np.tile(s_star, (3, 1))), Tensor(np.tile(b_star, (3, 1))))
        probs = rng.dirichlet(np.ones(3), size=6)
        conf = A.ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
        s, b = blend(conf, p)
        np.testing.assert_allclose(s.data, np.tile(s_star, (6, 1)), atol=1e-12)
        np.testing.assert_allclose(b.data, np.tile(b_star, (6, 1)), atol=1e-12)

    def test_scale_nonnegativity(self):
        rng = np.random.default_rng(9)
        p = A.AffineParams(Tensor(np.abs(rng.standard_normal((4, 5)))), Tensor(rng.standard_normal((4, 5))))
        probs = rng.dirichlet(np.ones(4), size=50)
        conf = A.ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
        s, _ = blend(conf, p)
        assert (s.data >= 0).all()


class TestSemanticAffineTransform:
    def test_hand_worked_example(self):
        f = Tensor(np.array([[2.0, 4.0]]))
        probs = Tensor(np.array([[0.25, 0.75]]))
        conf = A.ConfidenceMatrix(logits=probs, probs=probs)
        p = A.AffineParams(
            Tensor(np.array([[1.0, 1.0], [3.0, 1.0]])),
            Tensor(np.array([[0.0, 0.0], [1.0, 1.0]])),
        )
        out = A.semantic_affine_transform(f, conf, p)
        # row [2, 4] normalizes to ~[-1, 1]; blended scale [2.5, 1], bias [0.75, 0.75]
        np.testing.assert_allclose(out.data, [[-1.75, 1.75]], atol=1e-4)
        np.testing.assert_allclose(
            out.data, transform_oracle(f.data, probs.data, p.scales.data, p.biases.data), atol=1e-12)

    def test_identity_affine_is_plain_normalization(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((5, 4))
        probs = rng.dirichlet(np.ones(3), size=5)
        conf = A.ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
        p = A.AffineParams(Tensor(np.ones((3, 4))), Tensor(np.zeros((3, 4))))
        out = A.semantic_affine_transform(Tensor(f), conf, p)
        np.testing.assert_allclose(out.data, normalize_oracle(f), atol=1e-12)

    def test_identical_confidence_rows_share_parameters(self):
        rng = np.random.default_rng(11)
        p = A.AffineParams(Tensor(np.abs(rng.standard_normal((3, 2)))), Tensor(rng.standard_normal((3, 2))))
        row = rng.dirichlet(np.ones(3))
        probs = Tensor(np.tile(row, (2, 1)))
        conf = A.ConfidenceMatrix(logits=probs, probs=probs)
        s, b = blend(conf, p)
        np.testing.assert_allclose(s.data[0], s.data[1], atol=1e-15)
        np.testing.assert_allclose(b.data[0], b.data[1], atol=1e-15)

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((8, 6)) * 2
        probs = rng.dirichlet(np.ones(4), size=8)
        scales = np.abs(rng.standard_normal((4, 6)))
        biases = rng.standard_normal((4, 6))
        conf = A.ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
        out = A.semantic_affine_transform(Tensor(f), conf, A.AffineParams(Tensor(scales), Tensor(biases)))
        np.testing.assert_allclose(out.data, transform_oracle(f, probs, scales, biases), atol=1e-12)

    def test_hard_soft_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n, n_classes, d = 6, 4, 5
            f = rng.standard_normal((n, d))
            hard = rng.integers(0, n_classes, n)
            probs = np.eye(n_classes)[hard].astype(float)
            scales = np.abs(rng.standard_normal((n_classes, d)))
            biases = rng.standard_normal((n_classes, d))
            conf = A.ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
            out = A.semantic_affine_transform(Tensor(f), conf, A.AffineParams(Tensor(scales), Tensor(biases)))
            f_hat = normalize_oracle(f)
            expect = scales[hard] * f_hat + biases[hard]  # pick class params directly
            np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_argmax_invariance_under_mask_scaling(self):
        rng = np.random.default_rng(14)
        masks = Tensor(rng.standard_normal((5, 6)))
        f = Tensor(rng.standard_normal((30, 6)))
        base = A.mask_confidences(masks, f, identity_proj(6)).probs.data.argmax(axis=1)
        scaled = Tensor(masks.data * 7.3)
        after = A.mask_confidences(scaled, f, identity_proj(6)).probs.data.argmax(axis=1)
        np.testing.assert_array_equal(base, after)

    def test_separation_at_parameter_level(self):
        rng = np.random.default_rng(15)
        scales = np.abs(rng.standard_normal((3, 4))) + 0.1
        biases = rng.standard_normal((3, 4))
        f = rng.standard_normal((1, 4))
        f2 = np.vstack([f, f])  # equal features, different one-hot rows
        probs = np.eye(3)[[0, 1]].astype(float)
        conf = A.ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
        out = A.semantic_affine_transform(
            Tensor(f2), conf, A.AffineParams(Tensor(scales), Tensor(biases)))
        f_hat = normalize_oracle(f2)[0]
        gap = np.linalg.norm((scales[0] - scales[1]) * f_hat + (biases[0] - biases[1]))
        np.testing.assert_allclose(np.linalg.norm(out.data[0] - out.data[1]), gap, atol=1e-12)
        assert gap > 0

    def test_gradients_through_composed_path(self):
        # masks, class features, affine heads, and input features all receive
        # finite-difference-verified gradients through confidences and the blend
        rng = np.random.default_rng(16)
        n, n_classes, d_m, d, d_h = 4, 3, 5, 4, 6
        h_u = Tensor(rng.standard_normal((n_classes, d_h)), requires_grad=True)
        mask_head = B.init_mlp(rng, [d_h, d_m])
        scale_head = B.init_mlp(rng, [d_h, d])
        bias_head = B.init_mlp(rng, [d_h, d])
        proj = B.init_linear(rng, d_m, d)
        f = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        mix = rng.standard_normal((n, d))

        def loss():
            masks = A.predict_masks(h_u, mask_head)
            conf = A.mask_confidences(masks, f, proj)
            params = A.predict_affine_params(h_u, scale_head, bias_head)
            return weighted_sum(A.semantic_affine_transform(f, conf, params), mix)

        named = (
            [("h_u", h_u), ("f", f)]
            + B.named_parameters(mask_head, "mask_head.")
            + B.named_parameters(scale_head, "scale_head.")
            + B.named_parameters(bias_head, "bias_head.")
            + B.named_parameters(proj, "proj.")
        )
        report = finite_diff_check(loss, named, tol=1e-5)
        assert report.passed, "\n".join(report.lines())


class TestAdainTransform:
    """The AdaIN control: ``layer_norm`` with one learned (scale, bias) row for every point."""

    def test_identity_pair(self):
        rng = np.random.default_rng(17)
        f = rng.standard_normal((4, 3))
        out = T.layer_norm(Tensor(f), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, normalize_oracle(f), atol=1e-12)

    def test_equals_semantic_transform_with_identical_class_rows(self):
        rng = np.random.default_rng(18)
        f = rng.standard_normal((6, 4))
        s_star = np.abs(rng.standard_normal(4))
        b_star = rng.standard_normal(4)
        probs = rng.dirichlet(np.ones(3), size=6)
        conf = A.ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
        p = A.AffineParams(Tensor(np.tile(s_star, (3, 1))), Tensor(np.tile(b_star, (3, 1))))
        sa = A.semantic_affine_transform(Tensor(f), conf, p)
        ada = T.layer_norm(Tensor(f), Tensor(s_star), Tensor(b_star))
        np.testing.assert_allclose(sa.data, ada.data, atol=1e-12)

    def test_random_matches_scale_add_oracle(self):
        rng = np.random.default_rng(19)
        f = rng.standard_normal((5, 3))
        scale = rng.standard_normal(3)
        bias = rng.standard_normal(3)
        out = T.layer_norm(Tensor(f), Tensor(scale), Tensor(bias))
        f_hat = normalize_oracle(f)
        expect = np.array([[scale[l] * f_hat[j, l] + bias[l] for l in range(3)] for j in range(5)])
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_semantic_transform_rejects_misfit_affine_dim(self):
        probs = np.full((2, 3), 1 / 3)
        conf = A.ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
        p = A.AffineParams(Tensor(np.ones((3, 5))), Tensor(np.zeros((3, 5))))
        with pytest.raises(ShapeError):
            A.semantic_affine_transform(Tensor(np.zeros((2, 4))), conf, p)
