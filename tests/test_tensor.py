"""Tensor-core oracles: independent loop implementations frozen against the ops."""

import math

import numpy as np
import pytest

from semaffine.errors import ContractError, ShapeError
from semaffine import tensor as T
from semaffine.tensor import Tensor
from upstream import weighted_sum


def hidden_relu(x):
    """The hidden ReLU of ``mlp`` on an (n, 1) column, between two identity
    layers: 1 * h + 0 is h bit for bit, infinities and NaN included."""
    identity = (Tensor([[1.0]]), Tensor([0.0]))
    return T.mlp(x, [identity, identity])


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_scalar_case(self):
        out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_random_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 5\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 5))))


class TestElementwise:
    def test_relu_sign_cases(self):
        out = hidden_relu(Tensor([[-1.0], [0.0], [2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0], [0.0], [2.0]])

    def test_relu_propagates_nan(self):
        x = np.array([np.nan, -np.inf, -2.0, -0.0, 0.0, 5e-324, 3.0, np.inf, np.nan])
        out = hidden_relu(Tensor(x[:, None])).data[:, 0]
        assert np.isnan(out[[0, -1]]).all()
        # finite and infinite outputs keep the bits of np.where(x > 0, x, 0.0): -0.0 maps to +0.0
        finite = ~np.isnan(x)
        assert out[finite].tobytes() == np.where(x > 0, x, 0.0)[finite].tobytes()

    def test_softplus_at_zero(self):
        out = T.softplus(Tensor([0.0]))
        np.testing.assert_allclose(out.data, [math.log(2.0)], atol=1e-12)

    def test_add_matches_entrywise_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        out = T.add(Tensor(a), Tensor(b))
        expect = np.array([[a[i, j] + b[i, j] for j in range(4)] for i in range(3)])
        np.testing.assert_array_equal(out.data, expect)

    def test_scale_by_constant(self):
        out = T.scale(Tensor([1.0, -2.0]), 2.5)
        np.testing.assert_array_equal(out.data, [2.5, -5.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        # no implicit (n, d) + (d,) row broadcast: bias and gain rows go through the fused ops
        with pytest.raises(ShapeError, match=r"\(3, 2\) and \(2,\)"):
            T.add(Tensor(np.ones((3, 2))), Tensor([1.0, 2.0]))


class TestSoftmax:
    def test_constant_row_is_uniform(self):
        out = T.softmax(Tensor([[3.7, 3.7, 3.7]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_analytic_two_entry(self):
        out = T.softmax(Tensor([[0.0, math.log(2.0)]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_shift_invariance_and_stability(self):
        big = T.softmax(Tensor([[1000.0, 1001.0], [-1001.0, -1000.0]]))
        small = T.softmax(Tensor([[0.0, 1.0], [0.0, 1.0]]))
        assert np.isfinite(big.data).all()
        np.testing.assert_allclose(big.data, small.data, atol=1e-12)
        np.testing.assert_array_equal(np.argmax(big.data, axis=1), np.argmax(small.data, axis=1))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 5)) * 10
        out = T.softmax(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-12)
        assert ((out.data > 0) & (out.data < 1)).all()

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ShapeError, match="softmax"):
            T.softmax(Tensor(np.zeros(shape)))


def sigmoid_oracle(x):
    """The logistic function branched on sign, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def unfused_cross_entropy(x, labels, g):
    """Loss and logits gradient of log_softmax -> pick -> mean -> scale(-1),
    the four nodes that ``cross_entropy`` replaces, one numpy step per node;
    ``g`` is the gradient arriving at the scale(-1) output."""
    shifted = x - x.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(labels.size)
    loss = log_probs[rows, labels].mean() * -1.0
    g_mean = -1.0 * g
    g_picked = np.full(labels.size, float(g_mean) / labels.size)
    g_log_probs = np.zeros(x.shape)
    g_log_probs[rows, labels] = g_picked
    return loss, g_log_probs - np.exp(log_probs) * g_log_probs.sum(axis=1, keepdims=True)


def unfused_bce(x, t, g):
    """Loss and logits gradient of mean(softplus(x) - mul(x, t)), the four
    nodes that ``bce_with_logits`` replaces; the mul backward reaches x
    before the softplus backward does."""
    loss = (np.logaddexp(0.0, x) - x * t).mean()
    g_diff = np.full(x.shape, float(g) / x.size)
    grad = (-g_diff) * t
    grad += g_diff * sigmoid_oracle(x)
    return loss, grad


class TestFusedLosses:
    """Each loss op against the op-by-op composition it replaces, bit for bit,
    under a non-unit upstream gradient."""

    def test_cross_entropy_matches_unfused(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((7, 4)) * 3.0
        x[0, 1] = 40.0  # a saturated row
        labels = np.array([1, 0, 3, 3, 2, 1, 0])
        logits = Tensor(x, requires_grad=True)
        ce = T.cross_entropy(logits, labels)
        T.scale(ce, 0.37).backward()
        loss, grad = unfused_cross_entropy(x, labels, 0.37 * np.ones(()))
        assert ce.op == "cross_entropy" and ce.parents == (logits,) and ce.shape == ()
        assert ce.data.tobytes() == np.float64(loss).tobytes()
        np.testing.assert_array_equal(logits.grad, grad)

    def test_bce_with_logits_matches_unfused(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((5, 4)) * 3.0
        x[0, :2] = [40.0, -40.0]  # saturated entries on both sides
        t = (rng.random((5, 4)) < 0.4).astype(np.float64)
        logits = Tensor(x, requires_grad=True)
        bce = T.bce_with_logits(logits, t)
        T.scale(bce, 0.37).backward()
        loss, grad = unfused_bce(x, t, 0.37 * np.ones(()))
        assert bce.op == "bce_with_logits" and bce.parents == (logits,) and bce.shape == ()
        assert bce.data.tobytes() == np.float64(loss).tobytes()
        np.testing.assert_array_equal(logits.grad, grad)

    def test_cross_entropy_rejects_bad_operands(self):
        logits = Tensor(np.zeros((3, 4)))
        for bad_logits, labels in ((Tensor(np.zeros(4)), [0]), (logits, [0, 1]), (logits, [[0, 1, 2]])):
            with pytest.raises(ShapeError, match="cross_entropy"):
                T.cross_entropy(bad_logits, labels)
        for labels in ([0, 4, 1], [-1, 0, 1]):
            with pytest.raises(ContractError, match="out of range"):
                T.cross_entropy(logits, labels)

    def test_bce_with_logits_rejects_bad_operands(self):
        logits = Tensor(np.zeros((2, 3)))
        for targets in (np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3, 1))):
            with pytest.raises(ShapeError, match="bce"):
                T.bce_with_logits(logits, targets)
        for bad in (0.5, -1.0, 2.0, np.nan):
            targets = np.ones((2, 3))
            targets[1, 2] = bad
            with pytest.raises(ContractError, match="binary"):
                T.bce_with_logits(logits, targets)
        targets = np.ones((2, 3))
        targets[1, 2] = -0.0  # equal to 0
        assert T.bce_with_logits(logits, targets).data == T.bce_with_logits(logits, np.abs(targets)).data


def unit_norm(x, eps):
    """layer_norm with a unit gain row and a zero bias row: the bare row normalization."""
    d = x.shape[1]
    return T.layer_norm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d)), eps)


def layer_norm_oracle(x, gain, bias, eps):
    """Loop version of normalize(x) * gain + bias; gain and bias are (d,) or (n, d)."""
    n, d = x.shape
    gain = np.broadcast_to(gain, (n, d))
    bias = np.broadcast_to(bias, (n, d))
    out = np.zeros((n, d))
    for j in range(n):
        mean = sum(x[j]) / d
        var = sum((v - mean) ** 2 for v in x[j]) / d
        for l in range(d):
            out[j, l] = (x[j, l] - mean) / math.sqrt(var + eps) * gain[j, l] + bias[j, l]
    return out


class TestChannelNormalize:
    """The normalization inside ``layer_norm``, seen through a unit gain and zero bias."""

    def test_two_entry_row(self):
        out = unit_norm(np.array([[1.0, 3.0]]), eps=0.0)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

    def test_constant_row_guard(self):
        out = unit_norm(np.array([[5.0, 5.0, 5.0]]), eps=1e-5)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])

    def test_random_row_moments(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 32)) * 4.0 + 1.0
        out = unit_norm(x, eps=1e-5).data
        # recompute moments independently
        for row in out:
            mean = sum(row) / len(row)
            var = sum((v - mean) ** 2 for v in row) / len(row)
            assert abs(mean) <= 1e-12
            assert abs(math.sqrt(var) - 1.0) <= 1e-6


class TestLayerNorm:
    @pytest.mark.parametrize("gain_shape,bias_shape", [
        ((5,), (5,)), ((4, 5), (4, 5)), ((5,), (4, 5)), ((4, 5), (5,)),
    ])
    def test_matches_loop_oracle(self, gain_shape, bias_shape):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((4, 5)) * 3.0 - 1.0
        gain, bias = rng.standard_normal(gain_shape), rng.standard_normal(bias_shape)
        out = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), 1e-5)
        np.testing.assert_allclose(out.data, layer_norm_oracle(x, gain, bias, 1e-5), rtol=0, atol=1e-12)

    def test_oracle_cases_with_gain_and_bias(self):
        # the two-entry row with eps=0 and the constant row, then modulated
        out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor([2.0, 0.5]), Tensor([[0.25, -1.0]]), 0.0)
        np.testing.assert_allclose(out.data, [[-1.75, -0.5]], atol=1e-12)
        out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor([[2.0, 3.0, 4.0]]), Tensor([1.0, 2.0, 3.0]), 1e-5)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_one_node_and_gradients_only_where_required(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gain, bias = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = T.layer_norm(x, gain, bias, 1e-5)
        assert out.op == "layer_norm" and out.parents == (x, gain, bias)
        weighted_sum(out, rng.standard_normal((3, 4))).backward()
        assert x.grad.shape == (3, 4) and bias.grad.shape == (3, 4) and gain.grad is None

    @pytest.mark.parametrize("x_grad,residual_grad", [(True, True), (True, False), (False, True)])
    def test_residual_is_layer_norm_of_the_sum(self, x_grad, residual_grad):
        """``residual`` r keeps the bits of a separate add node: the output of
        ``layer_norm(x + r)``, and on each operand that sum's input gradient."""
        rng = np.random.default_rng(32)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=x_grad)
        r = Tensor(rng.standard_normal((3, 4)), requires_grad=residual_grad)
        gain, bias = (Tensor(rng.standard_normal(4), requires_grad=True) for _ in range(2))
        mix = rng.standard_normal((3, 4))

        fused = T.layer_norm(x, gain, bias, 1e-5, residual=r)
        assert fused.op == "layer_norm" and fused.parents == (x, gain, bias, r)
        weighted_sum(fused, mix).backward()
        got = _grads([x, r, gain, bias])
        total = Tensor(x.data + r.data, requires_grad=True)
        unfused = T.layer_norm(total, gain, bias, 1e-5)
        weighted_sum(unfused, mix).backward()
        expect = _grads([total, gain, bias])

        assert fused.data.tobytes() == unfused.data.tobytes()
        for t, g in zip((x, r), got[:2]):
            if t.requires_grad:
                assert g.tobytes() == expect[0].tobytes()
            else:
                assert g is None
        if x_grad and residual_grad:
            assert got[0] is not got[1]
        for g, e in zip(got[2:], expect[1:]):
            assert g.tobytes() == e.tobytes()

    def test_residual_onto_its_own_input_doubles_the_gradient(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        mix = rng.standard_normal((3, 4))
        weighted_sum(T.layer_norm(x, gain, bias, 1e-5, residual=x), mix).backward()
        total = Tensor(2.0 * x.data, requires_grad=True)
        weighted_sum(T.layer_norm(total, gain, bias, 1e-5), mix).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * total.grad)

    def test_residual_shape_mismatch(self):
        with pytest.raises(ShapeError, match="layer_norm residual"):
            T.layer_norm(Tensor(np.zeros((3, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         residual=Tensor(np.zeros((2, 4))))

    @pytest.mark.parametrize("x_shape,gain_shape,bias_shape", [
        ((3, 4), (5,), (4,)),  # gain row of the wrong width
        ((3, 4), (4,), (3,)),  # bias row of the wrong width
        ((3, 4), (2, 4), (4,)),  # per-point gain with the wrong row count
        ((3, 4), (4,), (3, 5)),  # per-point bias with the wrong width
        ((3, 4), (1, 3, 4), (4,)),
        ((4,), (4,), (4,)),  # input is not (n, d)
    ])
    def test_misfit_shapes_rejected(self, x_shape, gain_shape, bias_shape):
        with pytest.raises(ShapeError, match="layer_norm"):
            T.layer_norm(Tensor(np.zeros(x_shape)), Tensor(np.ones(gain_shape)), Tensor(np.zeros(bias_shape)))


class TestBackward:
    def test_sum_of_squares(self):
        # x @ x.T + 0 as a one-layer mlp whose input and weight are both x
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        loss = T.mlp(x, [(x, Tensor([0.0]))])
        loss.backward()
        np.testing.assert_allclose(x.grad, [[2.0, -4.0]], atol=1e-12)

    def test_constant_loss_leaves_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.scale(Tensor([5.0]), 2.0)
        loss.backward()
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.softplus(x))

    def test_gradient_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        loss = T.add(T.scale(x, 2.0), x)
        loss.backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_replay_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
            y = T.softmax(T.matmul(x, w))
            loss = T.bce_with_logits(y, np.eye(4, 2))
            loss.backward()
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()


class TestIndexingOps:
    def test_gather_rows(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 3))
        idx = np.array([4, 0, 0, 2])
        src = Tensor(a, requires_grad=True)
        out = T.gather_rows(src, idx)
        np.testing.assert_array_equal(out.data, a[idx])
        g = rng.standard_normal((4, 3))
        weighted_sum(out, g).backward()
        expect = np.zeros((5, 3))
        np.add.at(expect, idx, g)  # row 0 is gathered twice, rows 1 and 3 never
        np.testing.assert_array_equal(src.grad, expect)

    def test_pool_rows_mean_matches_loop(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 2))
        parent = np.array([0, 0, 1, 1, 1, 2])
        out = T.pool_rows_mean(Tensor(a), parent, 3)
        expect = np.stack([a[parent == p].mean(axis=0) for p in range(3)])
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    @pytest.mark.parametrize("index, n, d", [
        ([3, 0, 3, 1, 0, 3], 5, 4),  # duplicates, unsorted, empty groups 2 and 4
        ([2], 3, 3),  # one row
        ([1, 1, 0], 2, 0),  # zero columns
        ([], 3, 2),  # no rows
    ], ids=["duplicates-unsorted", "one-row", "zero-columns", "no-rows"])
    def test_segment_sum_matches_add_at(self, index, n, d):
        rng = np.random.default_rng(9)
        index = np.array(index, dtype=np.int64)
        rows = rng.standard_normal((index.size, d)) * 10.0 ** rng.integers(-8, 9, (index.size, d))
        expect = np.zeros((n, d))
        np.add.at(expect, index, rows)
        got = T._segment_sum(rows, index, n)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expect)


def _heads(rng, heads, d_k, in_dim):
    """One projection of ``heads`` heads stacked by rows: (weight, bias)."""
    return (Tensor(rng.standard_normal((heads * d_k, in_dim)), requires_grad=True),
            Tensor(rng.standard_normal(heads * d_k), requires_grad=True))


def add_row(x, row):
    """x (n, d) plus a (1, d) ``row`` on every point, as x + ones (n, 1) @ row."""
    return x + T.matmul(Tensor(np.ones((x.shape[0], 1))), row)


def unfused_attention_loss(q_in, kv_in, projs, heads, mix):
    """sum(attention(...) * mix) from per-head matmul/add/softmax nodes, each
    head against its own column block of ``mix``; the scores q @ k.T are a
    zero-bias one-layer ``mlp``. Head h runs on copies of row block h of each stacked
    (weight, bias) in ``projs`` (q, k, v) as leaves of its own, the weight
    copies transposed to (in, d_k) and the bias copies (1, d_k) rows; returns
    the loss and those leaves, [proj][h]."""
    d_k = projs[0][0].shape[0] // heads
    inv_sqrt_dk = 1.0 / math.sqrt(d_k)
    blocks = [[(Tensor(w.data[h * d_k:(h + 1) * d_k].T.copy(), requires_grad=True),
                Tensor(b.data[None, h * d_k:(h + 1) * d_k].copy(), requires_grad=True))
               for h in range(heads)] for w, b in projs]
    total = None
    for h in range(heads):
        (wq_t, bq), (wk_t, bk), (wv_t, bv) = (blocks[i][h] for i in range(3))
        q = add_row(T.matmul(q_in, wq_t), bq)
        k = add_row(T.matmul(kv_in, wk_t), bk)
        v = add_row(T.matmul(kv_in, wv_t), bv)
        scores = T.mlp(q, [(k, Tensor(np.zeros(kv_in.shape[0])))])
        attn = T.softmax(T.scale(scores, inv_sqrt_dk))
        part = weighted_sum(T.matmul(attn, v), mix[:, h * d_k:(h + 1) * d_k])
        total = part if total is None else total + part
    return total, blocks


def _grads(tensors):
    out = [t.grad for t in tensors]
    for t in tensors:
        t.zero_grad()
    return out


class TestFusedOps:
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_linear_matches_unfused(self, x_grad):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=x_grad)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        mix = rng.standard_normal((5, 4))

        fused = T.mlp(x, [(w, b)])
        weighted_sum(fused, mix).backward()
        got = _grads([x, w, b])
        w_t = Tensor(w.data.T.copy(), requires_grad=True)
        b_row = Tensor(b.data[None].copy(), requires_grad=True)
        unfused = add_row(T.matmul(x, w_t), b_row)
        weighted_sum(unfused, mix).backward()
        expect = _grads([x, w_t, b_row])
        expect[1], expect[2] = expect[1].T, expect[2][0]

        assert fused.op == "mlp" and fused.parents == (x, w, b)
        np.testing.assert_allclose(fused.data, unfused.data, rtol=0, atol=1e-12)
        for g, e in zip(got, expect):
            if e is None:
                assert g is None
            else:
                np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)
        assert (got[0] is not None) == x_grad

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError, match="layer 0"):
            T.mlp(Tensor(np.zeros((2, 5))), [(Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)))])
        with pytest.raises(ShapeError, match="layer 0"):
            T.mlp(Tensor(np.zeros((2, 3))), [(Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))])
        with pytest.raises(ShapeError, match="layer 1"):
            T.mlp(Tensor(np.zeros((2, 3))), [(Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)))] * 2)
        with pytest.raises(ContractError, match="no layers"):
            T.mlp(Tensor(np.zeros((2, 3))), [])

    @pytest.mark.parametrize("depth,frozen", [(d, f) for d in (1, 2, 3) for f in (None, *range(d))])
    def test_mlp_keeps_the_bits_of_linear_and_relu_nodes(self, depth, frozen):
        """Forward and every gradient equal, bit for bit, the arithmetic of one
        linear node per layer, ``out = h @ w.T; out += b``, and one ReLU node
        between layers, ``np.where(~(h <= 0), h, 0.0)`` with backward ``g * live``;
        ``frozen`` names a weight (or the input, None) that requires no grad."""
        rng = np.random.default_rng(40 + depth)
        dims = [4, 6, 5, 3][:depth + 1]
        x = Tensor(rng.standard_normal((7, dims[0])), requires_grad=frozen is not None)
        layers = [(Tensor(rng.standard_normal((dims[i + 1], dims[i])), requires_grad=i != frozen),
                   Tensor(rng.standard_normal(dims[i + 1]), requires_grad=True)) for i in range(depth)]
        g_out = rng.standard_normal((7, dims[-1]))

        out = T.mlp(x, layers)
        assert out.op == "mlp" and out.parents == (x,) + tuple(t for layer in layers for t in layer)
        weighted_sum(out, g_out).backward()

        inputs, lives, h = [], [], x.data
        for i, (w, b) in enumerate(layers):
            inputs.append(h)
            h = h @ w.data.T
            h += b.data
            if i + 1 < depth:
                lives.append(~(h <= 0))
                h = np.where(lives[-1], h, 0.0)
        assert out.data.tobytes() == h.tobytes()
        g = g_out
        for i in reversed(range(depth)):
            w, b = layers[i]
            assert b.grad.tobytes() == g.sum(axis=0).tobytes()
            if w.requires_grad:
                assert w.grad.tobytes() == (g.T @ inputs[i]).tobytes()
            else:
                assert w.grad is None
            g = g @ w.data
            if i:
                g = g * lives[i - 1]
        if x.requires_grad:
            assert x.grad.tobytes() == g.tobytes()
        else:
            assert x.grad is None

    @pytest.mark.parametrize("q_grad,kv_grad,shared", [
        (True, True, False), (False, False, False), (True, False, False), (False, True, False),
        (True, True, True),
    ])
    def test_attention_matches_unfused(self, q_grad, kv_grad, shared):
        rng = np.random.default_rng(21)
        heads, d_k, q_dim, kv_dim = 3, 2, 6, 6 if shared else 5
        q_in = Tensor(rng.standard_normal((4, q_dim)), requires_grad=q_grad)
        kv_in = q_in if shared else Tensor(rng.standard_normal((7, kv_dim)), requires_grad=kv_grad)
        projs = (_heads(rng, heads, d_k, q_dim), _heads(rng, heads, d_k, kv_dim),
                 _heads(rng, heads, d_k, kv_dim))
        mix = rng.standard_normal((4, heads * d_k))
        stacked = [t for proj in projs for t in proj]

        out = T.attention(q_in, kv_in, *stacked, heads=heads)
        fused_loss = weighted_sum(out, mix)
        fused_loss.backward()
        got = _grads([q_in, kv_in] + stacked)
        unfused_loss, blocks = unfused_attention_loss(q_in, kv_in, projs, heads, mix)
        unfused_loss.backward()
        expect = _grads([q_in, kv_in])
        for i in range(3):  # weight copies were transposed, bias copies made rows
            expect.append(np.concatenate([blocks[i][h][0].grad.T for h in range(heads)]))
            expect.append(np.concatenate([blocks[i][h][1].grad[0] for h in range(heads)]))

        assert out.op == "attention" and out.shape == (4, heads * d_k)
        assert out.parents == (q_in, kv_in, *stacked)
        np.testing.assert_allclose(fused_loss.data, unfused_loss.data, rtol=0, atol=1e-12)
        for t, g, e in zip([q_in, kv_in] + stacked, got, expect):
            if not t.requires_grad:
                assert g is None and e is None
            else:
                np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)

    def test_attention_head_columns_roundtrip(self):
        # column block h of the fused output is head h run on its own, so
        # slicing the blocks and concatenating them back gives the output
        rng = np.random.default_rng(6)
        q_in, kv_in = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((5, 4)))
        stacked = [t for _ in range(3) for t in _heads(rng, 2, 3, 4)]
        out = T.attention(q_in, kv_in, *stacked, heads=2).data
        parts = [T.attention(q_in, kv_in, *(Tensor(t.data[3 * h:3 * (h + 1)]) for t in stacked), heads=1).data
                 for h in range(2)]
        for h, part in enumerate(parts):
            np.testing.assert_allclose(out[:, 3 * h:3 * (h + 1)], part, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.concatenate(parts, axis=1), out, rtol=0, atol=1e-12)

    def test_attention_rejects_bad_inputs(self):
        rng = np.random.default_rng(23)
        w, b = _heads(rng, 2, 2, 4)
        proj = (w, b, w, b, w, b)
        q_in = Tensor(np.zeros((2, 4)))
        with pytest.raises(ContractError):
            T.attention(q_in, Tensor(np.zeros((0, 4))), *proj, heads=2)
        with pytest.raises(ContractError):
            T.attention(q_in, q_in, *proj, heads=0)
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((2, 3))), q_in, *proj, heads=2)
        with pytest.raises(ShapeError):
            T.attention(q_in, Tensor(np.zeros((3, 5))), *proj, heads=2)
        with pytest.raises(ShapeError):  # 4 stacked rows do not split into 3 heads
            T.attention(q_in, q_in, *proj, heads=3)
        with pytest.raises(ShapeError):
            T.attention(q_in, q_in, w, b, Tensor(w.data[:2]), b, w, b, heads=2)
        with pytest.raises(ShapeError):
            T.attention(q_in, q_in, w, b, w, Tensor(b.data[:2]), w, b, heads=2)

    @pytest.mark.parametrize("f_grad, params_grad", [(True, True), (False, True), (True, False)])
    def test_mask_logits_matches_unfused(self, f_grad, params_grad):
        rng = np.random.default_rng(24)
        f = Tensor(rng.standard_normal((9, 5)), requires_grad=f_grad)
        masks, w, b = (Tensor(rng.standard_normal(shape), requires_grad=params_grad)
                       for shape in ((3, 4), (4, 5), 4))
        mix = rng.standard_normal((9, 3))

        fused = T.mask_logits(f, masks, w, b)
        weighted_sum(fused, mix).backward()
        got = _grads([f, masks, w, b])
        masks_t = Tensor(masks.data.T.copy(), requires_grad=params_grad)
        unfused = T.matmul(T.mlp(f, [(w, b)]), masks_t)
        weighted_sum(unfused, mix).backward()
        expect = _grads([f, masks_t, w, b])
        if params_grad:
            expect[1] = expect[1].T

        assert fused.op == "mask_logits" and fused.parents == (f, masks, w, b)
        np.testing.assert_allclose(fused.data, unfused.data, rtol=0, atol=1e-12)
        for t, g, e in zip([f, masks, w, b], got, expect):
            if not t.requires_grad:
                assert g is None and e is None
            else:
                np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)

    def test_mask_logits_rejects_bad_shapes(self):
        f, masks, w, b = Tensor(np.zeros((6, 5))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))), \
            Tensor(np.zeros(4))
        T.mask_logits(f, masks, w, b)  # fits
        for bad in (
            (Tensor(np.zeros(5)), masks, w, b),  # 1-d features
            (Tensor(np.zeros((6, 4))), masks, w, b),  # feature width vs projection input
            (f, Tensor(np.zeros((3, 5))), w, b),  # mask width vs projection output
            (f, Tensor(np.zeros(4)), w, b),  # 1-d masks
            (f, masks, Tensor(np.zeros(5)), b),  # 1-d weight
            (f, masks, w, Tensor(np.zeros(3))),  # bias length
            (f, masks, w, Tensor(np.zeros((4, 1)))),  # 2-d bias
        ):
            with pytest.raises(ShapeError):
                T.mask_logits(*bad)


class TestSceneOffsets:
    """Ops that keep the scenes of a stacked batch apart equal the same op
    run on each scene alone, with its outputs stacked and its loss averaged."""

    Q_OFFSETS, KV_OFFSETS = (0, 2, 5, 9), (0, 4, 5, 8)  # three ragged scenes

    @staticmethod
    def leaves(rng, *shapes):
        return [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]

    @staticmethod
    def check(batched, per_scene, leaves, mix_rows):
        """``batched()`` against ``per_scene(s)`` for each scene s: values
        stacked, or a loss averaged over the scenes, and every gradient."""
        rng = np.random.default_rng(1)
        out = batched()
        scalar = out.data.ndim == 0
        mix = rng.standard_normal(out.shape) if not scalar else None
        (out if scalar else weighted_sum(out, mix)).backward()
        got = [out.data] + _grads(leaves)
        parts, n = [], len(mix_rows) - 1
        for s in range(n):
            part = per_scene(s)
            parts.append(part.data)
            rows = slice(mix_rows[s], mix_rows[s + 1])
            loss = T.scale(part, 1.0 / n) if scalar else weighted_sum(part, mix[rows])
            loss.backward()
        want = [np.mean(parts) if scalar else np.concatenate(parts)] + _grads(leaves)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-14)

    def test_attention_is_block_diagonal(self):
        rng = np.random.default_rng(30)
        q_in, kv_in, *proj = self.leaves(rng, (9, 4), (8, 6), (4, 4), (4,), (4, 6), (4,), (4, 6), (4,))
        q, kv = self.Q_OFFSETS, self.KV_OFFSETS

        def scene(s):
            return T.attention(T.gather_rows(q_in, np.arange(q[s], q[s + 1])),
                               T.gather_rows(kv_in, np.arange(kv[s], kv[s + 1])), *proj, heads=2)

        self.check(lambda: T.attention(q_in, kv_in, *proj, 2, q, kv), scene, [q_in, kv_in] + proj, q)

    def test_mask_logits_scores_each_scene_against_its_masks(self):
        rng = np.random.default_rng(31)
        f, masks, w, b = self.leaves(rng, (9, 4), (6, 3), (3, 4), (3,))  # two classes per scene
        q = self.Q_OFFSETS

        def scene(s):
            return T.mask_logits(T.gather_rows(f, np.arange(q[s], q[s + 1])),
                                 T.gather_rows(masks, np.arange(2 * s, 2 * s + 2)), w, b)

        self.check(lambda: T.mask_logits(f, masks, w, b, q), scene, [f, masks, w, b], q)

    def test_matmul_blends_each_scene_with_its_bank(self):
        rng = np.random.default_rng(32)
        probs, bank = self.leaves(rng, (9, 2), (6, 5))
        q = self.Q_OFFSETS

        def scene(s):
            return T.matmul(T.gather_rows(probs, np.arange(q[s], q[s + 1])),
                            T.gather_rows(bank, np.arange(2 * s, 2 * s + 2)))

        self.check(lambda: T.matmul(probs, bank, q), scene, [probs, bank], q)

    def test_losses_average_the_scene_means(self):
        rng = np.random.default_rng(33)
        logits, = self.leaves(rng, (9, 3))
        labels = rng.integers(0, 3, 9)
        targets = (rng.random((9, 3)) < 0.5).astype(float)
        q = self.Q_OFFSETS

        def rows(s):
            return T.gather_rows(logits, np.arange(q[s], q[s + 1])), slice(q[s], q[s + 1])

        self.check(lambda: T.cross_entropy(logits, labels, q),
                   lambda s: T.cross_entropy(rows(s)[0], labels[rows(s)[1]]), [logits], q)
        self.check(lambda: T.bce_with_logits(logits, targets, q),
                   lambda s: T.bce_with_logits(rows(s)[0], targets[rows(s)[1]]), [logits], q)

    def test_one_scene_offsets_give_the_same_bits_as_none(self):
        rng = np.random.default_rng(34)
        a, b = self.leaves(rng, (5, 3), (3, 4))
        labels = rng.integers(0, 3, 5)
        for offsets in ((0, 5), np.array([0, 5]), [0, 5]):
            assert T.matmul(a, b, offsets).data.tobytes() == T.matmul(a, b).data.tobytes()
            assert T.cross_entropy(a, labels, offsets).item() == T.cross_entropy(a, labels).item()

    @pytest.mark.parametrize("offsets", [(0, 3, 3, 5), (0, 4), (1, 5), (0, 6, 5), (0,), (), (0, 2.5, 5), [[0, 5]]])
    def test_bad_offsets_rejected(self, offsets):
        a = Tensor(np.zeros((5, 3)))
        with pytest.raises(ContractError, match="do not cut 5 rows into non-empty scenes"):
            T.cross_entropy(a, np.zeros(5, dtype=int), offsets)

    def test_class_rows_must_split_over_the_scenes(self):
        a = Tensor(np.zeros((5, 2)))
        with pytest.raises(ShapeError, match="over 2 scene"):
            T.matmul(a, Tensor(np.zeros((3, 4))), (0, 2, 5))
        with pytest.raises(ShapeError, match="5 mask rows do not split into 2 scenes"):
            T.mask_logits(a, Tensor(np.zeros((5, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)), (0, 2, 5))
        with pytest.raises(ContractError, match="2 query scenes but 1 key/value scenes"):
            T.attention(a, a, *(Tensor(np.zeros(s)) for s in ((2, 2), (2,)) * 3), 1, (0, 2, 5), None)


# (op name, case id, operand shapes, call on those operands); offsets as in TestSceneOffsets
_Q, _KV = TestSceneOffsets.Q_OFFSETS, TestSceneOffsets.KV_OFFSETS
_LABELS = np.array([0, 2, 1, 1, 0, 2, 2, 1, 0])
_TARGETS = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0], [0, 1, 0], [1, 0, 0], [0, 0, 0], [1, 1, 1], [0, 1, 1],
                     [1, 0, 1]], dtype=float)
KERNEL_CASES = [
    ("add", "add", [(3, 2), (3, 2)], T.add),
    ("scale", "scale", [(3, 2)], lambda a: T.scale(a, -0.3)),
    ("matmul", "matmul", [(4, 3), (3, 2)], T.matmul),
    ("matmul", "matmul_offsets", [(9, 2), (6, 5)], lambda a, b: T.matmul(a, b, _Q)),
    ("mlp", "mlp_one_layer", [(5, 3), (4, 3), (4,)], lambda x, w, b: T.mlp(x, [(w, b)])),
    ("mlp", "mlp_three_layers", [(5, 3), (4, 3), (4,), (6, 4), (6,), (2, 6), (2,)],
     lambda x, w0, b0, w1, b1, w2, b2: T.mlp(x, [(w0, b0), (w1, b1), (w2, b2)])),
    ("mask_logits", "mask_logits", [(5, 4), (2, 3), (3, 4), (3,)], T.mask_logits),
    ("mask_logits", "mask_logits_offsets", [(9, 4), (6, 3), (3, 4), (3,)],
     lambda f, m, w, b: T.mask_logits(f, m, w, b, _Q)),
    ("attention", "attention", [(5, 4), (3, 6), (4, 4), (4,), (4, 6), (4,), (4, 6), (4,)],
     lambda *ts: T.attention(*ts, heads=2)),
    ("attention", "attention_offsets", [(9, 4), (8, 6), (4, 4), (4,), (4, 6), (4,), (4, 6), (4,)],
     lambda *ts: T.attention(*ts, 2, _Q, _KV)),
    ("softplus", "softplus", [(3, 2)], T.softplus),
    ("softmax", "softmax", [(4, 3)], T.softmax),
    ("cross_entropy", "cross_entropy", [(9, 3)], lambda x: T.cross_entropy(x, _LABELS)),
    ("cross_entropy", "cross_entropy_offsets", [(9, 3)], lambda x: T.cross_entropy(x, _LABELS, _Q)),
    ("bce_with_logits", "bce_with_logits", [(9, 3)], lambda x: T.bce_with_logits(x, _TARGETS)),
    ("bce_with_logits", "bce_with_logits_offsets", [(9, 3)], lambda x: T.bce_with_logits(x, _TARGETS, _Q)),
    ("layer_norm", "layer_norm_rows", [(4, 3), (3,), (3,)], T.layer_norm),
    ("layer_norm", "layer_norm_per_point_residual", [(4, 3), (4, 3), (4, 3), (4, 3)],
     lambda x, gain, bias, res: T.layer_norm(x, gain, bias, 1e-3, res)),
    ("gather_rows", "gather_rows", [(4, 2)], lambda a: T.gather_rows(a, [3, 0, 0, 2])),
    ("pool_rows_mean", "pool_rows_mean", [(5, 2)], lambda a: T.pool_rows_mean(a, [1, 0, 1, 1, 0], 2)),
]
OPS = {name for name, fn in vars(T).items() if callable(fn) and getattr(fn, "__module__", None) == T.__name__
       and not name.startswith("_") and name not in ("Tensor", "downstream", "backward")}


def test_kernel_cases_cover_every_op():
    assert {case[0] for case in KERNEL_CASES} == OPS


@pytest.mark.parametrize("shapes, call", [(shapes, call) for _, _, shapes, call in KERNEL_CASES],
                         ids=[case_id for _, case_id, _, _ in KERNEL_CASES])
def test_recorded_kernel_replays_a_fresh_call_without_a_node(shapes, call):
    rng = np.random.default_rng(40)
    operands = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
    out = call(*operands)
    kernel, static = out.call
    assert list(out.parents) == operands
    for t in operands:  # new values in the same arrays, as a finite difference moves them
        t.data += rng.standard_normal(t.shape)
    next_id = repr(T._NODE_IDS)
    replayed = np.asarray(kernel(*static, *[t.data for t in out.parents]))
    assert repr(T._NODE_IDS) == next_id  # the replay made no node
    fresh = call(*operands).data
    assert (replayed.dtype, replayed.shape, replayed.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())
    assert fresh.tobytes() != out.data.tobytes()
