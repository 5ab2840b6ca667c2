"""Block-level oracles: brute-force attention, scripted compositions, gradchecks."""

import numpy as np
import pytest

from semaffine import blocks as B
from semaffine.errors import ContractError, ShapeError
from semaffine.gradcheck import finite_diff_check
from semaffine.tensor import Tensor
from upstream import weighted_sum


def linear_oracle(weight, bias, x):
    n, d_in = x.shape
    d_out = weight.shape[0]
    out = np.zeros((n, d_out))
    for i in range(n):
        for o in range(d_out):
            s = bias[o]
            for j in range(d_in):
                s += x[i, j] * weight[o, j]
            out[i, o] = s
    return out


def head_projection(proj, h, d_k, x):
    """x projected by row block h of a stacked projection: head h's columns."""
    rows = slice(h * d_k, (h + 1) * d_k)
    return x @ proj.weight.data[rows].T + proj.bias.data[rows]


def attention_oracle(p, q_in, kv_in):
    """Direct dense evaluation, one head at a time."""
    d_k = p.q_proj.out_dim // p.heads
    heads = []
    for h in range(p.heads):
        q = head_projection(p.q_proj, h, d_k, q_in)
        k = head_projection(p.k_proj, h, d_k, kv_in)
        v = head_projection(p.v_proj, h, d_k, kv_in)
        scores = q @ k.T / np.sqrt(d_k)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        heads.append(attn @ v)
    concat = np.concatenate(heads, axis=1)
    return concat @ p.out_proj.weight.data.T + p.out_proj.bias.data


def layer_norm_oracle(p, x):
    """Rows normalized with the variance floor 1e-5, then modulated by ``p``."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * p.gain.data + p.bias.data


class TestLinear:
    def test_identity(self):
        p = B.LinearParams(Tensor(np.eye(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True))
        x = np.random.default_rng(0).standard_normal((4, 3))
        out = B.linear_forward(p, Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_gives_bias_rows(self):
        b = np.array([1.0, -2.0])
        p = B.LinearParams(Tensor(np.zeros((2, 3))), Tensor(b))
        out = B.linear_forward(p, Tensor(np.ones((5, 3))))
        np.testing.assert_array_equal(out.data, np.tile(b, (5, 1)))

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(1)
        p = B.init_linear(rng, 4, 3)
        x = rng.standard_normal((6, 3))
        out = B.linear_forward(p, Tensor(x))
        np.testing.assert_allclose(out.data, linear_oracle(p.weight.data, p.bias.data, x), atol=1e-12)

    def test_shape_mismatch(self):
        p = B.init_linear(np.random.default_rng(2), 4, 3)
        with pytest.raises(ShapeError):
            B.linear_forward(p, Tensor(np.zeros((2, 5))))


class TestMlp:
    def test_single_identity_layer(self):
        p = [B.LinearParams(Tensor(np.eye(3)), Tensor(np.zeros(3)))]
        x = np.random.default_rng(3).standard_normal((2, 3))
        np.testing.assert_array_equal(B.mlp_forward(p, Tensor(x)).data, x)

    def test_depth3_zero_weights_final_bias(self):
        rng = np.random.default_rng(4)
        layers = [
            B.LinearParams(Tensor(np.zeros((4, 3))), Tensor(np.zeros(4))),
            B.LinearParams(Tensor(np.zeros((4, 4))), Tensor(np.zeros(4))),
            B.LinearParams(Tensor(np.zeros((2, 4))), Tensor(np.array([0.5, -1.5]))),
        ]
        out = B.mlp_forward(layers, Tensor(rng.standard_normal((5, 3))))
        np.testing.assert_array_equal(out.data, np.tile([0.5, -1.5], (5, 1)))

    def test_depth2_matches_hand_composition(self):
        rng = np.random.default_rng(5)
        layers = [B.init_linear(rng, 6, 3), B.init_linear(rng, 2, 6)]
        x = rng.standard_normal((4, 3))
        h = np.maximum(0.0, linear_oracle(layers[0].weight.data, layers[0].bias.data, x))
        expect = linear_oracle(layers[1].weight.data, layers[1].bias.data, h)
        out = B.mlp_forward(layers, Tensor(x))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_chain_mismatch(self):
        rng = np.random.default_rng(6)
        layers = [B.init_linear(rng, 6, 3), B.init_linear(rng, 2, 5)]
        with pytest.raises(ShapeError):
            B.mlp_forward(layers, Tensor(np.zeros((2, 3))))


class TestMultiHeadAttention:
    def test_single_key_value(self):
        # with one memory token every query attends to it with weight 1,
        # so pre-projection head outputs equal that token's value projection
        rng = np.random.default_rng(7)
        p = B.init_attention(rng, heads=2, model_dim=4)
        q_in = rng.standard_normal((3, 4))
        kv = rng.standard_normal((1, 4))
        v_rows = [head_projection(p.v_proj, h, 2, kv) for h in range(2)]
        expect = np.concatenate([np.tile(v, (3, 1)) for v in v_rows], axis=1)
        expect = expect @ p.out_proj.weight.data.T + p.out_proj.bias.data
        out = B.multi_head_attention(p, Tensor(q_in), Tensor(kv))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_identical_keys_give_uniform_mean(self):
        # a zero key projection makes every key the bias row, so each query
        # weights all five values 1/5 and each head outputs their mean
        rng = np.random.default_rng(8)
        p = B.init_attention(rng, heads=2, model_dim=4)
        p.k_proj.weight.data[...] = 0.0
        q_in = rng.standard_normal((2, 4))
        kv = rng.standard_normal((5, 4))
        means = [head_projection(p.v_proj, h, 2, kv).mean(axis=0) for h in range(2)]
        expect = np.tile(np.concatenate(means), (2, 1)) @ p.out_proj.weight.data.T + p.out_proj.bias.data
        out = B.multi_head_attention(p, Tensor(q_in), Tensor(kv))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_init_stacks_per_head_draws_in_rng_order(self):
        # seeded models and their canaries depend on this order: one
        # init_linear draw per head for q, then k, then v, then out_proj
        rng = np.random.default_rng(24)
        p = B.init_attention(rng, heads=3, model_dim=6, kv_dim=5)
        ref = np.random.default_rng(24)
        for proj, in_dim in ((p.q_proj, 6), (p.k_proj, 5), (p.v_proj, 5)):
            parts = [B.init_linear(ref, 2, in_dim) for _ in range(3)]
            for field in ("weight", "bias"):
                stacked = np.concatenate([getattr(part, field).data for part in parts])
                assert getattr(proj, field).data.tobytes() == stacked.tobytes()
                assert getattr(proj, field).requires_grad
        out = B.init_linear(ref, 6, 6)
        assert p.out_proj.weight.data.tobytes() == out.weight.data.tobytes()
        assert p.out_proj.bias.data.tobytes() == out.bias.data.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_random_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        p = B.init_attention(rng, heads=2, model_dim=4)
        q_in = rng.standard_normal((2, 4))
        kv = rng.standard_normal((3, 4))
        out = B.multi_head_attention(p, Tensor(q_in), Tensor(kv))
        np.testing.assert_allclose(out.data, attention_oracle(p, q_in, kv), atol=1e-10)

    def test_score_rows_sum_to_one(self):
        # shifting every value row by c shifts each head output by
        # c * (row sum of its attention weights), i.e. by c itself
        rng = np.random.default_rng(10)
        p = B.init_attention(rng, heads=4, model_dim=8)
        q_in, kv = Tensor(rng.standard_normal((5, 8))), Tensor(rng.standard_normal((7, 8)))
        before = B.multi_head_attention(p, q_in, kv).data
        shift = rng.standard_normal(8)
        p.v_proj.bias.data += shift
        after = B.multi_head_attention(p, q_in, kv).data
        np.testing.assert_allclose(after - before, np.tile(shift @ p.out_proj.weight.data.T, (5, 1)), atol=1e-12)

    def test_memory_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        p = B.init_attention(rng, heads=2, model_dim=6)
        q_in = rng.standard_normal((3, 6))
        kv = rng.standard_normal((5, 6))
        perm = rng.permutation(5)
        out = B.multi_head_attention(p, Tensor(q_in), Tensor(kv))
        out_perm = B.multi_head_attention(p, Tensor(q_in), Tensor(kv[perm]))
        np.testing.assert_allclose(out.data, out_perm.data, atol=1e-12)

    def test_empty_memory_rejected(self):
        rng = np.random.default_rng(12)
        p = B.init_attention(rng, heads=2, model_dim=4)
        with pytest.raises(ContractError):
            B.multi_head_attention(p, Tensor(np.zeros((2, 4))), Tensor(np.zeros((0, 4))))

    def test_gradients(self):
        rng = np.random.default_rng(13)
        p = B.init_attention(rng, heads=2, model_dim=4)
        q_in = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        kv = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        mix = rng.standard_normal((2, 4))

        def f():
            return weighted_sum(B.multi_head_attention(p, q_in, kv), mix)

        params = B.named_parameters(p, "attn.") + [("q_in", q_in), ("kv", kv)]
        report = finite_diff_check(f, params, tol=1e-5)
        assert report.passed, "\n".join(report.lines())


def _zeroed(params):
    for _, t in B.named_parameters(params):
        t.data[...] = 0.0
    return params


class TestEncoderBlock:
    def test_zero_weights_reduce_to_double_layernorm(self):
        rng = np.random.default_rng(14)
        p = B.init_encoder_block(rng, heads=2, model_dim=4)
        _zeroed(p.self_attn)
        _zeroed(p.ff1)
        _zeroed(p.ff2)
        x = rng.standard_normal((3, 4))
        ln = B.LayerNormParams(Tensor(np.ones(4)), Tensor(np.zeros(4)))
        expect = layer_norm_oracle(ln, layer_norm_oracle(ln, x))
        out = B.encoder_block(p, Tensor(x))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_single_token_shape_preserved(self):
        rng = np.random.default_rng(15)
        p = B.init_encoder_block(rng, heads=2, model_dim=6)
        out = B.encoder_block(p, Tensor(rng.standard_normal((1, 6))))
        assert out.shape == (1, 6)

    def test_random_matches_scripted_composition(self):
        rng = np.random.default_rng(16)
        p = B.init_encoder_block(rng, heads=2, model_dim=4)
        x = rng.standard_normal((5, 4))
        h = layer_norm_oracle(p.ln1, x + attention_oracle(p.self_attn, x, x))
        ff = np.maximum(0.0, h @ p.ff1.weight.data.T + p.ff1.bias.data)
        ff = ff @ p.ff2.weight.data.T + p.ff2.bias.data
        expect = layer_norm_oracle(p.ln2, h + ff)
        out = B.encoder_block(p, Tensor(x))
        np.testing.assert_allclose(out.data, expect, atol=1e-10)

    def test_gradients_over_every_parameter_group(self):
        rng = np.random.default_rng(17)
        p = B.init_encoder_block(rng, heads=2, model_dim=4)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        mix = rng.standard_normal((3, 4))

        def f():
            return weighted_sum(B.encoder_block(p, x), mix)

        report = finite_diff_check(f, B.named_parameters(p, "enc.") + [("x", x)], tol=1e-5)
        assert report.passed, "\n".join(report.lines())


class TestDecoderBlock:
    def test_single_memory_token(self):
        rng = np.random.default_rng(18)
        p = B.init_decoder_block(rng, heads=2, model_dim=4, kv_dim=6)
        queries = rng.standard_normal((3, 4))
        memory = rng.standard_normal((1, 6))
        out = B.decoder_block(p, Tensor(queries), Tensor(memory))
        # scripted composition: cross-attention collapses to the value row
        q = layer_norm_oracle(p.ln1, queries + attention_oracle(p.self_attn, queries, queries))
        cross = attention_oracle(p.cross_attn, q, memory)
        v_rows = [head_projection(p.cross_attn.v_proj, h, 2, memory) for h in range(2)]
        concat = np.concatenate([np.tile(v, (3, 1)) for v in v_rows], axis=1)
        expect_cross = concat @ p.cross_attn.out_proj.weight.data.T + p.cross_attn.out_proj.bias.data
        np.testing.assert_allclose(cross, expect_cross, atol=1e-12)
        assert out.shape == (3, 4)

    def test_single_query_shape(self):
        rng = np.random.default_rng(19)
        p = B.init_decoder_block(rng, heads=2, model_dim=4, kv_dim=4)
        out = B.decoder_block(p, Tensor(rng.standard_normal((1, 4))), Tensor(rng.standard_normal((4, 4))))
        assert out.shape == (1, 4)

    def test_random_matches_scripted_composition(self):
        rng = np.random.default_rng(20)
        p = B.init_decoder_block(rng, heads=2, model_dim=4, kv_dim=6)
        queries = rng.standard_normal((3, 4))
        memory = rng.standard_normal((5, 6))
        q = layer_norm_oracle(p.ln1, queries + attention_oracle(p.self_attn, queries, queries))
        q = layer_norm_oracle(p.ln2, q + attention_oracle(p.cross_attn, q, memory))
        ff = np.maximum(0.0, q @ p.ff1.weight.data.T + p.ff1.bias.data)
        ff = ff @ p.ff2.weight.data.T + p.ff2.bias.data
        expect = layer_norm_oracle(p.ln3, q + ff)
        out = B.decoder_block(p, Tensor(queries), Tensor(memory))
        np.testing.assert_allclose(out.data, expect, atol=1e-10)

    def test_empty_memory_rejected(self):
        rng = np.random.default_rng(21)
        p = B.init_decoder_block(rng, heads=2, model_dim=4, kv_dim=4)
        with pytest.raises(ContractError):
            B.decoder_block(p, Tensor(np.zeros((2, 4))), Tensor(np.zeros((0, 4))))

    def test_gradients_over_every_parameter_group(self):
        rng = np.random.default_rng(22)
        p = B.init_decoder_block(rng, heads=2, model_dim=4, kv_dim=4)
        queries = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        memory = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        mix = rng.standard_normal((2, 4))

        def f():
            return weighted_sum(B.decoder_block(p, queries, memory), mix)

        params = B.named_parameters(p, "dec.") + [("queries", queries), ("memory", memory)]
        report = finite_diff_check(f, params, tol=1e-5)
        assert report.passed, "\n".join(report.lines())


class TestNamedParameters:
    def test_names_and_count_for_encoder_block(self):
        p = B.init_encoder_block(np.random.default_rng(23), heads=2, model_dim=4)
        names = [n for n, _ in B.named_parameters(p, "enc.")]
        assert len(names) == len(set(names))
        # stacked q/k/v + out proj + 2 LN + 2 FF linears, 2 tensors each
        assert len(names) == (3 + 1 + 2 + 2) * 2
        assert "enc.self_attn.q_proj.weight" in names
        assert "enc.ln2.bias" in names
