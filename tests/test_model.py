"""Model assembly: shape contracts, composition oracles, symmetry collapses,
configuration lattice diffing, and determinism."""

import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from semaffine import affine as A
from semaffine import blocks as B
from semaffine import model as M
from semaffine import tensor as T
from semaffine.errors import ConfigError, ContractError
from semaffine.hierarchy import build_hierarchy
from semaffine.scenes import SceneSpec, generate_scene
from semaffine.tensor import Tensor


def tiny_config(**overrides):
    base = dict(
        n_classes=3,
        levels=4,
        level_dims=(6, 8, 10, 12),
        d_h=8,
        d_m=8,
        encoder_depth=1,
        decoder_depth=5,
        heads=2,
        level_offset=2,
        base_voxel=0.5,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


def tiny_scene(n=32, seed=0, spread=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-spread, spread, (n, 3))


def hierarchy(params, coords):
    return build_hierarchy(coords, params.cfg.base_voxel, params.cfg.levels)


def forward(params, coords):
    return M.model_forward(params, hierarchy(params, coords))


def identity_affine_heads(params):
    """Zero the affine heads' final weights and set their biases so that every
    class bank is exactly s = 1 (softplus of log(e - 1)), b = 0 until trained."""
    for i in params.scale_heads:
        for head, bias in ((params.scale_heads[i], math.log(math.e - 1.0)), (params.bias_heads[i], 0.0)):
            head[-1].weight.data[...] = 0.0
            head[-1].bias.data[...] = bias


def upstream_stages(params, coords):
    """Backbone features, tokens, query-decoder layers and class masks, each
    computed by its own stage function, plus the model's full forward."""
    hier = hierarchy(params, coords)
    enc = M.backbone_encode(params, hier)
    tokens = M.encode_tokens(params, enc[-1], hier.coords[-1], hier.offsets[-1])
    h_layers, h_final = M.decode_queries(params, tokens, hier.offsets[-1])
    masks = A.predict_masks(h_final, params.mask_head)
    return enc, tokens, h_layers, masks, M.model_forward(params, hier)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        M.ModelConfig().validate()

    def test_shallow_decoder_rejected(self):
        with pytest.raises(ConfigError, match="decoder_depth"):
            tiny_config(decoder_depth=4).validate()

    def test_level_dims_length(self):
        with pytest.raises(ConfigError):
            tiny_config(level_dims=(6, 8)).validate()

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            tiny_config(heads=5).validate()

    def test_bad_variants(self):
        with pytest.raises(ConfigError):
            tiny_config(classifier="softmax").validate()
        with pytest.raises(ConfigError):
            tiny_config(affine="layernorm").validate()

    def test_stage_to_layer_mapping(self):
        cfg = M.ModelConfig(decoder_depth=6)
        assert [cfg.layer_for_stage(i) for i in (1, 2, 3)] == [3, 4, 5]
        assert cfg.mid_levels == [3, 2, 1]

    @pytest.mark.parametrize("heads", [0, -4])
    def test_heads_must_be_positive(self, heads):
        # 0 divided by zero and -4 divides 8, so both need their own check
        with pytest.raises(ConfigError, match=f"heads must be >= 1, got {heads}"):
            tiny_config(heads=heads).validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(d_h=4_000_000_000), "must be <= 256"),
        (dict(d_m=257), "must be <= 256"),
        (dict(n_classes=257), "must be <= 256"),
        (dict(level_dims=(6, 8, 10, 2_000)), "must be <= 256"),
        (dict(encoder_depth=100_000_000), "must be <= 16"),
        (dict(decoder_depth=17), "must be <= 16"),
    ], ids=["wide", "wide-mask-space", "many-classes", "wide-top", "deep", "deep-decoder"])
    def test_oversized_model_rejected(self, overrides, message):
        cfg = tiny_config(**overrides)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()
        with pytest.raises(ConfigError, match=message):
            M.build_model(cfg)

    def test_models_at_the_bounds_are_accepted(self):
        widest = tiny_config(n_classes=256, level_dims=(256,) * 4, d_h=256, d_m=256)
        deepest = tiny_config(levels=16, level_dims=(8,) * 16, encoder_depth=16, decoder_depth=16, level_offset=1)
        for cfg in (widest, deepest):
            cfg.validate()


def _oracle_draws(rng, record):
    """The parameters of ``record`` as numpy's uniform sampler draws them:
    ``rng.uniform(-b, b, shape)``, b = 1/sqrt(fan-in), for each weight and
    then its bias; a stacked q/k/v projection draws one head's weight and
    bias after another and concatenates them. Layer norms and AdaIN pairs
    draw nothing. Listed in ``named_parameters`` order."""
    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape)

    def linear(out_dim, in_dim):
        return [uniform((out_dim, in_dim), in_dim), uniform((out_dim,), in_dim)]

    if isinstance(record, list):
        return [a for item in record for a in _oracle_draws(rng, item)]
    if isinstance(record, Tensor):  # the class queries
        return [uniform(record.shape, record.shape[1])]
    if isinstance(record, B.LinearParams):
        return linear(record.out_dim, record.in_dim)
    if isinstance(record, B.AttentionParams):
        out = []
        for proj in (record.q_proj, record.k_proj, record.v_proj):
            heads = [linear(proj.out_dim // record.heads, proj.in_dim) for _ in range(record.heads)]
            out += [np.concatenate([w for w, _ in heads]), np.concatenate([b for _, b in heads])]
        return out + linear(record.out_proj.out_dim, record.out_proj.in_dim)
    if isinstance(record, B.LayerNormParams):
        return [np.ones(record.gain.shape), np.zeros(record.bias.shape)]
    if isinstance(record, M.AdainParams):
        return [np.full(record.pre_scale.shape, np.log(np.e - 1.0)), np.zeros(record.bias.shape)]
    return [a for f in fields(record) if f.name != "heads" for a in _oracle_draws(rng, getattr(record, f.name))]


class TestInitDraws:
    @pytest.mark.parametrize("cfg", [
        M.ModelConfig(),
        M.ModelConfig(n_classes=3, levels=3, level_dims=(4, 6, 8), d_h=4, d_m=4, encoder_depth=1,
                      decoder_depth=4, heads=2, level_offset=2, base_voxel=0.6),  # the gradient suite's model
        tiny_config(heads=1),
    ], ids=["default", "gradcheck", "one-head"])
    def test_every_record_matches_the_uniform_sampler(self, cfg):
        params = M.build_model(cfg, seed=7)
        for prefix, record in params.parts.items():
            expect = _oracle_draws(M._component_rng(7, prefix), record)
            if prefix.startswith("affine_heads.scale"):
                expect[-1] += M._SOFTPLUS_INV_1
            got = [t.data for _, t in B.named_parameters(record)]
            assert len(got) == len(expect), prefix
            for a, b in zip(got, expect):
                assert a.shape == b.shape and np.array_equal(a, b), prefix
        for name, t in params.named_parameters():
            # finite-difference checks perturb entries through this flat view
            assert t.data.flags.c_contiguous and np.shares_memory(t.data.reshape(-1), t.data), name


class TestBackboneEncode:
    def test_single_point(self):
        params = M.build_model(tiny_config(), seed=0)
        hier = hierarchy(params, np.array([[0.1, 0.2, 0.3]]))
        feats = M.backbone_encode(params, hier)
        assert hier.sizes == [1, 1, 1, 1]
        for level, f in enumerate(feats):
            assert f.shape == (1, params.cfg.level_dims[level])

    def test_two_distant_points(self):
        params = M.build_model(tiny_config(levels=2, level_dims=(6, 8)), seed=0)
        hier = hierarchy(params, np.array([[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]]))
        feats = M.backbone_encode(params, hier)
        assert hier.sizes[0] == 2
        assert hier.sizes[1] in (1, 2)
        # independent voxel hashing: these points are > base_voxel apart per axis
        assert hier.sizes[1] == 2

    def test_zero_weight_mlps_give_bias_features(self):
        params = M.build_model(tiny_config(), seed=0)
        for layers in params.enc_mlps:
            for layer in layers:
                layer.weight.data[...] = 0.0
        feats = M.backbone_encode(params, hierarchy(params, tiny_scene(10)))
        for level, f in enumerate(feats):
            expect = np.maximum(0.0, params.enc_mlps[level][0].bias.data)
            expect = expect @ params.enc_mlps[level][1].weight.data.T + params.enc_mlps[level][1].bias.data
            np.testing.assert_allclose(f.data, np.tile(expect, (f.shape[0], 1)), atol=1e-12)


class TestTokenEncoder:
    def test_depth_zero_is_positional_add_only(self):
        params = M.build_model(tiny_config(encoder_depth=0), seed=1)
        coords = tiny_scene(12, seed=1)
        hier = hierarchy(params, coords)
        feats = M.backbone_encode(params, hier)
        out = M.encode_tokens(params, feats[-1], hier.coords[-1], hier.offsets[-1])
        pos = B.mlp_forward(params.pos_mlp, Tensor(hier.coords[-1]))
        np.testing.assert_allclose(out.data, feats[-1].data + pos.data, atol=1e-12)

    def test_matches_manual_block_composition(self):
        params = M.build_model(tiny_config(encoder_depth=2), seed=2)
        coords = tiny_scene(20, seed=2)
        hier = hierarchy(params, coords)
        feats = M.backbone_encode(params, hier)
        out = M.encode_tokens(params, feats[-1], hier.coords[-1], hier.offsets[-1])
        x = feats[-1] + B.mlp_forward(params.pos_mlp, Tensor(hier.coords[-1]))
        for block in params.token_encoder:
            x = B.encoder_block(block, x, params.cfg.norm_eps)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)


class TestQueryDecoder:
    def test_single_block_oracle(self):
        params = M.build_model(tiny_config(decoder_depth=5), seed=3)
        memory = Tensor(np.random.default_rng(3).standard_normal((6, 12)))
        h_layers, h_final = M.decode_queries(params, memory, (0, memory.shape[0]))
        assert len(h_layers) == 5
        x = B.decoder_block(params.query_decoder[0], params.queries, memory, params.cfg.norm_eps)
        np.testing.assert_allclose(h_layers[0].data, x.data, atol=1e-12)
        assert h_final is h_layers[-1]

    def test_identical_queries_collapse(self):
        params = M.build_model(tiny_config(), seed=4)
        params.queries.data[...] = params.queries.data[0]
        memory = Tensor(np.random.default_rng(4).standard_normal((5, 12)))
        h_layers, _ = M.decode_queries(params, memory, (0, memory.shape[0]))
        for h in h_layers:
            np.testing.assert_allclose(h.data, np.tile(h.data[0], (3, 1)), atol=1e-9)

    def test_layer_list_length_matches_depth_and_mapping(self):
        cfg = tiny_config(decoder_depth=6, level_offset=2)
        params = M.build_model(cfg, seed=5)
        memory = Tensor(np.random.default_rng(5).standard_normal((4, 12)))
        h_layers, h_final = M.decode_queries(params, memory, (0, memory.shape[0]))
        assert len(h_layers) == 6
        # stage i consumes layer u = i + 2 for the three mid stages
        for i, level in enumerate(cfg.mid_levels, start=1):
            u = cfg.layer_for_stage(i)
            assert 1 <= u <= 6
            assert h_layers[u - 1].shape == (3, 8)
        assert h_final is h_layers[-1]


class TestModelForward:
    def test_output_shape_contract(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            levels = int(rng.integers(2, 5))
            dims = tuple(int(rng.integers(1, 4)) * 2 for _ in range(levels))
            cfg = tiny_config(
                n_classes=int(rng.integers(1, 5)),
                levels=levels,
                level_dims=dims,
                heads=2,
                decoder_depth=levels - 1 + 2,
                encoder_depth=int(rng.integers(0, 2)),
            )
            params = M.build_model(cfg, seed=trial)
            n = int(rng.integers(1, 40))
            coords = rng.uniform(-2, 2, (n, 3))
            hier = hierarchy(params, coords)
            out = M.model_forward(params, hier)
            assert out.final_logits.shape == (n, cfg.n_classes)
            assert len(out.mids) == cfg.n_mid
            for mid, level in zip(out.mids, cfg.mid_levels):
                assert mid.conf.probs.shape == (hier.sizes[level], cfg.n_classes)

    def test_single_class_collapse(self):
        cfg = tiny_config(n_classes=1)
        params = M.build_model(cfg, seed=7)
        out = forward(params, tiny_scene(16, seed=7))
        for mid in out.mids:
            np.testing.assert_allclose(mid.conf.probs.data, 1.0, atol=1e-15)
            # blend of a single class row is exactly that row
            np.testing.assert_allclose(
                T.matmul(mid.conf.probs, Tensor(mid.affine.scales.data)).data,
                mid.affine.scales.data[np.zeros(mid.conf.probs.shape[0], dtype=int)],
                atol=1e-15)

    def test_identity_init_sa_equals_bn_path(self):
        coords = tiny_scene(24, seed=8)
        params_sa = M.build_model(tiny_config(affine="sa"), seed=8)
        identity_affine_heads(params_sa)
        out_sa = forward(params_sa, coords)
        out_bn = forward(M.build_model(tiny_config(affine="bn"), seed=8), coords)
        np.testing.assert_allclose(out_sa.final_logits.data, out_bn.final_logits.data, atol=1e-6)

    def test_bitwise_determinism(self):
        coords = tiny_scene(64, seed=9)
        a = forward(M.build_model(tiny_config(), seed=9), coords)
        b = forward(M.build_model(tiny_config(), seed=9), coords)
        assert a.final_logits.data.tobytes() == b.final_logits.data.tobytes()

    def test_empty_scene_rejected(self):
        params = M.build_model(tiny_config(), seed=10)
        with pytest.raises(ContractError):
            forward(params, np.zeros((0, 3)))


class TestAblationLattice:
    """All classifier x affine configurations run and differ only in the
    intended stage, sharing weights everywhere else."""

    @pytest.mark.parametrize("classifier", M.CLASSIFIERS)
    @pytest.mark.parametrize("affine", M.AFFINE_MODES)
    def test_every_variant_runs(self, classifier, affine):
        cfg = tiny_config(classifier=classifier, affine=affine)
        out = forward(M.build_model(cfg, seed=11), tiny_scene(20, seed=11))
        assert np.isfinite(out.final_logits.data).all()

    def test_variants_share_stages_upstream_of_the_switch(self):
        coords = tiny_scene(30, seed=12)
        traces, transformed = {}, {}
        for affine in M.AFFINE_MODES:
            params = M.build_model(tiny_config(affine=affine), seed=12)
            identity_affine_heads(params)
            enc, tokens, h_layers, masks, out = upstream_stages(params, coords)
            traces[affine] = {"enc0": enc[0].data, "enc3": enc[3].data, "tokens": tokens.data,
                              "h1": h_layers[0].data, "masks": masks.data, "mid3.logits": out.mids[0].conf.logits.data}
            eps, site = params.cfg.norm_eps, params.sites[3]
            if affine == "sa":
                transformed[affine] = A.semantic_affine_transform(tokens, out.mids[0].conf, out.mids[0].affine, eps)
            elif affine == "bn":
                transformed[affine] = T.layer_norm(tokens, site.norm.gain, site.norm.bias, eps)
        # encoder, tokens, query decoder, masks, and coarsest-stage logits agree
        for key in ["enc0", "enc3", "tokens", "h1", "masks", "mid3.logits"]:
            np.testing.assert_array_equal(traces["sa"][key], traces["bn"][key])
            np.testing.assert_array_equal(traces["sa"][key], traces["adain"][key])
        # at the identity-init point all three affine stages coincide
        np.testing.assert_allclose(transformed["sa"].data, transformed["bn"].data, atol=1e-12)

    def test_classifier_switch_changes_only_logit_source(self):
        coords = tiny_scene(30, seed=13)
        enc_mask, tokens_mask, _, _, out_mask = upstream_stages(
            M.build_model(tiny_config(classifier="mask", affine="bn"), seed=13), coords)
        enc_fc, tokens_fc, _, _, out_fc = upstream_stages(
            M.build_model(tiny_config(classifier="fc", affine="bn"), seed=13), coords)
        np.testing.assert_array_equal(enc_mask[0].data, enc_fc[0].data)
        np.testing.assert_array_equal(tokens_mask.data, tokens_fc.data)
        logits_mask, logits_fc = out_mask.mids[0].conf.logits.data, out_fc.mids[0].conf.logits.data
        assert logits_mask.shape == logits_fc.shape
        assert not np.array_equal(logits_mask, logits_fc)


def op_tally(root, after=-1):
    """Op counts of the nodes that ``backward(root)`` visits (grad-requiring,
    reached through grad-requiring parents) with node id above ``after``."""
    seen, stack = {root.node_id: root}, [root]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and p.node_id not in seen:
                seen[p.node_id] = p
                stack.append(p)
    return dict(Counter(t.op for i, t in seen.items() if i > after))


class TestTapeSize:
    """Pins of the tape's op tally: a change that grows the tape updates them here."""

    def test_block_op_tallies(self):
        rng = np.random.default_rng(40)
        x = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        enc = B.init_encoder_block(rng, heads=2, model_dim=8)
        first = Tensor(0.0).node_id
        # attention, output projection, residual norm; feed-forward chain, residual norm
        assert op_tally(B.encoder_block(enc, x), first) == {"attention": 1, "mlp": 2, "layer_norm": 2}
        dec = B.init_decoder_block(rng, heads=2, model_dim=8, kv_dim=8)
        first = Tensor(0.0).node_id
        assert op_tally(B.decoder_block(dec, x, x), first) == {"attention": 2, "mlp": 3, "layer_norm": 3}

    def test_default_scene_loss_graph_tally(self):
        from semaffine.harness import total_loss
        from semaffine.train import prepare_scene, stack_scenes

        cfg = M.ModelConfig()
        params = M.build_model(cfg, seed=0)
        scenes = [prepare_scene(generate_scene(SceneSpec(), seed=s), cfg) for s in range(4)]
        tallies = []
        for batch in range(1, 5):
            hier, labels, shadows = stack_scenes(scenes[:batch])
            tallies.append(op_tally(total_loss(M.model_forward(params, hier), labels, shadows)))
        # one tape per SGD batch, the same for 1 to 4 scenes: the scenes share every node
        assert tallies == [tallies[-1]] * 4
        # one mlp node per dense chain: 4 backbone MLPs, pos_mlp, 23 attention output
        # projections and feed-forwards, the mask head, 3 scale and 3 bias heads, 3 down
        # projections; 23 Transformer-block norms, each taking its residual, and 3
        # semantic-affine transforms, one node each; one mask_logits node per site (3 mid,
        # 1 final) with its projection folded in; one node per loss term (final CE, 3
        # mid-level BCEs), then 2 weights and 3 sums; adds: the positional embedding,
        # 3 unpool skips and the 3 sums; gather_rows: 3 unpools and one copy of the class
        # queries per scene
        assert tallies[-1] == {
            "leaf": 297, "mlp": 38, "layer_norm": 26, "attention": 14, "add": 7,
            "matmul": 6, "mask_logits": 4, "bce_with_logits": 3, "gather_rows": 4, "pool_rows_mean": 3,
            "softmax": 3, "softplus": 3, "scale": 2, "cross_entropy": 1,
        }
        assert sum(tallies[-1].values()) == 411

    def test_default_scene_node_budget_and_dead_gradients(self):
        from semaffine.harness import total_loss
        from semaffine.train import prepare_scene

        cfg = M.ModelConfig()
        params = M.build_model(cfg, seed=0)
        # one weight and one bias per q/k/v projection of each attention
        assert len(params.named_parameters()) == 317
        scene = prepare_scene(generate_scene(SceneSpec(), seed=0), cfg)
        first = Tensor(0.0).node_id
        loss = total_loss(M.model_forward(params, scene.hier),
                          scene.cloud.labels, scene.shadows)
        created = Tensor(0.0).node_id - first - 1
        # the tape's 114 op nodes and two constant leaves, the finest and the top coordinates
        assert created == 116, created
        loss.backward()

        graph, stack = {loss.node_id: loss}, [loss]
        while stack:
            for p in stack.pop().parents:
                if p.node_id not in graph:
                    graph[p.node_id] = p
                    stack.append(p)
        constants = [t for t in graph.values() if not t.requires_grad]
        assert constants  # coordinates
        assert all(t.grad is None for t in constants)
        assert all(t.grad is not None for t in graph.values() if t.requires_grad)


class TestBatchedStep:
    """A stacked batch computes what its scenes compute one at a time."""

    @staticmethod
    def ragged_scenes(params):
        from semaffine.hierarchy import shadow_labels

        rng = np.random.default_rng(11)
        scenes = []
        for n, spread in ((20, 1.2), (45, 2.2), (70, 3.4)):
            coords = rng.uniform(-spread, spread, (n, 3))
            labels = rng.integers(0, params.cfg.n_classes, n)
            hier = hierarchy(params, coords)
            scenes.append((hier, labels, shadow_labels(hier, labels, params.cfg.n_classes)))
        return scenes

    @staticmethod
    def gradients(params):
        return [np.zeros(t.shape) if t.grad is None else t.grad.copy() for _, t in params.named_parameters()]

    @pytest.mark.parametrize("classifier", M.CLASSIFIERS)
    @pytest.mark.parametrize("affine", M.AFFINE_MODES)
    def test_ragged_batch_matches_scenes_one_by_one(self, classifier, affine):
        from semaffine.harness import total_loss
        from semaffine.hierarchy import stack_hierarchies

        params = M.build_model(tiny_config(classifier=classifier, affine=affine), seed=3)
        scenes = self.ragged_scenes(params)
        sizes = np.array([hier.sizes for hier, _, _ in scenes])
        assert all(len(set(level)) == len(scenes) for level in sizes.T), sizes  # ragged at every level

        singles = []
        for hier, labels, shadows in scenes:
            for _, t in params.named_parameters():
                t.zero_grad()
            out = M.model_forward(params, hier)
            loss = total_loss(out, labels, shadows)
            loss.backward()
            singles.append((out.final_logits.data, loss.item(), self.gradients(params)))

        for _, t in params.named_parameters():
            t.zero_grad()
        batch = stack_hierarchies([hier for hier, _, _ in scenes])
        out = M.model_forward(params, batch)
        loss = total_loss(out, np.concatenate([labels for _, labels, _ in scenes]),
                          {level: np.concatenate([shadows[level] for _, _, shadows in scenes])
                           for level in scenes[0][2]})
        loss.backward()

        bounds = batch.offsets[0]
        for s, (logits, _, _) in enumerate(singles):
            np.testing.assert_allclose(out.final_logits.data[bounds[s]:bounds[s + 1]], logits, rtol=0, atol=1e-12)
        mean_loss = np.mean([value for _, value, _ in singles])
        assert abs(loss.item() - mean_loss) <= 1e-12 * abs(mean_loss)
        expected = [sum(parts) / len(scenes) for parts in zip(*(grads for _, _, grads in singles))]
        scale = max(np.abs(g).max() for g in expected)
        for (name, _), got, want in zip(params.named_parameters(), self.gradients(params), expected):
            assert np.abs(got - want).max() <= 1e-12 * scale, name
