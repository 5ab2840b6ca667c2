"""Losses, optimizer schedule, metrics, checkpoints, config, and train/eval loops."""

import math
import zlib

import numpy as np
import pytest

from semaffine import harness as Hx
from semaffine import tensor as T
from semaffine.affine import ConfidenceMatrix
from semaffine.checkpoint import MAGIC, load_checkpoint, restore_parameters, save_checkpoint
from semaffine.config import (
    KEYS,
    KNOWN_KEYS,
    ExtraConfig,
    config_from,
    configs_from_snapshot,
    parse_config_file,
    parse_config_text,
    snapshot,
)
from semaffine.errors import ConfigError, ContractError, NumericError, ParseError
from semaffine.gradcheck import finite_diff_check
from semaffine.model import ATTENTION_PREFIXES, ForwardOutput, MidLevelOutput, ModelConfig
from semaffine.scenes import SceneSpec
from semaffine.tensor import Tensor


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((5, 4)))
        loss = T.cross_entropy(logits, np.zeros(5, dtype=int))
        np.testing.assert_allclose(loss.item(), math.log(4.0), atol=1e-12)

    def test_peaked_logits_near_zero(self):
        logits = np.zeros((3, 4))
        labels = np.array([1, 2, 0])
        logits[np.arange(3), labels] = 100.0
        loss = T.cross_entropy(Tensor(logits), labels)
        assert loss.item() < 1e-10

    def test_random_matches_per_point_loop(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, 6)
        expect = 0.0
        for j in range(6):
            e = np.exp(logits[j] - logits[j].max())
            p = e / e.sum()
            expect -= math.log(p[labels[j]])
        expect /= 6
        loss = T.cross_entropy(Tensor(logits), labels)
        np.testing.assert_allclose(loss.item(), expect, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestMidlevelBce:
    def test_zero_logit_gives_ln2(self):
        loss = T.bce_with_logits(Tensor(np.zeros((2, 3))), np.ones((2, 3)))
        np.testing.assert_allclose(loss.item(), math.log(2.0), atol=1e-12)

    def test_confident_correct_near_zero(self):
        loss = T.bce_with_logits(Tensor(np.full((2, 2), 100.0)), np.ones((2, 2)))
        assert loss.item() < 1e-10

    def test_level_stack_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        logits = [rng.standard_normal((4, 3)), rng.standard_normal((2, 3))]
        targets = [(rng.random((4, 3)) < 0.5).astype(float), (rng.random((2, 3)) < 0.5).astype(float)]
        expect = 0.0
        for block, tgt in zip(logits, targets):
            acc = 0.0
            for x, t in zip(block.reshape(-1), tgt.reshape(-1)):
                p = 1.0 / (1.0 + math.exp(-x))
                acc -= t * math.log(p) + (1 - t) * math.log(1 - p)
            expect += acc / block.size
        mids = [MidLevelOutput(level=level, conf=ConfidenceMatrix(Tensor(b), T.softmax(Tensor(b))), affine=None)
                for level, b in ((1, logits[0]), (2, logits[1]))]
        fwd = ForwardOutput(final_logits=Tensor(np.zeros((5, 3))), mids=mids, offsets=[(0, 5), (0, 4), (0, 2)])
        loss = Hx.total_loss(fwd, np.zeros(5, dtype=int), [None] + targets, w_final=0.0)
        np.testing.assert_allclose(loss.item(), expect, atol=1e-10)

    def test_non_binary_target_rejected(self):
        with pytest.raises(ContractError):
            T.bce_with_logits(Tensor(np.zeros((1, 2))), np.array([[0.5, 1.0]]))

    def test_loss_gradients(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, 5)
        targets = (rng.random((5, 4)) < 0.5).astype(float)

        report = finite_diff_check(lambda: T.cross_entropy(logits, labels), [("l", logits)])
        assert report.passed
        report = finite_diff_check(lambda: T.bce_with_logits(logits, targets), [("l", logits)])
        assert report.passed


class TestTotalLoss:
    def _forward_stub(self, rng):
        final = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        mid_logits = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        mid = MidLevelOutput(level=1, conf=ConfidenceMatrix(mid_logits, T.softmax(mid_logits)), affine=None)
        labels = rng.integers(0, 3, 6)
        shadows = {1: (rng.random((2, 3)) < 0.5).astype(np.uint8)}
        shadows[1][0, 0] = 1  # keep at least one bit set
        fwd = ForwardOutput(final_logits=final, mids=[mid], offsets=[(0, 6), (0, 2)])
        return fwd, labels, shadows

    def test_degenerate_weights(self):
        rng = np.random.default_rng(3)
        fwd, labels, shadows = self._forward_stub(rng)
        ce = T.cross_entropy(fwd.final_logits, labels).item()
        bce = T.bce_with_logits(fwd.mids[0].conf.logits, shadows[1]).item()
        np.testing.assert_allclose(Hx.total_loss(fwd, labels, shadows, w_mid=0.0).item(), ce, atol=1e-12)
        np.testing.assert_allclose(Hx.total_loss(fwd, labels, shadows, w_final=0.0).item(), bce, atol=1e-12)
        np.testing.assert_allclose(Hx.total_loss(fwd, labels, shadows).item(), ce + bce, atol=1e-12)


class TestSchedule:
    def test_plain_sgd_step(self):
        cfg = Hx.TrainConfig(base_lr=0.1, momentum=0.0, weight_decay=0.0, warmup_fraction=0.0)
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        Hx.sgd_step([("p", p)], Hx.SgdState(), cfg, t=0, total_steps=100)
        lr0 = Hx.learning_rate(cfg, 0, 100)
        np.testing.assert_allclose(p.data, [1.0 - lr0 * 2.0], atol=1e-15)

    def test_schedule_endpoint_is_zero(self):
        cfg = Hx.TrainConfig()
        assert Hx.learning_rate(cfg, 100, 100) == 0.0
        p = Tensor(np.array([3.0]), requires_grad=True)
        p.grad = np.array([5.0])
        Hx.sgd_step([("p", p)], Hx.SgdState(), cfg, t=100, total_steps=100)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_warmup_starts_at_zero_and_peaks_at_warmup_end(self):
        cfg = Hx.TrainConfig(base_lr=2e-2, warmup_fraction=0.05)
        total = 1000
        lrs = [Hx.learning_rate(cfg, t, total) for t in range(total)]
        assert lrs[0] == 0.0
        peak = int(np.argmax(lrs))
        assert peak == 50  # warmup end
        np.testing.assert_allclose(lrs[peak], 2e-2 * (1 - 50 / total) ** 2, atol=1e-15)

    def test_group_factor_scales_step_size(self):
        cfg = Hx.TrainConfig(attention_lr_factor=0.1, momentum=0.0, weight_decay=0.0, warmup_fraction=0.0)
        a = Tensor(np.array([0.0]), requires_grad=True)
        b = Tensor(np.array([0.0]), requires_grad=True)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        attention_name = ATTENTION_PREFIXES[0] + "0.weight"
        Hx.sgd_step([("backbone.enc0.0.weight", a), (attention_name, b)], Hx.SgdState(), cfg, t=10, total_steps=100)
        np.testing.assert_allclose(a.data[0] / b.data[0], 10.0, atol=1e-12)

    def test_non_finite_gradient_is_a_numeric_error(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([0.5, np.nan])
        with pytest.raises(NumericError, match="non-finite gradient for p"):
            Hx.sgd_step([("p", p)], Hx.SgdState(), Hx.TrainConfig(), t=0, total_steps=10)

    def test_non_finite_gradient_updates_nothing(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        a.grad, b.grad = np.array([1.0]), np.array([np.nan])
        cfg = Hx.TrainConfig(warmup_fraction=0.0)
        state = Hx.SgdState()
        with pytest.raises(NumericError, match="non-finite gradient for b"):
            Hx.sgd_step([("a", a), ("b", b)], state, cfg, t=0, total_steps=10)
        assert a.data.tolist() == [1.0] and b.data.tolist() == [2.0]
        assert state.velocities == {}

    def test_momentum_and_weight_decay_update(self):
        cfg = Hx.TrainConfig(base_lr=0.1, momentum=0.9, weight_decay=0.01, warmup_fraction=0.0)
        p = Tensor(np.array([2.0]), requires_grad=True)
        state = Hx.SgdState()
        p.grad = np.array([1.0])
        Hx.sgd_step([("p", p)], state, cfg, t=0, total_steps=10)
        v1 = 1.0 + 0.01 * 2.0
        expect = 2.0 - Hx.learning_rate(cfg, 0, 10) * v1
        np.testing.assert_allclose(p.data, [expect], atol=1e-15)
        np.testing.assert_allclose(state.velocities["p"], [v1], atol=1e-15)

    def test_quadratic_descent_is_monotone(self):
        cfg = Hx.TrainConfig(base_lr=0.05, momentum=0.0, weight_decay=0.0, warmup_fraction=0.0)
        x = Tensor(np.array([[4.0, -3.0]]), requires_grad=True)
        state = Hx.SgdState()
        losses = []
        for t in range(40):
            x.zero_grad()
            loss = T.mlp(x, [(x, Tensor([0.0]))])  # x @ x.T + 0: the sum of squares
            loss.backward()
            losses.append(loss.item())
            Hx.sgd_step([("x", x)], state, cfg, t, total_steps=40)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def metrics_of(preds, labels, n_classes):
    return Hx.metrics_from_confusion(Hx.confusion_matrix(preds, labels, n_classes))


class TestMiou:
    def test_perfect_prediction(self):
        m = metrics_of([0, 1, 2, 1], [0, 1, 2, 1], 4)
        assert m.miou == 1.0
        np.testing.assert_array_equal(m.iou[:3], [1.0, 1.0, 1.0])
        assert np.isnan(m.iou[3])

    def test_hand_confusion_case(self):
        m = metrics_of([0, 0, 1, 1], [0, 1, 1, 1], 2)
        np.testing.assert_allclose(m.iou, [0.5, 2 / 3], atol=1e-12)
        np.testing.assert_allclose(m.miou, 7 / 12, atol=1e-12)
        np.testing.assert_allclose(m.accuracy, 0.75, atol=1e-12)

    def test_fully_swapped_classes(self):
        m = metrics_of([1, 1, 0, 0], [0, 0, 1, 1], 2)
        assert m.miou == 0.0

    def test_absent_class_excluded(self):
        base = metrics_of([0, 1, 1], [0, 1, 0], 2)
        padded = metrics_of([0, 1, 1], [0, 1, 0], 5)
        np.testing.assert_allclose(padded.miou, base.miou, atol=1e-15)

    def test_length_mismatch(self):
        from semaffine.errors import ShapeError
        with pytest.raises(ShapeError):
            metrics_of([0, 1], [0, 1, 2], 3)


class TestCheckpoint:
    def _params(self, rng):
        return [
            ("a.weight", Tensor(rng.standard_normal((3, 2)), requires_grad=True)),
            ("a.bias", Tensor(rng.standard_normal(3), requires_grad=True)),
            ("b", Tensor(rng.standard_normal(()), requires_grad=True)),
        ]

    def test_round_trip_restores_values(self, tmp_path):
        rng = np.random.default_rng(4)
        params = self._params(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"classes": 4, "base_lr": 0.02}, step=17)
        config, step, entries = load_checkpoint(path)
        assert step == 17 and config["classes"] == "4"
        fresh = self._params(np.random.default_rng(5))
        restore_parameters(fresh, entries)
        for (_, a), (_, b) in zip(params, fresh):
            assert a.data.tobytes() == b.data.tobytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        params = self._params(rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, {"seed": 3, "base_lr": 0.02}, step=5)
        config, step, entries = load_checkpoint(p1)
        restore_parameters(params, entries)
        save_checkpoint(p2, params, {"seed": 3, "base_lr": 0.02}, step=5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(7)
        params = self._params(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {}, step=0)
        _, _, entries = load_checkpoint(path)
        bad = [("a.weight", Tensor(np.zeros((2, 2)))), ("a.bias", Tensor(np.zeros(3))), ("b", Tensor(0.0))]
        with pytest.raises(ContractError):
            restore_parameters(bad, entries)

    @pytest.mark.parametrize("edit,line", [
        (lambda raw: raw.replace(b"step=0", b"step=x"), 2),
        (lambda raw: raw.replace(b"step=0\n", b"step=0\nstep=9\n"), 3),  # the last step would win
        (lambda raw: raw.replace(b"payload 80", b"payload x"), 7),
        (lambda raw: raw[:raw.index(b"payload 80") + len(b"payload 80")], 7),
        (lambda raw: raw.replace(b"3,2 0\n", b"3,2 -8\n"), 4),
        (lambda raw: raw[:-8] + np.array(np.nan, "<f8").tobytes(), 6),  # the payload ends with entry b
        (lambda raw: raw[:-8] + np.array(-np.inf, "<f8").tobytes(), 6),
        (lambda raw: raw[:-24] + np.array(np.nan, "<f8").tobytes() + raw[-16:], 5),  # a.bias[1], mid-payload
        (lambda raw: raw.replace(b"3,2 0\n", b"3,2 4\n"), 4),  # inside the payload, but not on an 8-byte word
        (lambda raw: raw.replace(b"3,2 0\n", b"0,100000000000000000000 0\n"), 4),  # no entries, but no array either
        (lambda raw: raw.replace(b"3,2 0\n", b"100000000000000000000 0\n"), 4),  # more entries than an intp holds
        (lambda raw: raw.replace(b"3,2 0\n", b"10000000000,10000000000 0\n"), 4),
    ], ids=["step", "repeated-step", "payload", "cut-after-payload-line", "negative-offset", "nan-entry",
            "inf-entry", "nan-middle-entry", "odd-offset", "oversized-empty-shape", "huge-shape", "huge-2d-shape"])
    def test_malformed_manifest_is_parse_error(self, tmp_path, edit, line):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._params(np.random.default_rng(9)), {"seed": 3}, step=0)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ParseError, match=f"line {line}:"):
            load_checkpoint(path)

    # manifest lines 4-7: a.weight (3, 2) at 0, a.bias (3,) at 48, b () at 72, payload 80
    @pytest.mark.parametrize("edit,line", [
        (lambda raw: raw.replace(b" 3 48\n", b" 3 0\n"), 5),  # a.bias reads a.weight's bytes
        (lambda raw: raw.replace(b" 3 48\n", b" 3 56\n").replace(b"  72\n", b"  80\n")
         .replace(b"payload 80\n", b"payload 88\n")[:-32] + bytes(8) + raw[-32:], 5),  # 8 bytes before a.bias
        (lambda raw: raw.replace(b"payload 80\n", b"payload 88\n") + bytes(8), 7),  # 8 bytes after b
        (lambda raw: raw.replace(b"3,2 0\n", b"3,2 24\n").replace(b" 3 48\n", b" 3 0\n"), 4),  # a.bias first
    ], ids=["aliased", "gap", "trailing-bytes", "swapped-offsets"])
    def test_layout_other_than_back_to_back_is_parse_error(self, tmp_path, edit, line):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._params(np.random.default_rng(9)), {"seed": 3}, step=0)
        raw = path.read_bytes()
        path.write_bytes(edit(raw))
        assert path.read_bytes() != raw
        with pytest.raises(ParseError, match=f"line {line}:"):
            load_checkpoint(path)

    @pytest.mark.parametrize("step", ["\u0663", "+3", "3_0", " 3"],
                             ids=["arabic-indic-digit", "plus", "underscore", "space"])
    def test_step_must_be_ascii_digits(self, tmp_path, step):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._params(np.random.default_rng(9)), {"seed": 3}, step=0)
        path.write_bytes(path.read_bytes().replace(b"step=0", f"step={step}".encode()))
        with pytest.raises(ParseError, match="line 2:"):
            load_checkpoint(path)

    def test_extra_checkpoint_parameter_rejected(self, tmp_path):
        params = self._params(np.random.default_rng(14))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params + [("c", Tensor(np.ones(2)))], {}, step=0)
        _, _, entries = load_checkpoint(path)
        with pytest.raises(ContractError, match=r"1 unexpected parameters: \['c'\]"):
            restore_parameters(params, entries)

    def test_restores_copy_the_loaded_arrays(self, tmp_path):
        params = self._params(np.random.default_rng(11))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {}, step=0)
        _, _, entries = load_checkpoint(path)
        first, second = self._params(np.random.default_rng(12)), self._params(np.random.default_rng(13))
        restore_parameters(first, entries)
        for _, t in first:
            t.data += 1.0
        restore_parameters(second, entries)
        for (_, saved), (_, restored) in zip(params, second):
            assert saved.data.tobytes() == restored.data.tobytes()

    def test_v1_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._params(np.random.default_rng(10)), {"seed": 3}, step=0)
        path.write_bytes(path.read_bytes().replace(MAGIC, b"semaffine-checkpoint v1", 1))
        with pytest.raises(ParseError, match="line 1:.*v1.*per-head attention"):
            load_checkpoint(path)

    def test_invalid_utf8_manifest_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._params(np.random.default_rng(8)), {"seed": 3}, step=0)
        path.write_bytes(path.read_bytes().replace(b"cfg.seed=3", b"cfg.seed=\xff"))
        with pytest.raises(ParseError, match="UTF-8"):
            load_checkpoint(path)

    def test_default_model_checkpoint_bytes_are_pinned(self, tmp_path):
        """Every parameter name, their order and every init stream of the
        default-sized model, and the config snapshot, pinned as one crc32.
        The configs are spelled out as the defaults stood when the pin was
        taken, so that a later change of a default leaves the pin alone."""
        from semaffine.model import build_model
        model_cfg = ModelConfig(n_classes=4, levels=4, level_dims=(32, 64, 96, 128), d_h=64, d_m=64,
                                encoder_depth=4, decoder_depth=5, heads=4, level_offset=2, base_voxel=0.4,
                                norm_eps=1e-5, classifier="mask", affine="sa")
        train_cfg = Hx.TrainConfig(base_lr=2e-2, attention_lr_factor=0.1, weight_decay=1e-4, momentum=0.9,
                                   epochs=20, batch_size=4, warmup_fraction=0.05, w_final=1.0, w_mid=1.0, seed=0)
        path = tmp_path / "default.ckpt"
        named = build_model(model_cfg, seed=3).named_parameters()
        save_checkpoint(path, named, snapshot(model_cfg, train_cfg), step=0)
        assert zlib.crc32(path.read_bytes()) == 1361651085


class TestConfigFile:
    def test_parse_and_build(self):
        text = """
        # model
        classes = 4
        level_dims = 8,16,24,32
        affine = adain
        # training
        base_lr = 0.01   # comment after value
        epochs = 3
        """
        values = parse_config_text(text)
        model_cfg = config_from(values, ModelConfig)
        train_cfg = config_from(values, Hx.TrainConfig)
        assert model_cfg.n_classes == 4 and model_cfg.level_dims == (8, 16, 24, 32)
        assert model_cfg.affine == "adain"
        assert train_cfg.base_lr == 0.01 and train_cfg.epochs == 3

    @pytest.mark.parametrize("text", ["heads = \u0662", "level_dims = 6,\u0668,10", "heads = +2", "epochs = 1_0",
                                      "level_dims = 6,,10", "level_dims = 6,8,", "level_dims = , 6,8"],
                             ids=["arabic-indic-digit", "arabic-indic-digit-in-tuple", "plus", "underscore",
                                  "empty-tuple-entry", "trailing-comma", "leading-comma"])
    def test_ints_must_be_ascii_digits(self, text):
        values = parse_config_text(text)
        with pytest.raises(ConfigError, match="bad value"):
            config_from(values, ModelConfig)
            config_from(values, Hx.TrainConfig)

    @pytest.mark.parametrize("value", ["2_0e-3", "\u0663", "0.\u0661", "\uff12e-3"],
                             ids=["underscore", "arabic-indic-digit", "arabic-indic-fraction", "fullwidth-digit"])
    def test_reals_must_be_ascii(self, value):
        assert config_from(parse_config_text("base_lr = 2e-3"), Hx.TrainConfig).base_lr == 0.002
        with pytest.raises(ConfigError, match="bad value for 'base_lr'"):
            config_from(parse_config_text(f"base_lr = {value}"), Hx.TrainConfig)
        snap = {k: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
                for k, v in snapshot(ModelConfig(), Hx.TrainConfig()).items()}  # as a checkpoint stores it
        with pytest.raises(ConfigError, match="bad value for 'base_lr'"):
            configs_from_snapshot({**snap, "base_lr": value})

    def test_negative_int_reaches_validate(self):
        with pytest.raises(ConfigError, match="heads must be >= 1, got -2"):
            config_from(parse_config_text("heads = -2"), ModelConfig)

    def test_unknown_key_is_error(self):
        for text in ("learning_rate = 0.1", "w_final_aux = 0.1"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_text(text)

    def test_invalid_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_bytes(b"classes = 4\nepochs = \xb3\n")
        with pytest.raises(ParseError, match="line 2.*UTF-8"):
            parse_config_file(path)

    def test_duplicate_key_is_error(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("classes = 3\nclasses = 4")

    def test_snapshot_round_trip(self):
        model_cfg = ModelConfig(n_classes=3, levels=3, level_dims=(4, 6, 8), d_h=8, d_m=8,
                                heads=2, decoder_depth=4, base_voxel=0.7, affine="bn")
        train_cfg = Hx.TrainConfig(base_lr=0.005, epochs=2, seed=9)
        snap = snapshot(model_cfg, train_cfg)
        as_text = {k: str(v) if not isinstance(v, tuple) else ",".join(map(str, v))
                   for k, v in snap.items()}
        m2, t2 = configs_from_snapshot(as_text)
        assert m2 == model_cfg
        assert t2 == train_cfg

    def test_key_tables(self):
        """Each config-file key, in order, with the field it sets and its converter."""
        def table(cls):
            return [(key, attr, conv.__name__) for key, (attr, conv) in KEYS[cls].items()]

        assert list(KEYS) == [ModelConfig, Hx.TrainConfig, SceneSpec, ExtraConfig]
        assert table(ModelConfig) == [
            ("classes", "n_classes", "_to_int"), ("levels", "levels", "_to_int"),
            ("level_dims", "level_dims", "_to_int_tuple"), ("d_h", "d_h", "_to_int"), ("d_m", "d_m", "_to_int"),
            ("encoder_depth", "encoder_depth", "_to_int"), ("decoder_depth", "decoder_depth", "_to_int"),
            ("heads", "heads", "_to_int"), ("level_offset", "level_offset", "_to_int"),
            ("base_voxel", "base_voxel", "ascii_float"), ("norm_eps", "norm_eps", "ascii_float"),
            ("classifier", "classifier", "str"), ("affine", "affine", "str"),
        ]
        assert table(Hx.TrainConfig) == [
            ("base_lr", "base_lr", "ascii_float"), ("attention_lr_factor", "attention_lr_factor", "ascii_float"),
            ("weight_decay", "weight_decay", "ascii_float"), ("momentum", "momentum", "ascii_float"),
            ("epochs", "epochs", "_to_int"), ("batch_size", "batch_size", "_to_int"),
            ("warmup_fraction", "warmup_fraction", "ascii_float"), ("w_final", "w_final", "ascii_float"),
            ("w_mid", "w_mid", "ascii_float"), ("seed", "seed", "_to_int"),
        ]
        assert table(SceneSpec) == [
            ("scene_objects", "objects_per_scene", "_to_int"),
            ("scene_points_per_object", "points_per_object", "_to_int"),
            ("scene_noise", "noise_sigma", "ascii_float"), ("scene_min_gap", "min_gap", "ascii_float"),
            ("scene_extent", "extent", "ascii_float"),
        ]
        assert table(ExtraConfig) == [
            ("val_fraction", "val_fraction", "ascii_float"),
            ("ablate_train_scenes", "ablate_train_scenes", "_to_int"),
            ("ablate_val_scenes", "ablate_val_scenes", "_to_int"),
        ]
        assert KNOWN_KEYS == set().union(*KEYS.values())
