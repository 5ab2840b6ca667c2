"""Train/eval loop bookkeeping, determinism, and the CLI surface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semaffine
from semaffine import tensor as T
from semaffine import verify
from semaffine.ablate import parse_variants
from semaffine.checkpoint import MAGIC, save_checkpoint
from semaffine.cli import main
from semaffine.config import snapshot
from semaffine.errors import ConfigError, ContractError, NumericError
from semaffine.harness import TrainConfig
from semaffine.model import ModelConfig, build_model
from semaffine.scenes import SceneSpec, generate_scene, write_manifest, write_scene
from semaffine.tensor import Tensor
from semaffine.train import eval_run, evaluate_scenes, load_corpus, prepare_scene, train_model, train_run
from semaffine.verify import Check, iter_checks


def small_model_cfg(**overrides):
    base = dict(
        n_classes=4, levels=3, level_dims=(6, 8, 10), d_h=8, d_m=8,
        encoder_depth=1, decoder_depth=4, heads=2, base_voxel=0.8,
    )
    base.update(overrides)
    return ModelConfig(**base)


TINY_TRAIN_CFG = ("levels = 3\nlevel_dims = 6,8,10\nd_h = 8\nd_m = 8\nheads = 2\n"
                  "encoder_depth = 1\ndecoder_depth = 4\nepochs = 1\n")


def small_corpus(tmp_path, n_train=2, n_val=1, points=24):
    spec = SceneSpec(points_per_object=points)
    entries = []
    for i in range(n_train + n_val):
        cloud = generate_scene(spec, seed=i)
        name = f"scene_{i}.txt"
        write_scene(cloud, tmp_path / name)
        entries.append((name, "train" if i < n_train else "val"))
    manifest = tmp_path / "manifest.txt"
    write_manifest(entries, manifest)
    return manifest


class TestTrainRun:
    def test_one_epoch_two_scenes_batch_one(self, tmp_path):
        manifest = small_corpus(tmp_path, n_train=2, n_val=1)
        cfg = TrainConfig(epochs=1, batch_size=1, seed=0)
        result = train_run(manifest, small_model_cfg(), cfg, tmp_path / "out.ckpt",
                          log_path=tmp_path / "out.log")
        assert len(result.log_lines) == 1  # one epoch record
        # two optimization steps happened: schedule length is 2
        fields = result.log_lines[0].split("\t")
        assert fields[0] == "0" and len(fields) == 4
        assert (tmp_path / "out.ckpt").exists() and (tmp_path / "out.log").exists()

    def test_first_epoch_lr_record_is_zero_with_warmup(self, tmp_path):
        manifest = small_corpus(tmp_path, n_train=4, n_val=1)
        cfg = TrainConfig(epochs=2, batch_size=2, warmup_fraction=0.5, seed=0)
        result = train_run(manifest, small_model_cfg(), cfg, tmp_path / "out.ckpt")
        first_lr = float(result.log_lines[0].split("\t")[3])
        assert first_lr == 0.0

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        manifest = small_corpus(tmp_path, n_train=3, n_val=1)
        logs, ckpts = [], []
        for run in range(2):
            ckpt = tmp_path / f"run{run}.ckpt"
            log = tmp_path / f"run{run}.log"
            train_run(manifest, small_model_cfg(), TrainConfig(epochs=2, batch_size=2, seed=7),
                      ckpt, log_path=log)
            logs.append(log.read_bytes())
            ckpts.append(ckpt.read_bytes())
        assert logs[0] == logs[1]
        assert ckpts[0] == ckpts[1]

    def test_different_seeds_differ(self, tmp_path):
        manifest = small_corpus(tmp_path, n_train=3, n_val=1)
        outs = []
        for seed in (0, 1):
            ckpt = tmp_path / f"seed{seed}.ckpt"
            train_run(manifest, small_model_cfg(), TrainConfig(epochs=1, batch_size=2, seed=seed), ckpt)
            outs.append(ckpt.read_bytes())
        assert outs[0] != outs[1]

    def test_class_count_mismatch_rejected(self, tmp_path):
        manifest = small_corpus(tmp_path)
        with pytest.raises(ContractError, match="classes"):
            load_corpus(manifest, small_model_cfg(n_classes=7))


class TestEvalRun:
    def test_eval_matches_end_of_train_metrics(self, tmp_path):
        manifest = small_corpus(tmp_path, n_train=2, n_val=2)
        ckpt = tmp_path / "m.ckpt"
        result = train_run(manifest, small_model_cfg(), TrainConfig(epochs=2, batch_size=1, seed=3), ckpt)
        metrics = eval_run(ckpt, manifest, split="val")
        assert metrics.miou == result.final_val.miou
        np.testing.assert_array_equal(metrics.confusion, result.final_val.confusion)

    def test_dataset_level_pooling_differs_from_scene_mean(self):
        # two scenes with disjoint class performance: pooled IoU != mean of per-scene mIoU
        from semaffine.harness import confusion_matrix, metrics_from_confusion
        preds_a, gt_a = np.array([0, 0, 1]), np.array([0, 1, 1])
        preds_b, gt_b = np.array([2, 2]), np.array([2, 2])
        pooled = metrics_from_confusion(
            confusion_matrix(preds_a, gt_a, 3) + confusion_matrix(preds_b, gt_b, 3))
        per_scene = np.mean([metrics_from_confusion(confusion_matrix(preds, gt, 3)).miou
                             for preds, gt in ((preds_a, gt_a), (preds_b, gt_b))])
        # hand-pooled oracle: IoU_0 = 1/2, IoU_1 = 1/2, IoU_2 = 1
        np.testing.assert_allclose(pooled.miou, (0.5 + 0.5 + 1.0) / 3, atol=1e-12)
        assert abs(pooled.miou - per_scene) > 1e-6

    def test_non_finite_logits_raise_numeric_error(self, tmp_path):
        cfg = small_model_cfg()
        params = build_model(cfg)
        scenes = [prepare_scene(generate_scene(SceneSpec(points_per_object=8), seed=0), cfg)]
        evaluate_scenes(params, scenes)
        dict(params.named_parameters())["backbone.enc0.0.weight"].data[0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite logits"):
            evaluate_scenes(params, scenes)

    def test_empty_split_rejected(self, tmp_path):
        manifest = small_corpus(tmp_path, n_train=2, n_val=0)
        ckpt = tmp_path / "m.ckpt"
        train_run(manifest, small_model_cfg(), TrainConfig(epochs=1, batch_size=1, seed=0), ckpt)
        with pytest.raises(ContractError):
            eval_run(ckpt, manifest, split="val")


class TestVariants:
    def test_parse_axes(self):
        assert parse_variants("fc,mask,bn,sa".split(",")) == [
            ("fc", "bn"), ("fc", "sa"), ("mask", "bn"), ("mask", "sa")]
        assert parse_variants(["sa"]) == [("mask", "sa")]

    def test_unknown_token(self):
        with pytest.raises(ConfigError):
            parse_variants(["mask", "groupnorm"])


class TestCli:
    def test_synth_train_eval_pipeline(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        spec_file = tmp_path / "scenes.cfg"
        spec_file.write_text("scene_points_per_object = 24\nval_fraction = 0.34\n")
        assert main(["synth", "--spec", str(spec_file), "--out", str(corpus),
                     "--count", "3", "--seed", "0"]) == 0
        assert (corpus / "manifest.txt").exists()

        train_cfg_file = tmp_path / "train.cfg"
        train_cfg_file.write_text(
            "levels = 3\nlevel_dims = 6,8,10\nd_h = 8\nd_m = 8\nheads = 2\n"
            "encoder_depth = 1\ndecoder_depth = 4\nbase_voxel = 0.8\n"
            "epochs = 1\nbatch_size = 1\nseed = 0\n")
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(train_cfg_file),
                     "--data", str(corpus / "manifest.txt"), "--out", str(ckpt)]) == 0
        assert ckpt.exists() and ckpt.with_suffix(".ckpt.log").exists()

        assert main(["eval", "--ckpt", str(ckpt), "--data", str(corpus / "manifest.txt")]) == 0
        out = capsys.readouterr().out
        assert "mIoU" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        for text in ("not_a_key = 3\n", "w_final_aux = 0.1\n"):
            bad.write_text(text)
            assert main(["train", "--config", str(bad), "--data", "x", "--out", "y"]) == 1
            assert "unknown key" in capsys.readouterr().err
        corpus = tmp_path / "corpus"
        synth = ["synth", "--spec", str(bad), "--out", str(corpus), "--count"]
        ablate = ["ablate", "--config", str(bad), "--seeds"]
        for text, argv, message in (
            ("val_fraction = abc\n", synth + ["2"], "bad value for 'val_fraction'"),
            ("val_fraction = 3.0\n", synth + ["2"], "val_fraction must be in [0, 1]"),
            ("val_fraction = nan\n", synth + ["2"], "val_fraction must be in [0, 1]"),
            ("ablate_train_scenes = 0\n", ablate + ["1"], "ablate_train_scenes must be >= 1"),
            ("ablate_val_scenes = -2\n", ablate + ["1"], "ablate_val_scenes must be >= 1"),
            ("", synth + ["-3"], "--count must be >= 1"),
            ("", ablate + ["0"], "--seeds must be >= 1"),
        ):
            bad.write_text(text)
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not corpus.exists()

    @pytest.mark.parametrize("line, message", [
        ("base_lr = nan", "base_lr must be finite"),
        ("weight_decay = nan", "weight_decay must be finite"),
        ("momentum = inf", "momentum must be finite"),
        ("norm_eps = -1", "norm_eps must be positive"),
        ("base_voxel = inf", "base_voxel must be finite"),
    ])
    def test_non_finite_config_floats_exit_code(self, tmp_path, capsys, line, message):
        manifest = small_corpus(tmp_path, n_train=1, n_val=1, points=8)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TINY_TRAIN_CFG + line + "\n")
        assert main(["train", "--config", str(cfg), "--data", str(manifest), "--out", str(tmp_path / "m.ckpt")]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # no epoch line: the config is rejected before training
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ("scene_noise = -1", "noise_sigma must be >= 0"),
        ("scene_extent = 1.0", "extent must lie in (1.3, 1000] m"),
        ("scene_extent = 1e308", "extent must lie in (1.3, 1000] m"),
        ("scene_extent = nan", "extent must be finite"),
        ("scene_min_gap = nan", "min_gap must be finite"),
        ("scene_points_per_object = 1" + "0" * 30, "points_per_object must be <= 100000"),
    ])
    def test_bad_scene_spec_exit_code(self, tmp_path, capsys, line, message):
        spec = tmp_path / "spec.cfg"
        spec.write_text(line + "\n")
        corpus = tmp_path / "corpus"
        assert main(["synth", "--spec", str(spec), "--out", str(corpus), "--count", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not corpus.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("prefix, message", [
        (b"param backbone.enc0.0.bias ", "duplicate parameter 'backbone.enc0.0.bias'"),
        (b"cfg.seed=", "duplicate config key 'seed'"),
    ])
    def test_duplicate_checkpoint_names_exit_code(self, tmp_path, capsys, prefix, message):
        argv = self._edited_checkpoint_argv(tmp_path, lambda p: None)
        ckpt = Path(argv[2])
        raw = ckpt.read_bytes()
        start = raw.index(b"\n" + prefix) + 1
        end = raw.index(b"\n", start) + 1
        ckpt.write_bytes(raw[:end] + raw[start:end] + raw[end:])  # the line twice in a row
        line_no = raw.count(b"\n", 0, end) + 1
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line {line_no}: {message}\n", err

    def test_bad_checkpoint_exit_code(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path, n_train=0, n_val=1, points=8)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, build_model(small_model_cfg()).named_parameters(), {}, step=3)
        raw = ckpt.read_bytes()
        marker = raw.index(b"\npayload ")
        payload_line = raw[marker:raw.index(b"\n", marker + 1)]
        edits = [
            raw.replace(b"step=3", b"step=x"),
            raw.replace(payload_line, b"\npayload x"),
            raw[:raw.index(payload_line) + len(payload_line)],
            raw.replace(b"param backbone.enc0.0.bias 6 ", b"param backbone.enc0.0.bias 6 -"),
            raw.replace(MAGIC, b"semaffine-checkpoint v1"),
        ]
        for bad in edits:
            assert bad != raw
            ckpt.write_bytes(bad)
            assert main(["eval", "--ckpt", str(ckpt), "--data", str(manifest)]) == 1
            assert capsys.readouterr().err.startswith("error: line ")

    @staticmethod
    def _edited_checkpoint_argv(tmp_path, edit):
        """``eval`` arguments for a small model's checkpoint after ``edit(named parameters)``."""
        manifest = small_corpus(tmp_path, n_train=0, n_val=1, points=8)
        model_cfg, train_cfg = small_model_cfg(), TrainConfig()
        named = build_model(model_cfg, seed=train_cfg.seed).named_parameters()
        edit(dict(named))
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, named, snapshot(model_cfg, train_cfg), step=0)
        return ["eval", "--ckpt", str(ckpt), "--data", str(manifest)]

    @staticmethod
    def _huge_weights(params):  # finite, but their product overflows
        params["backbone.enc0.0.weight"].data[...] = 1e200
        params["backbone.enc0.1.weight"].data[...] = 1e200

    def test_non_finite_checkpoint_exit_code(self, tmp_path, capsys):
        assert main(self._edited_checkpoint_argv(tmp_path, lambda p: None)) == 0
        capsys.readouterr()

        def nan_weight(params):
            params["backbone.enc0.0.weight"].data[...] = np.nan

        assert main(self._edited_checkpoint_argv(tmp_path, nan_weight)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "backbone.enc0.0.weight has non-finite values" in err
        assert "Traceback" not in err

    def test_non_finite_logits_exit_code(self, tmp_path, capsys):
        assert main(self._edited_checkpoint_argv(tmp_path, self._huge_weights)) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite logits") and "Traceback" not in err

    @staticmethod
    def _cli_subprocess(argv, timeout=300, **kwargs):
        """``python -m semaffine.cli *argv`` in a fresh interpreter, output
        captured; its stdout is block-buffered, as for any pipe."""
        src = str(Path(semaffine.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run([sys.executable, "-m", "semaffine.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=timeout, **kwargs)

    def test_object_count_is_capped_at_the_boundary(self, tmp_path):
        # each placement scans every placed object: an uncapped count in a
        # 1000 m scene ran without end instead of failing validation
        spec = tmp_path / "spec.cfg"
        spec.write_text("scene_objects = 1000000000\nscene_extent = 1000\n")
        corpus = tmp_path / "corpus"
        proc = self._cli_subprocess(["synth", "--spec", str(spec), "--out", str(corpus), "--count", "1"], timeout=30)
        assert proc.returncode == 1 and proc.stdout == "" and not corpus.exists()
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0] == "error: scene spec: objects_per_scene must be <= 1000, got 1000000000", \
            proc.stderr

    def test_numeric_failure_is_the_only_stderr_line(self, tmp_path):
        # a fresh interpreter prints numpy's RuntimeWarnings unless the CLI silences them
        proc = self._cli_subprocess(self._edited_checkpoint_argv(tmp_path, self._huge_weights))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: non-finite logits"), proc.stderr

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity mask")
    def test_gradcheck_output_is_the_same_on_one_cpu(self):
        # a piped stdout is block-buffered, so a forked worker that flushed it
        # on exit would print the lines emitted before it again
        argv = ["gradcheck", "--module", "tensor"]
        proc = self._cli_subprocess(argv)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        names = [f"  {mod}.{name}  " for mod, name, *_ in iter_checks("tensor")]
        assert [sum(name in line for line in lines) for name in names] == [1] * len(names)
        assert len(lines) == len(names) + 1 and lines[-1] == "gradient suite passed"
        pinned = self._cli_subprocess(argv, preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}))
        assert pinned.returncode == 0, pinned.stderr
        assert pinned.stdout == proc.stdout

    def test_missing_data_exit_code(self, tmp_path):
        assert main(["eval", "--ckpt", str(tmp_path / "none.ckpt"),
                     "--data", str(tmp_path / "none.txt")]) == 1

    def test_bad_input_files_exit_code(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path, n_train=1, n_val=0, points=8)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TINY_TRAIN_CFG)
        argv = ["train", "--config", str(cfg), "--data", str(manifest), "--out", str(tmp_path / "m.ckpt")]
        scene = tmp_path / "scene_0.txt"
        lines = scene.read_text().splitlines()
        lines[2] = "nan 0 0 " + lines[2].split()[3]
        scene.write_text("\n".join(lines) + "\n")
        assert main(argv) == 1
        assert "finite" in capsys.readouterr().err

        manifest.write_bytes(b"scene_\xe9.txt\ttrain\n")
        assert main(argv) == 1
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + ["0 0 0 99999999999999999999"] + lines[3:], "line 3: label"),
        (lambda lines: lines + ["junk", "more junk"], "after the"),
        (lambda lines: lines[:2] + ["1e300 0 0 1"] + lines[3:], "off the voxel grid"),
    ], ids=["label-outside-int64", "trailing-lines", "huge-coordinate"])
    def test_boundary_scene_inputs_exit_code(self, tmp_path, capsys, edit, message):
        manifest = small_corpus(tmp_path, n_train=1, n_val=0, points=8)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TINY_TRAIN_CFG)
        scene = tmp_path / "scene_0.txt"
        scene.write_text("\n".join(edit(scene.read_text().splitlines())) + "\n")
        assert main(["train", "--config", str(cfg), "--data", str(manifest), "--out", str(tmp_path / "m.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_negative_synth_seed_exit_code(self, tmp_path):
        corpus = tmp_path / "corpus"
        proc = self._cli_subprocess(["synth", "--out", str(corpus), "--count", "1", "--seed", "-1"], timeout=30)
        assert proc.returncode == 1 and proc.stdout == "" and not corpus.exists()
        assert proc.stderr.splitlines() == ["error: --seed must be >= 0, got -1"], proc.stderr

    def test_negative_train_seed_exit_code(self, tmp_path):
        manifest = small_corpus(tmp_path, n_train=1, n_val=0, points=8)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TINY_TRAIN_CFG + "seed = -1\n")
        before = sorted(tmp_path.iterdir())
        proc = self._cli_subprocess(["train", "--config", str(cfg), "--data", str(manifest),
                                     "--out", str(tmp_path / "m.ckpt")], timeout=30)
        assert proc.returncode == 1 and proc.stdout == "" and sorted(tmp_path.iterdir()) == before
        assert proc.stderr.splitlines() == ["error: seed must be >= 0, got -1"], proc.stderr

    @pytest.mark.parametrize("key, value, message", [
        ("heads", "0", "heads must be >= 1, got 0"),
        ("heads", "-4", "heads must be >= 1, got -4"),
        ("d_h", "4000000000", "n_classes, d_h, d_m and level_dims must be <= 256"),
        ("encoder_depth", "100000000", "encoder_depth and decoder_depth must be <= 16"),
    ], ids=["zero-heads", "negative-heads", "huge-width", "huge-depth"])
    def test_bad_model_size_exit_code(self, tmp_path, key, value, message):
        # these ended in a ZeroDivisionError, a numpy concatenate or memory
        # traceback, or a build that ran past any timeout
        manifest = small_corpus(tmp_path, n_train=1, n_val=0, points=8)
        cfg = tmp_path / "train.cfg"
        kept = [line for line in TINY_TRAIN_CFG.splitlines() if not line.startswith(f"{key} =")]
        cfg.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
        before = sorted(tmp_path.iterdir())
        proc = self._cli_subprocess(["train", "--config", str(cfg), "--data", str(manifest),
                                     "--out", str(tmp_path / "m.ckpt")], timeout=30)
        assert proc.returncode == 1 and proc.stdout == "" and sorted(tmp_path.iterdir()) == before
        assert proc.stderr.splitlines() == [f"error: {message}"], proc.stderr

    @pytest.mark.parametrize("edit, message", [
        ((b"cfg.heads=2", b"cfg.heads=0"), "heads must be >= 1, got 0"),
        ((b"cfg.encoder_depth=1", b"cfg.encoder_depth=100000000"),
         "encoder_depth and decoder_depth must be <= 16"),
    ], ids=["zero-heads", "huge-depth"])
    def test_bad_model_size_in_checkpoint_exit_code(self, tmp_path, edit, message):
        argv = self._edited_checkpoint_argv(tmp_path, lambda params: None)
        ckpt = Path(argv[2])
        raw = ckpt.read_bytes()
        assert raw.count(edit[0] + b"\n") == 1
        ckpt.write_bytes(raw.replace(edit[0] + b"\n", edit[1] + b"\n"))
        proc = self._cli_subprocess(argv, timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {message}"], proc.stderr

    # an empty tuple entry once loaded as (6, 8, 10), and a checkpoint so
    # edited re-saved as other bytes
    EMPTY_ENTRIES = pytest.mark.parametrize("value", ["6,,8,10", "6,8,10,"], ids=["inner", "trailing"])

    @staticmethod
    def _empty_entry_error(value):
        return [f"error: bad value for 'level_dims': '{value}' (expected an ASCII decimal integer, got '')"]

    @EMPTY_ENTRIES
    def test_empty_tuple_entry_in_config_exit_code(self, tmp_path, capsys, value):
        manifest = small_corpus(tmp_path, n_train=1, n_val=0, points=8)
        cfg = tmp_path / "train.cfg"
        assert "level_dims = 6,8,10\n" in TINY_TRAIN_CFG
        cfg.write_text(TINY_TRAIN_CFG.replace("level_dims = 6,8,10\n", f"level_dims = {value}\n"))
        assert main(["train", "--config", str(cfg), "--data", str(manifest), "--out", str(tmp_path / "m.ckpt")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == self._empty_entry_error(value), err
        assert not (tmp_path / "m.ckpt").exists()

    @EMPTY_ENTRIES
    def test_empty_tuple_entry_in_checkpoint_exit_code(self, tmp_path, capsys, value):
        argv = self._edited_checkpoint_argv(tmp_path, lambda params: None)
        ckpt = Path(argv[2])
        raw = ckpt.read_bytes()
        assert raw.count(b"cfg.level_dims=6,8,10\n") == 1
        ckpt.write_bytes(raw.replace(b"cfg.level_dims=6,8,10\n", f"cfg.level_dims={value}\n".encode()))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == self._empty_entry_error(value), err

    @pytest.mark.parametrize("argv, message", [
        (["--module", "bogus"], "module must be one of tensor, blocks, hierarchy, affine, losses, model, got 'bogus'"),
        (["--tol", "nan"], "tol must be a finite number > 0, got nan"),
        (["--tol", "-1"], "tol must be a finite number > 0, got -1.0"),
        (["--tol", "0"], "tol must be a finite number > 0, got 0.0"),
        (["--tol", "inf"], "tol must be a finite number > 0, got inf"),
    ], ids=["module", "tol-nan", "tol-negative", "tol-zero", "tol-inf"])
    def test_gradcheck_bad_arguments_exit_code(self, capsys, argv, message):
        assert main(["gradcheck", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # rejected before the first check
        assert err == f"error: gradcheck {message}\n", err

    @pytest.mark.parametrize("argv, message", [
        (["train", "--out", "m.ckpt"], "semaffine train: error: the following arguments are required: --data"),
        (["eval", "--ckpt", "m.ckpt", "--data", "x", "--split", "bogus"],
         "semaffine eval: error: argument --split: invalid choice: 'bogus'"),
        (["ablate", "--seeds", "abc"], "semaffine ablate: error: argument --seeds: invalid int value: 'abc'"),
        (["ablate", "--seeds", "1_0"], "semaffine ablate: error: argument --seeds: invalid int value: '1_0'"),
        (["synth", "--out", "x", "--count", "1_0"],
         "semaffine synth: error: argument --count: invalid int value: '1_0'"),
        (["synth", "--out", "x", "--count", "2", "--seed", "\u0663"],
         "semaffine synth: error: argument --seed: invalid int value: '\u0663'"),
        (["synth", "--out", "x", "--count", "+2"], "semaffine synth: error: argument --count: invalid int value: '+2'"),
        (["gradcheck", "--tol", "1_0e-5"], "semaffine gradcheck: error: argument --tol: invalid float value: '1_0e-5'"),
        (["gradcheck", "--tol", "\u0661e-5"],
         "semaffine gradcheck: error: argument --tol: invalid float value: '\u0661e-5'"),
    ], ids=["train-without-data", "eval-bad-split", "ablate-bad-seeds", "ablate-underscore-seeds",
            "synth-underscore-count", "synth-arabic-indic-seed", "synth-plus-count", "gradcheck-underscore-tol",
            "gradcheck-arabic-indic-tol"])
    def test_usage_error_exit_code(self, capsys, argv, message):
        # 2 is the code of runtime and numeric failures; a bad command line is invalid input
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: semaffine {argv[0]} ") and err.splitlines()[-1].startswith(message), err

    def test_gradcheck_module_filter(self, capsys):
        assert main(["gradcheck", "--module", "losses"]) == 0
        out = capsys.readouterr().out
        assert "losses.cross_entropy" in out and "model.end_to_end" not in out

    def test_failing_gradient_check_exit_code(self, monkeypatch, capsys):
        """A check with a deliberately wrong backward (2x the gradient of a
        sum): its FAIL line, the failing parameter's line indented under it,
        and exit code 2."""
        def wrong_sum_checks(rng):
            x = Tensor([1.0, 2.0], requires_grad=True)

            def loss():
                return T._result(x.data.sum(), (x,), "bad_sum",
                                 lambda g: T._accumulate(x, 2.0 * np.full_like(x.data, float(g))), np.sum)

            yield Check("wrong_sum", loss, [("x", x)])

        monkeypatch.setitem(verify.CHECKS, "hierarchy", wrong_sum_checks)
        assert main(["gradcheck", "--module", "hierarchy"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "FAIL  hierarchy.wrong_sum  max_rel_err=3.333e-01  tol=1e-05  groups=1",
            "      FAIL  x  max_rel_err=3.333e-01  entries=2",
            "gradient suite FAILED",
        ]

    @pytest.mark.parametrize("option", ["--out", "--log"])
    def test_missing_output_directory_fails_before_training(self, tmp_path, capsys, monkeypatch, option):
        def unreached(*args, **kwargs):
            raise AssertionError("reached after a bad output path")

        monkeypatch.setattr(semaffine.train, "load_corpus", unreached)
        monkeypatch.setattr(semaffine.train, "train_model", unreached)
        missing = tmp_path / "missing" / "out"
        paths = {"--out": str(tmp_path / "m.ckpt"), "--log": str(tmp_path / "m.log"), option: str(missing)}
        argv = ["train", "--data", str(tmp_path / "manifest.txt")] + [x for item in paths.items() for x in item]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"I/O error: output directory of {missing} does not exist\n")
        assert sorted(tmp_path.iterdir()) == []

    def test_train_without_train_scenes_exit_code(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path, n_train=0, n_val=2, points=8)
        config = tmp_path / "tiny.cfg"
        config.write_text(TINY_TRAIN_CFG)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--data", str(manifest), "--out", str(ckpt)]) == 1
        assert capsys.readouterr() == ("", "error: train_model: no training scenes\n")
        assert not ckpt.exists()
