"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or let the suite print
through captured output). Every criterion here finishes in well under its
stated budget. Criterion 6, the directional ablation, is pending and has no
test yet (ROADMAP item 5).
"""

import math
import time

import numpy as np
import pytest

from semaffine import blocks as B
from semaffine import tensor as T
from semaffine.affine import (
    AffineParams,
    ConfidenceMatrix,
    mask_confidences,
    predict_affine_params,
    predict_masks,
    semantic_affine_transform,
)
from semaffine.harness import TrainConfig
from semaffine.hierarchy import build_hierarchy, shadow_labels
from semaffine.model import ModelConfig, build_model, decode_queries, model_forward
from semaffine.scenes import SceneSpec, generate_scene, read_scene, write_scene
from semaffine.tensor import Tensor
from semaffine.train import prepare_scene, train_run
from semaffine.verify import run_suite


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        t0 = time.perf_counter()
        lines = []
        ok = run_suite(emit=lines.append)
        elapsed = time.perf_counter() - t0
        for line in lines:
            print("  " + line)
        report("1 gradient-suite", ok and elapsed <= 300,
               f"{len(lines)} checks in {elapsed:.1f}s, budget 300s")


class TestCriterion2ShadowOracle:
    def test_thousand_random_hierarchies(self):
        rng = np.random.default_rng(2001)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 257))
            levels = int(rng.integers(2, 5))
            n_classes = int(rng.integers(2, 9))
            coords = rng.uniform(-3, 3, (n, 3))
            hier = build_hierarchy(coords, float(rng.uniform(0.2, 1.5)), levels)
            labels = rng.integers(0, n_classes, n)
            level0 = np.eye(n_classes, dtype=np.uint8)[labels]  # the oracle's one-hot rows
            got = shadow_labels(hier, labels, n_classes)
            if sorted(got) != list(range(1, levels)):
                report("2 shadow-oracle", False, f"levels {sorted(got)}")
            # brute force: union over all finest-level descendants
            anc = np.arange(n)
            for level in range(levels - 1):
                anc = hier.parents[level][anc]
                expect = np.zeros((hier.sizes[level + 1], n_classes), dtype=np.uint8)
                for j in range(n):
                    expect[anc[j]] |= level0[j]
                if not np.array_equal(got[level + 1], expect):
                    report("2 shadow-oracle", False, f"mismatch at level {level + 1}")
        elapsed = time.perf_counter() - t0
        report("2 shadow-oracle", elapsed <= 60, f"1000 hierarchies in {elapsed:.1f}s, budget 60s")


class TestCriterion3AttentionOracle:
    def test_five_hundred_random_instances(self):
        rng = np.random.default_rng(3001)
        worst = 0.0
        for _ in range(500):
            heads = int(rng.integers(1, 5))
            d_k = int(rng.integers(1, 5))
            d = heads * d_k
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            p = B.init_attention(rng, heads=heads, model_dim=d)
            q_in = rng.standard_normal((m, d))
            kv = rng.standard_normal((n, d))
            out = B.multi_head_attention(p, Tensor(q_in), Tensor(kv))
            # direct dense evaluation per head
            parts = []
            for h in range(heads):
                rows = slice(h * d_k, (h + 1) * d_k)  # row block h of each stacked projection
                q = q_in @ p.q_proj.weight.data[rows].T + p.q_proj.bias.data[rows]
                k = kv @ p.k_proj.weight.data[rows].T + p.k_proj.bias.data[rows]
                v = kv @ p.v_proj.weight.data[rows].T + p.v_proj.bias.data[rows]
                scores = q @ k.T / math.sqrt(d_k)
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                parts.append((e / e.sum(axis=1, keepdims=True)) @ v)
            expect = np.concatenate(parts, axis=1) @ p.out_proj.weight.data.T + p.out_proj.bias.data
            worst = max(worst, float(np.abs(out.data - expect).max()))
        report("3 attention-oracle", worst <= 1e-10, f"max |diff| {worst:.2e} over 500 instances")


class TestCriterion4HardSoftConsistency:
    def test_five_hundred_one_hot_instances(self):
        rng = np.random.default_rng(4001)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(1, 10))
            n_classes = int(rng.integers(2, 7))
            d = int(rng.integers(1, 8))
            f = rng.standard_normal((n, d)) * 3
            scales = np.abs(rng.standard_normal((n_classes, d)))
            biases = rng.standard_normal((n_classes, d))
            hard = rng.integers(0, n_classes, n)
            probs = np.eye(n_classes)[hard].astype(float)
            conf = ConfidenceMatrix(logits=Tensor(probs), probs=Tensor(probs))
            out = semantic_affine_transform(
                Tensor(f), conf, AffineParams(Tensor(scales), Tensor(biases)))
            mu = f.mean(axis=1, keepdims=True)
            sig = np.sqrt(((f - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
            expect = scales[hard] * ((f - mu) / sig) + biases[hard]
            worst = max(worst, float(np.abs(out.data - expect).max()))
        report("4 hard-soft-consistency", worst <= 1e-12, f"max |diff| {worst:.2e}")


class TestCriterion5SymmetryCollapse:
    def test_identical_queries_and_affine_rows(self):
        cfg = ModelConfig(n_classes=4, level_dims=(8, 12, 16, 24), d_h=8, encoder_depth=1, heads=2)
        params = build_model(cfg, seed=5)
        params.queries.data[...] = params.queries.data[0]
        rng = np.random.default_rng(5001)
        memory = Tensor(rng.standard_normal((7, 24)))
        h_layers, h_final = decode_queries(params, memory, (0, memory.shape[0]))
        masks = predict_masks(h_final, params.mask_head)
        feats = Tensor(rng.standard_normal((11, 8)))
        identity = B.LinearParams(Tensor(np.eye(8)), Tensor(np.zeros(8)))
        conf = mask_confidences(masks, feats, identity)
        uniform_err = float(np.abs(conf.probs.data - 1.0 / cfg.n_classes).max())

        affine = predict_affine_params(h_layers[2], params.scale_heads[1], params.bias_heads[1])
        row_spread = max(float(np.abs(affine.scales.data - affine.scales.data[0]).max()),
                         float(np.abs(affine.biases.data - affine.biases.data[0]).max()))
        f_mid = Tensor(rng.standard_normal((9, cfg.level_dims[3])))
        conf_mid = mask_confidences(masks, Tensor(rng.standard_normal((9, 8))), identity)
        out = semantic_affine_transform(f_mid, conf_mid, affine)
        mu = f_mid.data.mean(axis=1, keepdims=True)
        sig = np.sqrt(((f_mid.data - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
        shared = affine.scales.data[0] * ((f_mid.data - mu) / sig) + affine.biases.data[0]
        transform_err = float(np.abs(out.data - shared).max())
        ok = uniform_err <= 1e-9 and row_spread <= 1e-9 and transform_err <= 1e-9
        report("5 symmetry-collapse", ok,
               f"uniformity {uniform_err:.2e}, row spread {row_spread:.2e}, transform {transform_err:.2e}")


class TestCriterion7LossSanity:
    def test_untrained_ce_near_ln4(self):
        cfg = ModelConfig(n_classes=4, level_dims=(16, 32, 48, 64), d_h=32, encoder_depth=1, heads=2,
                          base_voxel=0.4)
        spec = SceneSpec(points_per_object=128)
        worst = 0.0
        for seed in range(3):
            params = build_model(cfg, seed=seed)
            scene = prepare_scene(generate_scene(spec, seed=100 + seed), cfg)
            out = model_forward(params, scene.hier)
            ce = T.cross_entropy(out.final_logits, scene.cloud.labels).item()
            worst = max(worst, abs(ce - math.log(4.0)))
        report("7 loss-sanity", worst <= 0.1, f"max |CE - ln4| = {worst:.4f}")


class TestCriterion8Determinism:
    def test_byte_identical_runs(self, tmp_path):
        from semaffine.scenes import write_manifest

        spec = SceneSpec(points_per_object=48)
        entries = []
        for i in range(4):
            cloud = generate_scene(spec, seed=i)
            write_scene(cloud, tmp_path / f"s{i}.txt")
            entries.append((f"s{i}.txt", "train" if i < 3 else "val"))
        write_manifest(entries, tmp_path / "manifest.txt")
        cfg = ModelConfig(n_classes=4, level_dims=(6, 8, 10), d_h=8, encoder_depth=1, heads=2, base_voxel=0.8)
        blobs = []
        for run in range(2):
            ckpt = tmp_path / f"run{run}.ckpt"
            log = tmp_path / f"run{run}.log"
            train_run(tmp_path / "manifest.txt", cfg,
                      TrainConfig(epochs=2, batch_size=2, seed=11), ckpt, log_path=log)
            blobs.append((log.read_bytes(), ckpt.read_bytes()))
        ok = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
        report("8 determinism", ok,
               f"log {len(blobs[0][0])}B and checkpoint {len(blobs[0][1])}B identical across runs")


class TestCriterion9RoundTrips:
    def test_scene_and_checkpoint_second_writes(self, tmp_path):
        cloud = generate_scene(SceneSpec(points_per_object=64), seed=9)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_scene(cloud, p1)
        write_scene(read_scene(p1), p2)
        scene_ok = p1.read_bytes() == p2.read_bytes()

        from semaffine.checkpoint import load_checkpoint, restore_parameters, save_checkpoint
        cfg = ModelConfig(n_classes=3, level_dims=(4, 6, 8), d_h=4, encoder_depth=1, heads=2)
        params = build_model(cfg, seed=2)
        named = params.named_parameters()
        c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(c1, named, {"classes": 3, "base_lr": 0.02}, step=7)
        _, step, entries = load_checkpoint(c1)
        restore_parameters(named, entries)
        save_checkpoint(c2, named, {"classes": 3, "base_lr": 0.02}, step=step)
        ckpt_ok = c1.read_bytes() == c2.read_bytes()
        report("9 round-trips", scene_ok and ckpt_ok,
               f"scene bytes {'ok' if scene_ok else 'DIFFER'}, checkpoint bytes {'ok' if ckpt_ok else 'DIFFER'}")
