"""Seeded fuzz of the checkpoint, config, scene and manifest parsers: every
mutated input loads or raises a ``SemaffineError`` subclass (which the CLI
turns into exit code 1), never another exception."""

from pathlib import Path

import numpy as np
import pytest

from semaffine.checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from semaffine.config import KEYS, KNOWN_KEYS, config_from, configs_from_snapshot, parse_config_text, snapshot
from semaffine.errors import SemaffineError
from semaffine.harness import TrainConfig
from semaffine.model import ModelConfig
from semaffine.scenes import SceneSpec, generate_scene, read_manifest, read_scene, write_manifest, write_scene
from semaffine.tensor import Tensor
from semaffine.train import load_corpus

# bytes that keep a manifest line close to parseable: digits, separators, signs
MANIFEST_BYTES = b"0123456789,.- =\n\xffe"


def _params(seed):
    rng = np.random.default_rng(seed)
    return [
        ("a.weight", Tensor(rng.standard_normal((3, 2)), requires_grad=True)),
        ("a.bias", Tensor(rng.standard_normal(3), requires_grad=True)),
        ("b", Tensor(rng.standard_normal(()), requires_grad=True)),
    ]


def _mutate(rng, raw: bytes) -> bytes:
    """One to three byte flips, deletions or insertions at random positions."""
    out = bytearray(raw)
    for _ in range(rng.integers(1, 4)):
        pos = int(rng.integers(0, len(out) + 1))
        kind = rng.integers(3)
        if kind == 0 and pos < len(out):
            out[pos] = int(rng.integers(256)) if rng.random() < 0.3 else rng.choice(list(MANIFEST_BYTES))
        elif kind == 1:
            del out[pos:pos + int(rng.integers(1, 9))]
        else:
            out[pos:pos] = bytes(rng.choice(list(MANIFEST_BYTES), size=int(rng.integers(1, 5))).tolist())
    return bytes(out)


def test_mutated_checkpoints_load_or_raise_package_errors(tmp_path):
    cfg = ModelConfig(level_dims=(6, 8, 10), d_h=8, encoder_depth=1, heads=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _params(0), snapshot(cfg, TrainConfig()), step=7)
    raw = path.read_bytes()
    rng = np.random.default_rng(2024)
    outcomes = {"loaded": 0, "rejected": 0}
    for i in range(1500):
        mutated = _mutate(rng, raw)
        path.write_bytes(mutated)
        try:
            config, _, entries = load_checkpoint(path)
            configs_from_snapshot(config)
            restore_parameters(_params(1), entries)
            outcomes["loaded"] += 1
        except SemaffineError:
            outcomes["rejected"] += 1
        except Exception as e:
            pytest.fail(f"mutation {i} raised {type(e).__name__}: {e}\n{mutated!r}")
    assert all(outcomes.values()), outcomes  # both paths ran


BASE_CONFIG = """\
classes = 4
level_dims = 6,8,10
d_h = 8
heads = 2
encoder_depth = 1
classifier = mask
affine = sa
epochs = 2
batch_size = 2
base_lr = 0.02
seed = 3
scene_objects = 4
scene_points_per_object = 20
val_fraction = 0.2
"""

# small, zero, negative, huge, non-finite and malformed values
VALUES = ["0", "-1", "-4", "1", "2", "3", "7", "64", "4000000000", "100000000", "9" * 40, "1e308", "1e-300",
          "nan", "inf", "-inf", "", "abc", "0.5", "-0.0", "2,3", "8,16,24,32", "6,8,1000000", "0,0,0", "-8,16",
          "mask", "fc", "sa", "bn", "adain", "1,,2"]
BOUNDARY_EDITS = [("heads", "0"), ("heads", "-4"), ("d_h", "4000000000"), ("encoder_depth", "100000000"),
                  ("level_dims", ",".join(["8"] * 16)), ("level_dims", "6,8,4000000000")]


def _mutate_config(rng, lines: list[str]) -> list[str]:
    """Set, drop, duplicate or garble one to three ``key = value`` lines."""
    lines = list(lines)
    keys = sorted(KNOWN_KEYS)
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(5)
        if kind <= 1:
            key, value = keys[rng.integers(len(keys))], VALUES[rng.integers(len(VALUES))]
            lines = [line for line in lines if not line.startswith(f"{key} =")] + [f"{key} = {value}"]
        elif kind == 2 and lines:
            del lines[rng.integers(len(lines))]
        elif kind == 3 and lines:
            lines.append(lines[rng.integers(len(lines))])
        elif lines:
            i = rng.integers(len(lines))
            cut = rng.integers(len(lines[i]) + 1)
            lines[i] = lines[i][:cut] + rng.choice(["=", "#", "x", " ", "1"]) + lines[i][cut:]
    return lines


def test_mutated_configs_load_or_raise_package_errors():
    base = BASE_CONFIG.splitlines()
    texts = ["\n".join([line for line in base if not line.startswith(f"{key} =")] + [f"{key} = {value}"])
             for key, value in BOUNDARY_EDITS]
    rng = np.random.default_rng(7)
    texts += ["\n".join(_mutate_config(rng, base)) for _ in range(2000)]
    outcomes = {"loaded": 0, "rejected": 0}
    for i, text in enumerate(texts):
        try:
            values = parse_config_text(text)
            for cls in KEYS:
                config_from(values, cls)
            outcomes["loaded"] += 1
        except SemaffineError:
            outcomes["rejected"] += 1
        except Exception as e:
            pytest.fail(f"config {i} raised {type(e).__name__}: {e}\n{text}")
    assert all(outcomes.values()), outcomes  # both paths ran


def _fuzz(rng, raw: bytes, path: Path, load, count: int) -> dict:
    """Write ``count`` mutations of ``raw`` to ``path`` and ``load()`` each."""
    outcomes = {"loaded": 0, "rejected": 0}
    for i in range(count):
        mutated = _mutate(rng, raw)
        path.write_bytes(mutated)
        try:
            load()
            outcomes["loaded"] += 1
        except SemaffineError:
            outcomes["rejected"] += 1
        except Exception as e:
            pytest.fail(f"mutation {i} raised {type(e).__name__}: {e}\n{mutated!r}")
    return outcomes


def _small_corpus(tmp_path) -> Path:
    spec = SceneSpec(objects_per_scene=3, points_per_object=8)
    for i in range(2):
        write_scene(generate_scene(spec, seed=i), tmp_path / f"s{i}.txt")
    manifest = tmp_path / "manifest.txt"
    write_manifest([("s0.txt", "train"), ("s1.txt", "val")], manifest)
    return manifest


SMALL_MODEL = ModelConfig(level_dims=(6, 8, 10), d_h=8, encoder_depth=1, heads=2)


def test_mutated_scenes_load_or_raise_package_errors(tmp_path):
    manifest = _small_corpus(tmp_path)
    scene = tmp_path / "s0.txt"

    def load():
        read_scene(scene)
        load_corpus(manifest, SMALL_MODEL)

    outcomes = _fuzz(np.random.default_rng(11), scene.read_bytes(), scene, load, 400)
    assert all(outcomes.values()), outcomes  # both paths ran


def test_mutated_manifests_load_or_raise_package_errors(tmp_path):
    manifest = _small_corpus(tmp_path)

    def load():
        entries = read_manifest(manifest)
        try:
            load_corpus(manifest, SMALL_MODEL)
        except OSError:
            # a mutated path that names no scene file: an I/O error, which the
            # CLI reports as exit 1 like a missing manifest; anything else fails
            assert not all((tmp_path / path).is_file() for path, _ in entries)
            raise SemaffineError("missing scene file") from None

    outcomes = _fuzz(np.random.default_rng(12), manifest.read_bytes(), manifest, load, 400)
    assert all(outcomes.values()), outcomes
