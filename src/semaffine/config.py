"""Line-oriented ``key = value`` configuration files with ``#`` comments.

One file can carry model, training, and scene-generation settings; unknown
keys are errors. The same key set round-trips through checkpoint snapshots.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError, read_utf8
from .harness import TrainConfig
from .model import ModelConfig
from .scenes import SceneSpec


def _to_int_tuple(s: str) -> tuple:
    return tuple(int(x) for x in s.split(",") if x.strip())


# config-file keys that are not the name of the field they set
_RENAMED = {
    "n_classes": "classes",
    "objects_per_scene": "scene_objects",
    "points_per_object": "scene_points_per_object",
    "noise_sigma": "scene_noise",
    "min_gap": "scene_min_gap",
    "extent": "scene_extent",
}


def _keys(config_class) -> dict:
    """Config-file key -> (field name, converter), in field order; the
    converter is the type of the field's default (int, float, str, tuple)."""
    out = {}
    for f in fields(config_class):
        conv = _to_int_tuple if isinstance(f.default, tuple) else type(f.default)
        out[_RENAMED.get(f.name, f.name)] = (f.name, conv)
    return out


MODEL_KEYS = _keys(ModelConfig)
TRAIN_KEYS = _keys(TrainConfig)
SCENE_KEYS = _keys(SceneSpec)

EXTRA_KEYS = {"val_fraction": float, "ablate_train_scenes": int, "ablate_val_scenes": int}

KNOWN_KEYS = set(MODEL_KEYS) | set(TRAIN_KEYS) | set(SCENE_KEYS) | set(EXTRA_KEYS)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {i}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source} line {i}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source} line {i}: duplicate key {key!r}")
        values[key] = value
    return values


def parse_config_file(path) -> dict[str, str]:
    return parse_config_text(read_utf8(path), source=str(path))


def _convert(values: dict[str, str], key: str, conv):
    try:
        return conv(values[key])
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {values[key]!r} ({e})") from e


def _apply(values: dict[str, str], keymap: dict, target):
    for key, (attr, conv) in keymap.items():
        if key in values:
            setattr(target, attr, _convert(values, key, conv))
    return target


def model_config_from(values: dict[str, str]) -> ModelConfig:
    cfg = _apply(values, MODEL_KEYS, ModelConfig())
    cfg.validate()
    return cfg


def train_config_from(values: dict[str, str]) -> TrainConfig:
    cfg = _apply(values, TRAIN_KEYS, TrainConfig())
    cfg.validate()
    return cfg


def scene_spec_from(values: dict[str, str]) -> SceneSpec:
    spec = _apply(values, SCENE_KEYS, SceneSpec())
    spec.validate()
    return spec


def extra_from(values: dict[str, str]) -> dict:
    out = {"val_fraction": 0.2, "ablate_train_scenes": 200, "ablate_val_scenes": 50}
    for key, conv in EXTRA_KEYS.items():
        if key in values:
            out[key] = _convert(values, key, conv)
    if not 0 <= out["val_fraction"] <= 1:
        raise ConfigError(f"val_fraction must be in [0, 1], got {out['val_fraction']!r}")
    for key in ("ablate_train_scenes", "ablate_val_scenes"):
        if out[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {out[key]}")
    return out


def snapshot(model_cfg: ModelConfig, train_cfg: TrainConfig) -> dict:
    """Config snapshot for checkpoints, in config-file key space."""
    out = {}
    for key, (attr, _) in MODEL_KEYS.items():
        out[key] = getattr(model_cfg, attr)
    for key, (attr, _) in TRAIN_KEYS.items():
        out[key] = getattr(train_cfg, attr)
    return out


def configs_from_snapshot(values: dict[str, str]) -> tuple[ModelConfig, TrainConfig]:
    unknown = set(values) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"snapshot has unknown keys: {sorted(unknown)}")
    return model_config_from(values), train_config_from(values)
