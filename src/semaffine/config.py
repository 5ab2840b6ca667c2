"""Line-oriented ``key = value`` configuration files with ``#`` comments.

One file can carry model, training, and scene-generation settings; unknown
keys are errors. ``config_from(values, cls)`` reads any of the four config
classes through the one ``{class: keys}`` table, and the model and training
keys round-trip through checkpoint snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, ascii_float, ascii_int, read_utf8
from .harness import TrainConfig
from .model import ModelConfig
from .scenes import SceneSpec


@dataclass
class ExtraConfig:
    """The keys that are neither model, training nor scene settings."""

    val_fraction: float = 0.2  # share of the scenes ``synth`` tags val
    ablate_train_scenes: int = 200
    ablate_val_scenes: int = 50

    def validate(self):
        if not 0 <= self.val_fraction <= 1:
            raise ConfigError(f"val_fraction must be in [0, 1], got {self.val_fraction!r}")
        for key in ("ablate_train_scenes", "ablate_val_scenes"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")


def _to_int(s: str) -> int:
    """ASCII digits with an optional ``-``, so that ``validate`` reports negative values."""
    return ascii_int(s, signed=True)


def _to_int_tuple(s: str) -> tuple:
    """Comma-separated integers; an empty entry (``6,,8``, ``6,8,``) is a ValueError."""
    return tuple(_to_int(x.strip()) for x in s.split(","))


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
    converter follows the type of the field's default (int, float, str, tuple)."""
    converters = {int: _to_int, float: ascii_float, tuple: _to_int_tuple}
    out = {}
    for f in fields(config_class):
        conv = converters.get(type(f.default), type(f.default))
        out[_RENAMED.get(f.name, f.name)] = (f.name, conv)
    return out


# config class -> its config-file keys
KEYS = {cls: _keys(cls) for cls in (ModelConfig, TrainConfig, SceneSpec, ExtraConfig)}
KNOWN_KEYS = set().union(*KEYS.values())


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


def config_from(values: dict[str, str], cls):
    """A validated ``cls`` with the fields that ``values`` names set and the rest at their defaults."""
    cfg = cls()
    for key, (attr, conv) in KEYS[cls].items():
        if key in values:
            try:
                setattr(cfg, attr, conv(values[key]))
            except ValueError as e:
                raise ConfigError(f"bad value for {key!r}: {values[key]!r} ({e})") from e
    cfg.validate()
    return cfg


def snapshot(model_cfg: ModelConfig, train_cfg: TrainConfig) -> dict:
    """Config snapshot for checkpoints, in config-file key space."""
    out = {}
    for cfg in (model_cfg, train_cfg):
        for key, (attr, _) in KEYS[type(cfg)].items():
            out[key] = getattr(cfg, attr)
    return out


def configs_from_snapshot(values: dict[str, str]) -> tuple[ModelConfig, TrainConfig]:
    unknown = set(values) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"snapshot has unknown keys: {sorted(unknown)}")
    return config_from(values, ModelConfig), config_from(values, TrainConfig)
