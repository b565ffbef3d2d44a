"""Run configuration: one JSON file drives every CLI command.

All defaults are embedded here and dumped by ``--print-config``; a parsed
config round-trips exactly through serialize/parse.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .fileio import read_json

# Default augmentation pairs for the 68-point landmark convention: jaw
# contour to nose/eye-corner/mouth anchors, covering the cheeks the base
# convention leaves empty. 15 pairs -> 83 landmarks from 68.
DEFAULT_AUGMENT_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 36), (2, 36), (3, 36), (2, 31), (3, 31), (4, 48), (5, 48),
    (15, 45), (14, 45), (13, 45), (14, 35), (13, 35), (12, 54), (11, 54),
    (8, 57),
)


@dataclass
class PathsConfig:
    input_dir: str | None = None
    output_dir: str = "facegcn_out"
    manifest: str | None = None  # default: <output_dir>/manifest.json
    checkpoint: str | None = None  # default: <output_dir>/checkpoint_final.fgc
    labels_file: str | None = None  # default: <input_dir>/labels.json


@dataclass
class FeatureConfig:
    k: int = 25
    landmark_source: str = "lm2"  # lm2: uv files lifted via texture; lm3: 3D snapped
    augmentation_pairs: tuple[tuple[int, int], ...] = DEFAULT_AUGMENT_PAIRS
    scale_normalize: bool = False


@dataclass
class GraphConfig:
    strategy: str = "knn"
    knn_m: int = 4
    template_pairs: tuple[tuple[int, int], ...] = ()
    partition: str = "distance"


@dataclass
class ModelConfig:
    block_channels: tuple[int, ...] = (64, 128, 256)
    strides: tuple[int, ...] = (1, 2, 2)
    kernel_size: int = 5
    graph_conv_bias: bool = True
    residual: bool = True


@dataclass
class OptimConfig:
    base_lr: float = 0.01
    momentum: float = 0.95
    weight_decay: float = 1e-4
    decay_epochs: tuple[int, ...] = (30, 45)
    gamma: float = 0.3


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 8
    train_emotions: tuple[int, ...] = (0, 1, 2)


@dataclass
class SynthSection:
    n_identities: int = 10
    emotions: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    frames: int = 24
    grid: int = 24
    landmark_grid: int = 4
    identity_amplitude: float = 0.18
    expression_amplitude: float = 0.035


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthSection = field(default_factory=SynthSection)
    seed: int = 7

    # resolved paths -------------------------------------------------------
    @property
    def output_dir(self) -> Path:
        return Path(self.paths.output_dir)

    @property
    def manifest_path(self) -> Path:
        return Path(self.paths.manifest) if self.paths.manifest else self.output_dir / "manifest.json"

    @property
    def checkpoint_path(self) -> Path:
        if self.paths.checkpoint:
            return Path(self.paths.checkpoint)
        return self.output_dir / "checkpoint_final.fgc"

    def validate(self) -> None:
        f, g, m, o, t, s = self.features, self.graph, self.model, self.optim, self.train, self.synth
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if f.k < 1:
            raise ConfigError(f"features.k must be >= 1, got {f.k}")
        if f.landmark_source not in ("lm2", "lm3"):
            raise ConfigError(f"features.landmark_source must be lm2 or lm3, got {f.landmark_source!r}")
        for a, b in f.augmentation_pairs:
            if a == b:
                raise ConfigError(f"augmentation pair ({a}, {b}) is degenerate")
        if g.strategy not in ("knn", "template"):
            raise ConfigError(f"graph.strategy must be knn or template, got {g.strategy!r}")
        if g.knn_m < 1:
            raise ConfigError("graph.knn_m must be >= 1")
        if g.partition not in ("uniform", "distance"):
            raise ConfigError(f"graph.partition must be uniform or distance, got {g.partition!r}")
        if len(m.block_channels) != len(m.strides) or not m.block_channels:
            raise ConfigError("model.block_channels and model.strides must be equal-length, non-empty")
        if any(c < 1 for c in m.block_channels) or any(st < 1 for st in m.strides):
            raise ConfigError("model channels and strides must be positive")
        if m.kernel_size < 1 or m.kernel_size % 2 == 0:
            raise ConfigError(f"model.kernel_size must be odd and positive, got {m.kernel_size}")
        if o.base_lr <= 0:
            raise ConfigError(f"optim.base_lr must be > 0, got {o.base_lr}")
        if not (0 <= o.momentum < 1):
            raise ConfigError("optim.momentum must be in [0, 1)")
        if o.weight_decay < 0 or o.gamma <= 0:
            raise ConfigError("optim.weight_decay must be >= 0 and gamma > 0")
        if t.epochs < 0 or t.batch_size < 1:
            raise ConfigError("train.epochs must be >= 0 and batch_size >= 1")
        if not t.train_emotions:
            raise ConfigError("train.train_emotions must be non-empty")
        if s.n_identities < 2 or s.frames < 1 or s.grid < 2:
            raise ConfigError("synth needs n_identities >= 2, frames >= 1, grid >= 2")
        if not (1 <= s.landmark_grid <= s.grid):
            raise ConfigError("synth.landmark_grid must be within the mesh grid")
        if not s.emotions or any(not (0 <= e < 6) for e in s.emotions):
            raise ConfigError("synth.emotions must be a non-empty subset of 0..5")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(v) -> bool:
    return isinstance(v, (list, tuple)) and all(_is_int(x) for x in v)


# the check and wording of a JSON value, by the annotation of the field it fills
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[int, ...]": (_is_ints, "a list of integers"),
    "tuple[tuple[int, int], ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(_is_ints(p) and len(p) == 2 for p in v),
        "a list of [int, int] pairs"),
}


def _tuples(v):
    return tuple(map(_tuples, v)) if isinstance(v, (list, tuple)) else v


def _field_value(where: str, annotation: str, v):
    """``v``, its lists made tuples; ConfigError unless it has the ``annotation`` type."""
    ok, kind = _FIELD_TYPES[annotation]
    if not ok(v):
        raise ConfigError(f"{where} must be {kind}, got {v!r}")
    return _tuples(v)


def _from_dict(cls, data: dict, prefix: str = ""):
    """``cls`` from ``data``; a field with a default factory is a nested section."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        f = fields.get(key)
        if f is None:
            raise ConfigError(f"unknown key {prefix}{key}" if prefix
                              else f"unknown config section {key!r}")
        if f.default_factory is dataclasses.MISSING:
            kwargs[key] = _field_value(prefix + key, f.type, value)
        elif isinstance(value, dict):
            kwargs[key] = _from_dict(f.default_factory, value, f"{prefix}{key}.")
        else:
            raise ConfigError(f"config section {key!r} must be an object, got {value!r}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return _from_dict(RunConfig, data)


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n"


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cfg = config_from_dict(read_json(path))
    cfg.validate()
    return cfg
