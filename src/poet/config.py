"""Run configuration: every config dataclass and one flat plain-text format over every tunable.

Config files hold ``section.key = value`` lines (``#`` comments, blank lines
ignored); values parse by the field's default type, tuples as comma-separated
integers. Defaults reproduce the published hyperparameters (loss weights
4/0.2/0.5, learning rates 1e-4/1e-5, weight decay 1e-4, dropout 0.1,
non-object class weight 0.1, 25 queries, schedule drop factor 10). Unknown
keys are rejected, and a dump of the effective config re-parses to an
identical RunConfig.

Each numeric field declares its admissible interval, e.g. ``[0, 1)``, beside it;
one checker enforces them all (every tuple element too) when a config is built,
and an open end at ``inf`` keeps floats finite. Rules tying fields together stay hand-written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace


class ConfigError(ValueError):
    pass


class BadDModel(ConfigError):
    pass


def _ranged(default, interval: str, nonempty: bool = False):
    """A field whose value, or each element of a tuple value, must lie in interval, e.g. "[0, 1)"."""
    return field(default=default, metadata={"range": interval, "nonempty": nonempty})


def _check(obj, section: str) -> None:
    """Raise ConfigError naming section.key for the first field of obj outside its declared range."""
    for f in (f for f in fields(obj) if "range" in f.metadata):
        interval, value = f.metadata["range"], getattr(obj, f.name)
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if f.metadata["nonempty"] and value == ():
            raise ConfigError(f"{section}.{f.name} needs at least one entry")
        for x in value if isinstance(value, tuple) else (value,):
            # each comparison holds for the values accepted, so NaN fails it
            if not ((lo < x if interval[0] == "(" else lo <= x) and (x < hi if interval[-1] == ")" else x <= hi)):
                what = f"{section}.{f.name}" + (" entries" if isinstance(value, tuple) else "")
                raise ConfigError(f"{what} must be in {interval}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = _ranged(64, "[4, inf)")
    enc_layers: int = _ranged(2, "[0, inf)")
    dec_layers: int = _ranged(2, "[1, inf)")
    heads: int = _ranged(4, "[1, inf)")
    num_queries: int = _ranged(25, "[1, inf)")
    num_keypoints: int = _ranged(5, "[1, inf)")
    image_channels: int = _ranged(3, "[1, inf)")
    backbone_channels: tuple[int, ...] = _ranged((16, 32, 64), "[1, inf)", nonempty=True)
    backbone_strides: tuple[int, ...] = _ranged((2, 2, 2), "[1, inf)", nonempty=True)
    ffn_hidden: int = _ranged(128, "[1, inf)")
    dropout: float = _ranged(0.1, "[0, 1)")

    def __post_init__(self):
        object.__setattr__(self, "backbone_channels", tuple(self.backbone_channels))
        object.__setattr__(self, "backbone_strides", tuple(self.backbone_strides))
        _check(self, "model")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"model.d_model {self.d_model} not divisible by model.heads {self.heads}")
        if self.d_model % 4 != 0:
            raise BadDModel(f"model.d_model must be divisible by 4 for the 2D positional encoding, got {self.d_model}")
        if len(self.backbone_channels) != len(self.backbone_strides):
            raise ConfigError("model.backbone_channels and model.backbone_strides must have equal length")

    @property
    def total_stride(self) -> int:
        return math.prod(self.backbone_strides)

    @staticmethod
    def paper_scale() -> "ModelConfig":
        return ModelConfig(
            d_model=256,
            enc_layers=6,
            dec_layers=6,
            heads=8,
            num_queries=25,
            num_keypoints=17,
            backbone_channels=(32, 64, 128, 256, 256),
            backbone_strides=(2, 2, 2, 2, 2),
            ffn_hidden=512,
        )


@dataclass(frozen=True)
class LossWeights:
    lambda_l1: float = _ranged(4.0, "[0, inf)")
    lambda_l2: float = _ranged(0.2, "[0, inf)")
    lambda_ctr: float = _ranged(0.5, "[0, inf)")
    nonobject_class_weight: float = _ranged(0.1, "[0, inf)")

    def __post_init__(self):
        _check(self, "loss")


@dataclass(frozen=True)
class OptimConfig:
    lr_transformer: float = _ranged(1e-4, "[0, inf)")
    lr_backbone: float = _ranged(1e-5, "[0, inf)")
    weight_decay: float = _ranged(1e-4, "[0, inf)")
    beta1: float = _ranged(0.9, "[0, 1)")
    beta2: float = _ranged(0.999, "[0, 1)")
    eps: float = _ranged(1e-8, "(0, inf)")
    clip_norm: float = _ranged(0.1, "[0, inf)")  # 0 disables clipping

    def __post_init__(self):
        _check(self, "optim")


@dataclass(frozen=True)
class ScheduleConfig:
    epochs: int = _ranged(300, "[1, inf)")
    drop_epochs: tuple[int, ...] = _ranged((200, 250), "[1, inf)")
    drop_factor: float = _ranged(10.0, "(0, inf)")

    def __post_init__(self):
        object.__setattr__(self, "drop_epochs", tuple(self.drop_epochs))
        _check(self, "schedule")
        if any(b <= a for a, b in zip(self.drop_epochs, self.drop_epochs[1:])):
            raise ConfigError(f"schedule.drop_epochs must be strictly increasing, got {self.drop_epochs}")
        if self.drop_epochs and self.drop_epochs[-1] >= self.epochs:
            raise ConfigError(f"schedule.drop_epochs {self.drop_epochs} must stay below total epochs {self.epochs}")


@dataclass(frozen=True)
class SynthConfig:
    num_samples: int = _ranged(2000, "[1, inf)")
    image_size: int = _ranged(64, "[12, inf)")  # the margin rule needs 12 px at the smallest template and blob
    num_keypoints: int = _ranged(5, "[1, inf)")
    min_instances: int = _ranged(1, "[1, inf)")
    max_instances: int = _ranged(3, "[1, inf)")
    occlusion: float = _ranged(0.2, "[0, 1]")
    blob_radius: float = _ranged(3.0, "[1, inf)")
    template_scale: float = _ranged(0.18, "[0.05, 0.45]")  # keypoint ring radius as a fraction of image size
    channels: int = _ranged(3, "[1, inf)")
    seed: int = _ranged(0, "[0, inf)")

    def __post_init__(self):
        _check(self, "synth")
        if self.min_instances > self.max_instances:
            raise ConfigError(f"synth.min_instances {self.min_instances} exceeds synth.max_instances {self.max_instances}")
        if self.image_size - self.margin < self.margin:
            raise ConfigError(f"a {self.image_size}px image cannot hold an instance {self.margin:g}px from every border")

    @property
    def margin(self) -> float:
        """Smallest distance of an instance's base point from the image border, in pixels."""
        return self.template_scale * float(self.image_size) + self.blob_radius + 4.0


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = _ranged(16, "[1, inf)")
    checkpoint_every: int = _ranged(50, "[0, inf)")  # 0 writes only the final checkpoint
    eval_every: int = _ranged(1, "[0, inf)")  # 0 disables during-training evaluation
    dataset: str = "synth"  # "synth" or a dataset-cache path
    val_dataset: str = "synth"  # "synth", "none", or a dataset-cache path
    val_samples: int = _ranged(200, "[1, inf)")
    score_threshold: float = _ranged(0.5, "[0, 1]")
    top_k: int = _ranged(0, "[0, inf)")  # 0 keeps the score-threshold rule

    def __post_init__(self):
        _check(self, "train")


@dataclass(frozen=True)
class RunConfig:
    seed: int = _ranged(0, "[0, inf)")
    model: ModelConfig = ModelConfig()
    loss: LossWeights = LossWeights()
    optim: OptimConfig = OptimConfig()
    schedule: ScheduleConfig = ScheduleConfig()
    synth: SynthConfig = SynthConfig()
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        _check(self, "run")


_SECTIONS = ("model", "loss", "optim", "schedule", "synth", "train")
_EXPECTED = {int: "an integer", float: "a number", tuple: "comma-separated integers"}


def _parse_value(raw: str, default, key: str):
    raw, kind = raw.strip(), type(default)
    try:
        if kind is tuple:
            return tuple(int(part) for part in raw.split(",")) if raw else ()
        return kind(raw)
    except ValueError as e:
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}") from e


def _collect(lines, where: str) -> dict[str, dict[str, str]]:
    pending: dict[str, dict[str, str]] = {name: {} for name in ("run", *_SECTIONS)}
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{where}:{line_no}: expected 'section.key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key == "seed":
            key = "run.seed"
        if "." not in key:
            raise ConfigError(f"{where}:{line_no}: key {key!r} has no section")
        section, field_name = key.split(".", 1)
        if section not in pending:
            raise ConfigError(f"{where}:{line_no}: unknown section {section!r}")
        pending[section][field_name] = raw
    return pending


def _apply(run: RunConfig, pending: dict[str, dict[str, str]], where: str) -> RunConfig:
    updates = {}
    try:
        for section, entries in pending.items():
            current = run if section == "run" else getattr(run, section)
            known = {f.name: getattr(current, f.name) for f in fields(current) if f.name not in _SECTIONS}
            kwargs = {}
            for field_name, raw in entries.items():
                if field_name not in known:
                    raise ConfigError(f"unknown key {section}.{field_name}")
                kwargs[field_name] = _parse_value(raw, known[field_name], f"{section}.{field_name}")
            if section == "run":
                updates.update(kwargs)
            elif kwargs:
                updates[section] = replace(current, **kwargs)
        return replace(run, **updates) if updates else run
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from e


def parse_config(text: str, base: RunConfig | None = None, where: str = "<config>") -> RunConfig:
    return _apply(base or RunConfig(), _collect(text.splitlines(), where), where)


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base, where=path)


def apply_overrides(run: RunConfig, overrides) -> RunConfig:
    """Apply repeated --set section.key=value arguments."""
    return _apply(run, _collect(list(overrides), "--set"), "--set")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(run: RunConfig) -> str:
    """Every effective key, one per line; re-parsing the dump reproduces the config."""
    lines = [f"run.seed = {run.seed}"]
    for section in _SECTIONS:
        obj = getattr(run, section)
        for f in fields(obj):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def validate_for_training(run: RunConfig) -> None:
    """Cross-section constraints checked before a training run starts."""
    if run.train.dataset == "synth" and run.synth.max_instances > run.model.num_queries:
        raise ConfigError(
            f"synth.max_instances = {run.synth.max_instances} exceeds the model's "
            f"{run.model.num_queries} prediction slots; every instance needs a slot"
        )
