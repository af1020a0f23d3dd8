"""Run configuration: one flat plain-text format over every tunable.

Config files hold ``section.key = value`` lines (``#`` comments, blank lines
ignored); values parse by the field's default type, tuples as comma-separated
integers. Defaults reproduce the published hyperparameters (loss weights
4/0.2/0.5, learning rates 1e-4/1e-5, weight decay 1e-4, dropout 0.1,
non-object class weight 0.1, 25 queries, schedule drop factor 10). Unknown
keys are rejected, and a dump of the effective config re-parses to an
identical RunConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .data import SynthConfig
from .loss import LossWeights
from .model import ModelConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class OptimConfig:
    lr_transformer: float = 1e-4
    lr_backbone: float = 1e-5
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 0.1  # 0 disables clipping

    def __post_init__(self):
        # each check holds for the values accepted, so NaN fails it
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        for key in ("lr_transformer", "lr_backbone", "weight_decay", "clip_norm"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {getattr(self, key)}")


@dataclass(frozen=True)
class ScheduleConfig:
    epochs: int = 300
    drop_epochs: tuple[int, ...] = (200, 250)
    drop_factor: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "drop_epochs", tuple(self.drop_epochs))
        if any(b <= a for a, b in zip(self.drop_epochs, self.drop_epochs[1:])):
            raise ConfigError(f"drop_epochs must be strictly increasing, got {self.drop_epochs}")
        if self.drop_epochs and self.drop_epochs[-1] >= self.epochs:
            raise ConfigError(f"drop_epochs {self.drop_epochs} must stay below total epochs {self.epochs}")
        if self.drop_factor <= 0:
            raise ConfigError("drop_factor must be positive")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    checkpoint_every: int = 50
    eval_every: int = 1  # 0 disables during-training evaluation
    dataset: str = "synth"  # "synth" or a dataset-cache path
    val_dataset: str = "synth"  # "synth", "none", or a dataset-cache path
    val_samples: int = 200
    score_threshold: float = 0.5
    top_k: int = 0  # 0 keeps the score-threshold rule

    def __post_init__(self):
        if not self.batch_size >= 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.val_samples < 1:
            raise ConfigError(f"val_samples must be >= 1, got {self.val_samples}")
        if self.top_k < 0:
            raise ConfigError(f"top_k must be >= 0 (0 keeps the score-threshold rule), got {self.top_k}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    model: ModelConfig = ModelConfig()
    loss: LossWeights = LossWeights()
    optim: OptimConfig = OptimConfig()
    schedule: ScheduleConfig = ScheduleConfig()
    synth: SynthConfig = SynthConfig()
    train: TrainConfig = TrainConfig()


_SECTIONS = ("model", "loss", "optim", "schedule", "synth", "train")


def _parse_value(raw: str, default, key: str):
    raw = raw.strip()
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from e
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from e
    if isinstance(default, tuple):
        if raw == "":
            return ()
        try:
            return tuple(int(part) for part in raw.split(","))
        except ValueError as e:
            raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}") from e
    return raw


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
    for section, entries in pending.items():
        if not entries:
            continue
        if section == "run":
            unknown = set(entries) - {"seed"}
            if unknown:
                raise ConfigError(f"{where}: unknown key run.{unknown.pop()}")
            updates["seed"] = _parse_value(entries["seed"], run.seed, "run.seed")
            continue
        current = getattr(run, section)
        known = {f.name: getattr(current, f.name) for f in fields(current)}
        kwargs = {}
        for field_name, raw in entries.items():
            if field_name not in known:
                raise ConfigError(f"{where}: unknown key {section}.{field_name}")
            kwargs[field_name] = _parse_value(raw, known[field_name], f"{section}.{field_name}")
        try:
            updates[section] = replace(current, **kwargs)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"{where}: invalid {section} config: {e}") from e
    return replace(run, **updates) if updates else run


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
    if run.schedule.epochs < 1:
        raise ConfigError("schedule.epochs must be >= 1")
