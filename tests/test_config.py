import math
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poet import config
from poet.config import (
    ConfigError,
    LossWeights,
    ModelConfig,
    OptimConfig,
    RunConfig,
    ScheduleConfig,
    SynthConfig,
    TrainConfig,
    apply_overrides,
    dump_config,
    load_config,
    parse_config,
    validate_for_training,
)


def test_defaults_reproduce_published_hyperparameters():
    run = RunConfig()
    assert run.loss.lambda_l1 == 4.0
    assert run.loss.lambda_l2 == 0.2
    assert run.loss.lambda_ctr == 0.5
    assert run.loss.nonobject_class_weight == 0.1
    assert run.optim.lr_transformer == 1e-4
    assert run.optim.lr_backbone == 1e-5
    assert run.optim.weight_decay == 1e-4
    assert run.model.dropout == 0.1
    assert run.model.num_queries == 25
    assert run.schedule.drop_factor == 10.0
    assert run.schedule.drop_epochs == (200, 250)
    assert run.optim.betas if hasattr(run.optim, "betas") else (run.optim.beta1, run.optim.beta2) == (0.9, 0.999)


def test_parse_sections_and_types():
    run = parse_config(
        """
        # comment
        run.seed = 9
        model.d_model = 32
        model.backbone_strides = 2,2
        model.backbone_channels = 8,16
        loss.lambda_l1 = 2.5
        schedule.drop_epochs = 10,20
        schedule.epochs = 30
        train.dataset = /tmp/cache.bin
        """
    )
    assert run.seed == 9
    assert run.model.d_model == 32
    assert run.model.backbone_strides == (2, 2)
    assert run.loss.lambda_l1 == 2.5
    assert run.schedule.drop_epochs == (10, 20)
    assert run.train.dataset == "/tmp/cache.bin"


def test_parse_empty_tuple_and_bare_seed():
    run = parse_config("schedule.drop_epochs =\nseed = 4\n")
    assert run.schedule.drop_epochs == ()
    assert run.seed == 4


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key model.banana"):
        parse_config("model.banana = 1")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("fruit.banana = 1")
    with pytest.raises(ConfigError, match="no section"):
        parse_config("banana = 1")


def test_type_errors_carry_key():
    with pytest.raises(ConfigError, match="model.d_model"):
        parse_config("model.d_model = small")


def test_schedule_validation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config("schedule.drop_epochs = 20,10\nschedule.epochs = 30")
    with pytest.raises(ConfigError, match="below total epochs"):
        parse_config("schedule.drop_epochs = 10,40\nschedule.epochs = 30")


def test_an_empty_backbone_is_rejected_without_building_a_model():
    with pytest.raises(ConfigError, match=re.escape("--set: model.backbone_channels needs at least one entry")):
        apply_overrides(RunConfig(), ["model.backbone_channels=", "model.backbone_strides="])


def test_overrides_apply_after_file():
    run = parse_config("optim.lr_transformer = 2e-4")
    run = apply_overrides(run, ["optim.lr_transformer=1e-4", "model.num_queries=8"])
    assert run.optim.lr_transformer == 1e-4
    assert run.model.num_queries == 8


def test_dump_roundtrip_is_identity():
    run = parse_config("model.d_model = 32\nmodel.heads = 4\nsynth.occlusion = 0.35\nrun.seed = 17")
    dumped = dump_config(run)
    again = parse_config(dumped)
    assert again == run
    assert dump_config(again) == dumped


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.d_model = 16\nmodel.heads = 4\n")
    assert load_config(str(path)).model.d_model == 16


def test_validate_for_training_slot_capacity():
    run = parse_config("synth.max_instances = 9\nmodel.num_queries = 8")
    with pytest.raises(ConfigError, match="prediction slots"):
        validate_for_training(run)
    validate_for_training(parse_config("synth.max_instances = 8\nmodel.num_queries = 8"))


# ---------------------------------------------------------------------------
# the declared ranges, tested from the table itself

CONFIGS = {
    "run": RunConfig, "model": ModelConfig, "loss": LossWeights, "optim": OptimConfig,
    "schedule": ScheduleConfig, "synth": SynthConfig, "train": TrainConfig,
}
NUMERIC = {
    f"{section}.{f.name}": (cls, f)
    for section, cls in CONFIGS.items()
    for f in fields(cls)
    if isinstance(f.default, (int, float, tuple))
}
# other fields an edge value needs to satisfy the rules that tie fields together
COMPANIONS = {
    "synth.image_size": ["synth.template_scale=0.05", "synth.blob_radius=1"],
    "synth.template_scale": ["synth.image_size=160"],
    "schedule.epochs": ["schedule.drop_epochs="],
}


def _interval(f):
    text = f.metadata["range"]
    lo, hi = (float(end) for end in text[1:-1].split(","))
    return text, lo, text[0] == "[", hi, text[-1] == "]"


def _as_field_value(f, x):
    """x as the field's value: the whole value, or the first element of a tuple with the rest at their defaults."""
    return (x, *f.default[1:]) if isinstance(f.default, tuple) else x


def _text(value) -> str:
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else repr(value)


def _outside(f):
    _, lo, lo_closed, hi, hi_closed = _interval(f)
    if isinstance(f.default, float):
        values = [math.nextafter(lo, -math.inf) if lo_closed else lo, math.nan, math.inf, -math.inf]
        values += [math.nextafter(hi, math.inf) if hi_closed else hi] if hi < math.inf else []
        return values
    values = [int(lo) - 1 if lo_closed else int(lo)]
    return values + ([int(hi) + 1 if hi_closed else int(hi)] if hi < math.inf else [])


def _edges(f):
    _, lo, lo_closed, hi, hi_closed = _interval(f)
    step = (lambda x, to: math.nextafter(x, to)) if isinstance(f.default, float) else (lambda x, to: int(x) + (1 if to > x else -1))
    values = [lo if lo_closed else step(lo, math.inf)]
    values += [hi if hi_closed else step(hi, -math.inf)] if hi < math.inf else []
    return [type(f.default[0] if isinstance(f.default, tuple) else f.default)(v) for v in values]


def _build(cls, f, value):
    return RunConfig(seed=value) if cls is RunConfig else cls(**{f.name: value})


def test_every_numeric_field_of_every_config_dataclass_declares_a_range():
    defined = {obj for obj in vars(config).values() if isinstance(obj, type) and is_dataclass(obj)}
    assert defined == set(CONFIGS.values())
    for section, cls in CONFIGS.items():
        for f in fields(cls):
            text = f.metadata.get("range", "")
            if isinstance(f.default, str) or is_dataclass(f.default):
                assert not text, f"{section}.{f.name}"
            else:
                assert text[:1] in "[(" and text[-1:] in "])" and text.count(",") == 1, f"{section}.{f.name}"
    assert len(NUMERIC) == 42


OUTSIDE = [(key, value) for key, (_, f) in NUMERIC.items() for value in _outside(f)]
OUTSIDE += [(key, ()) for key, (_, f) in NUMERIC.items() if f.metadata.get("nonempty")]


@pytest.mark.parametrize("key,x", OUTSIDE, ids=[f"{key}={x!r}" for key, x in OUTSIDE])
def test_a_value_outside_the_declared_range_is_rejected_naming_the_key(key, x):
    cls, f = NUMERIC[key]
    value = x if x == () else _as_field_value(f, x)
    rule = "needs at least one entry" if x == () else f"must be in {f.metadata['range']}"
    with pytest.raises(ConfigError, match=re.escape(key)) as raised:
        apply_overrides(RunConfig(), [f"{key}={_text(value)}"])
    assert rule in str(raised.value) and str(raised.value).startswith("--set: ")
    with pytest.raises(ConfigError, match=re.escape(key)):
        _build(cls, f, value)


EDGES = [(key, value) for key, (_, f) in NUMERIC.items() for value in _edges(f)]


@pytest.mark.parametrize("key,x", EDGES, ids=[f"{key}={x!r}" for key, x in EDGES])
def test_the_edge_value_of_the_declared_range_is_accepted(key, x):
    cls, f = NUMERIC[key]
    value = _as_field_value(f, x)
    run = apply_overrides(RunConfig(), [*COMPANIONS.get(key, []), f"{key}={_text(value)}"])
    section = run if cls is RunConfig else getattr(run, key.split(".")[0])
    assert getattr(section, f.name) == value
    if key not in COMPANIONS:
        assert getattr(_build(cls, f, value), f.name) == value


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(EDGES), max_size=12), st.integers(0, 2**64))
def test_dump_of_edge_values_parses_back_to_the_same_config(edges, seed):
    run = replace(RunConfig(), seed=seed)
    for key, x in edges:
        try:
            run = apply_overrides(run, [*COMPANIONS.get(key, []), f"{key}={_text(_as_field_value(NUMERIC[key][1], x))}"])
        except ConfigError:  # an edge that another drawn edge's companions rule out
            continue
    dumped = dump_config(run)
    assert parse_config(dumped) == run
    assert dump_config(parse_config(dumped)) == dumped


def test_config_module_imports_neither_numpy_nor_another_poet_module():
    import poet

    env = {**os.environ, "PYTHONPATH": str(Path(poet.__file__).parents[1])}
    code = "import sys, poet.config; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('poet.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, env=env)
    assert out.stdout.strip() == "['poet.config']"
