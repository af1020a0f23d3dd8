import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poet.cli import main
from poet.pose import PoseClass, PoseVector, encode_pose, to_flat
from poet.pose import InstanceAnnotation, Keypoint

TINY_CFG = """
run.seed = 5
model.d_model = 16
model.enc_layers = 1
model.dec_layers = 2
model.heads = 4
model.num_queries = 4
model.num_keypoints = 2
model.ffn_hidden = 24
model.backbone_channels = 8,8
model.backbone_strides = 2,2
model.dropout = 0.0
schedule.epochs = 2
schedule.drop_epochs =
train.batch_size = 8
train.val_samples = 10
train.checkpoint_every = 0
synth.num_samples = 16
synth.image_size = 32
synth.num_keypoints = 2
synth.max_instances = 2
synth.seed = 2
"""


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def write_match_files(tmp_path, n_records=1, n_slots=3):
    targets_path = tmp_path / "targets.jsonl"
    preds_path = tmp_path / "preds.jsonl"
    rng = np.random.default_rng(0)
    with open(targets_path, "w") as tf, open(preds_path, "w") as pf:
        for _ in range(n_records):
            targets = []
            preds = []
            for s in range(n_slots):
                if s == 0:
                    ann = InstanceAnnotation([Keypoint(10 + 5 * s, 12, 2), Keypoint(20, 30, 2)], (64, 64))
                    pose = encode_pose(ann)
                    targets.append({"pose": to_flat(pose), "class": 1})
                else:
                    targets.append({"pose": [0.0, 0.0] + [0.0, 0.0, 0.0] * 2, "class": 0})
                ph = float(rng.uniform(0.2, 0.9))
                pred_pose = PoseVector(
                    tuple(rng.uniform(0.2, 0.8, 2)), tuple(rng.uniform(-0.2, 0.2, 4)), (0.8, 0.8, 0.6, 0.6), PoseClass.HUMAN
                )
                preds.append({"pose": to_flat(pred_pose), "class_probs": [ph, 1 - ph]})
            tf.write(json.dumps({"targets": targets}) + "\n")
            pf.write(json.dumps({"preds": preds}) + "\n")
    return str(targets_path), str(preds_path)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["definitely-not-a-command"])
    assert e.value.code == 2


def test_synth_writes_cache_and_summary(tmp_path, capsys):
    out = str(tmp_path / "ds.bin")
    code = main(["synth", "--samples", "30", "--image-size", "32", "--keypoints", "3", "--seed", "7", "--out", out])
    assert code == 0
    assert Path(out).exists() and Path(out + ".json").exists()
    text = capsys.readouterr().out
    assert "visibility rate" in text and "instances/sample" in text


def test_synth_byte_identical_across_runs(tmp_path):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    for out in (a, b):
        assert main(["synth", "--samples", "25", "--seed", "7", "--out", out]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_synth_zero_occlusion_reports_full_visibility(tmp_path, capsys):
    out = str(tmp_path / "v.bin")
    assert main(["synth", "--samples", "10", "--occlusion", "0", "--out", out]) == 0
    assert "visibility rate: 1.0000" in capsys.readouterr().out


def test_match_identity_and_oracle(tmp_path, capsys):
    targets_path, preds_path = write_match_files(tmp_path, n_records=2, n_slots=4)
    code = main(["match", targets_path, preds_path, "--oracle"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "record,target,pred,pair_cost,total_cost"
    assert len(lines) == 1 + 2 * 4
    assert "record 0: OK" in captured.err and "record 1: OK" in captured.err


def test_match_total_is_minus_prob_sum_for_identical_pose(tmp_path, capsys):
    # prediction pose identical to the target, p_human = 0.8: pair cost is -0.8
    targets_path = tmp_path / "t.jsonl"
    preds_path = tmp_path / "p.jsonl"
    ann = InstanceAnnotation([Keypoint(16, 16, 2), Keypoint(40, 28, 2)], (64, 64))
    pose = encode_pose(ann)
    targets_path.write_text(json.dumps({"targets": [{"pose": to_flat(pose), "class": 1}]}) + "\n")
    preds_path.write_text(json.dumps({"preds": [{"pose": to_flat(pose), "class_probs": [0.8, 0.2]}]}) + "\n")
    assert main(["match", str(targets_path), str(preds_path)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(-0.8, abs=1e-12)
    assert float(row[4]) == pytest.approx(-0.8, abs=1e-12)


def test_match_malformed_line_exit_2(tmp_path, capsys):
    targets_path = tmp_path / "t.jsonl"
    preds_path = tmp_path / "p.jsonl"
    targets_path.write_text('{"targets": [}\n')
    preds_path.write_text('{"preds": []}\n')
    code = main(["match", str(targets_path), str(preds_path)])
    assert code == 2
    assert ":1" in capsys.readouterr().err


def test_match_slot_count_mismatch_exit_2(tmp_path, capsys):
    targets_path, preds_path = write_match_files(tmp_path, n_slots=3)
    other_targets, _ = write_match_files(tmp_path / "sub" if False else tmp_path, n_slots=3)
    # rewrite preds with fewer slots
    doc = json.loads(Path(preds_path).read_text())
    doc["preds"] = doc["preds"][:2]
    Path(preds_path).write_text(json.dumps(doc) + "\n")
    code = main(["match", targets_path, preds_path])
    assert code == 2
    assert "record 0" in capsys.readouterr().err


def test_match_keypoint_count_mismatch_exit_2(tmp_path, capsys):
    targets_path = tmp_path / "t.jsonl"
    preds_path = tmp_path / "p.jsonl"
    targets_path.write_text(json.dumps({"targets": [{"pose": [0.5, 0.5, 0.1, 0.1, 1.0], "class": 1}]}) + "\n")
    preds_path.write_text(json.dumps({"preds": [{"pose": [0.5, 0.5] + [0.1, 0.1, 1.0] * 2, "class_probs": [0.6, 0.4]}]}) + "\n")
    assert main(["match", str(targets_path), str(preds_path)]) == 2
    assert "record 0: keypoint counts differ" in capsys.readouterr().err


def test_gradcheck_component_and_injection(capsys):
    assert main(["gradcheck", "--component", "loss", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert "loss: max rel err" in out and "ops/" not in out
    assert main(["gradcheck", "--component", "loss", "--cases", "2", "--inject-error"]) == 1


def test_train_eval_roundtrip(tiny_cfg_path, tmp_path, capsys):
    out_dir = str(tmp_path / "run1")
    code = main(["train", "--config", tiny_cfg_path, "--out-dir", out_dir])
    assert code == 0
    assert (Path(out_dir) / "losses.csv").exists()
    assert (Path(out_dir) / "effective.cfg").exists()
    capsys.readouterr()

    ckpt = str(Path(out_dir) / "checkpoint_final.bin")
    json_out = str(tmp_path / "eval.json")
    code = main(["eval", "--checkpoint", ckpt, "--per-layer", "--out", json_out])
    assert code == 0
    text = capsys.readouterr().out
    assert "AP" in text and "layer 0:" in text and "layer 1:" in text
    payload = json.loads(Path(json_out).read_text())
    assert "ap" in payload and len(payload["per_layer"]) == 2


def test_train_set_override_lands_in_effective_config(tiny_cfg_path, tmp_path):
    out_dir = tmp_path / "run2"
    code = main(
        ["train", "--config", tiny_cfg_path, "--out-dir", str(out_dir), "--set", "optim.lr_transformer=1e-4"]
    )
    assert code == 0
    effective = (out_dir / "effective.cfg").read_text()
    assert "optim.lr_transformer = 0.0001" in effective


def test_train_determinism_byte_identical(tiny_cfg_path, tmp_path):
    dirs = [str(tmp_path / "da"), str(tmp_path / "db")]
    for d in dirs:
        assert main(["train", "--config", tiny_cfg_path, "--out-dir", d]) == 0
    a, b = (Path(d) for d in dirs)
    assert (a / "losses.csv").read_bytes() == (b / "losses.csv").read_bytes()
    assert (a / "checkpoint_final.bin").read_bytes() == (b / "checkpoint_final.bin").read_bytes()


def test_train_bad_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.not_a_key = 1\n")
    assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "x")]) == 2


def test_train_rejects_capacity_violation(tiny_cfg_path, tmp_path, capsys):
    code = main(
        [
            "train", "--config", tiny_cfg_path, "--out-dir", str(tmp_path / "y"),
            "--set", "synth.max_instances=9", "--set", "synth.min_instances=9",
        ]
    )
    assert code == 2
    assert "prediction slots" in capsys.readouterr().err


def test_eval_external_predictions_jsonl(tiny_cfg_path, tmp_path, capsys):
    # perfect predictions written in the package jsonl format score AP = 1
    from poet.config import load_config
    from poet.data import synth_generate
    from poet import training

    run = load_config(tiny_cfg_path)
    val = training.resolve_dataset("synth", run, "val")
    cache = str(tmp_path / "val.bin")
    from poet.data import save_dataset_cache

    save_dataset_cache(val, cache)
    preds_path = tmp_path / "perfect.jsonl"
    with open(preds_path, "w") as fh:
        for sample in val.samples:
            preds = []
            for ann in sample.annotations:
                pose = encode_pose(ann)
                if pose.is_human:
                    preds.append({"pose": to_flat(pose), "class_probs": [1.0, 0.0]})
            fh.write(json.dumps({"preds": preds}) + "\n")
    code = main(["eval", "--config", tiny_cfg_path, "--dataset", cache, "--predictions", str(preds_path)])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[0] == "1.000"


def test_eval_keypoint_count_mismatch(tiny_cfg_path, tmp_path, capsys):
    out_dir = str(tmp_path / "run3")
    assert main(["train", "--config", tiny_cfg_path, "--out-dir", out_dir]) == 0
    capsys.readouterr()
    ckpt = str(Path(out_dir) / "checkpoint_final.bin")
    code = main(["eval", "--checkpoint", ckpt, "--set", "synth.num_keypoints=3"])
    assert code == 2
    assert "keypoints" in capsys.readouterr().err


def test_eval_model_on_coco_annotations_exit_2(tiny_cfg_path, tmp_path, capsys):
    from poet import model, training
    from poet.config import dump_config, load_config
    from poet.data import save_coco_keypoints

    run = load_config(tiny_cfg_path)
    ckpt = str(tmp_path / "ck.bin")
    params = model.init_params(run.model, 0)
    training.save_checkpoint(ckpt, params, training.init_optim_state(params, run.optim), 0)
    Path(ckpt + ".cfg").write_text(dump_config(run))
    ann = str(tmp_path / "ann.json")
    save_coco_keypoints(training.resolve_dataset("synth", run, "val"), ann)
    assert main(["eval", "--checkpoint", ckpt, "--dataset", ann]) == 2
    err = capsys.readouterr().err
    assert "no pixels" in err and "--predictions" in err


def test_import_cli_does_not_load_numpy():
    # --threads must set the BLAS variables before numpy is first imported
    import poet

    env = {**os.environ, "PYTHONPATH": str(Path(poet.__file__).parents[1])}
    code = "import sys, poet.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def _init_checkpoint(cfg_path, tmp_path):
    from poet import model, training
    from poet.config import dump_config, load_config

    run = load_config(cfg_path)
    ckpt = str(tmp_path / "init.bin")
    params = model.init_params(run.model, 0)
    training.save_checkpoint(ckpt, params, training.init_optim_state(params, run.optim), 0)
    Path(ckpt + ".cfg").write_text(dump_config(run))
    return ckpt


@pytest.mark.parametrize(
    "overrides",
    [["model.enc_layers=2"], ["model.d_model=32", "model.ffn_hidden=48"], ["model.ffn_hidden=32"]],
    ids=["missing-layer", "wider-model", "wider-ffn"],
)
def test_eval_checkpoint_config_mismatch_exit_2(tiny_cfg_path, tmp_path, capsys, overrides):
    ckpt = _init_checkpoint(tiny_cfg_path, tmp_path)
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["eval", "--checkpoint", ckpt, *sets]) == 2
    assert "does not match the model config" in capsys.readouterr().err


def test_train_resume_config_mismatch_exit_2(tiny_cfg_path, tmp_path, capsys):
    ckpt = _init_checkpoint(tiny_cfg_path, tmp_path)
    out = tmp_path / "resumed"
    code = main(["train", "--config", tiny_cfg_path, "--resume", ckpt, "--set", "model.ffn_hidden=32", "--out-dir", str(out)])
    assert code == 2
    assert "does not match the model config" in capsys.readouterr().err
    assert not (out / "checkpoint_final.bin").exists() and not (out / "losses.csv").exists()


def test_train_val_set_over_slot_capacity_exit_2(tiny_cfg_path, tmp_path, capsys):
    # the val set is checked before epoch 1, not at its first validation
    from dataclasses import replace

    from poet.config import load_config
    from poet.data import save_dataset_cache, synth_generate

    run = load_config(tiny_cfg_path)
    crowd = str(tmp_path / "crowd.bin")
    save_dataset_cache(synth_generate(replace(run.synth, num_samples=4, min_instances=5, max_instances=5)), crowd)
    out = tmp_path / "run"
    code = main(["train", "--config", tiny_cfg_path, "--set", f"train.val_dataset={crowd}", "--out-dir", str(out)])
    assert code == 2
    assert "5 people" in capsys.readouterr().err
    assert not (out / "losses.csv").exists() and not (out / "checkpoint_final.bin").exists()
