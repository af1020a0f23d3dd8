import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import encode_pose, save_coco_keypoints, to_flat
from poet.cli import main
from poet.pose import PoseClass, PoseVector

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
                    pose = encode_pose([[10 + 5 * s, 12, 2], [20, 30, 2]], (64, 64))
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
    pose = encode_pose([[16, 16, 2], [40, 28, 2]], (64, 64))
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


def match_records(rng, n, k, layout):
    """One seeded `poet match` record pair: humans first, interleaved with padding, or no humans."""
    if layout == "humans-first":
        human = np.arange(n) < rng.integers(1, n + 1)
    elif layout == "interleaved":
        human = rng.random(n) < 0.5
        human[rng.integers(n)] = True
    else:
        human = np.zeros(n, dtype=bool)
    targets = []
    for is_human in human:
        if is_human:
            vis = (rng.random(k) < 0.8).astype(int)
            pose = [float(x) for x in rng.uniform(0.1, 0.9, 2)]
            for v in vis:  # JSON ints for the visibilities, as a hand-written file has them
                pose += [float(rng.normal(0.0, 0.08)) * int(v), float(rng.normal(0.0, 0.08)) * int(v), int(v)]
            targets.append({"pose": pose, "class": 1})
        else:
            targets.append({"pose": [0.0] * (2 + 3 * k), "class": 0})
    preds = []
    for _ in range(n):
        ph = float(rng.uniform(0.01, 0.99))
        preds.append({"pose": [float(x) for x in rng.uniform(-0.2, 1.0, 2 + 3 * k)], "class_probs": [ph, 1.0 - ph]})
    return targets, preds


def object_path_csv(target_records, pred_records, weights):
    """`poet match`'s CSV as the pose-object path writes it: from_flat, pad_targets/PredictionSet, build_cost_matrix."""
    from poet.matching import build_cost_matrix, hungarian_assign
    from poet.pose import PredictionSet, PredictionSlot, from_flat, pad_targets

    lines = ["record,target,pred,pair_cost,total_cost"]
    for r, (t_entries, p_entries) in enumerate(zip(target_records, pred_records)):
        targets = pad_targets([from_flat(e["pose"], PoseClass(int(e["class"]))) for e in t_entries], len(t_entries))
        preds = PredictionSet(
            [PredictionSlot(tuple(e["class_probs"]), from_flat(e["pose"], PoseClass.HUMAN)) for e in p_entries]
        )
        cost = build_cost_matrix(targets, preds, weights)
        assignment = hungarian_assign(cost)
        for i, j in enumerate(assignment.perm):
            lines.append(f"{r},{i},{j},{float(cost.entries[i, j])!r},{float(assignment.total_cost)!r}")
    return "\n".join(lines) + "\n"


def write_records(tmp_path, target_records, pred_records):
    targets_path, preds_path = tmp_path / "t.jsonl", tmp_path / "p.jsonl"
    targets_path.write_text("".join(json.dumps({"targets": t}) + "\n" for t in target_records))
    preds_path.write_text("".join(json.dumps({"preds": p}) + "\n" for p in pred_records))
    return str(targets_path), str(preds_path)


@pytest.mark.parametrize("layout", ["humans-first", "interleaved", "no-humans"])
def test_match_csv_is_byte_identical_to_the_object_path(tmp_path, capsys, layout):
    from poet.loss import LossWeights

    rng = np.random.default_rng(["humans-first", "interleaved", "no-humans"].index(layout))
    records = [match_records(rng, n, k, layout) for n in (1, 2, 8, 25, 100) for k in (1, 5, 17)]
    target_records, pred_records = [t for t, _ in records], [p for _, p in records]
    paths = write_records(tmp_path, target_records, pred_records)
    flags = ["--lambda-l1", "3.0", "--lambda-l2", "0.7", "--lambda-ctr", "1.5"]
    for weights, argv in ((LossWeights(), []), (LossWeights(3.0, 0.7, 1.5), flags)):
        assert main(["match", *paths, *argv]) == 0
        assert capsys.readouterr().out == object_path_csv(target_records, pred_records, weights)


def test_match_oracle_ok_on_interleaved_padding(tmp_path, capsys):
    rng = np.random.default_rng(7)
    records = [match_records(rng, n, 3, layout) for n in (1, 5, 8) for layout in ("humans-first", "interleaved", "no-humans")]
    code = main(["match", *write_records(tmp_path, [t for t, _ in records], [p for _, p in records]), "--oracle"])
    err = capsys.readouterr().err
    assert code == 0
    assert all(f"record {r}: OK" in err for r in range(len(records)))


def test_match_builds_no_pose_objects(tmp_path, capsys, monkeypatch):
    from poet import pose

    def refuse(*args, **kwargs):
        raise AssertionError("poet match built a pose object")

    target, pred = match_records(np.random.default_rng(3), 100, 17, "humans-first")
    paths = write_records(tmp_path, [target], [pred])
    monkeypatch.setattr(pose, "from_flat", refuse)
    monkeypatch.setattr(pose, "PoseVector", refuse)
    assert main(["match", *paths]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 101


# a 2-slot record of 2 keypoints, and the same record with one defect each
GOOD_TARGETS = [{"pose": [0.5, 0.5, 0.1, 0.1, 1, -0.1, 0.1, 1], "class": 1}, {"pose": [0.0] * 8, "class": 0}]
GOOD_PREDS = [
    {"pose": [0.4, 0.6, 0.1, 0.0, 0.9, 0.0, 0.1, 0.8], "class_probs": [0.7, 0.3]},
    {"pose": [0.6, 0.4, 0.0, 0.1, 0.2, 0.1, 0.0, 0.3], "class_probs": [0.2, 0.8]},
]


def _with(entries, i, **fields):
    return [dict(e, **fields) if k == i else e for k, e in enumerate(entries)]


MALFORMED_MATCH = {
    # name: (line of the targets file, line of the preds file, expected in the error)
    "match-null-in-target-pose": ({"targets": _with(GOOD_TARGETS, 0, pose=[0.5, None] + [0.1] * 6)}, {"preds": GOOD_PREDS}, "record 0:"),
    "match-null-in-pred-pose": ({"targets": GOOD_TARGETS}, {"preds": _with(GOOD_PREDS, 1, pose=[None] * 8)}, "record 0:"),
    "match-pose-is-a-number": ({"targets": _with(GOOD_TARGETS, 1, pose=0.5)}, {"preds": GOOD_PREDS}, "record 0:"),
    "match-class-probs-is-a-number": ({"targets": GOOD_TARGETS}, {"preds": _with(GOOD_PREDS, 0, class_probs=0.7)}, "record 0:"),
    "match-class-probs-empty": ({"targets": GOOD_TARGETS}, {"preds": _with(GOOD_PREDS, 0, class_probs=[])}, "record 0:"),
    "match-class-probs-null": ({"targets": GOOD_TARGETS}, {"preds": _with(GOOD_PREDS, 0, class_probs=[None, 0.3])}, "record 0:"),
    "match-class-null": ({"targets": _with(GOOD_TARGETS, 0, **{"class": None})}, {"preds": GOOD_PREDS}, "record 0:"),
    "match-targets-not-a-list": ({"targets": 5}, {"preds": GOOD_PREDS}, "t.jsonl:1:"),
    "match-entry-is-a-list": ({"targets": [[0.5, 0.5], GOOD_TARGETS[1]]}, {"preds": GOOD_PREDS}, "record 0:"),
    "match-line-is-an-array": ({"targets": GOOD_TARGETS}, [1, 2], "p.jsonl:1:"),
    # the checks the object path made, kept by the array parser
    "match-pose-length": ({"targets": GOOD_TARGETS}, {"preds": _with(GOOD_PREDS, 1, pose=[0.5] * 7)}, "record 0: preds: pose 1: flat pose length must be 2 + 3K"),
    "match-poses-differ-in-length": ({"targets": _with(GOOD_TARGETS, 1, pose=[0.0] * 5)}, {"preds": GOOD_PREDS}, "record 0: targets: pose 1 has 5 values"),
    "match-class-2": ({"targets": _with(GOOD_TARGETS, 1, **{"class": 2})}, {"preds": GOOD_PREDS}, "record 0: targets: entry 1: class must be 0 or 1"),
    "match-visible-non-object": ({"targets": _with(GOOD_TARGETS, 1, pose=[0.0] * 4 + [1.0] + [0.0] * 3)}, {"preds": GOOD_PREDS}, "record 0: targets: entry 1: non-object"),
    "match-nan-cost": ({"targets": GOOD_TARGETS}, {"preds": _with(GOOD_PREDS, 0, pose=[float("nan")] * 8)}, "record 0: cost matrix contains non-finite"),
}

VAL_IMAGES = 10  # TINY_CFG's train.val_samples: `poet eval --predictions` wants one line per image
MALFORMED_EVAL = {
    # name: (lines of the predictions file, expected in the error)
    "eval-line-is-an-array": ([[1, 2]] * VAL_IMAGES, "p.jsonl:1:"),
    "eval-null-in-pose": ([{"preds": _with(GOOD_PREDS, 0, pose=[0.4, None] + [0.1] * 6)}] * VAL_IMAGES, "p.jsonl:1:"),
    "eval-class-probs-is-a-number": ([{"preds": _with(GOOD_PREDS, 1, class_probs=0.2)}] * VAL_IMAGES, "p.jsonl:1:"),
    "eval-fewer-lines-than-images": ([{"preds": GOOD_PREDS}], "image counts differ"),
    "eval-keypoint-count-differs": ([{"preds": [{"pose": [0.5] * 5, "class_probs": [0.7, 0.3]}]}] * VAL_IMAGES, "keypoint counts differ"),
    "eval-line-without-preds": ([{"pred": GOOD_PREDS}] * VAL_IMAGES, "p.jsonl:1: expected an object with a 'preds' list"),
    "eval-nan-p-human": ([{"preds": GOOD_PREDS}, {"preds": _with(GOOD_PREDS, 1, class_probs=[math.nan, 0.5])}] * 5, "p.jsonl:2: preds: entry 1: p_human must be finite"),
    "eval-nan-center": ([{"preds": _with(GOOD_PREDS, 0, pose=[math.nan] + GOOD_PREDS[0]["pose"][1:])}] * VAL_IMAGES, "p.jsonl:1: preds: entry 0: center must be finite"),
    "eval-infinite-offset": ([{"preds": GOOD_PREDS}] * 9 + [{"preds": _with(GOOD_PREDS, 1, pose=GOOD_PREDS[1]["pose"][:5] + [-math.inf, 0.0, 0.3])}], "p.jsonl:10: preds: entry 1: offsets must be finite"),
}


def assert_usage_error(argv, cwd, where):
    """Run `poet` as a user does, in a fresh interpreter, so an uncaught exception shows as a traceback."""
    import poet

    env = {**os.environ, "PYTHONPATH": str(Path(poet.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "poet.cli", *argv], capture_output=True, text=True, timeout=120, cwd=cwd, env=env)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
    assert where in out.stderr


@pytest.mark.parametrize("case", list(MALFORMED_MATCH))
def test_malformed_match_records_exit_2_without_traceback(tmp_path, case):
    targets, preds, where = MALFORMED_MATCH[case]
    (tmp_path / "t.jsonl").write_text(json.dumps(targets) + "\n")
    (tmp_path / "p.jsonl").write_text(json.dumps(preds) + "\n")
    assert_usage_error(["match", "t.jsonl", "p.jsonl"], tmp_path, where)


@pytest.mark.parametrize("case", list(MALFORMED_EVAL))
def test_malformed_eval_predictions_exit_2_without_traceback(tiny_cfg_path, tmp_path, case):
    lines, where = MALFORMED_EVAL[case]
    (tmp_path / "p.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert_usage_error(["eval", "--config", tiny_cfg_path, "--predictions", "p.jsonl"], tmp_path, where)


OUT_OF_RANGE = {
    # name: (arguments, run next to tiny.cfg and the VAL_IMAGES-line t.jsonl and p.jsonl; expected in the error)
    **{
        f"match-lambda-{term}": (["match", "t.jsonl", "p.jsonl", f"--lambda-{term}", "-1"], f"loss.lambda_{term} must be in [0, inf)")
        for term in ("l1", "l2", "ctr")
    },
    **{
        f"eval-oks-k-{k}": (["eval", "--config", "tiny.cfg", "--predictions", "p.jsonl", "--oks-k", k], "--oks-k must be > 0")
        for k in ("0", "-1", "inf", "nan")
    },
    "eval-top-k-negative": (["eval", "--config", "tiny.cfg", "--predictions", "p.jsonl", "--top-k", "-2"], "train.top_k must be in [0, inf)"),
    "train-top-k-negative": (["train", "--config", "tiny.cfg", "--set", "train.top_k=-2", "--out-dir", "out"], "train.top_k must be in [0, inf)"),
    "train-val-samples-0": (["train", "--config", "tiny.cfg", "--set", "train.val_samples=0", "--out-dir", "out"], "train.val_samples must be in [1, inf)"),
    "synth-keypoints-0": (["synth", "--keypoints", "0", "--samples", "2", "--out", "s.bin"], "synth.num_keypoints must be in [1, inf)"),
    "synth-channels-0": (["synth", "--channels", "0", "--samples", "2", "--out", "s.bin"], "synth.channels must be in [1, inf)"),
    "synth-image-size-16": (["synth", "--image-size", "16", "--samples", "2", "--out", "s.bin"], "cannot hold an instance"),
    **{
        f"gradcheck-cases-{n}": (["gradcheck", "--component", "loss", "--cases", n], "--cases must be >= 1")
        for n in ("0", "-1")
    },
    "train-batch-size-0": (["train", "--config", "tiny.cfg", "--set", "train.batch_size=0", "--out-dir", "out"], "train.batch_size must be in [1, inf)"),
    **{
        f"train-optim-{key}-{value}": (
            ["train", "--config", "tiny.cfg", "--set", f"optim.{key}={value}", "--out-dir", "out"],
            f"optim.{key} must be in {interval}",
        )
        for key, values, interval in (
            ("beta1", ("1", "1.5", "-0.1", "nan"), "[0, 1)"),
            ("beta2", ("1", "nan"), "[0, 1)"),
            ("eps", ("0", "-1e-8", "inf", "nan"), "(0, inf)"),
            ("lr_transformer", ("-1e-4", "inf", "nan"), "[0, inf)"),
            ("lr_backbone", ("-1e-5", "nan"), "[0, inf)"),
            ("weight_decay", ("-1e-4", "nan"), "[0, inf)"),
            ("clip_norm", ("-1", "inf", "nan"), "[0, inf)"),
        )
        for value in values
    },
    # one key of each section, and the synth, match, eval and gradcheck flags that set one
    "run-seed": (["train", "--config", "tiny.cfg", "--set", "run.seed=-1", "--out-dir", "out"], "run.seed must be in [0, inf)"),
    "model-heads": (["train", "--config", "tiny.cfg", "--set", "model.heads=0", "--out-dir", "out"], "model.heads must be in [1, inf)"),
    "loss-lambda-ctr": (["train", "--config", "tiny.cfg", "--set", "loss.lambda_ctr=inf", "--out-dir", "out"], "loss.lambda_ctr must be in [0, inf)"),
    "schedule-drop-factor": (["train", "--config", "tiny.cfg", "--set", "schedule.drop_factor=nan", "--out-dir", "out"], "schedule.drop_factor must be in (0, inf)"),
    "synth-seed": (["train", "--config", "tiny.cfg", "--set", "synth.seed=-1", "--out-dir", "out"], "synth.seed must be in [0, inf)"),
    "train-eval-every": (["train", "--config", "tiny.cfg", "--set", "train.eval_every=-1", "--out-dir", "out"], "train.eval_every must be in [0, inf)"),
    "synth-flag-seed": (["synth", "--seed", "-1", "--samples", "2", "--out", "s.bin"], "synth.seed must be in [0, inf)"),
    "match-flag-lambda-nan": (["match", "t.jsonl", "p.jsonl", "--lambda-l1", "nan"], "loss.lambda_l1 must be in [0, inf)"),
    "eval-flag-score-threshold": (["eval", "--config", "tiny.cfg", "--predictions", "p.jsonl", "--score-threshold", "nan"], "train.score_threshold must be in [0, 1]"),
    "gradcheck-seed": (["gradcheck", "--component", "loss", "--seed", "-1"], "--seed must be >= 0"),
    # datasets that do not fit the model, and runs with nothing to train on, before epoch 1
    "train-model-keypoints": (["train", "--config", "tiny.cfg", "--set", "model.num_keypoints=6", "--out-dir", "out"], "the training set has 2 keypoints but the model expects 6"),
    "train-model-channels": (["train", "--config", "tiny.cfg", "--set", "model.image_channels=1", "--out-dir", "out"], "the training set has 3 image channels but the model expects 1"),
    "train-synth-channels": (["train", "--config", "tiny.cfg", "--set", "synth.channels=1", "--out-dir", "out"], "the training set has 1 image channels but the model expects 3"),
    "train-synth-image-size": (["train", "--config", "tiny.cfg", "--set", "synth.image_size=30", "--out-dir", "out"], "30x30 images are not divisible by the model's total stride 4"),
    "train-dataset-none": (["train", "--config", "tiny.cfg", "--set", "train.dataset=none", "--out-dir", "out"], "train.dataset must not be 'none'"),
    "train-nothing-visible": (["train", "--config", "tiny.cfg", "--set", "synth.occlusion=1", "--out-dir", "out"], "no trainable samples"),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_out_of_range_numbers_exit_2_without_traceback(tiny_cfg_path, tmp_path, case):
    argv, where = OUT_OF_RANGE[case]
    (tmp_path / "t.jsonl").write_text((json.dumps({"targets": GOOD_TARGETS}) + "\n") * VAL_IMAGES)
    (tmp_path / "p.jsonl").write_text((json.dumps({"preds": GOOD_PREDS}) + "\n") * VAL_IMAGES)
    assert_usage_error(argv, tmp_path, where)
    assert not (tmp_path / "out" / "losses.csv").exists()


def test_eval_dataset_that_does_not_fit_the_model_exit_2(tiny_cfg_path, tmp_path, capsys):
    ckpt = _init_checkpoint(tiny_cfg_path, tmp_path)
    assert main(["eval", "--checkpoint", ckpt, "--set", "synth.channels=1"]) == 2
    assert "the evaluation set has 1 image channels but the model expects 3" in capsys.readouterr().err


def test_edge_values_of_the_checked_numbers_are_accepted(tiny_cfg_path, tmp_path):
    import poet

    edges = ["optim.beta1=0", "optim.beta2=0", "optim.eps=5e-324", "optim.lr_transformer=0", "optim.lr_backbone=0"]
    edges += ["optim.weight_decay=0", "optim.clip_norm=0", "train.batch_size=1", "schedule.epochs=1"]
    argv = ["train", "--config", tiny_cfg_path, "--out-dir", str(tmp_path / "out")]
    for edge in edges:
        argv += ["--set", edge]
    env = {**os.environ, "PYTHONPATH": str(Path(poet.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "poet.cli", *argv], capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    effective = (tmp_path / "out" / "effective.cfg").read_text()
    assert all(f"{edge.split('=')[0]} = " in effective for edge in edges)


GOOD_COCO_ANN = {"id": 1, "image_id": 1, "category_id": 1, "keypoints": [10, 12, 2, 20, 30, 2], "area": 400.0, "iscrowd": 0}
GOOD_COCO = {"images": [{"id": 1, "width": 32, "height": 32}], "annotations": [GOOD_COCO_ANN]}
GOOD_RESULT = {"image_id": 1, "category_id": 1, "keypoints": [10, 12, 1, 20, 30, 1], "score": 0.9}
MALFORMED_COCO = {
    # name: (annotation file, results file, expected in the error)
    "result-is-an-array": (GOOD_COCO, [[1, 2, 3]], "results.json: entry 0: expected a JSON object"),
    "result-image-id-null": (GOOD_COCO, [GOOD_RESULT, {**GOOD_RESULT, "image_id": None}], "results.json: entry 1:"),
    "result-score-null": (GOOD_COCO, [{**GOOD_RESULT, "score": None}], "results.json: entry 0:"),
    "keypoints-null": ({**GOOD_COCO, "annotations": [{**GOOD_COCO_ANN, "keypoints": None}]}, [GOOD_RESULT], "ann.json.annotations[0]: keypoints must be a list"),
    "keypoint-not-a-number": ({**GOOD_COCO, "annotations": [{**GOOD_COCO_ANN, "keypoints": [10, "a", 2, 20, 30, 2]}]}, [GOOD_RESULT], "ann.json.annotations[0]:"),
    "area-not-a-number": ({**GOOD_COCO, "annotations": [GOOD_COCO_ANN, {**GOOD_COCO_ANN, "area": "big"}]}, [GOOD_RESULT], "ann.json.annotations[1]:"),
    "duplicate-image-id": ({**GOOD_COCO, "images": GOOD_COCO["images"] * 2}, [GOOD_RESULT], "ann.json.images[1]: duplicate image id 1"),
    "width-zero": ({**GOOD_COCO, "images": [{"id": 1, "width": 0, "height": 32}]}, [GOOD_RESULT], "ann.json.images[0]: width and height must be positive"),
    "height-negative": ({**GOOD_COCO, "images": [{"id": 1, "width": 32, "height": -32}]}, [GOOD_RESULT], "ann.json.images[0]: width and height must be positive"),
    "width-nan": ({**GOOD_COCO, "images": [{"id": 1, "width": math.nan, "height": 32}]}, [GOOD_RESULT], "ann.json.images[0]: width must be finite"),
    "height-infinity": ({**GOOD_COCO, "images": [{"id": 1, "width": 32, "height": math.inf}]}, [GOOD_RESULT], "ann.json.images[0]: height must be finite"),
    "keypoint-nan": ({**GOOD_COCO, "annotations": [{**GOOD_COCO_ANN, "keypoints": [10, math.nan, 2, 20, 30, 2]}]}, [GOOD_RESULT], "ann.json.annotations[0]: keypoints must be finite numbers"),
    "keypoint-infinity": ({**GOOD_COCO, "annotations": [GOOD_COCO_ANN, {**GOOD_COCO_ANN, "keypoints": [10, 12, 2, -math.inf, 30, 2]}]}, [GOOD_RESULT], "ann.json.annotations[1]: keypoints must be finite numbers"),
    "area-nan": ({**GOOD_COCO, "annotations": [{**GOOD_COCO_ANN, "area": math.nan}]}, [GOOD_RESULT], "ann.json.annotations[0]: area must be finite"),
    "area-infinity": ({**GOOD_COCO, "annotations": [{**GOOD_COCO_ANN, "area": math.inf}]}, [GOOD_RESULT], "ann.json.annotations[0]: area must be finite"),
    "result-score-nan": (GOOD_COCO, [GOOD_RESULT, {**GOOD_RESULT, "score": math.nan}], "results.json: entry 1: score must be finite"),
    "result-score-infinity": (GOOD_COCO, [{**GOOD_RESULT, "score": -math.inf}], "results.json: entry 0: score must be finite"),
    "result-keypoint-nan": (GOOD_COCO, [GOOD_RESULT, {**GOOD_RESULT, "keypoints": [10, math.nan, 1, 20, 30, 1]}], "results.json: entry 1: keypoints must be finite numbers"),
    "result-keypoint-infinity": (GOOD_COCO, [{**GOOD_RESULT, "keypoints": [10, 12, 1, math.inf, 30, 1]}], "results.json: entry 0: keypoints must be finite numbers"),
    "file-is-an-array": ([1, 2], [GOOD_RESULT], "ann.json: expected a JSON object with the field 'images', got list"),
}


@pytest.mark.parametrize("case", list(MALFORMED_COCO))
def test_malformed_coco_files_exit_2_without_traceback(tiny_cfg_path, tmp_path, case):
    annotations, results, where = MALFORMED_COCO[case]
    (tmp_path / "ann.json").write_text(json.dumps(annotations))
    (tmp_path / "results.json").write_text(json.dumps(results))
    argv = ["eval", "--config", tiny_cfg_path, "--dataset", "ann.json", "--predictions", "results.json"]
    assert_usage_error(argv, tmp_path, where)


def test_well_formed_coco_files_evaluate(tiny_cfg_path, tmp_path, capsys):
    (tmp_path / "ann.json").write_text(json.dumps(GOOD_COCO))
    (tmp_path / "results.json").write_text(json.dumps([GOOD_RESULT]))
    argv = ["eval", "--config", tiny_cfg_path, "--dataset", str(tmp_path / "ann.json"), "--predictions", str(tmp_path / "results.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[0] == "1.000"


def _cut_bin_in_half(cache):
    data = cache.read_bytes()
    cache.write_bytes(data[: len(data) // 2])


def _drop_num_samples(cache):
    manifest_path = cache.with_name(cache.name + ".json")
    manifest = json.loads(manifest_path.read_text())
    del manifest["num_samples"]
    manifest_path.write_text(json.dumps(manifest))


DAMAGED_CACHES = {
    "bin-cut-in-half": _cut_bin_in_half,
    "no-num-samples": _drop_num_samples,
    "manifest-not-json": lambda cache: cache.with_name(cache.name + ".json").write_text("{not json\n"),
}


@pytest.mark.parametrize("damage", list(DAMAGED_CACHES))
@pytest.mark.parametrize("command", ["eval", "train"])
def test_malformed_dataset_cache_exit_2_without_traceback(tiny_cfg_path, tmp_path, command, damage):
    from dataclasses import replace

    from poet.config import load_config
    from poet.data import save_dataset_cache, synth_generate

    cache = tmp_path / "ds.bin"
    save_dataset_cache(synth_generate(replace(load_config(tiny_cfg_path).synth, num_samples=4)), str(cache))
    DAMAGED_CACHES[damage](cache)
    if command == "eval":
        argv = ["eval", "--config", tiny_cfg_path, "--dataset", "ds.bin"]
    else:
        argv = ["train", "--config", tiny_cfg_path, "--set", "train.dataset=ds.bin", "--out-dir", "run"]
    assert_usage_error(argv, tmp_path, "dataset cache ds.bin")


@pytest.mark.parametrize("component", ["ops", "loss", "model"])
def test_gradcheck_component_and_injection(component, capsys, monkeypatch):
    # every component goes through the same comparison loop, and each must see a wrong backward
    from poet import autodiff

    assert main(["gradcheck", "--component", component, "--cases", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith(component) and line.endswith(" ok") for line in lines)
    backward = autodiff.backward

    def corrupted(*args, **kwargs):  # every analytic gradient off by 1e-2
        grads = backward(*args, **kwargs)
        wrt = grads.wrt
        grads.wrt = lambda t: wrt(t) + 1e-2
        return grads

    monkeypatch.setattr(autodiff, "backward", corrupted)
    assert main(["gradcheck", "--component", component, "--cases", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith(component) for line in lines)
    assert any("FAIL (tolerance" in line for line in lines)


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


def test_main_twice_in_one_process_carries_nothing_over(tiny_cfg_path, tmp_path, capsys, monkeypatch):
    from poet import cli

    overrides = []
    load = cli._load_run_config

    def recording(config_path, given, seed):
        overrides.append(list(given))
        return load(config_path, given, seed)

    monkeypatch.setattr(cli, "_load_run_config", recording)
    first = tmp_path / "first"
    argv = ["train", "--config", tiny_cfg_path, "--out-dir", str(first), "--seed", "7"]
    assert main(argv + ["--set", "train.top_k=2", "--set", "schedule.epochs=1"]) == 0
    ckpt = str(first / "checkpoint_final.bin")
    assert main(["eval", "--checkpoint", ckpt, "--set", "train.score_threshold=0.25", "--out", str(tmp_path / "e.json")]) == 0
    second = tmp_path / "second"
    assert main(["train", "--config", tiny_cfg_path, "--out-dir", str(second), "--set", "schedule.epochs=1"]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert overrides == [["train.top_k=2", "schedule.epochs=1"], ["train.score_threshold=0.25"], ["schedule.epochs=1"]]
    effective = (second / "effective.cfg").read_text()
    assert "run.seed = 5\n" in effective and "train.top_k = 0\n" in effective
    assert "run.seed = 7\n" in (first / "effective.cfg").read_text()


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
            for kps in sample.keypoints:
                pose = encode_pose(kps, sample.size)
                if pose.is_human:
                    preds.append({"pose": to_flat(pose), "class_probs": [1.0, 0.0]})
            fh.write(json.dumps({"preds": preds}) + "\n")
    code = main(["eval", "--config", tiny_cfg_path, "--dataset", cache, "--predictions", str(preds_path)])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[0] == "1.000"


def test_eval_predictions_top_k_keeps_that_many_per_image(tiny_cfg_path, tmp_path, capsys, monkeypatch):
    # each image holds its exact poses at score 0.6 and three random poses at 0.9
    from poet import metrics, training
    from poet.config import load_config

    val = training.resolve_dataset("synth", load_config(tiny_cfg_path), "val")
    rng = np.random.default_rng(3)
    with open(tmp_path / "p.jsonl", "w") as fh:
        for sample in val.samples:
            exact = [{"pose": to_flat(encode_pose(a, sample.size)), "class_probs": [0.6, 0.4]} for a in sample.keypoints if a[:, 2].any()]
            noise = [{"pose": rng.uniform(0.0, 1.0, 8).tolist(), "class_probs": [0.9, 0.1]} for _ in range(3)]
            fh.write(json.dumps({"preds": exact + noise}) + "\n")
    scored = []
    score = metrics.evaluate_detections

    def recording(detections, *args):
        scored.append(detections)
        return score(detections, *args)

    monkeypatch.setattr(metrics, "evaluate_detections", recording)
    rows = []
    for top_k in ("0", "1"):
        argv = ["eval", "--config", tiny_cfg_path, "--predictions", str(tmp_path / "p.jsonl"), "--score-threshold", "0", "--top-k", top_k]
        assert main(argv) == 0
        rows.append(capsys.readouterr().out.splitlines()[1].split())
    assert [len(img) for img in scored[1]] == [1] * len(val)
    assert all(d.score == 0.9 for img in scored[1] for d in img)
    assert rows[0][0] != "0.000" and (rows[1][0], rows[1][5]) == ("0.000", "0.000")  # AP, AR


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
    # --threads must set the BLAS variables before numpy is first imported; a bare `import poet` loads no submodule
    import poet

    env = {**os.environ, "PYTHONPATH": str(Path(poet.__file__).parents[1])}
    code = "import sys, poet; print([m for m in sys.modules if m.startswith('poet.')]); import poet.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, env=env)
    assert out.stdout.split() == ["[]", "False"]


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


def _only_parameters(arrays):
    for name in [n for n in arrays if n.startswith(("optim.", "meta."))]:
        del arrays[name]


DAMAGED_CHECKPOINTS = {
    "parameters-only": (_only_parameters, "missing optim.m."),
    "optim-v-wrong-shape": (lambda a: a.update({"optim.v.head.class.weight": a["optim.v.head.class.weight"].T.copy()}), "optim.v.head.class.weight has shape (2, 16)"),
    "nan-parameter": (lambda a: a["head.class.bias"].__setitem__(0, math.nan), "NaN or infinite values: head.class.bias"),
    "infinite-moment": (lambda a: a["optim.m.queries.weight"].__setitem__((0, 0), math.inf), "NaN or infinite values: optim.m.queries.weight"),
    "nan-epoch": (lambda a: a["meta.epoch"].__setitem__(0, math.nan), "NaN or infinite values: meta.epoch"),
}


def _damaged_checkpoint(cfg_path, tmp_path, damage):
    from poet import checkpoint

    ckpt = _init_checkpoint(cfg_path, tmp_path)
    arrays = checkpoint.load_arrays(ckpt)
    damage(arrays)
    checkpoint.save_arrays(ckpt, arrays)
    return ckpt


@pytest.mark.parametrize("case", list(DAMAGED_CHECKPOINTS))
def test_resume_from_a_damaged_checkpoint_exit_2_before_any_log(tiny_cfg_path, tmp_path, case):
    damage, where = DAMAGED_CHECKPOINTS[case]
    ckpt = _damaged_checkpoint(tiny_cfg_path, tmp_path, damage)
    assert_usage_error(["train", "--config", tiny_cfg_path, "--resume", ckpt, "--out-dir", "run"], tmp_path, where)
    assert not (tmp_path / "run" / "losses.csv").exists()


def test_resume_from_a_truncated_checkpoint_exit_2(tiny_cfg_path, tmp_path):
    ckpt = Path(_init_checkpoint(tiny_cfg_path, tmp_path))
    ckpt.write_bytes(ckpt.read_bytes()[:-8])  # the last array written, meta.epoch, loses its value
    argv = ["train", "--config", tiny_cfg_path, "--resume", str(ckpt), "--out-dir", "run"]
    assert_usage_error(argv, tmp_path, "truncated while reading data of 'meta.epoch'")


def test_eval_of_a_checkpoint_with_a_nan_parameter_exit_2(tiny_cfg_path, tmp_path):
    damage, where = DAMAGED_CHECKPOINTS["nan-parameter"]
    assert_usage_error(["eval", "--checkpoint", _damaged_checkpoint(tiny_cfg_path, tmp_path, damage)], tmp_path, where)


def test_eval_accepts_a_parameters_only_checkpoint(tiny_cfg_path, tmp_path, capsys):
    ckpt = _damaged_checkpoint(tiny_cfg_path, tmp_path, _only_parameters)
    assert main(["eval", "--checkpoint", ckpt]) == 0
    assert "AP" in capsys.readouterr().out
