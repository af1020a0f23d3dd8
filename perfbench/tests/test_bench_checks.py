"""The benchmark's correctness checks pass the program's outputs and reject corrupted ones."""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

pytest.importorskip("scipy")

import checks  # noqa: E402
import spans  # noqa: E402
from poet import autodiff as ad  # noqa: E402
from poet import data, loss, matching, metrics, model, training  # noqa: E402
from poet.config import RunConfig  # noqa: E402
from poet.pose import PoseClass, PoseVector, PredictionSet, PredictionSlot, pad_targets  # noqa: E402

WEIGHTS = loss.LossWeights()
W3 = (WEIGHTS.lambda_l1, WEIGHTS.lambda_l2, WEIGHTS.lambda_ctr)


def random_problem(rng, n=12, humans=4, k=3):
    vis = (rng.random((humans, k)) < 0.7).astype(float)
    vis[:, 0] = 1.0
    t_vis = np.repeat(vis, 2, axis=1)
    t_center = rng.uniform(0.1, 0.9, (humans, 2))
    t_off = rng.normal(0.0, 0.1, (humans, 2 * k)) * t_vis
    p_center = rng.uniform(0.0, 1.0, (n, 2))
    p_off = rng.normal(0.0, 0.1, (n, 2 * k))
    p_vis = np.repeat(rng.random((n, k)), 2, axis=1)
    p_h = rng.uniform(0.05, 0.95, n)
    targets = pad_targets([PoseVector(t_center[i], t_off[i], t_vis[i], PoseClass.HUMAN) for i in range(humans)], n)
    preds = PredictionSet(
        [PredictionSlot((p_h[j], 1.0 - p_h[j]), PoseVector(p_center[j], p_off[j], p_vis[j], PoseClass.HUMAN)) for j in range(n)]
    )
    pad = lambda a: np.vstack([a, np.zeros((n - humans, a.shape[1]))])  # noqa: E731
    reference = checks.pair_costs(
        pad(t_center), pad(t_off), pad(t_vis), np.arange(n) < humans, p_h, p_center, p_off, p_vis, W3
    )
    return targets, preds, reference


def test_assignment_check_passes_solver_and_rejects_swapped_pairs():
    rng = np.random.default_rng(0)
    targets, preds, reference = random_problem(rng)
    cost = matching.build_cost_matrix(targets, preds, WEIGHTS)
    result = matching.hungarian_assign(cost)
    assert checks.check_pair_costs(cost.entries, reference, "case") == []
    assert checks.check_assignment(reference, result.perm, result.total_cost, 4, "case") == []

    perm = list(result.perm)
    perm[0], perm[1] = perm[1], perm[0]  # two humans trade predictions
    assert checks.check_assignment(reference, perm, result.total_cost, 4, "case")
    perm = list(result.perm)
    perm[5], perm[6] = perm[6], perm[5]  # same total, padding columns out of order
    assert checks.check_assignment(reference, perm, result.total_cost, 4, "case")
    assert checks.check_assignment(reference, result.perm, result.total_cost + 1e-6, 4, "case")
    assert checks.check_assignment(reference, result.perm[:-1] + (result.perm[0],), result.total_cost, 4, "case")


def test_pair_cost_check_rejects_one_wrong_entry():
    targets, preds, reference = random_problem(np.random.default_rng(1))
    entries = matching.build_cost_matrix(targets, preds, WEIGHTS).entries.copy()
    entries[2, 7] += 1e-9
    assert checks.check_pair_costs(entries, reference, "case")


def test_oks_check_rejects_value_off_by_1e6():
    rng = np.random.default_rng(2)
    params = metrics.OksParams.coco17()
    samples = []
    for _ in range(20):
        gt = rng.uniform(0, 96, (17, 2))
        pred = gt + rng.normal(0, 3, (17, 2))
        vis = (rng.random(17) < 0.7).astype(float)
        vis[0] = 2.0
        scale = float(np.sqrt(rng.uniform(1000, 5000)))
        samples.append((pred, gt, vis, scale, metrics.oks(pred, gt, vis, scale, params)))
    assert checks.check_oks(samples, params.k) == []
    pred, gt, vis, scale, value = samples[3]
    samples[3] = (pred, gt, vis, scale, value + 1e-6)
    assert len(checks.check_oks(samples, params.k)) == 1


TINY_SYNTH = data.SynthConfig(num_samples=3, image_size=32, num_keypoints=3, max_instances=2, blob_radius=1.5,
                              template_scale=0.2, seed=4)


def tiny_case():
    cfg = model.desk_config(
        d_model=16, enc_layers=1, dec_layers=1, heads=2, num_queries=4, num_keypoints=3,
        backbone_channels=(4, 8), backbone_strides=(2, 2), ffn_hidden=16, dropout=0.0,
    )
    return cfg, model.init_params(cfg, 7), data.synth_generate(TINY_SYNTH)


def test_closed_form_loss_and_gradient_check_reject_a_flipped_sign():
    cfg, params, ds = tiny_case()
    batch = next(data.batch_iter(ds, 3, None, cfg.num_queries))
    lw = W3 + (WEIGHTS.nonobject_class_weight,)
    targets = [
        {"center": np.array([p.center for p in t]), "offsets": np.array([p.offsets for p in t]),
         "vis": np.array([p.visibilities for p in t]), "human": np.array([p.is_human for p in t])}
        for t in batch.targets
    ]
    perms = [list(range(cfg.num_queries))[::-1] for _ in batch.targets]
    tape = ad.Tape()
    watched = model.watch_params(tape, params)
    outputs, _ = model.model_forward(ad.Tensor(batch.images), watched, cfg)
    total, _ = loss.hungarian_loss_graph(batch.targets, outputs, perms, WEIGHTS, batch.num_humans)
    arrays = {key: t.data for key, t in outputs.items()}
    assert checks.hungarian_loss(arrays, targets, perms, lw) == pytest.approx(float(total.data), rel=1e-12)

    grads = ad.backward(total)
    analytic = {}
    for name in ("head.pose.w3", "head.class.weight", "queries.weight"):
        g = grads.wrt(watched[name])
        idx = np.unravel_index(int(np.argmax(np.abs(g))), g.shape)
        analytic[(name, idx)] = float(g[idx])

    def loss_at(coord, delta):
        name, idx = coord
        shifted = dict(params)
        shifted[name] = params[name].copy()
        shifted[name][idx] += delta
        o, _ = model.model_forward(ad.Tensor(batch.images), model.constant_params(shifted), cfg)
        return checks.hungarian_loss({k: t.data for k, t in o.items()}, targets, perms, lw)

    assert checks.check_gradients(analytic, loss_at) == []
    first = next(iter(analytic))
    analytic[first] = -analytic[first]
    assert len(checks.check_gradients(analytic, loss_at)) == 1


def test_tracer_sees_names_imported_by_name_and_restores_them():
    cfg, params, ds = tiny_case()
    run = replace(RunConfig(), model=cfg, train=replace(RunConfig().train, batch_size=3))
    original = training.hungarian_loss_graph
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert training.hungarian_loss_graph is not original
        training.train_epoch(params, training.init_optim_state(params, run.optim), ds, run, 1)
    finally:
        tracer.uninstall()
    assert training.hungarian_loss_graph is original and loss.hungarian_loss_graph is original
    snap = tracer.snapshot()
    assert snap["calls"]["loss.graph"] == 1 and snap["calls"]["matching.solve"] == 3
    assert snap["calls"]["data.render_calls"] == 3 and snap["tape_nodes"][0] > 0
    # self times of the spans inside the epoch add up to no more than the epoch
    inner = sum(v for k, v in snap["self_s"].items() if k != "training.epoch")
    assert inner <= snap["inclusive_s"]["training.epoch"]


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results", "work"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match_n100", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
