import contextlib
import os
import signal
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import poet.autodiff as ad
from poet import model, training
from poet.config import OptimConfig, RunConfig, ScheduleConfig, load_config, parse_config
from poet.data import synth_generate
from poet.metrics import Detection, GroundTruthInstance, select_detections
from poet.model import desk_config
from poet.training import (
    OptimState,
    adamw_step,
    clip_gradients,
    dataset_loss,
    effective_lr,
    evaluate,
    init_optim_state,
    load_checkpoint,
    save_checkpoint,
    train_epoch,
    train_run,
)


def scalar_state(value=1.0, **kw):
    params = {"w": np.array([value])}
    return params, init_optim_state(params, OptimConfig(**kw))


TINY_CFG_TEXT = """
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
train.val_samples = 12
train.checkpoint_every = 1
synth.num_samples = 24
synth.image_size = 32
synth.num_keypoints = 2
synth.max_instances = 2
synth.seed = 2
"""


def tiny_run() -> RunConfig:
    return parse_config(TINY_CFG_TEXT)


def test_adamw_zero_grad_no_decay_keeps_params():
    params, state = scalar_state(2.0, weight_decay=0.0)
    adamw_step(params, {"w": np.zeros(1)}, state)
    assert params["w"][0] == 2.0


def test_adamw_first_step_matches_hand_value():
    params, state = scalar_state(0.0, weight_decay=0.0, lr_transformer=1e-3)
    adamw_step(params, {"w": np.ones(1)}, state)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert params["w"][0] == pytest.approx(expected, rel=1e-12)


def test_adamw_pure_decay_shrinks_multiplicatively():
    params, state = scalar_state(3.0, weight_decay=0.01, lr_transformer=1e-2)
    adamw_step(params, {"w": np.zeros(1)}, state)
    assert params["w"][0] == pytest.approx(3.0 * (1.0 - 1e-2 * 0.01), rel=1e-14)


def test_adamw_skips_decay_for_bias_and_gain():
    params = {"layer.bias": np.array([1.0]), "layer.ln.gain": np.array([1.0]), "layer.w": np.array([1.0])}
    state = init_optim_state(params, OptimConfig(weight_decay=0.5, lr_transformer=1e-1))
    adamw_step(params, {k: np.zeros(1) for k in params}, state)
    assert params["layer.bias"][0] == 1.0
    assert params["layer.ln.gain"][0] == 1.0
    assert params["layer.w"][0] == pytest.approx(1.0 - 0.1 * 0.5, rel=1e-14)


def test_adamw_backbone_group_uses_backbone_lr():
    params = {"backbone.stage0.weight": np.array([1.0]), "head.class.weight": np.array([1.0])}
    state = init_optim_state(params, OptimConfig(lr_transformer=1e-2, lr_backbone=1e-4, weight_decay=0.0))
    adamw_step(params, {k: np.ones(1) for k in params}, state)
    back = 1.0 - params["backbone.stage0.weight"][0]
    head = 1.0 - params["head.class.weight"][0]
    assert head / back == pytest.approx(100.0, rel=1e-6)


def oracle_adamw_step(params, grads, state, lr_transformer=None, lr_backbone=None):
    """The plain AdamW loop, one full-size temporary per operation; adamw_step must equal it bit for bit."""
    cfg = state.config
    lr_t = cfg.lr_transformer if lr_transformer is None else lr_transformer
    lr_b = cfg.lr_backbone if lr_backbone is None else lr_backbone
    state.step += 1
    b1c = 1.0 - cfg.beta1**state.step
    b2c = 1.0 - cfg.beta2**state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        lr = lr_b if name.startswith("backbone.") else lr_t
        update = lr * (m / b1c) / (np.sqrt(v / b2c) + cfg.eps)
        if cfg.weight_decay and training._decayed(name):
            update = update + lr * cfg.weight_decay * p
        p -= update
    return params


def oracle_clip(grads, max_norm):
    """The copy clip_gradients used to hand to adamw_step: every gradient times max_norm / norm when the norm is over it."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm <= 0 or norm <= max_norm:
        return grads
    return {name: g * (max_norm / norm) for name, g in grads.items()}


@pytest.mark.parametrize("on_lane", [False, True])
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_adamw_step_equals_the_plain_loop_bit_for_bit(weight_decay, on_lane, lane):
    # both learning-rate groups, decayed weights and undecayed biases and gains, of different sizes
    rng = np.random.default_rng(11)
    shapes = {
        "backbone.stage0.weight": (8, 3, 3, 3),
        "backbone.stage0.bias": (8,),
        "encoder.layer0.attn.wq": (16, 16),
        "encoder.layer0.norm1.gain": (16,),
        "head.class.weight": (16, 2),
    }
    params = {name: rng.normal(0.0, 0.5, shape) for name, shape in shapes.items()}
    reference = {name: p.copy() for name, p in params.items()}
    config = OptimConfig(lr_transformer=3e-3, lr_backbone=7e-4, weight_decay=weight_decay)
    state, ref_state = init_optim_state(params, config), init_optim_state(reference, config)
    lane = lane if on_lane else None
    clip_fired = []
    for step in range(6):
        grads = {name: rng.normal(0.0, 10.0 ** rng.integers(-3, 2), p.shape) for name, p in params.items()}
        kept = {name: g.copy() for name, g in grads.items()}
        max_norm = 1.0 if step % 2 else 0.0
        scale, norm = clip_gradients(grads, max_norm, lane=lane)
        clipped = oracle_clip(grads, max_norm)
        clip_fired.append(clipped is not grads)
        assert (scale == 1.0) == (clipped is grads)
        lrs = {} if step < 3 else {"lr_transformer": 1e-3 / step, "lr_backbone": 2e-4 / step}
        adamw_step(params, grads, state, scale=scale, lane=lane, **lrs)
        oracle_adamw_step(reference, clipped, ref_state, **lrs)
        assert state.step == ref_state.step
        for name in params:
            for got, want in ((params, reference), (state.m, ref_state.m), (state.v, ref_state.v), (grads, kept)):
                assert got[name].tobytes() == want[name].tobytes(), (step, name)
    assert any(clip_fired) and not all(clip_fired)


def test_adamw_shape_mismatch():
    params, state = scalar_state()
    with pytest.raises(ad.ShapeMismatch):
        adamw_step(params, {"w": np.zeros(2)}, state)


def test_clip_gradients_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    scale, norm = clip_gradients(grads, 0.5)
    assert norm == 5.0 and scale == 0.5 / 5.0
    total = np.sqrt(sum(float((g * scale * (g * scale)).sum()) for g in grads.values()))
    assert total == pytest.approx(0.5, rel=1e-12)
    assert clip_gradients(grads, 10.0) == (1.0, 5.0)
    assert clip_gradients(grads, 0.0) == (1.0, 5.0)
    assert [g.tolist() for g in grads.values()] == [[3.0], [4.0]]


@pytest.mark.parametrize("seed", range(5))
def test_clip_gradients_norm_equals_the_plain_expression(seed):
    r = np.random.default_rng(seed)
    shapes = [(int(r.integers(1, 40)),), (3, int(r.integers(1, 30))), (4, 3, 3, 3), (), (17, 5)]
    mixed = {f"g{i}": r.normal(0.0, 10.0 ** r.uniform(-3, 3), shape) for i, shape in enumerate(shapes)}
    mixed["strided"] = r.normal(size=(90, 80))[::2, 1::3]
    # F-ordered, as a VJP may hand one back; large enough that summing in another order changes the bits
    transposed = {"t": r.normal(size=(300, 257)).T}
    for grads in (mixed, transposed, {**mixed, **transposed}):
        plain = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
        for max_norm in (0.0, plain / 3, plain * 2):
            _, norm = clip_gradients(grads, max_norm)
            assert norm == plain


def test_effective_lr_drops_compound_exactly():
    sched = ScheduleConfig(epochs=30, drop_epochs=(10, 20), drop_factor=10.0)
    base = 1e-4
    assert effective_lr(base, sched, 10) == base
    assert effective_lr(base, sched, 11) == base / 10.0
    assert effective_lr(base, sched, 21) == base / 10.0 / 10.0


def test_lr_zero_keeps_params_unchanged_over_epoch():
    run = parse_config(TINY_CFG_TEXT + "optim.lr_transformer = 0\noptim.lr_backbone = 0\noptim.weight_decay = 0\n")
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, run.seed)
    before = {k: v.copy() for k, v in params.items()}
    optim = init_optim_state(params, run.optim)
    train_epoch(params, optim, dataset, run, epoch=1)
    for name in params:
        np.testing.assert_array_equal(params[name], before[name])


def test_train_epoch_decreases_loss_and_is_deterministic():
    run = tiny_run()
    dataset = synth_generate(run.synth)

    def run_two_epochs():
        params = model.init_params(run.model, run.seed)
        optim = init_optim_state(params, run.optim)
        b1 = train_epoch(params, optim, dataset, run, epoch=1)
        b2 = train_epoch(params, optim, dataset, run, epoch=2)
        return b1, b2, params

    b1a, b2a, params_a = run_two_epochs()
    b1b, b2b, params_b = run_two_epochs()
    assert b2a.total < b1a.total
    assert (b1a, b2a) == (b1b, b2b)
    for name in params_a:
        assert params_a[name].tobytes() == params_b[name].tobytes()


def test_overfit_single_sample():
    run = parse_config(
        TINY_CFG_TEXT
        + "synth.num_samples = 1\nsynth.max_instances = 1\ntrain.batch_size = 1\n"
        + "optim.lr_transformer = 1e-3\noptim.lr_backbone = 1e-3\noptim.weight_decay = 0\n"
    )
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, run.seed)
    optim = init_optim_state(params, run.optim)
    first = train_epoch(params, optim, dataset, run, epoch=1)
    last = None
    for epoch in range(2, 201):
        last = train_epoch(params, optim, dataset, run, epoch=epoch)
    assert last.total < 0.1 * first.total


def test_checkpoint_roundtrip(tmp_path):
    run = tiny_run()
    params = model.init_params(run.model, run.seed)
    optim = init_optim_state(params, run.optim)
    optim.step = 7
    optim.m["queries.weight"] += 0.5
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, params, optim, epoch=3)
    params2, optim2, epoch = load_checkpoint(path, run.optim)
    assert epoch == 3 and optim2.step == 7
    assert set(params2) == set(params)
    for name in params:
        assert params2[name].tobytes() == params[name].tobytes()
        assert optim2.m[name].tobytes() == optim.m[name].tobytes()


def test_matching_records_no_tape_nodes():
    run = tiny_run()
    dataset = synth_generate(run.synth)
    batch = next(iter(__import__("poet.data", fromlist=["batch_iter"]).batch_iter(dataset, 4, None, run.model.num_queries)))
    tape = ad.Tape()
    watched = model.watch_params(tape, model.init_params(run.model, 0))
    outputs, _ = model.model_forward(ad.Tensor(batch.images), watched, run.model, train=False)
    before = len(tape)
    pred_sets = model.slots_from_outputs(outputs, run.model)
    from poet.matching import build_cost_matrix, hungarian_assign

    for targets, preds in zip(batch.targets, pred_sets):
        hungarian_assign(build_cost_matrix(targets, preds, run.loss))
    assert len(tape) == before


def test_evaluate_perfect_and_empty_threshold():
    # hand-made "model output": detections equal to the ground truth
    run = tiny_run()
    dataset = synth_generate(run.synth)
    gts = training.ground_truths(dataset)
    from poet.metrics import OksParams, evaluate_detections

    perfect = [[Detection(g.keypoints, 1.0) for g in img if g.num_visible > 0] for img in gts]
    result = evaluate_detections(perfect, gts, OksParams.uniform(run.model.num_keypoints))
    assert result.ap == 1.0 and result.ar == 1.0


def test_detections_threshold_and_topk():
    # four slots of one image, one keypoint each; ties in score keep slot order under top-k
    score = np.array([[0.9, 0.4, 0.7, 0.9]])
    center = np.full((1, 4, 2), 0.5)
    offsets = np.array([[[0.1, 0.1], [0.0, 0.0], [-0.1, 0.2], [0.2, 0.0]]])
    (by_threshold,) = select_detections(score, center, offsets, [(100.0, 50.0)], 0.5, 0)
    assert [d.score for d in by_threshold] == [0.9, 0.7, 0.9]
    np.testing.assert_array_equal(by_threshold[1].keypoints, [[(0.5 - 0.1) * 100.0, (0.5 + 0.2) * 50.0]])
    (top2,) = select_detections(score, center, offsets, [(100.0, 50.0)], 0.5, 2)
    assert [d.score for d in top2] == [0.9, 0.9]
    np.testing.assert_array_equal(top2[1].keypoints, [[(0.5 + 0.2) * 100.0, 0.5 * 50.0]])
    assert select_detections(score, center, offsets, [(100.0, 50.0)], 1.0, 0) == [[]]


def _slot_path_detections(params, cfg, dataset, score_threshold, top_k, batch_size):
    """Per-layer detections through prediction-slot objects and decode_pose, one slot at a time."""
    from oracles import decode_pose
    from poet.data import batch_iter

    cparams = model.constant_params(params)
    per_layer = [[] for _ in range(cfg.dec_layers)]
    for batch in batch_iter(dataset, batch_size, None, cfg.num_queries):
        _, states = model.model_forward(ad.Tensor(batch.images), cparams, cfg, train=False)
        for li, state in enumerate(states):
            for b, pred_set in enumerate(model.slots_from_outputs(model.head_forward(state, cparams, cfg), cfg)):
                slots = list(pred_set)
                if top_k > 0:
                    chosen = [slots[j] for j in sorted(range(len(slots)), key=lambda j: (-slots[j].score, j))[:top_k]]
                else:
                    chosen = [slot for slot in slots if slot.score >= score_threshold]
                size = dataset.samples[batch.indices[b]].size
                per_layer[li].append([Detection(decode_pose(slot.pose, size)[:, :2], slot.score) for slot in chosen])
    return per_layer


@pytest.mark.parametrize("score_threshold,top_k", [(0.0, 0), (0.5, 0), (0.0, 3)])
def test_evaluate_equals_slot_path(score_threshold, top_k, monkeypatch):
    from poet import metrics

    run = tiny_run()
    dataset = training.resolve_dataset("synth", run, "val")
    params = model.init_params(run.model, 4)
    params["head.class.bias"] = np.array([1.0, 0.0])  # human scores on both sides of 0.5 in every layer
    scored = []
    score = metrics.evaluate_detections

    def recording(detections, *args):
        scored.append(detections)
        return score(detections, *args)

    monkeypatch.setattr(metrics, "evaluate_detections", recording)
    final, per_layer = evaluate(params, run.model, dataset, score_threshold, top_k)
    expected = _slot_path_detections(params, run.model, dataset, score_threshold, top_k, batch_size=5)
    assert len(scored) == len(expected) == run.model.dec_layers
    for got_layer, want_layer in zip(scored, expected):
        assert [[(d.keypoints.tobytes(), d.score) for d in img] for img in got_layer] == [
            [(d.keypoints.tobytes(), d.score) for d in img] for img in want_layer
        ]
    gts = training.ground_truths(dataset)
    oks_params = training.default_oks_params(run.model.num_keypoints)
    assert per_layer == [score(dets, gts, oks_params) for dets in expected]
    assert final == per_layer[-1] and final.ap is not None


@pytest.mark.parametrize("chunk", [1, 5])
def test_evaluate_chunks_give_the_whole_set_forwards_results(chunk, monkeypatch):
    from poet import metrics

    run = tiny_run()
    dataset = training.resolve_dataset("synth", run, "val")
    params = model.init_params(run.model, 4)
    cfg = run.model
    # one image's largest activation: the attention scores at 32 px (the first stage's im2col is 3 * 9 * 16 * 16)
    per_image_bytes = 8 * cfg.heads * (32 // cfg.total_stride) ** 4
    assert per_image_bytes > 8 * cfg.image_channels * 9 * 16 * 16
    forwards, scored = [], []
    forward, score = model.model_forward, metrics.evaluate_detections

    def counting(images, *args, **kwargs):
        forwards.append(images.shape[0])
        return forward(images, *args, **kwargs)

    def recording(detections, *args):
        scored.append([[(d.keypoints.tobytes(), d.score) for d in img] for img in detections])
        return score(detections, *args)

    monkeypatch.setattr(model, "model_forward", counting)
    monkeypatch.setattr(metrics, "evaluate_detections", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # forwards are counted in this process
    results = []
    for budget in (1 << 40, chunk * per_image_bytes + per_image_bytes - 1):
        monkeypatch.setattr(training, "EVAL_CHUNK_BYTES", budget)
        results.append(evaluate(params, cfg, dataset, 0.0, 0))
    n = len(dataset)
    assert forwards == [n] + [chunk] * (n // chunk) + ([n % chunk] if n % chunk else [])
    assert chunk == 1 or n % chunk  # the chunks of 5 end in a partial one
    whole, chunked = scored[: cfg.dec_layers], scored[cfg.dec_layers :]
    assert whole == chunked
    assert results[0] == results[1]


def test_images_per_forward_follows_the_largest_activation(monkeypatch):
    monkeypatch.setattr(training, "EVAL_CHUNK_BYTES", 8 << 20)
    synth_tiny = desk_config(image_channels=5)  # configs/synth_tiny.cfg's model
    # 96 px: the first stage's im2col block, 5 * 9 * 48 * 48 elements, beats the scores' 4 * 144 ** 2
    assert training._images_per_forward(synth_tiny, 96, 96) == (8 << 20) // (8 * 5 * 9 * 48 * 48)
    # 128 px at paper scale: scores of 8 heads over 16 tokens, against an im2col block of 3 * 9 * 64 * 64
    assert training._images_per_forward(model.ModelConfig.paper_scale(), 128, 128) == (8 << 20) // (8 * 3 * 9 * 64 * 64)
    assert training._images_per_forward(synth_tiny, 1024, 1024) == 1


def _split_run(monkeypatch, cores: int, images_per_chunk: int):
    """tiny_run's 12 val images and 8 slots, with `cores` usable cores, one BLAS thread and chunks of that many images."""
    run = parse_config(TINY_CFG_TEXT + "model.num_queries = 8\n")
    cfg = run.model
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    per_image_bytes = 8 * cfg.heads * (32 // cfg.total_stride) ** 4  # the attention scores, as above
    monkeypatch.setattr(training, "EVAL_CHUNK_BYTES", images_per_chunk * per_image_bytes)
    params = model.init_params(cfg, 4)
    params["head.class.bias"] = np.array([-1.5, 0.0])  # human scores on both sides of 0.5 in every layer
    return params, cfg, training.resolve_dataset("synth", run, "val")


def _parent_ranges(monkeypatch) -> list[range]:
    """The image ranges this process forwards; a forked child's calls are not seen here."""
    ranges = []
    forward = training._forward_range

    def recording(dataset, images, *args):
        ranges.append(images)
        return forward(dataset, images, *args)

    monkeypatch.setattr(training, "_forward_range", recording)
    return ranges


@pytest.mark.parametrize("score_threshold,top_k", [(0.0, 0), (0.5, 0), (0.0, 5)])
def test_evaluate_on_two_workers_equals_one_bit_for_bit(score_threshold, top_k, monkeypatch):
    from poet import metrics

    scored = []
    score = metrics.evaluate_detections

    def recording(detections, *args):
        scored.append([[(d.keypoints.tobytes(), np.float64(d.score).tobytes()) for d in img] for img in detections])
        return score(detections, *args)

    monkeypatch.setattr(metrics, "evaluate_detections", recording)
    results, ranges = [], _parent_ranges(monkeypatch)
    for cores in (1, 2):
        params, cfg, dataset = _split_run(monkeypatch, cores, images_per_chunk=2)  # 6 chunks, 3 per worker
        results.append(evaluate(params, cfg, dataset, score_threshold, top_k))
    assert ranges == [range(0, 12), range(0, 6)]
    one, two = scored[: cfg.dec_layers], scored[cfg.dec_layers :]
    assert one == two and sum(len(img) for layer in one for img in layer) > 0
    assert results[0] == results[1]
    if top_k:
        assert all(len(img) == top_k for layer in one for img in layer)
    elif score_threshold:
        assert all(0 < sum(len(img) for img in layer) < 12 * cfg.num_queries for layer in one)


@pytest.mark.parametrize("death", ["raises", "exits", "parent raises"])
def test_a_failed_forward_names_its_range_and_leaves_no_child(death, monkeypatch):
    import multiprocessing
    import time

    params, cfg, dataset = _split_run(monkeypatch, 2, images_per_chunk=4)
    parent, forward = os.getpid(), model.model_forward

    def failing(*args, **kwargs):
        if death == "parent raises" and os.getpid() == parent:
            raise FloatingPointError("injected in the parent")
        if death == "parent raises":
            time.sleep(60)  # still forwarding when the parent fails
        elif os.getpid() != parent:
            if death == "exits":
                os._exit(3)
            raise FloatingPointError("injected")
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "model_forward", failing)
    if death == "parent raises":
        expected = pytest.raises(FloatingPointError, match="injected in the parent")
    else:
        message = "FloatingPointError: injected" if death == "raises" else "the worker exited without sending"
        expected = pytest.raises(RuntimeError, match=r"evaluating images 6\.\.11: " + message)
    started = time.perf_counter()
    with expected:
        evaluate(params, cfg, dataset, 0.0, 0)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - started < 30


@pytest.mark.parametrize(
    "cores,images_per_chunk,blas_threads,parent_range",
    [
        (1, 2, "1", range(0, 12)),  # one core
        (2, 12, "1", range(0, 12)),  # one chunk
        (2, 2, "2", range(0, 12)),  # the BLAS threads take both cores
        (2, 2, "", range(0, 12)),  # unset: BLAS takes every core
        (2, 2, "1", range(0, 6)),
        (4, 6, "1", range(0, 6)),  # two chunks on four cores
    ],
)
def test_worker_count_stays_within_free_cores_and_chunks(cores, images_per_chunk, blas_threads, parent_range, monkeypatch):
    params, cfg, dataset = _split_run(monkeypatch, cores, images_per_chunk)
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if blas_threads:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    ranges = _parent_ranges(monkeypatch)
    if parent_range == range(0, 12):

        def no_fork():
            raise AssertionError("a run with one worker forked")

        monkeypatch.setattr(os, "fork", no_fork)
    evaluate(params, cfg, dataset, 0.0, 0)
    assert ranges == [parent_range]


def test_validate_matches_dataset_loss_and_evaluate():
    run = parse_config(TINY_CFG_TEXT + "train.score_threshold = 0.3\ntrain.top_k = 2\n")
    dataset = training.resolve_dataset("synth", run, "val")
    params = model.init_params(run.model, 6)
    loss, final, per_layer = training.validate(params, dataset, run)
    assert loss == dataset_loss(params, dataset, run)
    expected = evaluate(params, run.model, dataset, 0.3, 2)
    assert (final, per_layer) == expected


def test_dataset_loss_matches_per_image_reference_loss():
    from poet.data import batch_iter
    from poet.loss import hungarian_loss

    run = tiny_run()
    dataset = training.resolve_dataset("synth", run, "val")
    params = model.init_params(run.model, 2)
    cparams = model.constant_params(params)
    terms = ("class_nll", "keypoint_l1", "visibility_l2", "center_l2")
    batch_sums = []  # per batch, each term summed over its images' plain-float losses
    for batch in batch_iter(dataset, run.train.batch_size, None, run.model.num_queries):
        outputs, _ = model.model_forward(ad.Tensor(batch.images), cparams, run.model, train=False)
        assignments = training._batch_assignments(batch.targets, outputs, run.loss)
        per_image = [
            hungarian_loss(t, p, a, run.loss, batch.num_humans, num_images_in_batch=len(batch.targets))
            for t, p, a in zip(batch.targets, model.slots_from_outputs(outputs, run.model), assignments)
        ]
        batch_sums.append({term: sum(getattr(b, term) for b in per_image) for term in terms})
    expected = {term: sum(s[term] for s in batch_sums) / len(batch_sums) for term in terms}
    expected["total"] = sum(expected.values())
    got = dataset_loss(params, dataset, run)
    for field, value in expected.items():
        assert abs(getattr(got, field) - value) <= 1e-12


def test_evaluate_images_with_more_people_than_slots():
    run = parse_config(TINY_CFG_TEXT + "synth.max_instances = 9\nsynth.min_instances = 9\n")
    dataset = synth_generate(run.synth)
    assert min(len(s.keypoints) for s in dataset.samples) > run.model.num_queries
    final, per_layer = evaluate(model.init_params(run.model, 1), run.model, dataset, score_threshold=0.0)
    assert len(per_layer) == run.model.dec_layers
    assert final == per_layer[-1] and final.ap is not None


def test_train_run_one_forward_per_half_batch_and_no_slot_objects(tmp_path, monkeypatch):
    monkeypatch.setattr(training, "_free_cores", lambda: 1)  # both halves in this process, where they are counted
    run = parse_config("synth.num_samples = 25\n", base=tiny_run())  # a last batch of 1, with an empty second half
    modes = []
    forward = model.model_forward

    def counting(images, params, cfg, train=False, rng=None):
        modes.append(train)
        return forward(images, params, cfg, train, rng)

    def no_slots(*args, **kwargs):
        raise AssertionError("training built prediction-slot objects")

    monkeypatch.setattr(model, "model_forward", counting)
    monkeypatch.setattr(model, "slots_from_outputs", no_slots)
    summary = train_run(run, str(tmp_path / "run"))
    kept = run.synth.num_samples - summary["dropped_empty"] - summary["dropped_overfull"]
    evals = sum(1 for line in (tmp_path / "run" / "losses.csv").read_text().splitlines() if ",val," in line)
    assert evals == run.schedule.epochs
    sizes = [min(run.train.batch_size, kept - start) for start in range(0, kept, run.train.batch_size)]
    assert sizes[-1] == 1
    assert modes.count(True) == run.schedule.epochs * sum(1 + (size > 1) for size in sizes)
    assert modes.count(False) == evals * -(-run.train.val_samples // run.train.batch_size)


def test_one_process_split_steps_encode_each_sample_once_per_epoch(monkeypatch):
    from poet import data

    monkeypatch.setattr(training, "_free_cores", lambda: 1)  # both halves of every batch in this process
    run = parse_config("synth.num_samples = 25\n", base=tiny_run())
    dataset = synth_generate(run.synth)
    encode, calls = data.encode_targets, []
    monkeypatch.setattr(data, "encode_targets", lambda *args: calls.append(args) or encode(*args))
    params = model.init_params(run.model, run.seed)
    train_epoch(params, init_optim_state(params, run.optim), dataset, run, 1)
    assert len(calls) == len(dataset)


def test_training_validation_and_gradcheck_build_no_pose_objects(monkeypatch):
    import sys

    from poet import gradcheck

    def refuse(*args, **kwargs):
        raise AssertionError("pose objects built")

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "poet" or name.startswith("poet."):
            for attr in ("PoseVector", "encode_pose", "pad_targets"):
                if attr in vars(module):
                    monkeypatch.setattr(module, attr, refuse)
                    patched += 1
    assert patched >= 3
    run = tiny_run()
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, 4)
    train_epoch(params, init_optim_state(params, run.optim), dataset, run, 1)
    loss, final, _ = training.validate(params, training.resolve_dataset("synth", run, "val"), run)
    assert np.isfinite(loss.total) and final.ap is not None
    assert gradcheck.check_loss(0, cases=10) < gradcheck.LOSS_TOLERANCE


def test_evaluate_per_layer_count_and_threshold_one():
    run = tiny_run()
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, 1)
    final, per_layer = evaluate(params, run.model, dataset, score_threshold=1.0)
    assert len(per_layer) == run.model.dec_layers
    assert final.ap == 0.0  # threshold 1.0 keeps nothing


def test_train_run_outputs_and_resume(tmp_path):
    run = tiny_run()
    out = tmp_path / "run"
    summary = train_run(run, str(out))
    assert (out / "losses.csv").exists()
    assert (out / "map.csv").exists()
    assert (out / "per_layer_map.csv").exists()
    assert (out / "checkpoint_final.bin").exists()
    assert (out / "checkpoint_final.bin.cfg").exists()
    lines = (out / "losses.csv").read_text().splitlines()
    assert lines[0] == "epoch,split,class,keypoint,visibility,center,total"
    assert (out / "map.csv").read_text().splitlines()[0] == "epoch,ap,ap50,ap75,ap_m,ap_l,ar,ar50,ar75,ar_m,ar_l"
    assert (out / "per_layer_map.csv").read_text().splitlines()[0] == "epoch,layer,ap,ap50,ap75,ap_m,ap_l,ar,ar50,ar75,ar_m,ar_l"
    assert len([l for l in lines if l.startswith("1,train")]) == 1

    # validation loss logged at epoch 1 equals the loss recomputed from that checkpoint
    params, _, _ = load_checkpoint(str(out / "checkpoint_epoch0001.bin"), run.optim)
    val_ds = training.resolve_dataset("synth", run, "val")
    recomputed = dataset_loss(params, val_ds, run)
    val_row = next(l for l in lines if l.startswith("1,val"))
    logged_total = float(val_row.split(",")[-1])
    assert logged_total == pytest.approx(recomputed.total, rel=1e-12)

    # resuming from the epoch-1 checkpoint reproduces the direct 2-epoch run
    out2 = tmp_path / "resumed"
    out2.mkdir()
    import shutil

    shutil.copy(out / "checkpoint_epoch0001.bin", out2 / "start.bin")
    summary2 = train_run(run, str(out2), resume=str(out2 / "start.bin"))
    for name in summary["params"]:
        assert summary["params"][name].tobytes() == summary2["params"][name].tobytes()


def test_train_run_rejects_overfull_synth(tmp_path):
    run = parse_config(TINY_CFG_TEXT + "synth.max_instances = 9\nsynth.min_instances = 9\n")
    from poet.config import ConfigError

    with pytest.raises(ConfigError, match="prediction slots"):
        train_run(run, str(tmp_path / "x"))


def test_training_cost_matrix_equals_build_cost_matrix_bit_for_bit():
    from oracles import match_cost
    from poet import matching
    from poet.data import batch_iter

    # 17 keypoints: the 34-term sums take numpy's unrolled summation path
    run = parse_config(TINY_CFG_TEXT + "model.num_keypoints = 17\nsynth.num_keypoints = 17\n")
    batch = next(batch_iter(synth_generate(run.synth), 8, None, run.model.num_queries))
    cparams = model.constant_params(model.init_params(run.model, 3))
    outputs, _ = model.model_forward(ad.Tensor(batch.images), cparams, run.model, train=False)
    pred_sets = model.slots_from_outputs(outputs, run.model)
    expected = []
    for b, (targets, preds) in enumerate(zip(batch.targets, pred_sets)):
        arrays = [outputs["class_probs"].data[b, :, 0]] + [outputs[k].data[b] for k in ("center", "offsets", "visibility")]
        got = matching.array_cost_matrix(
            targets.human, targets.center, targets.offsets, targets.visibilities, *arrays, run.loss
        ).entries
        want = matching.build_cost_matrix(targets, preds, run.loss).entries
        assert got.tobytes() == want.tobytes()
        for i, target in enumerate(targets):
            assert [got[i, j] for j in range(len(preds))] == [match_cost(target, p, run.loss) for p in preds]
        expected.append(matching.hungarian_assign(want))
    assert training._batch_assignments(batch.targets, outputs, run.loss) == expected


@pytest.mark.parametrize("on_lane", [False, True])
def test_non_finite_gradient_is_rejected_before_the_update(on_lane, lane):
    # with a lane, "a" is summed and updated on this thread and "w" on the lane
    params = {"a": np.array([0.5]), "w": np.array([0.5, -0.25, 2.0])}
    state = init_optim_state(params, OptimConfig())
    before = {name: p.copy() for name, p in params.items()}
    lane = lane if on_lane else None
    grads = {"a": np.array([0.1]), "w": np.array([1.0, np.nan, 0.0])}
    with pytest.raises(training.TrainBatchError, match="gradient of w"):
        training.apply_gradients(params, grads, state, 1.0, 0.1, lane=lane)
    with pytest.raises(training.TrainBatchError, match="gradient of w"):
        training.apply_gradients(params, grads, state, 1.0, 0.0, lane=lane)
    with pytest.raises(training.TrainBatchError, match="non-finite loss"):
        training.apply_gradients(params, {"a": np.ones(1), "w": np.ones(3)}, state, float("nan"), 0.0, lane=lane)
    for name in params:
        assert params[name].tobytes() == before[name].tobytes()
        assert not state.m[name].any() and not state.v[name].any()
    assert state.step == 0


def test_finite_gradient_step_matches_clip_then_adamw():
    params = {"w": np.array([0.5, -0.25, 2.0])}
    reference = {"w": params["w"].copy()}
    state = init_optim_state(params, OptimConfig())
    ref_state = init_optim_state(reference, OptimConfig())
    grads = {"w": np.array([1.0, -2.0, 0.5])}
    norm = training.apply_gradients(params, grads, state, 1.0, 0.1)
    clipped = oracle_clip(grads, 0.1)
    assert clipped is not grads
    adamw_step(reference, clipped, ref_state)
    assert norm == float(np.sqrt((grads["w"] * grads["w"]).sum()))
    for got, want in ((params, reference), (state.m, ref_state.m), (state.v, ref_state.v)):
        assert got["w"].tobytes() == want["w"].tobytes()


def _three_epoch_run():
    return parse_config(TINY_CFG_TEXT + "schedule.epochs = 3\n")


def test_resume_into_fresh_directory_writes_headers(tmp_path):
    run = _three_epoch_run()
    train_run(run, str(tmp_path / "direct"))
    fresh = tmp_path / "fresh"
    train_run(run, str(fresh), resume=str(tmp_path / "direct" / "checkpoint_epoch0001.bin"))
    for name in ("losses.csv", "map.csv", "per_layer_map.csv"):
        direct = (tmp_path / "direct" / name).read_text().splitlines()
        resumed = (fresh / name).read_text().splitlines()
        assert resumed[0] == direct[0]
        assert resumed[1:] == [line for line in direct[1:] if int(line.split(",")[0]) > 1]


def test_resume_in_place_keeps_logs_byte_identical(tmp_path):
    run = _three_epoch_run()
    train_run(run, str(tmp_path / "direct"))
    in_place = tmp_path / "in_place"
    train_run(run, str(in_place))
    train_run(run, str(in_place), resume=str(in_place / "checkpoint_epoch0001.bin"))
    for name in ("losses.csv", "map.csv", "per_layer_map.csv"):
        assert (in_place / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()
    assert not list(in_place.glob("*.tmp"))


# ---------------------------------------------------------------------------
# the training lane: the same numbers with a second thread as without


def _desk_run() -> RunConfig:
    """configs/synth_tiny.cfg with 24 samples, two epochs and an lr drop after the first."""
    run = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "synth_tiny.cfg"))
    return parse_config("synth.num_samples = 24\nschedule.epochs = 2\nschedule.drop_epochs = 1\n", base=run)


PAPER_LIKE_CFG_TEXT = """
run.seed = 7
model.d_model = 32
model.enc_layers = 2
model.dec_layers = 2
model.heads = 4
model.num_queries = 25
model.num_keypoints = 17
model.image_channels = 3
model.ffn_hidden = 64
model.backbone_channels = 8,16,32
model.backbone_strides = 2,2,2
schedule.epochs = 2
schedule.drop_epochs = 1
train.batch_size = 4
synth.num_samples = 8
synth.image_size = 64
synth.num_keypoints = 17
synth.min_instances = 4
synth.max_instances = 4
synth.channels = 3
synth.seed = 5
"""


def _spy_clip(monkeypatch) -> list:
    """Record (clip factor, whether a lane was passed) of every clip_gradients call apply_gradients makes."""
    seen = []
    clip = training.clip_gradients

    def spy(grads, max_norm, lane=None):
        scale, norm = clip(grads, max_norm, lane=lane)
        seen.append((scale, lane is not None))
        return scale, norm

    monkeypatch.setattr(training, "clip_gradients", spy)
    return seen


def _two_epochs(run: RunConfig, free_cores: int, seen: list, monkeypatch):
    """Two epochs from the initial parameters, with any model on the lane; seen (from _spy_clip) is emptied first."""
    monkeypatch.setattr(training, "_free_cores", lambda: free_cores)
    monkeypatch.setattr(training, "LANE_MIN_PARAMS", 0)
    seen.clear()
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, run.seed)
    optim = init_optim_state(params, run.optim)
    threads = threading.active_count()
    breakdowns = [train_epoch(params, optim, dataset, run, epoch) for epoch in (1, 2)]
    assert threading.active_count() == threads
    return params, optim, breakdowns, list(seen)


@pytest.mark.parametrize("which", ["desk", "paper_like"])
def test_train_epoch_on_a_lane_equals_one_thread_bit_for_bit(which, monkeypatch):
    # clip norms between the first and the last steps' gradient norms
    if which == "desk":
        run = parse_config("optim.clip_norm = 300\n", base=_desk_run())
    else:
        run = parse_config(PAPER_LIKE_CFG_TEXT + "optim.clip_norm = 4600\n")
    seen = _spy_clip(monkeypatch)
    one, lane = _two_epochs(run, 1, seen, monkeypatch), _two_epochs(run, 2, seen, monkeypatch)
    (params, optim, breakdowns, seen), (lane_params, lane_optim, lane_breakdowns, lane_seen) = one, lane
    assert [on_lane for _, on_lane in seen] == [False] * len(seen)
    assert [on_lane for _, on_lane in lane_seen] == [True] * len(seen)
    scales = [scale for scale, _ in seen]
    assert [scale for scale, _ in lane_seen] == scales
    assert 1.0 in scales and any(scale < 1.0 for scale in scales)  # clipped and unclipped steps
    assert lane_breakdowns == breakdowns
    assert lane_optim.step == optim.step == len(seen)
    for name in params:
        for got, want in ((lane_params, params), (lane_optim.m, optim.m), (lane_optim.v, optim.v)):
            assert got[name].tobytes() == want[name].tobytes(), name


def test_backward_on_a_lane_equals_the_sweep_on_the_desk_training_loss(lane):
    from poet.data import batch_iter
    from poet.loss import hungarian_loss_graph

    run = _desk_run()
    dataset = synth_generate(run.synth)
    batch = next(batch_iter(dataset, run.train.batch_size, None, run.model.num_queries))
    params = model.init_params(run.model, run.seed)
    got = []
    for executor in (None, lane):
        tape = ad.Tape()
        watched = model.watch_params(tape, params)
        outputs, _ = model.model_forward(ad.Tensor(batch.images), watched, run.model, train=True, rng=np.random.default_rng(0))
        assignments = training._batch_assignments(batch.targets, outputs, run.loss)
        total, _ = hungarian_loss_graph(batch.targets, outputs, assignments, run.loss, batch.num_humans)
        grads = ad.backward(total, lane=executor)
        got.append({name: grads.wrt(t).tobytes() for name, t in watched.items()})
    assert got[0] == got[1]


def test_an_error_in_a_vjp_on_the_lane_names_the_epoch_and_batch(monkeypatch):
    monkeypatch.setattr(training, "_free_cores", lambda: 2)
    monkeypatch.setattr(training, "LANE_MIN_PARAMS", 0)
    run = tiny_run()  # 24 samples in batches of 8
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, run.seed)
    before = {name: p.copy() for name, p in params.items()}
    optim = init_optim_state(params, run.optim)
    backward, calls, failed_on = ad.backward, [], []

    def fail(g):
        failed_on.append(threading.current_thread())
        raise ValueError("a weight-gradient VJP failed")

    def failing_second_batch(loss, lane=None):
        calls.append(lane)
        nodes = loss.tape.nodes
        if len(calls) == 2:  # every VJP into a parameter fails
            for node in nodes:
                node.vjps = tuple(
                    fail if iid is not None and not nodes[iid].input_ids else vjp for iid, vjp in zip(node.input_ids, node.vjps)
                )
        return backward(loss, lane=lane)

    monkeypatch.setattr(ad, "backward", failing_second_batch)
    threads = threading.active_count()
    with pytest.raises(training.TrainBatchError, match="epoch 3 batch 1: a weight-gradient VJP failed"):
        train_epoch(params, optim, dataset, run, epoch=3)
    assert threading.active_count() == threads
    assert calls[0] is calls[1] is not None
    assert failed_on and threading.main_thread() not in failed_on
    assert optim.step == 1  # the first batch's update, and not the second's
    assert any(params[name].tobytes() != before[name].tobytes() for name in params)


@pytest.mark.parametrize(
    "cores,blas_threads,lane",
    [(2, "1", True), (2, None, False), (1, "1", False), (4, "2", True), (3, "2", False)],
)
def test_the_lane_opens_when_a_core_is_free_after_the_blas_threads(cores, blas_threads, lane, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    for var in training._BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    if blas_threads:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    assert (training._free_cores() > 1) == lane


def test_the_lane_opens_only_for_a_model_of_lane_min_params_or_more(monkeypatch):
    monkeypatch.setattr(training, "_free_cores", lambda: 2)
    run = parse_config("synth.num_samples = 8\n", base=tiny_run())
    dataset = synth_generate(run.synth)
    size = sum(p.size for p in model.init_params(run.model, run.seed).values())
    seen = _spy_clip(monkeypatch)
    for min_params, lane in ((size + 1, False), (size, True)):
        monkeypatch.setattr(training, "LANE_MIN_PARAMS", min_params)
        seen.clear()
        params = model.init_params(run.model, run.seed)
        train_epoch(params, init_optim_state(params, run.optim), dataset, run, epoch=1)
        assert seen and [on_lane for _, on_lane in seen] == [lane] * len(seen)


@pytest.mark.parametrize("split", [True, False])
def test_each_steps_gradients_live_through_the_next_forward_and_no_further(split, monkeypatch):
    monkeypatch.setattr(training, "_free_cores", lambda: 1)
    monkeypatch.setattr(training, "LANE_MIN_PARAMS", training.LANE_MIN_PARAMS if split else 0)
    run = tiny_run()  # 24 samples in batches of 8
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, run.seed)
    forward, backward = model.model_forward, ad.backward
    made, alive_at_forward, alive_at_backward = [], [], []

    def spy_forward(*args, **kwargs):
        alive_at_forward.append([ref() is not None for ref in made])
        return forward(*args, **kwargs)

    def spy_backward(loss, lane=None):
        alive_at_backward.append([ref() is not None for ref in made])
        grads = backward(loss, lane=lane)
        made.append(weakref.ref(grads))
        return grads

    monkeypatch.setattr(model, "model_forward", spy_forward)
    monkeypatch.setattr(ad, "backward", spy_backward)
    train_epoch(params, init_optim_state(params, run.optim), dataset, run, epoch=1)
    per_step = 2 if split else 1  # forwards: one per half, both before the step's one backward
    assert alive_at_forward == [s for s in ([], [True], [False, True]) for _ in range(per_step)]
    assert alive_at_backward == [[], [False], [False, False]]
    assert [ref() for ref in made] == [None, None, None]


# ---------------------------------------------------------------------------
# two half-batches per step: the same numbers with a forked worker as in one process


def _desk_epochs(monkeypatch, free_cores: int, num_samples: int):
    """Two epochs of the desk model with dropout 0.1: (params, optim, breakdowns, batch sizes, forwards in this process).

    Each forward in this process also checks that it has free_cores - 1 children.
    """
    import multiprocessing

    from poet.data import filter_for_training

    monkeypatch.setattr(training, "_free_cores", lambda: free_cores)
    run = parse_config(f"synth.num_samples = {num_samples}\nmodel.dropout = 0.1\noptim.clip_norm = 300\n", base=_desk_run())
    dataset, _, _ = filter_for_training(synth_generate(run.synth), run.model.num_queries)
    params = model.init_params(run.model, run.seed)
    assert sum(p.size for p in params.values()) < training.LANE_MIN_PARAMS
    optim = init_optim_state(params, run.optim)
    forward, forwards, parent = model.model_forward, [], os.getpid()

    def counting(images, *args, **kwargs):
        if os.getpid() == parent:
            forwards.append(len(images.data))
            assert len(multiprocessing.active_children()) == free_cores - 1
        return forward(images, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(model, "model_forward", counting)
        breakdowns = [train_epoch(params, optim, dataset, run, epoch) for epoch in (1, 2)]
    sizes = [min(8, len(dataset) - start) for start in range(0, len(dataset), 8)]
    return params, optim, breakdowns, sizes, forwards


@pytest.mark.parametrize("num_samples,last", [(27, 3), (25, 1)])
def test_train_epoch_with_a_worker_equals_one_process_bit_for_bit(num_samples, last, monkeypatch):
    params, optim, breakdowns, sizes, forwards = _desk_epochs(monkeypatch, 1, num_samples)
    assert sizes[-1] == last
    halves = [[-(-n // 2), n // 2] for n in sizes]
    assert forwards == 2 * [h for pair in halves for h in pair if h]  # one process: both halves, in turn
    w_params, w_optim, w_breakdowns, _, w_forwards = _desk_epochs(monkeypatch, 2, num_samples)
    assert w_forwards == 2 * [first for first, _ in halves]  # with a worker: the first halves here
    assert [b.__dict__ for b in w_breakdowns] == [b.__dict__ for b in breakdowns]
    assert [repr(b.total) for b in breakdowns] == [repr(b.total) for b in w_breakdowns]
    assert w_optim.step == optim.step == 2 * len(sizes)
    for name in params:
        for got, want in ((w_params, params), (w_optim.m, optim.m), (w_optim.v, optim.v)):
            assert got[name].tobytes() == want[name].tobytes(), name


def test_the_split_gradient_equals_the_whole_batch_gradient_to_rounding(monkeypatch):
    from poet.data import batch_iter
    from poet.loss import hungarian_loss_graph

    monkeypatch.setattr(training, "_free_cores", lambda: 1)
    run = parse_config("synth.num_samples = 7\n", base=_desk_run())  # no dropout; halves of 4 and 3
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, run.seed)
    batch = next(batch_iter(dataset, 8, [run.seed, training._SHUFFLE_STREAM, 1], run.model.num_queries))
    assert len(batch.targets) == 7
    tape = ad.Tape()
    watched = model.watch_params(tape, params)
    outputs, _ = model.model_forward(ad.Tensor(batch.images), watched, run.model, train=True, rng=None)
    total, whole_breakdown = hungarian_loss_graph(batch.targets, outputs, training._batch_assignments(batch.targets, outputs, run.loss), run.loss, batch.num_humans)
    grads = ad.backward(total)
    seen = []
    monkeypatch.setattr(training, "apply_gradients", lambda p, g, *args, **kwargs: seen.append({k: v.copy() for k, v in g.items()}))
    (breakdown,) = [train_epoch(params, init_optim_state(params, run.optim), dataset, run, 1)]
    assert len(seen) == 1
    assert breakdown.total == pytest.approx(whole_breakdown.total, rel=1e-12)
    for name, t in watched.items():
        np.testing.assert_allclose(seen[0][name], grads.wrt(t), rtol=1e-9, atol=1e-12, err_msg=name)


def test_train_run_with_a_worker_writes_the_same_files(tmp_path, monkeypatch):
    run = parse_config(
        "synth.num_samples = 27\nmodel.dropout = 0.1\ntrain.val_samples = 10\ntrain.eval_every = 1\ntrain.checkpoint_every = 1\n",
        base=_desk_run(),
    )
    for cores in (1, 2):
        monkeypatch.setattr(training, "_free_cores", lambda: cores)
        train_run(run, str(tmp_path / str(cores)))
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "checkpoint_epoch0002.bin" in names and "per_layer_map.csv" in names
    assert sorted(p.name for p in (tmp_path / "2").iterdir()) == names
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


@pytest.mark.parametrize("slow", ["parent", "worker"])
def test_a_slow_reader_adds_the_gradients_of_its_own_step(slow, monkeypatch):
    # one process pauses between receiving the other's gradients and adding them, while the other runs ahead
    import time

    run = parse_config("model.dropout = 0.1\n", base=tiny_run())
    dataset = synth_generate(run.synth)
    parent, swap_gradients, got = os.getpid(), training._Peer.swap_gradients, {}

    def pausing(self, grads):
        theirs = swap_gradients(self, grads)
        if (os.getpid() == parent) == (slow == "parent"):
            time.sleep(0.05)
        return theirs

    monkeypatch.setattr(training._Peer, "swap_gradients", pausing)
    for cores in (1, 2):
        monkeypatch.setattr(training, "_free_cores", lambda: cores)
        params = model.init_params(run.model, run.seed)
        optim = init_optim_state(params, run.optim)
        breakdown = train_epoch(params, optim, dataset, run, epoch=1)
        got[cores] = [repr(breakdown)] + [a.tobytes() for group in (params, optim.m, optim.v) for a in group.values()]
    assert got[2] == got[1]


@contextlib.contextmanager
def _time_limit(seconds: int):
    def expired(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("death", ["raises first", "raises", "killed", "non-finite"])
def test_a_failed_worker_ends_the_epoch_naming_the_batch(death, monkeypatch):
    import multiprocessing

    monkeypatch.setattr(training, "_free_cores", lambda: 2)
    run = tiny_run()  # 24 samples in batches of 8
    dataset = synth_generate(run.synth)
    params = model.init_params(run.model, run.seed)
    optim = init_optim_state(params, run.optim)
    parent, forward, watch, backward = os.getpid(), model.model_forward, model.watch_params, ad.backward
    forwards, watched = [], []

    def failing_forward(*args, **kwargs):
        forwards.append(1)
        if os.getpid() != parent and death == "raises first":  # before this process has sent anything
            raise ValueError("a second-half forward failed")
        if os.getpid() != parent and len(forwards) == 2:  # the worker's second half of batch 1
            if death == "raises":
                raise ValueError("a second-half forward failed")
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
        return forward(*args, **kwargs)

    def watching(tape, params):
        watched.append(watch(tape, params))
        return watched[-1]

    def nan_backward(loss, lane=None):
        grads = backward(loss, lane=lane)
        if os.getpid() != parent and death == "non-finite" and len(forwards) == 2:
            grads.wrt(watched[-1]["queries.weight"])[0, 0] = np.nan
        return grads

    monkeypatch.setattr(model, "model_forward", failing_forward)
    monkeypatch.setattr(model, "watch_params", watching)
    monkeypatch.setattr(ad, "backward", nan_backward)
    message = {
        "raises first": "epoch 3 batch 0: second half: ValueError: a second-half forward failed",
        "raises": "epoch 3 batch 1: second half: ValueError: a second-half forward failed",
        "killed": "epoch 3 batch 1: the second-half worker exited before sending its half",
        "non-finite": "epoch 3 batch 1: non-finite gradient of queries.weight",
    }[death]
    with _time_limit(60), pytest.raises(training.TrainBatchError, match=message):
        train_epoch(params, optim, dataset, run, epoch=3)
    assert multiprocessing.active_children() == []
    assert optim.step == (death != "raises first")  # the updates of the batches before the failed one
