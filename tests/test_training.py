import os

import numpy as np
import pytest

import poet.autodiff as ad
from poet import model, training
from poet.config import OptimConfig, RunConfig, ScheduleConfig, parse_config
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


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_adamw_step_equals_the_plain_loop_bit_for_bit(weight_decay):
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
    clip_fired = []
    for step in range(6):
        grads = {name: rng.normal(0.0, 10.0 ** rng.integers(-3, 2), p.shape) for name, p in params.items()}
        clipped, norm = clip_gradients(grads, 1.0 if step % 2 else 0.0)
        clip_fired.append(clipped is not grads)
        lrs = {} if step < 3 else {"lr_transformer": 1e-3 / step, "lr_backbone": 2e-4 / step}
        adamw_step(params, clipped, state, **lrs)
        oracle_adamw_step(reference, clipped, ref_state, **lrs)
        assert state.step == ref_state.step
        for name in params:
            for got, want in ((params, reference), (state.m, ref_state.m), (state.v, ref_state.v)):
                assert got[name].tobytes() == want[name].tobytes(), (step, name)
    assert any(clip_fired) and not all(clip_fired)


def test_adamw_shape_mismatch():
    params, state = scalar_state()
    with pytest.raises(ad.ShapeMismatch):
        adamw_step(params, {"w": np.zeros(2)}, state)


def test_clip_gradients_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = clip_gradients(grads, 0.5)
    assert norm == 5.0
    total = np.sqrt(sum(float((g * g).sum()) for g in clipped.values()))
    assert total == pytest.approx(0.5, rel=1e-12)
    same, _ = clip_gradients(grads, 10.0)
    assert same is grads


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
    from poet.data import batch_iter
    from poet.pose import decode_pose

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
                size = training._sample_size(dataset, batch.indices[b])
                per_layer[li].append(
                    [Detection([(kp.x, kp.y) for kp in decode_pose(slot.pose, size)], slot.score) for slot in chosen]
                )
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
    from poet.loss import LossBreakdown, hungarian_loss

    run = tiny_run()
    dataset = training.resolve_dataset("synth", run, "val")
    params = model.init_params(run.model, 2)
    cparams = model.constant_params(params)
    batches = []
    for batch in batch_iter(dataset, run.train.batch_size, None, run.model.num_queries):
        outputs, _ = model.model_forward(ad.Tensor(batch.images), cparams, run.model, train=False)
        assignments = training._batch_assignments(batch, outputs, run.loss)
        per_image = [
            hungarian_loss(t, p, a, run.loss, batch.num_humans, num_images_in_batch=len(batch.targets))
            for t, p, a in zip(batch.targets, model.slots_from_outputs(outputs, run.model), assignments)
        ]
        total = per_image[0]
        for extra in per_image[1:]:
            total = total.plus(extra)
        batches.append(total)
    expected = LossBreakdown.build(0.0, 0.0, 0.0, 0.0)
    for b in batches:
        expected = expected.plus(b)
    expected = expected.scaled(1.0 / len(batches))
    got = dataset_loss(params, dataset, run)
    for field in ("total", "class_nll", "keypoint_l1", "visibility_l2", "center_l2"):
        assert abs(getattr(got, field) - getattr(expected, field)) <= 1e-12


def test_evaluate_images_with_more_people_than_slots():
    run = parse_config(TINY_CFG_TEXT + "synth.max_instances = 9\nsynth.min_instances = 9\n")
    dataset = synth_generate(run.synth)
    assert min(len(s.annotations) for s in dataset.samples) > run.model.num_queries
    final, per_layer = evaluate(model.init_params(run.model, 1), run.model, dataset, score_threshold=0.0)
    assert len(per_layer) == run.model.dec_layers
    assert final == per_layer[-1] and final.ap is not None


def test_train_run_one_forward_per_batch_and_no_slot_objects(tmp_path, monkeypatch):
    run = tiny_run()
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
    assert modes.count(True) == run.schedule.epochs * -(-kept // run.train.batch_size)
    assert modes.count(False) == evals * -(-run.train.val_samples // run.train.batch_size)


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
            assert [got[i, j] for j in range(len(preds))] == [matching.match_cost(target, p, run.loss) for p in preds]
        expected.append(matching.hungarian_assign(want))
    assert training._batch_assignments(batch, outputs, run.loss) == expected


def test_non_finite_gradient_is_rejected_before_the_update():
    params = {"a": np.array([0.5]), "w": np.array([0.5, -0.25, 2.0])}
    state = init_optim_state(params, OptimConfig())
    before = {name: p.copy() for name, p in params.items()}
    grads = {"a": np.array([0.1]), "w": np.array([1.0, np.nan, 0.0])}
    with pytest.raises(training.TrainBatchError, match="gradient of w"):
        training.apply_gradients(params, grads, state, 1.0, 0.1)
    with pytest.raises(training.TrainBatchError, match="non-finite loss"):
        training.apply_gradients(params, {"a": np.ones(1), "w": np.ones(3)}, state, float("nan"), 0.0)
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
    clipped, ref_norm = clip_gradients(grads, 0.1)
    adamw_step(reference, clipped, ref_state)
    assert norm == ref_norm
    assert params["w"].tobytes() == reference["w"].tobytes()


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
