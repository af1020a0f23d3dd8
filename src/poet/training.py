"""End-to-end optimization: batching, matching, loss, AdamW, logging, checkpoints.

Each batch runs a tape-recorded forward pass, builds cost matrices from the
detached head-output arrays (matching never records tape nodes), solves the
assignment per image, evaluates the Hungarian loss at that fixed assignment,
and applies a clipped AdamW update with separate backbone/transformer
learning rates. Epoch-level randomness (shuffle, dropout) derives from
(seed, stream, epoch), so runs are reproducible and resumable.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint, matching, metrics, model
from .config import ConfigError, OptimConfig, RunConfig, ScheduleConfig, dump_config, validate_for_training
from .data import Batch, Dataset, batch_iter, filter_for_training, load_dataset_cache, synth_generate
from .loss import LossBreakdown, LossWeights, hungarian_loss_graph
from .model import ModelConfig

log = logging.getLogger("poet.training")

_SHUFFLE_STREAM = 101
_DROPOUT_STREAM = 202


class TrainBatchError(RuntimeError):
    """A batch failed; the message carries the epoch/batch position."""


class CheckpointMismatch(ValueError):
    """A checkpoint's parameter names or shapes differ from the model config's."""


@dataclass
class OptimState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    config: OptimConfig


def init_optim_state(params: dict[str, np.ndarray], config: OptimConfig) -> OptimState:
    return OptimState(
        m={name: np.zeros_like(p) for name, p in params.items()},
        v={name: np.zeros_like(p) for name, p in params.items()},
        step=0,
        config=config,
    )


def _decayed(name: str) -> bool:
    return not (name.endswith("bias") or name.endswith("gain"))


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimState,
    lr_transformer: float | None = None,
    lr_backbone: float | None = None,
) -> dict[str, np.ndarray]:
    """In-place AdamW update with bias correction and decoupled weight decay.

    Weight decay multiplies into the pre-update parameter and skips biases and
    norm gains; parameters named backbone.* use the backbone learning rate.
    The intermediates are written into two scratch arrays sized to the largest
    parameter, with the operations and their order of the plain expression
    ``lr * (m / b1c) / (sqrt(v / b2c) + eps) + lr * wd * p``, so the results
    are the same bit for bit.
    """
    cfg = state.config
    lr_t = cfg.lr_transformer if lr_transformer is None else lr_transformer
    lr_b = cfg.lr_backbone if lr_backbone is None else lr_backbone
    state.step += 1
    b1c = 1.0 - cfg.beta1**state.step
    b2c = 1.0 - cfg.beta2**state.step
    largest = max((p.size for p in params.values()), default=0)
    scratch_a, scratch_b = np.empty(largest), np.empty(largest)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ad.ShapeMismatch(f"{name}: gradient shape {g.shape} vs parameter shape {p.shape}")
        a = scratch_a[: p.size].reshape(p.shape)
        b = scratch_b[: p.size].reshape(p.shape)
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=a)
        v *= cfg.beta2
        v += np.multiply(1.0 - cfg.beta2, np.multiply(g, g, out=a), out=a)
        lr = lr_b if name.startswith("backbone.") else lr_t
        update = np.multiply(lr, np.divide(m, b1c, out=a), out=a)
        update /= np.add(np.sqrt(np.divide(v, b2c, out=b), out=b), cfg.eps, out=b)
        if cfg.weight_decay and _decayed(name):
            update += np.multiply(lr * cfg.weight_decay, p, out=b)
        p -= update
    return params


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so the global L2 norm is at most max_norm; also returns the norm before clipping.

    max_norm <= 0 leaves the gradients as they are. The squares are summed
    from one scratch array sized to the largest gradient, the same values in
    the same order as ``(g * g).sum()``, so the norm is the same bit for bit.
    """
    largest = max((g.size for g in grads.values()), default=0)
    scratch = np.empty(largest)

    def squares(g):  # g * g, written into the scratch array when its layout matches a fresh product's
        return np.multiply(g, g, out=scratch[: g.size].reshape(g.shape)) if g.flags.c_contiguous else g * g

    total = float(np.sqrt(sum(float(squares(g).sum()) for g in grads.values())))
    if max_norm <= 0 or total <= max_norm:
        return grads, total
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}, total


def effective_lr(base: float, schedule: ScheduleConfig, epoch: int) -> float:
    """Learning rate at a 1-indexed epoch; each passed drop divides by the factor."""
    lr = base
    for drop in schedule.drop_epochs:
        if epoch > drop:
            lr = lr / schedule.drop_factor
    return lr


# ---------------------------------------------------------------------------
# epoch loops


def _batch_assignments(batch: Batch, outputs: dict[str, ad.Tensor], weights: LossWeights):
    """Per-image assignments from the detached head outputs; nothing is recorded on a tape."""
    human = outputs["class_probs"].data[..., 0]
    center, offsets, vis = (outputs[key].data for key in ("center", "offsets", "visibility"))
    return [
        matching.hungarian_assign(
            matching.array_cost_matrix(
                t.human, t.center, t.offsets, t.visibilities, human[b], center[b], offsets[b], vis[b], weights
            )
        )
        for b, t in enumerate(batch.targets)
    ]


def apply_gradients(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    optim: OptimState,
    loss: float,
    clip_norm: float,
    lr_transformer: float | None = None,
    lr_backbone: float | None = None,
) -> float:
    """Clip and apply one AdamW step; returns the gradient norm before clipping.

    A non-finite loss or gradient norm raises TrainBatchError before anything
    is updated, naming the first parameter whose gradient is not finite.
    """
    clipped, norm = clip_gradients(grads, clip_norm)
    if not (np.isfinite(loss) and np.isfinite(norm)):
        bad = next((name for name, g in grads.items() if not np.all(np.isfinite(g))), None)
        where = f"gradient of {bad}" if bad is not None else "loss"
        raise TrainBatchError(f"non-finite {where} (loss {loss!r}, gradient norm {norm!r}); parameters left unchanged")
    adamw_step(params, clipped, optim, lr_transformer=lr_transformer, lr_backbone=lr_backbone)
    return norm


def train_epoch(
    params: dict[str, np.ndarray],
    optim: OptimState,
    dataset: Dataset,
    run: RunConfig,
    epoch: int,
) -> LossBreakdown:
    """One pass over the dataset; returns the mean per-batch loss breakdown."""
    cfg = run.model
    dropout_rng = np.random.default_rng([run.seed, _DROPOUT_STREAM, epoch])
    lr_t = effective_lr(run.optim.lr_transformer, run.schedule, epoch)
    lr_b = effective_lr(run.optim.lr_backbone, run.schedule, epoch)
    breakdowns = []
    for bi, batch in enumerate(batch_iter(dataset, run.train.batch_size, [run.seed, _SHUFFLE_STREAM, epoch], cfg.num_queries)):
        try:
            tape = ad.Tape()
            watched = model.watch_params(tape, params)
            outputs, _ = model.model_forward(ad.Tensor(batch.images), watched, cfg, train=True, rng=dropout_rng)
            nodes_before = len(tape)
            assignments = _batch_assignments(batch, outputs, run.loss)
            if len(tape) != nodes_before:
                raise RuntimeError("matching must not record tape nodes")
            total, breakdown = hungarian_loss_graph(batch.targets, outputs, assignments, run.loss, batch.num_humans)
            grads = ad.backward(total)
            grad_arrays = {name: grads.wrt(t) for name, t in watched.items()}
            apply_gradients(
                params, grad_arrays, optim, float(total.data), run.optim.clip_norm, lr_transformer=lr_t, lr_backbone=lr_b
            )
        except (matching.NonFiniteEntry, matching.SizeMismatch, ad.ShapeMismatch, ValueError, TrainBatchError) as e:
            raise TrainBatchError(f"epoch {epoch} batch {bi}: {e}") from e
        breakdowns.append(breakdown)
    if not breakdowns:
        raise TrainBatchError(f"epoch {epoch}: dataset produced no batches")
    return _mean_breakdown(breakdowns)


def _batch_loss(batch: Batch, outputs: dict[str, ad.Tensor], weights: LossWeights) -> LossBreakdown:
    assignments = _batch_assignments(batch, outputs, weights)
    return hungarian_loss_graph(batch.targets, outputs, assignments, weights, batch.num_humans)[1]


def _mean_breakdown(breakdowns: list[LossBreakdown]) -> LossBreakdown:
    accum = LossBreakdown.build(0.0, 0.0, 0.0, 0.0)
    for breakdown in breakdowns:
        accum = accum.plus(breakdown)
    return accum.scaled(1.0 / max(len(breakdowns), 1))


def dataset_loss(params: dict[str, np.ndarray], dataset: Dataset, run: RunConfig) -> LossBreakdown:
    """Eval-mode Hungarian loss over a dataset (no dropout, no updates)."""
    cparams = model.constant_params(params)
    return _mean_breakdown(
        [
            _batch_loss(batch, model.model_forward(ad.Tensor(batch.images), cparams, run.model, train=False)[0], run.loss)
            for batch in batch_iter(dataset, run.train.batch_size, None, run.model.num_queries)
        ]
    )


# ---------------------------------------------------------------------------
# evaluation


def _sample_size(dataset: Dataset, index: int) -> tuple[float, float]:
    anns = dataset.samples[index].annotations
    return anns[0].image_size if anns else dataset.image_size


def ground_truths(dataset: Dataset) -> list[list[metrics.GroundTruthInstance]]:
    out = []
    for sample in dataset.samples:
        instances = []
        for j, ann in enumerate(sample.annotations):
            pts = np.array([(kp.x, kp.y) for kp in ann.keypoints])
            vis = np.array([kp.v for kp in ann.keypoints], dtype=float)
            area = sample.areas[j] if sample.areas is not None else None
            instances.append(metrics.GroundTruthInstance(pts, vis, area))
        out.append(instances)
    return out


def _layer_outputs(images: np.ndarray, cparams: dict[str, ad.Tensor], cfg: ModelConfig) -> list[dict[str, ad.Tensor]]:
    """Eval-mode head outputs of every decoder layer from one forward pass; the last layer's are model_forward's."""
    outputs, states = model.model_forward(ad.Tensor(images), cparams, cfg, train=False)
    return [model.head_forward(state, cparams, cfg) for state in states[:-1]] + [outputs]


def default_oks_params(num_keypoints: int) -> metrics.OksParams:
    return metrics.OksParams.coco17() if num_keypoints == 17 else metrics.OksParams.uniform(num_keypoints)


def _score_layers(per_layer, dataset: Dataset, oks_params: metrics.OksParams) -> list[metrics.EvalResult]:
    gts = ground_truths(dataset)
    return [metrics.evaluate_detections(dets, gts, oks_params) for dets in per_layer]


# bytes of the largest activation of one evaluation forward: small enough that the
# freed arrays of one chunk are reused by the next instead of being handed back to
# the system and faulted in again
EVAL_CHUNK_BYTES = 16 << 20
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS reads them in this order


def _images_per_forward(cfg: ModelConfig, height: int, width: int) -> int:
    """Images per evaluation forward: EVAL_CHUNK_BYTES over one image's largest activation.

    That is the larger of the first conv stage's im2col block and one
    attention layer's encoder scores, in float64 elements.
    """
    s0 = cfg.backbone_strides[0]
    im2col = cfg.image_channels * 9 * (height // s0) * (width // s0)
    tokens = (height // cfg.total_stride) * (width // cfg.total_stride)
    largest = max(im2col, cfg.heads * tokens * tokens)
    return max(1, EVAL_CHUNK_BYTES // (8 * largest))


def _forward_range(dataset: Dataset, images: range, chunk: int, cparams, cfg: ModelConfig) -> list:
    """(indices, each decoder layer's (score, center, offsets) arrays) for each chunk of an image range, in order."""
    forwarded = []
    for start in range(images.start, images.stop, chunk):
        indices = range(start, min(start + chunk, images.stop))
        layers = _layer_outputs(np.stack([dataset.image(i) for i in indices]), cparams, cfg)
        forwarded.append((indices, [(o["class_probs"].data[..., 0], o["center"].data, o["offsets"].data) for o in layers]))
    return forwarded


def _forward_worker(conn, *args) -> None:
    """A forked child's _forward_range, sent back over the pipe; a failure is sent as its message."""
    try:
        conn.send(_forward_range(*args))
    except Exception as e:
        conn.send(f"{type(e).__name__}: {e}")


def evaluate(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    dataset: Dataset,
    score_threshold: float = 0.5,
    top_k: int = 0,
    oks_params: metrics.OksParams | None = None,
) -> tuple[metrics.EvalResult, list[metrics.EvalResult]]:
    """Score the model on a dataset; returns (final result, one result per decoder layer).

    Only pixels and annotations are read, so images may hold more people than the model has slots.
    The model runs in chunks of images sized by _images_per_forward, in contiguous ranges, one per chunk
    and per usable core the BLAS threads leave: forked children forward all ranges but the first, which
    this process forwards before it selects and scores every detection. Outputs depend on neither split.
    """
    cparams = model.constant_params(params)
    n = len(dataset)
    chunk = _images_per_forward(cfg, *dataset.image(0).shape[1:]) if n else 1
    cores = len(os.sched_getaffinity(0))
    # each process runs the BLAS threads that numpy was started with, every core when unset:
    # processes whose threads outnumber the cores run several times slower than one process
    blas = next((int(v) for v in map(os.environ.get, _BLAS_THREADS) if v and v.isdigit() and int(v) > 0), cores)
    w = min(max(1, cores // blas), -(-n // chunk)) or 1
    ranges = [range(n * i // w, n * (i + 1) // w) for i in range(w)]
    workers = []
    try:
        if w > 1:
            import multiprocessing  # only here: its import is a share of a short run's set-up
            ctx = multiprocessing.get_context("fork")  # the children share the parameters and the dataset unpickled
            for images in ranges[1:]:
                receive, send = ctx.Pipe(duplex=False)
                process = ctx.Process(target=_forward_worker, args=(send, dataset, images, chunk, cparams, cfg))
                process.start()
                workers.append((images, process, receive))
                send.close()
        forwarded = _forward_range(dataset, ranges[0], chunk, cparams, cfg)
        for images, _, receive in workers:
            try:
                got = receive.recv()
            except EOFError:
                got = "the worker exited without sending its outputs"
            if isinstance(got, str):
                raise RuntimeError(f"evaluating images {images.start}..{images.stop - 1}: {got}")
            forwarded += got
    finally:
        for _, process, receive in workers:  # a child that has sent is done; any other is no longer wanted
            process.terminate()
            process.join()
            receive.close()
    per_layer: list[list[list[metrics.Detection]]] = [[] for _ in range(cfg.dec_layers)]
    for indices, layers in forwarded:
        sizes = [_sample_size(dataset, i) for i in indices]
        for dets, (score, center, offsets) in zip(per_layer, layers):
            dets += metrics.select_detections(score, center, offsets, sizes, score_threshold, top_k)
    results = _score_layers(per_layer, dataset, oks_params or default_oks_params(cfg.num_keypoints))
    return results[-1], results


def validate(
    params: dict[str, np.ndarray], dataset: Dataset, run: RunConfig
) -> tuple[LossBreakdown, metrics.EvalResult, list[metrics.EvalResult]]:
    """One eval-mode forward pass over a validation set: dataset_loss's loss plus evaluate's results.

    Batches follow train.batch_size; detections use train.score_threshold and train.top_k.
    """
    cfg = run.model
    cparams = model.constant_params(params)
    losses = []
    per_layer: list[list[list[metrics.Detection]]] = [[] for _ in range(cfg.dec_layers)]
    for batch in batch_iter(dataset, run.train.batch_size, None, cfg.num_queries):
        layers = _layer_outputs(batch.images, cparams, cfg)
        losses.append(_batch_loss(batch, layers[-1], run.loss))
        sizes = [_sample_size(dataset, i) for i in batch.indices]
        for dets, out in zip(per_layer, layers):
            score, center, offsets = out["class_probs"].data[..., 0], out["center"].data, out["offsets"].data
            dets += metrics.select_detections(score, center, offsets, sizes, run.train.score_threshold, run.train.top_k)
    results = _score_layers(per_layer, dataset, default_oks_params(cfg.num_keypoints))
    return _mean_breakdown(losses), results[-1], results


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str, params: dict[str, np.ndarray], optim: OptimState, epoch: int) -> None:
    arrays: dict[str, np.ndarray] = dict(params)
    for name, arr in optim.m.items():
        arrays[f"optim.m.{name}"] = arr
    for name, arr in optim.v.items():
        arrays[f"optim.v.{name}"] = arr
    arrays["meta.step"] = np.array([float(optim.step)])
    arrays["meta.epoch"] = np.array([float(epoch)])
    checkpoint.save_arrays(path, arrays)


def load_checkpoint(path: str, optim_config: OptimConfig) -> tuple[dict[str, np.ndarray], OptimState, int]:
    arrays = checkpoint.load_arrays(path)
    params: dict[str, np.ndarray] = {}
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    step = 0
    epoch = 0
    for name, arr in arrays.items():
        if name == "meta.step":
            step = int(arr[0])
        elif name == "meta.epoch":
            epoch = int(arr[0])
        elif name.startswith("optim.m."):
            m[name[len("optim.m.") :]] = arr
        elif name.startswith("optim.v."):
            v[name[len("optim.v.") :]] = arr
        else:
            params[name] = arr
    return params, OptimState(m, v, step, optim_config), epoch


def check_params(params: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    """Raise CheckpointMismatch unless the parameters have exactly model.param_specs(cfg)'s names and shapes."""
    expected = {name: shape for name, shape, _ in model.param_specs(cfg)}
    problems = [f"missing {name}" for name in expected if name not in params]
    problems += [f"unexpected {name}" for name in params if name not in expected]
    problems += [
        f"{name} has shape {params[name].shape}, the config gives {shape}"
        for name, shape in expected.items()
        if name in params and params[name].shape != shape
    ]
    if problems:
        shown = "; ".join(problems[:3]) + (f"; and {len(problems) - 3} more" if len(problems) > 3 else "")
        raise CheckpointMismatch(f"checkpoint does not match the model config: {shown}")


# ---------------------------------------------------------------------------
# full run


def resolve_dataset(spec: str, run: RunConfig, role: str) -> Dataset | None:
    if spec == "none":
        return None
    if spec == "synth":
        cfg = run.synth
        if role == "val":
            cfg = replace(cfg, num_samples=run.train.val_samples, seed=cfg.seed + 1)
        return synth_generate(cfg)
    return load_dataset_cache(spec)


def _format_row(values) -> str:
    return ",".join("" if v is None else (repr(float(v)) if isinstance(v, float) else str(v)) for v in values)


LOSS_HEADER = "epoch,split,class,keypoint,visibility,center,total"
MAP_HEADER = "epoch,ap,ap50,ap75,ap_m,ap_l,ar,ar50,ar75,ar_m,ar_l"
PER_LAYER_HEADER = "epoch,layer,ap,ap50,ap75,ap_m,ap_l,ar,ar50,ar75,ar_m,ar_l"


def _loss_row(epoch: int, split: str, b: LossBreakdown) -> str:
    return _format_row((epoch, split, b.class_nll, b.keypoint_l1, b.visibility_l2, b.center_l2, b.total))


def _restart_csv(path: Path, header: str, last_epoch: int) -> None:
    """Rewrite a CSV log as its header plus its rows of epochs 1..last_epoch, atomically.

    A resumed run keeps what was logged up to its checkpoint and drops any
    later rows, which it is about to log again; a missing file gets the header.
    """
    rows = []
    if last_epoch > 0 and path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            epoch = line.split(",", 1)[0]
            if epoch.isdigit() and int(epoch) <= last_epoch:
                rows.append(line)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def train_run(run: RunConfig, out_dir: str, resume: str | None = None) -> dict:
    """Train per the run config, logging CSV curves and checkpoints under out_dir.

    Checkpoints land every train.checkpoint_every epochs, at each learning
    rate drop, and at the end (checkpoint_final.bin). Resume restarts after
    the checkpoint's epoch and reproduces the unresumed run exactly, since all
    per-epoch randomness is derived from (seed, epoch).
    """
    validate_for_training(run)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    train_ds = resolve_dataset(run.train.dataset, run, "train")
    if train_ds is None:
        raise ValueError("training needs a dataset (train.dataset must not be 'none')")
    train_ds, dropped_empty, dropped_overfull = filter_for_training(train_ds, run.model.num_queries)
    if len(train_ds) == 0:
        raise ValueError("no trainable samples after filtering")
    val_ds = resolve_dataset(run.train.val_dataset, run, "val")
    if val_ds is not None and run.train.eval_every > 0:
        # the validation loss pads each image's people to the slot count
        most = max((sum(a.num_visible > 0 for a in s.annotations) for s in val_ds.samples), default=0)
        if most > run.model.num_queries:
            raise ConfigError(
                f"the validation set has an image with {most} people, more than the model's "
                f"{run.model.num_queries} prediction slots"
            )

    if resume:
        params, optim, start_epoch = load_checkpoint(resume, run.optim)
        check_params(params, run.model)
        log.info("resumed from %s at epoch %d", resume, start_epoch)
    else:
        params = model.init_params(run.model, run.seed)
        optim = init_optim_state(params, run.optim)
        start_epoch = 0

    losses_path = out / "losses.csv"
    map_path = out / "map.csv"
    per_layer_path = out / "per_layer_map.csv"
    _restart_csv(losses_path, LOSS_HEADER, start_epoch)
    if val_ds is not None:
        _restart_csv(map_path, MAP_HEADER, start_epoch)
        _restart_csv(per_layer_path, PER_LAYER_HEADER, start_epoch)
    losses_fh = open(losses_path, "a", encoding="utf-8")
    map_fh = open(map_path, "a", encoding="utf-8") if val_ds is not None else None
    layer_fh = open(per_layer_path, "a", encoding="utf-8") if val_ds is not None else None

    def save_with_config(path: str, epoch: int) -> None:
        save_checkpoint(path, params, optim, epoch)
        Path(path + ".cfg").write_text(dump_config(run), encoding="utf-8")

    drop_set = set(run.schedule.drop_epochs)
    last_eval = None
    try:
        for epoch in range(start_epoch + 1, run.schedule.epochs + 1):
            breakdown = train_epoch(params, optim, train_ds, run, epoch)
            print(_loss_row(epoch, "train", breakdown), file=losses_fh)
            should_eval = val_ds is not None and run.train.eval_every > 0 and (
                epoch % run.train.eval_every == 0 or epoch == run.schedule.epochs
            )
            if should_eval:
                val_breakdown, final, per_layer = validate(params, val_ds, run)
                print(_loss_row(epoch, "val", val_breakdown), file=losses_fh)
                last_eval = final
                print(_format_row((epoch, *final.as_dict().values())), file=map_fh)
                for li, res in enumerate(per_layer):
                    print(_format_row((epoch, li, *res.as_dict().values())), file=layer_fh)
                map_fh.flush()
                layer_fh.flush()
            losses_fh.flush()
            if run.train.checkpoint_every > 0 and (epoch % run.train.checkpoint_every == 0 or epoch in drop_set):
                save_with_config(str(out / f"checkpoint_epoch{epoch:04d}.bin"), epoch)
            log.info("epoch %d: train total %.6f", epoch, breakdown.total)
        save_with_config(str(out / "checkpoint_final.bin"), run.schedule.epochs)
    finally:
        losses_fh.close()
        if map_fh:
            map_fh.close()
        if layer_fh:
            layer_fh.close()
    return {
        "params": params,
        "optim": optim,
        "final_eval": last_eval,
        "dropped_empty": dropped_empty,
        "dropped_overfull": dropped_overfull,
    }
