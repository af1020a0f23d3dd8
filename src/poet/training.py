"""End-to-end optimization: batching, matching, loss, AdamW, logging, checkpoints.

Each batch, or each half of it for a small model, runs a tape-recorded
forward pass, builds cost matrices from the detached head-output arrays
(matching never records tape nodes) and solves the assignment per image; the
batch's Hungarian loss is evaluated at those fixed assignments, and a clipped
AdamW update with separate backbone/transformer learning rates is applied.
Epoch-level randomness (shuffle, dropout) derives from (seed, stream, epoch),
so runs are reproducible and resumable.
"""

from __future__ import annotations

import contextlib
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
    """A checkpoint's array names or shapes differ from the model config's, or it holds NaN or infinite values."""


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


def _by_halves(sweep, arrays: dict, lane) -> list:
    """[sweep(names)] over the names of arrays; with a lane, one call per contiguous half by element count.

    The lane runs the second half while this thread runs the first, and is done with it when this returns or raises.
    """
    names = list(arrays)
    if lane is None:
        return [sweep(names)]
    bounds = np.cumsum([0] + [arrays[name].size for name in names])
    cut = int(np.argmin(np.abs(2 * bounds - bounds[-1])))
    second = lane.submit(sweep, names[cut:])
    try:
        first = sweep(names[:cut])
    finally:
        second.exception()  # waits for it, whatever became of this half
    return [first, second.result()]


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimState,
    lr_transformer: float | None = None,
    lr_backbone: float | None = None,
    scale: float = 1.0,
    lane=None,
) -> dict[str, np.ndarray]:
    """In-place AdamW update by the gradients times scale, with bias correction and decoupled weight decay.

    Weight decay multiplies into the pre-update parameter and skips biases and
    norm gains; parameters named backbone.* use the backbone learning rate.
    The intermediates are written into two scratch arrays per half (see
    _by_halves), with the operations and their order of ``g * scale`` (none
    when scale is 1) and then ``lr * (m / b1c) / (sqrt(v / b2c) + eps) + lr * wd * p``,
    so the results are the same bit for bit.
    """
    cfg = state.config
    lr_t = cfg.lr_transformer if lr_transformer is None else lr_transformer
    lr_b = cfg.lr_backbone if lr_backbone is None else lr_backbone
    state.step += 1
    b1c = 1.0 - cfg.beta1**state.step
    b2c = 1.0 - cfg.beta2**state.step

    def sweep(names):
        largest = max((params[name].size for name in names), default=0)
        scratch_a, scratch_b = np.empty(largest), np.empty(largest)
        for name in names:
            p, g = params[name], grads[name]
            if g.shape != p.shape:
                raise ad.ShapeMismatch(f"{name}: gradient shape {g.shape} vs parameter shape {p.shape}")
            a = scratch_a[: p.size].reshape(p.shape)
            b = scratch_b[: p.size].reshape(p.shape)
            if scale != 1.0:
                g = np.multiply(g, scale, out=b)  # b is next written after the last read of g
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

    _by_halves(sweep, params, lane)
    return params


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float, lane=None) -> tuple[float, float]:
    """(scale, norm): the factor for adamw_step that brings the global L2 norm to at most max_norm, and the norm.

    The scale is 1.0 when max_norm <= 0 or the norm is within it. Each
    gradient's squares are summed from a scratch array per half (see
    _by_halves), the same values in the same order as ``(g * g).sum()``, and
    the sums added in order, so the norm is the same bit for bit.
    """

    def sums(names):
        scratch = np.empty(max((grads[name].size for name in names), default=0))
        out = []
        for name in names:
            g = grads[name]  # g * g, written into the scratch array when its layout matches a fresh product's
            squares = np.multiply(g, g, out=scratch[: g.size].reshape(g.shape)) if g.flags.c_contiguous else g * g
            out.append(float(squares.sum()))
        return out

    total = float(np.sqrt(sum(s for part in _by_halves(sums, grads, lane) for s in part)))
    if max_norm <= 0 or total <= max_norm:
        return 1.0, total
    return max_norm / total, total


def effective_lr(base: float, schedule: ScheduleConfig, epoch: int) -> float:
    """Learning rate at a 1-indexed epoch; each passed drop divides by the factor."""
    lr = base
    for drop in schedule.drop_epochs:
        if epoch > drop:
            lr = lr / schedule.drop_factor
    return lr


# ---------------------------------------------------------------------------
# epoch loops


def _batch_assignments(targets, outputs: dict[str, ad.Tensor], weights: LossWeights):
    """Per-image assignments from the detached head outputs; nothing is recorded on a tape."""
    human = outputs["class_probs"].data[..., 0]
    center, offsets, vis = (outputs[key].data for key in ("center", "offsets", "visibility"))
    return [
        matching.hungarian_assign(
            matching.array_cost_matrix(
                t.human, t.center, t.offsets, t.visibilities, human[b], center[b], offsets[b], vis[b], weights
            )
        )
        for b, t in enumerate(targets)
    ]


def apply_gradients(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    optim: OptimState,
    loss: float,
    clip_norm: float,
    lr_transformer: float | None = None,
    lr_backbone: float | None = None,
    lane=None,
) -> float:
    """Clip and apply one AdamW step; returns the gradient norm before clipping.

    A non-finite loss or gradient norm raises TrainBatchError before anything
    is updated, naming the first parameter whose gradient is not finite.
    """
    scale, norm = clip_gradients(grads, clip_norm, lane=lane)
    if not (np.isfinite(loss) and np.isfinite(norm)):
        bad = next((name for name, g in grads.items() if not np.all(np.isfinite(g))), None)
        where = f"gradient of {bad}" if bad is not None else "loss"
        raise TrainBatchError(f"non-finite {where} (loss {loss!r}, gradient norm {norm!r}); parameters left unchanged")
    adamw_step(params, grads, optim, lr_transformer=lr_transformer, lr_backbone=lr_backbone, scale=scale, lane=lane)
    return norm


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS reads them in this order
# the fewest parameters a model trains on the lane with, in whole batches; smaller ones split each batch
# between two processes. On 2 cores at 1 BLAS thread, synth_tiny-shaped models of 224K-1.75M parameters
# took 0.67-0.82 times the lane's epoch time with the worker, of 4.4M 0.93, and paper_scale's 9.4M tied,
# while each process's three gradient-sized buffers (two shared, one sum) cost 24 bytes per parameter
LANE_MIN_PARAMS = 1 << 22


def _free_cores() -> int:
    """Usable cores over the BLAS threads numpy was started with (every core when unset), at least 1.

    That many processes or threads can call BLAS at once: callers whose threads outnumber the cores run several times slower.
    """
    cores = len(os.sched_getaffinity(0))
    blas = next((int(v) for v in map(os.environ.get, _BLAS_THREADS) if v and v.isdigit() and int(v) > 0), cores)
    return max(1, cores // blas)


def _train_step(
    params: dict[str, np.ndarray], optim: OptimState, batch: Batch, images: list, run: RunConfig, rngs: list,
    lr_t: float, lr_b: float, held: list, summed: dict | None = None, peer: "_Peer | None" = None, lane=None,
) -> LossBreakdown:
    """Forward, matching, loss, backward and update on one batch, whole or as two halves (see batch_iter).

    images holds the whole batch's images, or each half's: None where the peer runs that half or it is empty.
    Each half is forwarded on its own copy of the parameter leaves, with its own rng, and matched on its
    own images. The loss is the whole batch's, over the halves' outputs in order, so each half's gradient
    is what it adds to the batch's, and the update takes their sum, first + second. A peer is sent this
    process's head outputs and assignments, then its gradients, and sends its own: they enter the loss as
    constants and the sum from a shared buffer.

    held carries the last step's gradients into this step, is emptied just before this step's backward,
    which reuses their space, and then holds this step's. Freed at the end of each step instead, they
    left a free heap top that was handed back to the system and faulted in again by every step; held
    through the backward as well, they raised the peak memory.
    """
    cut = -(-len(batch.targets) // 2) if len(images) == 2 else len(batch.targets)
    targets = [batch.targets[:cut], batch.targets[cut:]]
    tape = ad.Tape()
    watched, outputs, assignments = {}, {}, {}
    for h, x in enumerate(images):
        if x is not None:
            watched[h] = model.watch_params(tape, params)
            outputs[h], _ = model.model_forward(ad.Tensor(x), watched[h], run.model, train=True, rng=rngs[h])
            nodes_before = len(tape)
            assignments[h] = _batch_assignments(targets[h], outputs[h], run.loss)
            if len(tape) != nodes_before:
                raise RuntimeError("matching must not record tape nodes")
    if peer is not None:
        got = peer.swap({h: ({key: t.data for key, t in outputs[h].items()}, assignments[h]) for h in watched})
        for h, (arrays, assigned) in got.items():
            outputs[h], assignments[h] = {key: ad.Tensor(a) for key, a in arrays.items()}, assigned
    halves = sorted(outputs)
    whole = {key: ad.concat([outputs[h][key] for h in halves], axis=0) for key in outputs[0]} if len(halves) > 1 else outputs[0]
    total, breakdown = hungarian_loss_graph(batch.targets, whole, [a for h in halves for a in assignments[h]], run.loss, batch.num_humans)
    grads = {}
    if watched:
        held.clear()
        swept = ad.backward(total, lane=lane)
        held.append(swept)
        grads = {h: {name: swept.wrt(t) for name, t in w.items()} for h, w in watched.items()}
    if peer is not None:
        grads.update(peer.swap_gradients(grads))
    grad_arrays = grads[0]
    if 1 in grads:  # an empty second half adds nothing, not even the +0.0 that would turn -0.0 into +0.0
        grad_arrays = {name: np.add(g, grads[1][name], out=summed[name]) for name, g in grad_arrays.items()}
    apply_gradients(params, grad_arrays, optim, float(total.data), run.optim.clip_norm, lr_t, lr_b, lane=lane)
    return breakdown


def _flat_views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of consecutive ranges of a flat array, one per array of like, with its name and shape."""
    bounds = np.cumsum([0] + [a.size for a in like.values()]).tolist()
    return {name: flat[lo:hi].reshape(a.shape) for (name, a), lo, hi in zip(like.items(), bounds, bounds[1:])}


class _Peer:
    """The other process of an epoch split in two: a pipe to it, and a shared gradient buffer per half.

    A process writes its buffer only after it has received the other's head outputs of the same step,
    which the other sends only once it has read this buffer for the step before. The first process
    sends before it receives and the other after, so neither waits on a full pipe.
    """

    def __init__(self, conn, buffers: list[dict[str, np.ndarray]], first: bool):
        self.conn, self.buffers, self.first = conn, buffers, first

    def swap(self, mine: dict) -> dict:
        """Send {half: value} for this process's halves and return the other process's."""
        try:
            if self.first:
                self.conn.send(mine)
            got = self.conn.recv()
            if not self.first:
                self.conn.send(mine)
        except (EOFError, OSError):  # the other end is closed, or reset by a process that died with messages unread
            got = self._last_message()
        if isinstance(got, str):
            raise TrainBatchError(f"second half: {got}")
        return got

    def _last_message(self) -> str:
        """The failure a process that has exited sent before it went, if it is still there to read."""
        with contextlib.suppress(EOFError, OSError):
            if self.conn.poll():
                got = self.conn.recv()
                if isinstance(got, str):
                    return got
        raise TrainBatchError("the second-half worker exited before sending its half")

    def swap_gradients(self, grads: dict) -> dict:
        """swap for {half: gradients}, which go by the shared buffers."""
        for half, arrays in grads.items():
            for name, view in self.buffers[half].items():
                view[...] = arrays[name]
        return {half: self.buffers[half] for half in self.swap(dict.fromkeys(grads))}


def _steps(params, optim: OptimState, dataset: Dataset, run: RunConfig, epoch: int, local: tuple | None, peer: _Peer | None = None, lane=None):
    """Yield each step's loss breakdown, of whole batches when local is None, else of split ones.

    This process runs the halves in local, each with its own dropout stream. With a peer, both processes
    apply the same update to their own copies of the parameters and moments.
    """
    stream = [run.seed, _DROPOUT_STREAM, epoch]
    rngs = [np.random.default_rng(stream if local is None else stream + [h]) for h in range(1 if local is None else 2)]
    lr_t, lr_b = (effective_lr(lr, run.schedule, epoch) for lr in (run.optim.lr_transformer, run.optim.lr_backbone))
    summed = None if local is None else _flat_views(np.empty(sum(p.size for p in params.values())), params)
    held = []
    half = None if local in (None, (0, 1)) else local[0]  # a process running one half renders only its images
    for batch in batch_iter(dataset, run.train.batch_size, [run.seed, _SHUFFLE_STREAM, epoch], run.model.num_queries, half):
        if local is None:
            images = [batch.images]
        elif half is None:  # both halves here: the batch is rendered and encoded once, and its images cut
            cut = -(-len(batch.targets) // 2)
            images = [batch.images[:cut], batch.images[cut:] if cut < len(batch.targets) else None]
        else:
            images = [batch.images if h == half else None for h in (0, 1)]
        yield _train_step(params, optim, batch, images, run, rngs, lr_t, lr_b, held, summed, peer, lane)


def _second_half_worker(conn, parent_end, params, optim, dataset, run, epoch, buffers) -> None:
    """train_epoch's forked worker: the second half of every batch and the same updates; a failure is sent as its message."""
    parent_end.close()  # so that the parent's exit reads as the end of the pipe
    try:
        for _ in _steps(params, optim, dataset, run, epoch, (1,), _Peer(conn, buffers, first=False)):
            pass
    except Exception as e:
        with contextlib.suppress(OSError):  # the parent may be gone
            conn.send(f"{type(e).__name__}: {e}")


def train_epoch(
    params: dict[str, np.ndarray],
    optim: OptimState,
    dataset: Dataset,
    run: RunConfig,
    epoch: int,
) -> LossBreakdown:
    """One pass over the dataset; returns the mean per-batch loss breakdown.

    A model of fewer than LANE_MIN_PARAMS parameters takes each step's gradient as the sum of two
    half-batches' (see _train_step). When _free_cores leaves a second caller of BLAS room, a forked
    worker runs the second halves, and this process the first. A larger model takes whole-batch steps,
    and with a free core the VJPs into the parameters and half of the optimizer sweep run on a lane
    thread, which numpy's release of the GIL lets use another core. Neither the worker nor the lane
    changes a bit of the results, and both are gone when this returns or raises.
    """
    two = _free_cores() > 1
    size = sum(p.size for p in params.values())
    lane = worker = None
    try:
        if size >= LANE_MIN_PARAMS:
            if two:
                from concurrent.futures import ThreadPoolExecutor  # only here: a run without a lane does without it

                lane = ThreadPoolExecutor(1, thread_name_prefix="poet-lane")
            steps = _steps(params, optim, dataset, run, epoch, None, lane=lane)
        elif two:
            import mmap  # only here, as the worker: their imports are a share of a short run's set-up
            import multiprocessing

            # anonymous and shared with the worker forked after it: one gradient buffer per half
            flat = np.frombuffer(mmap.mmap(-1, 2 * 8 * size), dtype=np.float64).reshape(2, size)
            buffers = [_flat_views(flat[h], params) for h in range(2)]
            ctx = multiprocessing.get_context("fork")  # the worker starts from this process's parameters, moments and dataset
            conn, worker_end = ctx.Pipe()
            worker = ctx.Process(target=_second_half_worker, args=(worker_end, conn, params, optim, dataset, run, epoch, buffers))
            worker.start()
            worker_end.close()
            steps = _steps(params, optim, dataset, run, epoch, (0,), _Peer(conn, buffers, first=True))
        else:
            steps = _steps(params, optim, dataset, run, epoch, (0, 1))
        breakdowns = []
        try:
            for breakdown in steps:
                breakdowns.append(breakdown)
        except (matching.NonFiniteEntry, matching.SizeMismatch, ad.ShapeMismatch, ValueError, TrainBatchError) as e:
            raise TrainBatchError(f"epoch {epoch} batch {len(breakdowns)}: {e}") from e
    finally:
        if lane is not None:
            lane.shutdown(cancel_futures=True)  # waits for the task it is running
        if worker is not None:  # done once the last step is swapped, and no longer wanted if this raised
            worker.terminate()
            worker.join()
            conn.close()
    if not breakdowns:
        raise TrainBatchError(f"epoch {epoch}: dataset produced no batches")
    return _mean_breakdown(breakdowns)


def _batch_loss(batch: Batch, outputs: dict[str, ad.Tensor], weights: LossWeights) -> LossBreakdown:
    assignments = _batch_assignments(batch.targets, outputs, weights)
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


def ground_truths(dataset: Dataset) -> list[list[metrics.GroundTruthInstance]]:
    return [
        [
            metrics.GroundTruthInstance(kps[:, :2], kps[:, 2], None if sample.areas is None else sample.areas[j])
            for j, kps in enumerate(sample.keypoints)
        ]
        for sample in dataset.samples
    ]


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
    w = min(_free_cores(), -(-n // chunk)) or 1
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
        sizes = [dataset.samples[i].size for i in indices]
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
        sizes = [dataset.samples[i].size for i in batch.indices]
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
    return _split_checkpoint(checkpoint.load_arrays(path), optim_config)


def _split_checkpoint(arrays: dict[str, np.ndarray], optim_config: OptimConfig) -> tuple[dict[str, np.ndarray], OptimState, int]:
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


def check_params(arrays: dict[str, np.ndarray], cfg: ModelConfig, resumable: bool = False) -> None:
    """Raise CheckpointMismatch unless the arrays have exactly model.param_specs(cfg)'s names and shapes, all finite.

    A resumable checkpoint must also hold the AdamW moments of every parameter (optim.m.*, optim.v.*)
    and the step and epoch reached (meta.*), finite as well.
    """
    expected = {name: shape for name, shape, _ in model.param_specs(cfg)}
    if resumable:
        expected |= {f"optim.{k}.{name}": shape for k in "mv" for name, shape in expected.items()} | {"meta.step": (1,), "meta.epoch": (1,)}
    problems = [f"missing {name}" for name in expected if name not in arrays]
    problems += [f"unexpected {name}" for name in arrays if name not in expected]
    problems += [
        f"{name} has shape {arrays[name].shape}, the config gives {shape}"
        for name, shape in expected.items()
        if name in arrays and arrays[name].shape != shape
    ]
    nonfinite = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
    for what, found in (("does not match the model config", problems), ("holds NaN or infinite values", nonfinite)):
        if found:
            shown = "; ".join(found[:3]) + (f"; and {len(found) - 3} more" if len(found) > 3 else "")
            raise CheckpointMismatch(f"checkpoint {what}: {shown}")


# ---------------------------------------------------------------------------
# full run


def check_dataset(dataset: Dataset, cfg: ModelConfig, role: str) -> None:
    """Raise ConfigError, naming both values, where the dataset's keypoints, channels or image size do not fit the model."""
    held = next((s.image.shape[0] for s in dataset.samples if s.image is not None), cfg.image_channels)
    channels = dataset.render.channels if dataset.render else held
    for what, have, want in (("keypoints", dataset.num_keypoints, cfg.num_keypoints), ("image channels", channels, cfg.image_channels)):
        if have != want:
            raise ConfigError(f"the {role} set has {have} {what} but the model expects {want}")
    if any(int(side) % cfg.total_stride for side in dataset.image_size):
        size = "x".join(f"{side:g}" for side in dataset.image_size)
        raise ConfigError(f"the {role} set's {size} images are not divisible by the model's total stride {cfg.total_stride}")


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
        raise ConfigError("training needs a dataset (train.dataset must not be 'none')")
    check_dataset(train_ds, run.model, "training")
    train_ds, dropped_empty, dropped_overfull = filter_for_training(train_ds, run.model.num_queries)
    if len(train_ds) == 0:
        raise ConfigError("no trainable samples after filtering")
    val_ds = resolve_dataset(run.train.val_dataset, run, "val")
    if val_ds is not None and run.train.eval_every > 0:
        check_dataset(val_ds, run.model, "validation")
        # the validation loss pads each image's people to the slot count
        most = max((s.num_people for s in val_ds.samples), default=0)
        if most > run.model.num_queries:
            raise ConfigError(
                f"the validation set has an image with {most} people, more than the model's "
                f"{run.model.num_queries} prediction slots"
            )

    if resume:
        arrays = checkpoint.load_arrays(resume)
        check_params(arrays, run.model, resumable=True)
        params, optim, start_epoch = _split_checkpoint(arrays, run.optim)
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
