"""Per-layer tracing from outside the package.

The tracer replaces public functions of the poet modules with timing
wrappers, in every poet module namespace that holds them (``training``
imports ``hungarian_loss_graph`` by name, ``data`` imports ``encode_pose``,
and so on), so each call is seen where it is looked up. Nothing inside the
package changes. Spans nest on a stack; a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# span name -> (module, function); these are the layer boundaries
SPANS = {
    "data.synth": ("data", "synth_generate"),
    "data.batch": ("data", "batch_iter"),
    "model.forward": ("model", "model_forward"),
    "model.backbone": ("model", "backbone_forward"),
    "model.transformer": ("model", "transformer_forward"),
    "model.head": ("model", "head_forward"),
    "model.slots": ("model", "slots_from_outputs"),
    "autodiff.backward": ("autodiff", "backward"),
    "autodiff.conv2d": ("autodiff", "conv2d"),
    "autodiff.matmul": ("autodiff", "matmul"),
    "autodiff.softmax": ("autodiff", "softmax"),
    "autodiff.layer_norm": ("autodiff", "layer_norm"),
    "matching.cost": ("matching", "build_cost_matrix"),
    "matching.solve": ("matching", "hungarian_assign"),
    "pose.from_flat": ("pose", "from_flat"),
    "loss.graph": ("loss", "hungarian_loss_graph"),
    "loss.reference": ("loss", "hungarian_loss"),
    "training.epoch": ("training", "train_epoch"),
    "training.clip": ("training", "clip_gradients"),
    "training.adamw": ("training", "adamw_step"),
    "training.val_loss": ("training", "dataset_loss"),
    "training.evaluate": ("training", "evaluate"),
    "training.checkpoint": ("training", "save_checkpoint"),
    "metrics.evaluate": ("metrics", "evaluate_detections"),
    "metrics.oks": ("metrics", "oks"),
    "checkpoint.save": ("checkpoint", "save_arrays"),
    "checkpoint.load": ("checkpoint", "load_arrays"),
}

# counted, not timed: rendering belongs to the data.batch span that triggers it
COUNTERS = {"data.render_calls": ("data", "render_image")}

STEP_SCOPE = "training.epoch"


class Tracer:
    """Installs the wrappers, accumulates self/inclusive times and counts."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.step_inclusive_s: dict[str, float] = defaultdict(float)  # spans inside train_epoch
        self.solve_ms: dict[int, list[float]] = defaultdict(list)  # slot count -> per-solve times
        self.tape_nodes: list[int] = []
        self.bytes_written = 0

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name: str) -> float:
        _, start, covered = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - covered
        self.inclusive_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if any(frame[0] == STEP_SCOPE for frame in self._stack) or name == STEP_SCOPE:
            self.step_inclusive_s[name] += dur
        return dur

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)

        return wrapper

    def _batch_span(self, fn):
        """batch_iter is a generator: each pull of a batch is one data.batch span."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._enter("data.batch")
                try:
                    batch = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit("data.batch")
                yield batch

        return wrapper

    def _solve_span(self, fn):
        def wrapper(cost, *args, **kwargs):
            self._enter("matching.solve")
            try:
                return fn(cost, *args, **kwargs)
            finally:
                dur = self._exit("matching.solve")
                n = getattr(cost, "n", None) or len(cost)
                self.solve_ms[int(n)].append(dur * 1e3)

        return wrapper

    def _backward_span(self, fn):
        def wrapper(loss, *args, **kwargs):
            if loss.tape is not None:
                self.tape_nodes.append(len(loss.tape))
            self._enter("autodiff.backward")
            try:
                return fn(loss, *args, **kwargs)
            finally:
                self._exit("autodiff.backward")

        return wrapper

    def _save_span(self, fn):
        def wrapper(path, *args, **kwargs):
            self._enter("checkpoint.save")
            try:
                return fn(path, *args, **kwargs)
            finally:
                self._exit("checkpoint.save")
                self.bytes_written += os.path.getsize(path)

        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        special = {
            "data.batch": self._batch_span,
            "matching.solve": self._solve_span,
            "autodiff.backward": self._backward_span,
            "checkpoint.save": self._save_span,
        }
        return special[name](fn) if name in special else self._span(name, fn)

    def install(self) -> None:
        """Patch every poet module attribute bound to a traced function."""
        modules = [m for key, m in sys.modules.items() if key == "poet" or key.startswith("poet.")]
        targets = {}
        for name, (mod, attr) in SPANS.items():
            fn = getattr(sys.modules[f"poet.{mod}"], attr)
            targets[id(fn)] = (fn, self._wrap(name, fn))
        for name, (mod, attr) in COUNTERS.items():
            fn = getattr(sys.modules[f"poet.{mod}"], attr)
            targets[id(fn)] = (fn, self._counter(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "step_inclusive_s": dict(self.step_inclusive_s),
            "solve_ms": {n: list(v) for n, v in self.solve_ms.items()},
            "tape_nodes": list(self.tape_nodes),
            "bytes_written": self.bytes_written,
        }
