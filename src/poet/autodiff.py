"""Dense float64 tensors with reverse-mode automatic differentiation.

Forward values are plain numpy arrays. Recording happens on an explicit
:class:`Tape`: tensors created via ``Tape.leaf`` (and everything computed
from them) carry a node id, and :func:`backward` replays the tape once in
reverse, accumulating gradients in a fixed order. Tensors without a tape
behave like constants and cost nothing extra, so the same forward code
serves both training and evaluation.

Broadcasting is restricted to leading (batch) dimensions: two operands must
have equal shapes, or the smaller shape must be a suffix of the larger one.
Anything else needs an explicit reshape.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NotScalar(ValueError):
    """backward() was asked to differentiate a non-scalar tensor."""


class NotRecorded(ValueError):
    """The tensor is not attached to any tape."""


class TapeConsumed(RuntimeError):
    """backward() was already called once on this tape."""


class NotALeaf(ValueError):
    """A gradient was asked for a tensor computed on the tape; backward keeps only the leaves'."""


class _Node:
    __slots__ = ("input_ids", "vjps")

    def __init__(self, input_ids, vjps):
        self.input_ids = input_ids
        self.vjps = vjps


_SPENT = _Node((), ())  # stands in for every node after backward() has consumed the tape


class Tape:
    """Append-only record of operations, topologically ordered by construction."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._backward_done = False

    def __len__(self):
        return len(self.nodes)

    def leaf(self, data) -> "Tensor":
        """Register ``data`` as a differentiable input of this tape."""
        self.nodes.append(_Node((), ()))
        return Tensor(data, tape=self, node_id=len(self.nodes) - 1)


class Tensor:
    """Fixed-shape float64 array, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: Tape | None = None, node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f", node={self.node_id}" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{tag})"

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, Tensor(1.0 / float(other)))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _merge_tape(inputs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ValueError("operands are recorded on different tapes")
    return tape


def _make(out_data, inputs: Sequence[Tensor], vjps: Sequence[Callable]) -> Tensor:
    tape = _merge_tape(inputs)
    if tape is None:
        return Tensor(out_data)
    ids = tuple(t.node_id if t.tape is not None else None for t in inputs)
    tape.nodes.append(_Node(ids, tuple(vjps)))
    return Tensor(out_data, tape=tape, node_id=len(tape.nodes) - 1)


def _check_suffix(a_shape, b_shape):
    """Shapes must match, or one must be a trailing suffix of the other."""
    if a_shape == b_shape:
        return
    small, big = (a_shape, b_shape) if len(a_shape) < len(b_shape) else (b_shape, a_shape)
    if len(small) == len(big) or (len(small) > 0 and big[len(big) - len(small):] != small):
        raise ShapeMismatch(f"cannot broadcast {a_shape} with {b_shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix(a.shape, b.shape)
    out = a.data + b.data
    return _make(out, (a, b), (lambda g: _reduce_to(g, a.shape), lambda g: _reduce_to(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix(a.shape, b.shape)
    out = a.data - b.data
    return _make(out, (a, b), (lambda g: _reduce_to(g, a.shape), lambda g: _reduce_to(-g, b.shape)))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), (lambda g: -g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix(a.shape, b.shape)
    out = a.data * b.data
    return _make(
        out,
        (a, b),
        (lambda g: _reduce_to(g * b.data, a.shape), lambda g: _reduce_to(g * a.data, b.shape)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; either equal leading dims or a 2-D right operand."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if b.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeMismatch(f"leading dimensions differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp_a(g):
        return g @ np.swapaxes(b.data, -1, -2)

    def vjp_b(g):
        if b.ndim == 2:
            k = a.shape[-1]
            n = g.shape[-1]
            return a.data.reshape(-1, k).T @ g.reshape(-1, n)
        return np.swapaxes(a.data, -1, -2) @ g

    return _make(out, (a, b), (vjp_a, vjp_b))


# ---------------------------------------------------------------------------
# shape manipulation


def transpose(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out = np.swapaxes(a.data, axis1, axis2)
    return _make(out, (a,), (lambda g: np.swapaxes(g, axis1, axis2),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    in_shape = a.shape
    return _make(out, (a,), (lambda g: g.reshape(in_shape),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return _make(out, tuple(tensors), tuple(make_vjp(i) for i in range(len(tensors))))


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % a.ndim
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = a.data[index]
    in_shape = a.shape

    def vjp(g):
        buf = np.zeros(in_shape)
        buf[index] = g
        return buf

    return _make(out, (a,), (vjp,))


def take_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis 0 by integer index (duplicates allowed)."""
    idx = np.asarray(indices, dtype=np.intp)
    out = a.data[idx]
    in_shape = a.shape

    def vjp(g):
        buf = np.zeros(in_shape)
        np.add.at(buf, idx, g)
        return buf

    return _make(out, (a,), (vjp,))


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    if a.tape is None:  # nothing will read the mask
        return Tensor(out)
    mask = a.data > 0.0
    return _make(out, (a,), (lambda g: g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(out, (a,), (lambda g: g * out * (1.0 - out),))


def log(a: Tensor) -> Tensor:
    x = a.data
    return _make(np.log(x), (a,), (lambda g: g / x,))


def absolute(a: Tensor) -> Tensor:
    x = a.data
    return _make(np.abs(x), (a,), (lambda g: g * np.sign(x),))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    x = a.data
    out = np.maximum(x, floor)
    mask = x > floor
    return _make(out, (a,), (lambda g: g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    out = np.subtract(x, x.max(axis=axis, keepdims=True))  # the one full-size array: shift, exp and divide in place
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return _make(out, (a,), (vjp,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeMismatch(f"layer_norm params must be ({n},), got {gain.shape} and {bias.shape}")
    # two full-size arrays: y (centred, then scaled in place) and out (the squares, then the result)
    y = x.data - x.data.mean(axis=-1, keepdims=True)
    out = np.multiply(y, y)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    y *= inv
    np.multiply(y, gain.data, out=out)
    out += bias.data

    def vjp_x(g):
        gy = g * gain.data
        return inv * (gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True))

    def vjp_gain(g):
        return _reduce_to(g * y, gain.shape).reshape(gain.shape)

    def vjp_bias(g):
        return _reduce_to(g, bias.shape).reshape(bias.shape)

    return _make(out, (x, gain, bias), (vjp_x, vjp_gain, vjp_bias))


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: identity when not training or rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _make(x.data * mask, (x,), (lambda g: g * mask,))


# ---------------------------------------------------------------------------
# reductions


def _restore_axes(g, in_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, in_shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not keepdims:
        shape = list(in_shape)
        for ax in sorted(a % len(in_shape) for a in axes):
            shape[ax] = 1
        g = g.reshape(shape)
    return np.broadcast_to(g, in_shape)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape
    return _make(out, (a,), (lambda g: _restore_axes(g, in_shape, axis, keepdims).copy(),))


# ---------------------------------------------------------------------------
# convolution


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    b, c = xp.shape[:2]
    cols = np.empty((b, c, kh * kw, oh * ow))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            cols[:, :, i * kw + j, :] = patch.reshape(b, c, oh * ow)
    return cols.reshape(b, c * kh * kw, oh * ow)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution, NCHW layout, square stride/padding."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 4-D input and kernel, got {x.shape} and {w.shape}")
    bs, cin, h, wdt = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeMismatch(f"input channels {x.shape} do not match kernel {w.shape}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wdt + 2 * padding - kw) // stride + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x.data
    cols = _im2col(xp, kh, kw, stride, oh, ow)
    wf = w.data.reshape(cout, cin * kh * kw)
    out = (wf @ cols).reshape(bs, cout, oh, ow)
    if b is not None:
        if b.shape != (cout,):
            raise ShapeMismatch(f"bias must be ({cout},), got {b.shape}")
        out += b.data.reshape(1, cout, 1, 1)  # out is the GEMM's own fresh result

    def vjp_x(g):
        gf = g.reshape(bs, cout, oh * ow)
        gcols = (wf.T @ gf).reshape(bs, cin, kh * kw, oh * ow)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += gcols[
                    :, :, i * kw + j, :
                ].reshape(bs, cin, oh, ow)
        if padding:
            return gxp[:, :, padding : padding + h, padding : padding + wdt]
        return gxp

    def vjp_w(g):
        gf = g.reshape(bs, cout, oh * ow)
        return np.matmul(gf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)

    def vjp_b(g):
        return g.sum(axis=(0, 2, 3))

    inputs = (x, w) if b is None else (x, w, b)
    vjps = (vjp_x, vjp_w) if b is None else (vjp_x, vjp_w, vjp_b)
    return _make(out, inputs, vjps)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


class Gradients:
    """Result of a backward pass: wrt(leaf) gives that tape leaf's gradient."""

    def __init__(self, acc: list, leaves: list[bool]):
        self._acc = acc
        self._leaves = leaves

    def wrt(self, t: Tensor) -> np.ndarray:
        if t.tape is None or t.node_id is None:
            raise NotRecorded("tensor was never recorded on a tape")
        if not self._leaves[t.node_id]:
            raise NotALeaf(f"node {t.node_id} is computed on the tape; only the gradients of leaves are kept")
        g = self._acc[t.node_id]
        return np.zeros(t.shape) if g is None else g


def _accumulate(acc: list, iid: int, vjp: Callable, g: np.ndarray) -> None:
    gi = vjp(g)
    acc[iid] = gi if acc[iid] is None else acc[iid] + gi


def backward(loss: Tensor, lane=None) -> Gradients:
    """Accumulate d(loss)/d(node) for every tape node, in one reverse sweep, and keep the leaves'.

    Each other node's gradient is dropped once its VJPs have run. With a lane (an executor of one
    worker thread), each VJP into a tape leaf runs there with its addition into the leaf's gradient,
    which nothing later in the sweep reads. The one worker adds them in the order the sweep submits
    them, so the gradients are the same bit for bit.
    """
    if loss.tape is None:
        raise NotRecorded("loss tensor is not recorded on a tape")
    if loss.size != 1:
        raise NotScalar(f"loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape._backward_done:
        raise TapeConsumed("backward() was already called on this tape")
    tape._backward_done = True

    # each node is dropped once its VJPs have run: the closures hold the
    # forward activations, and tensors, tape and closures form reference
    # cycles that would otherwise wait for the cyclic collector
    nodes = tape.nodes
    leaves = [not node.input_ids for node in nodes]
    acc: list = [None] * len(nodes)
    acc[loss.node_id] = np.ones_like(loss.data)
    on_lane = []
    for nid in range(loss.node_id, -1, -1):
        node, nodes[nid] = nodes[nid], _SPENT
        g = acc[nid]
        if g is None:
            continue
        if not leaves[nid]:
            acc[nid] = None
        for iid, vjp in zip(node.input_ids, node.vjps):
            if iid is None:
                continue
            if lane is not None and not nodes[iid].input_ids:  # a leaf: it has no inputs
                on_lane.append(lane.submit(_accumulate, acc, iid, vjp, g))
            else:
                _accumulate(acc, iid, vjp, g)
    nodes[loss.node_id + 1 :] = [_SPENT] * (len(nodes) - loss.node_id - 1)
    for done in on_lane:
        done.result()
    return Gradients(acc, leaves)


def finite_diff(f: Callable[[Tensor], float], x, eps: float = 1e-4) -> Tensor:
    """Central-difference gradient of a scalar function, one element at a time."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    work = base.copy()
    flat = work.reshape(-1)
    out = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(Tensor(work.copy())))
        flat[i] = orig - eps
        fm = float(f(Tensor(work.copy())))
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * eps)
    return Tensor(out.reshape(base.shape))


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise |a - n| / max(floor, |a|, |n|); 0.0 for empty input."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ShapeMismatch(f"gradient shapes differ: {a.shape} vs {n.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))
