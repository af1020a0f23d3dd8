"""Set-prediction pose network at configurable scale.

A small strided CNN turns images into a feature grid; the grid is flattened
into a token sequence with a fixed 2D sinusoidal positional encoding and fed
to a transformer encoder. Learned per-slot query embeddings are decoded in
parallel against the encoder memory (queries added to attention inputs, DETR
style, decoder state starting from zeros), and a shared feed-forward head
maps every decoder state to class probabilities, a center, per-keypoint
offsets and per-keypoint visibility scores duplicated per coordinate. Every
decoder layer's state is kept so evaluation can read predictions out of any
depth.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .config import BadDModel, ModelConfig
from .pose import PoseClass, PoseVector, PredictionSet, PredictionSlot

POS_TEMPERATURE = 10000.0


class IndivisibleInput(ValueError):
    pass


def desk_config(**overrides) -> ModelConfig:
    """Small configuration used by the synthetic experiments and most tests."""
    base = ModelConfig(num_queries=8)
    return replace(base, **overrides) if overrides else base


# ---------------------------------------------------------------------------
# parameters


def param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (name, shape, init kind) for every parameter; order fixes rng draws."""
    specs: list[tuple[str, tuple[int, ...], str]] = []
    cin = config.image_channels
    for i, cout in enumerate(config.backbone_channels):
        specs.append((f"backbone.stage{i}.weight", (cout, cin, 3, 3), "xavier"))
        specs.append((f"backbone.stage{i}.bias", (cout,), "zeros"))
        cin = cout
    specs.append(("backbone.proj.weight", (config.d_model, cin, 1, 1), "xavier"))
    specs.append(("backbone.proj.bias", (config.d_model,), "zeros"))
    # token normalization between backbone and transformer: hands the encoder
    # O(1)-scale content so the positional encoding cannot drown it out
    specs.append(("backbone.norm.gain", (config.d_model,), "ones"))
    specs.append(("backbone.norm.bias", (config.d_model,), "zeros"))

    d, f = config.d_model, config.ffn_hidden

    def attention(prefix: str):
        for part in ("wq", "wk", "wv", "wo"):
            specs.append((f"{prefix}.{part}", (d, d), "xavier"))
            specs.append((f"{prefix}.{part[1]}bias", (d,), "zeros"))

    def norm(prefix: str):
        specs.append((f"{prefix}.gain", (d,), "ones"))
        specs.append((f"{prefix}.bias", (d,), "zeros"))

    def ffn(prefix: str):
        specs.append((f"{prefix}.w1", (d, f), "xavier"))
        specs.append((f"{prefix}.b1bias", (f,), "zeros"))
        specs.append((f"{prefix}.w2", (f, d), "xavier"))
        specs.append((f"{prefix}.b2bias", (d,), "zeros"))

    for i in range(config.enc_layers):
        attention(f"encoder.layer{i}.attn")
        norm(f"encoder.layer{i}.ln1")
        ffn(f"encoder.layer{i}.ffn")
        norm(f"encoder.layer{i}.ln2")
    norm("encoder.norm")
    for i in range(config.dec_layers):
        attention(f"decoder.layer{i}.self_attn")
        norm(f"decoder.layer{i}.ln1")
        attention(f"decoder.layer{i}.cross_attn")
        norm(f"decoder.layer{i}.ln2")
        ffn(f"decoder.layer{i}.ffn")
        norm(f"decoder.layer{i}.ln3")
    norm("decoder.norm")

    specs.append(("queries.weight", (config.num_queries, d), "xavier"))
    k = config.num_keypoints
    specs.append(("head.pose.w1", (d, f), "xavier"))
    specs.append(("head.pose.b1bias", (f,), "zeros"))
    specs.append(("head.pose.w2", (f, f), "xavier"))
    specs.append(("head.pose.b2bias", (f,), "zeros"))
    specs.append(("head.pose.w3", (f, 2 + 3 * k), "xavier"))
    specs.append(("head.pose.b3bias", (2 + 3 * k,), "zeros"))
    specs.append(("head.class.weight", (d, 2), "xavier"))
    specs.append(("head.class.bias", (2,), "zeros"))
    return specs


def _xavier_fans(shape: tuple[int, ...]) -> tuple[float, float]:
    if len(shape) == 4:  # conv kernel (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    return shape[0], shape[1]


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Xavier-uniform weights, zero biases, unit norm gains; deterministic in seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape, kind in param_specs(config):
        if kind == "xavier":
            fan_in, fan_out = _xavier_fans(shape)
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-bound, bound, shape)
        elif kind == "zeros":
            params[name] = np.zeros(shape)
        else:
            params[name] = np.ones(shape)
    return params


def watch_params(tape: ad.Tape, params: dict[str, np.ndarray]) -> dict[str, ad.Tensor]:
    return {name: tape.leaf(arr) for name, arr in params.items()}


def constant_params(params: dict[str, np.ndarray]) -> dict[str, ad.Tensor]:
    return {name: ad.Tensor(arr) for name, arr in params.items()}


# ---------------------------------------------------------------------------
# forward pieces


def positional_encoding(hf: int, wf: int, d_model: int) -> np.ndarray:
    """Fixed 2D sinusoidal encoding, (hf*wf, d_model); y owns the first half of channels."""
    if d_model % 4 != 0:
        raise BadDModel(f"d_model must be divisible by 4, got {d_model}")
    half = d_model // 2
    dim_t = POS_TEMPERATURE ** (2 * (np.arange(half) // 2) / half)

    def axis_encoding(positions):
        angles = positions[:, None] / dim_t[None, :]
        enc = np.empty_like(angles)
        enc[:, 0::2] = np.sin(angles[:, 0::2])
        enc[:, 1::2] = np.cos(angles[:, 1::2])
        return enc

    y_enc = axis_encoding(np.arange(hf, dtype=np.float64))
    x_enc = axis_encoding(np.arange(wf, dtype=np.float64))
    out = np.empty((hf * wf, d_model))
    for y in range(hf):
        out[y * wf : (y + 1) * wf, :half] = y_enc[y]
        out[y * wf : (y + 1) * wf, half:] = x_enc
    return out


def backbone_forward(images: ad.Tensor, params: dict[str, ad.Tensor], config: ModelConfig) -> ad.Tensor:
    """Strided conv stages with ReLU, then a 1x1 projection to d_model channels."""
    _, _, h, w = images.shape
    s = config.total_stride
    if h % s or w % s:
        raise IndivisibleInput(f"image size {(h, w)} not divisible by total stride {s}")
    x = images
    for i, stride in enumerate(config.backbone_strides):
        x = ad.conv2d(x, params[f"backbone.stage{i}.weight"], params[f"backbone.stage{i}.bias"], stride=stride, padding=1)
        x = ad.relu(x)
    return ad.conv2d(x, params["backbone.proj.weight"], params["backbone.proj.bias"], stride=1, padding=0)


def _linear(x: ad.Tensor, params, weight: str, bias: str) -> ad.Tensor:
    return ad.add(ad.matmul(x, params[weight]), params[bias])


def _attention(q_in, k_in, v_in, params, prefix, config, train, rng):
    b, tq, d = q_in.shape
    tk = k_in.shape[1]
    heads = config.heads
    dh = d // heads

    def project(t, tlen, part):
        t = _linear(t, params, f"{prefix}.{part}", f"{prefix}.{part[1]}bias")
        return ad.transpose(ad.reshape(t, (b, tlen, heads, dh)), 1, 2)

    q = project(q_in, tq, "wq")
    k = project(k_in, tk, "wk")
    v = project(v_in, tk, "wv")
    scores = ad.matmul(q, ad.transpose(k, 2, 3)) * (1.0 / math.sqrt(dh))
    attn = ad.dropout(ad.softmax(scores, axis=-1), config.dropout, train, rng)
    ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), 1, 2), (b, tq, d))
    return _linear(ctx, params, f"{prefix}.wo", f"{prefix}.obias")


def _ffn(x, params, prefix, config, train, rng):
    h = ad.relu(_linear(x, params, f"{prefix}.w1", f"{prefix}.b1bias"))
    h = ad.dropout(h, config.dropout, train, rng)
    return _linear(h, params, f"{prefix}.w2", f"{prefix}.b2bias")


def _norm(x, params, prefix):
    return ad.layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def transformer_forward(
    features: ad.Tensor,
    pos_enc: ad.Tensor,
    params: dict[str, ad.Tensor],
    config: ModelConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[ad.Tensor, list[ad.Tensor]]:
    """Encoder-decoder pass; returns (memory, per-decoder-layer states).

    Pre-norm residual blocks: the fixed positional encoding is added to the
    encoder input sequence and survives the residual stream untouched, so the
    decoder can regress positions from what it attends to; the encoding is
    also re-added to cross-attention keys. Learned query embeddings join the
    decoder state at each attention and all slots decode in parallel per
    layer. Returned decoder states carry the final shared normalization so
    any layer's state feeds the head directly.
    """

    def block(x, update_fn, prefix):
        update = update_fn(_norm(x, params, prefix))
        return ad.add(x, ad.dropout(update, config.dropout, train, rng))

    x = ad.add(features, pos_enc)
    for i in range(config.enc_layers):
        prefix = f"encoder.layer{i}"
        x = block(x, lambda h: _attention(h, h, h, params, f"{prefix}.attn", config, train, rng), f"{prefix}.ln1")
        x = block(x, lambda h: _ffn(h, params, f"{prefix}.ffn", config, train, rng), f"{prefix}.ln2")
    memory = _norm(x, params, "encoder.norm")

    b = features.shape[0]
    queries = params["queries.weight"]
    keys = ad.add(memory, pos_enc)
    tgt = ad.Tensor(np.zeros((b, config.num_queries, config.d_model)))
    states: list[ad.Tensor] = []
    for i in range(config.dec_layers):
        prefix = f"decoder.layer{i}"
        tgt = block(tgt, lambda h: _attention(ad.add(h, queries), ad.add(h, queries), h, params, f"{prefix}.self_attn", config, train, rng), f"{prefix}.ln1")
        tgt = block(tgt, lambda h: _attention(ad.add(h, queries), keys, memory, params, f"{prefix}.cross_attn", config, train, rng), f"{prefix}.ln2")
        tgt = block(tgt, lambda h: _ffn(h, params, f"{prefix}.ffn", config, train, rng), f"{prefix}.ln3")
        states.append(_norm(tgt, params, "decoder.norm"))
    return memory, states


def head_forward(embeddings: ad.Tensor, params: dict[str, ad.Tensor], config: ModelConfig) -> dict[str, ad.Tensor]:
    """Decode embeddings (.., d_model) into class/center/offset/visibility tensors.

    Centers and visibility scores pass through a sigmoid, offsets stay linear;
    the per-keypoint visibility score is duplicated per coordinate so outputs
    align with target pose vectors.
    """
    k = config.num_keypoints
    h = ad.relu(_linear(embeddings, params, "head.pose.w1", "head.pose.b1bias"))
    h = ad.relu(_linear(h, params, "head.pose.w2", "head.pose.b2bias"))
    raw = _linear(h, params, "head.pose.w3", "head.pose.b3bias")
    center = ad.sigmoid(ad.slice_axis(raw, -1, 0, 2))
    offsets = ad.slice_axis(raw, -1, 2, 2 + 2 * k)
    vis_scores = ad.sigmoid(ad.slice_axis(raw, -1, 2 + 2 * k, 2 + 3 * k))
    lead = raw.shape[:-1]
    col = ad.reshape(vis_scores, lead + (k, 1))
    visibility = ad.reshape(ad.concat([col, col], axis=-1), lead + (2 * k,))
    logits = _linear(embeddings, params, "head.class.weight", "head.class.bias")
    return {
        "class_logits": logits,
        "class_probs": ad.softmax(logits, axis=-1),
        "center": center,
        "offsets": offsets,
        "visibility": visibility,
    }


def model_forward(
    images: ad.Tensor,
    params: dict[str, ad.Tensor],
    config: ModelConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, ad.Tensor], list[ad.Tensor]]:
    """Full pass: backbone, flatten, normalize tokens, transformer, head on the last state."""
    feats = backbone_forward(images, params, config)
    b, d, hf, wf = feats.shape
    seq = ad.transpose(ad.reshape(feats, (b, d, hf * wf)), 1, 2)
    seq = ad.layer_norm(seq, params["backbone.norm.gain"], params["backbone.norm.bias"])
    pos = ad.Tensor(positional_encoding(hf, wf, config.d_model))
    _, states = transformer_forward(seq, pos, params, config, train, rng)
    return head_forward(states[-1], params, config), states


def slots_from_outputs(outputs: dict[str, ad.Tensor], config: ModelConfig) -> list[PredictionSet]:
    """Materialize per-image prediction slots from head output tensors."""
    probs = outputs["class_probs"].data
    center = outputs["center"].data
    offsets = outputs["offsets"].data
    vis = outputs["visibility"].data
    sets = []
    for b in range(probs.shape[0]):
        slots = []
        for j in range(probs.shape[1]):
            pose = PoseVector(tuple(center[b, j]), tuple(offsets[b, j]), tuple(vis[b, j]), PoseClass.HUMAN)
            slots.append(PredictionSlot(tuple(probs[b, j]), pose))
        sets.append(PredictionSet(slots))
    return sets
