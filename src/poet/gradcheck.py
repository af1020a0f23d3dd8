"""Finite-difference verification of analytic gradients, end to end.

Three suites, each through one loop that compares a taped backward with
central differences: every tensor op, the full Hungarian loss at a fixed
assignment over random instances, and a tiny complete model. Each returns
the max relative error per component so the CLI can print one line per
check and fail loudly past tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from . import model
from .loss import LossWeights, hungarian_loss_graph
from .matching import array_cost_matrix, hungarian_assign
from .model import desk_config
from .pose import TargetSet

OP_TOLERANCE = 1e-5
LOSS_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-4

def _max_rel_err(build: Callable, arrays: list[np.ndarray], eps: float = 1e-4) -> float:
    """Max relative error of the taped gradient of build(tensors) wrt each array against central differences."""
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    loss = build(leaves)
    grads = ad.backward(loss)
    worst = 0.0
    for i, leaf in enumerate(leaves):
        def f(t, i=i):
            inputs = [ad.Tensor(a) for a in arrays]
            inputs[i] = t
            return float(build(inputs).data)

        numeric = ad.finite_diff(f, ad.Tensor(arrays[i]), eps=eps)
        analytic = grads.wrt(leaf)
        worst = max(worst, ad.relative_error(analytic, numeric.data))
    return worst


def check_ops(seed: int = 0) -> dict[str, float]:
    """Max relative error per tensor op on small random operands."""
    rng = np.random.default_rng(seed)

    def away_from_kinks(shape):
        x = rng.uniform(-2, 2, shape)
        x[np.abs(x) < 0.05] += 0.1
        return x

    a23 = rng.uniform(-1, 1, (2, 3))
    b34 = rng.uniform(-1, 1, (3, 4))
    bias = rng.uniform(-1, 1, (3,))
    batch = rng.uniform(-1, 1, (2, 2, 3, 4))
    batch_t = rng.uniform(-1, 1, (2, 2, 4, 3))
    gain = rng.uniform(0.5, 1.5, (4,))
    shift = rng.uniform(-0.5, 0.5, (4,))
    positive = rng.uniform(0.2, 2.0, (3, 3))
    image = rng.uniform(-1, 1, (2, 3, 6, 6))
    kernel = rng.uniform(-0.5, 0.5, (4, 3, 3, 3))
    kbias = rng.uniform(-0.2, 0.2, (4,))
    probe6 = rng.uniform(-1, 1, (2, 3))
    ln_input = rng.uniform(-1, 1, (2, 3, 4))
    ln_probe = ad.Tensor(rng.uniform(-1, 1, (2, 3, 4)))
    sum_probe = ad.Tensor(rng.uniform(-1, 1, (2, 4)))
    conv_probe = ad.Tensor(rng.uniform(-1, 1, (2, 4, 3, 3)))

    report = {
        "add": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.add(t[0], t[1]), ad.Tensor(probe6))), [a23, bias]),
        "sub": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.sub(t[0], t[1]), ad.Tensor(probe6))), [a23, bias]),
        "mul": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.mul(t[0], t[1]), ad.Tensor(probe6))), [a23, bias]),
        "matmul": _max_rel_err(lambda t: ad.reduce_sum(ad.matmul(t[0], t[1])), [a23, b34]),
        "matmul_batched": _max_rel_err(lambda t: ad.reduce_sum(ad.matmul(t[0], t[1])), [batch, batch_t]),
        "transpose": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.transpose(t[0], 0, 1), ad.Tensor(a23.T))), [a23]),
        "reshape": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.reshape(t[0], (6,)), ad.Tensor(a23.reshape(6)))), [a23]),
        "concat": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.concat([t[0], t[1]], axis=0), ad.concat([ad.Tensor(a23), ad.Tensor(a23)], axis=0))), [a23, a23 * 0.5]),
        "slice": _max_rel_err(lambda t: ad.reduce_sum(ad.slice_axis(t[0], 1, 1, 3)), [a23]),
        "take_rows": _max_rel_err(lambda t: ad.reduce_sum(ad.take_rows(t[0], [0, 0, 1])), [a23]),
        "relu": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.relu(t[0]), ad.Tensor(probe6))), [away_from_kinks((2, 3))]),
        "sigmoid": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.sigmoid(t[0]), ad.Tensor(probe6))), [a23 * 2]),
        "log": _max_rel_err(lambda t: ad.reduce_sum(ad.log(t[0])), [positive]),
        "abs": _max_rel_err(lambda t: ad.reduce_sum(ad.absolute(t[0])), [away_from_kinks((2, 3))]),
        "clamp_min": _max_rel_err(lambda t: ad.reduce_sum(ad.clamp_min(t[0], 0.5)), [positive + 0.4]),
        "softmax": _max_rel_err(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t[0], axis=-1), ad.Tensor(probe6))), [a23 * 3]),
        "layer_norm": _max_rel_err(
            lambda t: ad.reduce_sum(ad.mul(ad.layer_norm(t[0], t[1], t[2]), ln_probe)),
            [ln_input, gain, shift],
        ),
        "dropout": _max_rel_err(
            lambda t: ad.reduce_sum(ad.dropout(t[0], 0.3, train=True, rng=np.random.default_rng(7))), [a23]
        ),
        "reduce_sum_axis": _max_rel_err(
            lambda t: ad.reduce_sum(ad.mul(ad.reduce_sum(t[0], axis=1), sum_probe)), [batch[0]]
        ),
        "conv2d": _max_rel_err(
            lambda t: ad.reduce_sum(ad.mul(ad.conv2d(t[0], t[1], t[2], stride=2, padding=1), conv_probe)),
            [image, kernel, kbias],
        ),
    }
    return report


def _random_instance(rng, n, k):
    humans = int(rng.integers(1, n + 1))
    targets = TargetSet(np.arange(n) < humans, np.zeros((n, 2)), np.zeros((n, 2 * k)), np.zeros((n, 2 * k)))
    for i in range(humans):  # per person: visibility bits, offsets, center; this order fixes what a seed draws
        vis_bits = rng.integers(0, 2, k).astype(float)
        if vis_bits.sum() == 0:
            vis_bits[0] = 1.0
        targets.visibilities[i] = np.repeat(vis_bits, 2)
        targets.offsets[i] = rng.uniform(-0.3, 0.3, 2 * k) * targets.visibilities[i]
        targets.center[i] = rng.uniform(0.1, 0.9, 2)
    probs = np.exp(rng.normal(size=(1, n, 2)))
    probs /= probs.sum(axis=-1, keepdims=True)
    outputs = {
        "class_probs": probs,
        "center": rng.uniform(0.05, 0.95, (1, n, 2)),
        "offsets": rng.uniform(-0.4, 0.4, (1, n, 2 * k)),
        "visibility": np.repeat(rng.uniform(0.05, 0.95, (1, n, k)), 2, axis=-1),
    }
    return targets, outputs


def check_loss(seed: int = 0, cases: int = 100) -> float:
    """Max relative error of the Hungarian-loss gradients over random instances.

    Assignments come from tie-free random cost matrices and stay fixed while
    differentiating, so the objective is smooth at the evaluation point.
    """
    rng = np.random.default_rng(seed)
    weights = LossWeights()
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        targets, outputs = _random_instance(rng, n, k)
        preds = [outputs["class_probs"][0, :, 0]] + [outputs[key][0] for key in ("center", "offsets", "visibility")]
        assignment = hungarian_assign(
            array_cost_matrix(targets.human, targets.center, targets.offsets, targets.visibilities, *preds, weights)
        )

        def total(t):
            return hungarian_loss_graph([targets], dict(zip(outputs, t)), [assignment], weights, targets.num_humans)[0]

        worst = max(worst, _max_rel_err(total, list(outputs.values())))
    return worst


def check_model(seed: int = 0) -> float:
    """Finite-difference check through a tiny full network, parameter by parameter."""
    cfg = desk_config(
        d_model=8, enc_layers=1, dec_layers=1, heads=2, num_queries=2, num_keypoints=1,
        ffn_hidden=8, backbone_channels=(4,), backbone_strides=(2,),
    )
    params = model.init_params(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    images = rng.uniform(0, 1, (1, 3, 4, 4))
    probes = {
        "class_probs": rng.normal(size=(1, cfg.num_queries, 2)),
        "center": rng.normal(size=(1, cfg.num_queries, 2)),
        "offsets": rng.normal(size=(1, cfg.num_queries, 2)),
        "visibility": rng.normal(size=(1, cfg.num_queries, 2)),
    }

    def probed(t):
        outputs, _ = model.model_forward(ad.Tensor(images), dict(zip(params, t)), cfg, train=False)
        pieces = [ad.reduce_sum(ad.mul(outputs[key], ad.Tensor(probes[key]))) for key in probes]
        return ad.add(ad.add(pieces[0], pieces[1]), ad.add(pieces[2], pieces[3]))

    return _max_rel_err(probed, list(params.values()), eps=1e-5)


def run_gradcheck(component: str = "all", seed: int = 0, cases: int = 100) -> tuple[bool, list[str]]:
    """Run the requested suites; returns (all passed, printable report lines)."""
    checks = []  # (name, max rel err, detail, tolerance)
    if component in ("all", "ops"):
        checks += [(f"ops/{op}", err, "", OP_TOLERANCE) for op, err in check_ops(seed).items()]
    if component in ("all", "loss"):
        checks.append(("loss", check_loss(seed, cases=cases), f" over {cases} cases", LOSS_TOLERANCE))
    if component in ("all", "model"):
        checks.append(("model", check_model(seed), "", MODEL_TOLERANCE))
    lines = [f"{name}: max rel err {err:.3e}{detail} {'ok' if err < tol else f'FAIL (tolerance {tol:g})'}" for name, err, detail, tol in checks]
    return all(err < tol for _, err, _, tol in checks), lines
