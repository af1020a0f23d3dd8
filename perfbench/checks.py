"""Correctness oracles kept apart from the program.

Nothing here imports poet. Every check recomputes what the program should
have produced from plain arrays, by a different route: the closed-form pair
cost, scipy's ``linear_sum_assignment`` as the optimality oracle, the
closed-form OKS and Hungarian loss, and central finite differences. Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

PROB_FLOOR = 1e-12
COST_TOL = 1e-9  # total cost against scipy's optimum
PAIR_TOL = 1e-12  # one pair cost against its closed form, relative to max(1, |cost|)
OKS_TOL = 1e-12


def pair_costs(tgt_center, tgt_offsets, tgt_vis, human, pred_p_human, pred_center, pred_offsets, pred_vis, weights):
    """Cost matrix (targets x preds): -p_h + l1*|v(z - z^)|_1 + l2*|v - v^|^2 + lc*|c - c^|^2.

    Rows of non-human targets are zero. ``weights`` is (lambda_l1, lambda_l2, lambda_ctr).
    """
    l1, l2, lc = weights
    v = np.asarray(tgt_vis, dtype=np.float64)[:, None, :]
    z = np.asarray(tgt_offsets, dtype=np.float64)[:, None, :]
    zh = np.asarray(pred_offsets, dtype=np.float64)[None, :, :]
    vh = np.asarray(pred_vis, dtype=np.float64)[None, :, :]
    dc = np.asarray(tgt_center, dtype=np.float64)[:, None, :] - np.asarray(pred_center, dtype=np.float64)[None, :, :]
    cost = (
        -np.asarray(pred_p_human, dtype=np.float64)[None, :]
        + l1 * np.abs(v * (z - zh)).sum(axis=-1)
        + l2 * ((v - vh) ** 2).sum(axis=-1)
        + lc * (dc**2).sum(axis=-1)
    )
    return np.where(np.asarray(human, dtype=bool)[:, None], cost, 0.0)


def check_pair_costs(program: np.ndarray, reference: np.ndarray, where: str) -> list[str]:
    program = np.asarray(program, dtype=np.float64)
    if program.shape != reference.shape:
        return [f"{where}: cost matrix shape {program.shape}, expected {reference.shape}"]
    err = np.abs(program - reference) / np.maximum(1.0, np.abs(reference))
    if not np.all(err <= PAIR_TOL):
        i, j = np.unravel_index(int(np.argmax(err)), err.shape)
        return [f"{where}: pair cost [{i},{j}] is {program[i, j]!r}, closed form gives {reference[i, j]!r}"]
    return []


def check_assignment(reference: np.ndarray, perm: Sequence[int], total: float, num_humans: int, where: str) -> list[str]:
    """perm[i] = prediction matched to target i, targets humans-first.

    The permutation must be optimal on the reference matrix (scipy's optimum
    within COST_TOL), report that total, and give the padding rows the
    leftover columns in ascending order.
    """
    from scipy.optimize import linear_sum_assignment  # imported here, so set-up never pays for it

    n = reference.shape[0]
    perm = [int(j) for j in perm]
    if sorted(perm) != list(range(n)):
        return [f"{where}: assignment is not a permutation of {n} slots"]
    fails = []
    rows, cols = linear_sum_assignment(reference)
    optimum = float(reference[rows, cols].sum())
    achieved = float(reference[np.arange(n), perm].sum())
    if abs(achieved - optimum) > COST_TOL:
        fails.append(f"{where}: assignment costs {achieved!r}, scipy's optimum is {optimum!r}")
    if abs(float(total) - achieved) > COST_TOL:
        fails.append(f"{where}: reported total {float(total)!r} differs from the assignment's cost {achieved!r}")
    leftover = sorted(set(range(n)) - set(perm[:num_humans]))
    if perm[num_humans:] != leftover:
        fails.append(f"{where}: padding rows take {perm[num_humans:][:8]}..., expected leftover columns ascending {leftover[:8]}...")
    return fails


def oks(pred, gt, vis, area: float, k) -> float:
    """Closed-form OKS: mean over labeled keypoints of exp(-d^2 / (2 * area * k^2))."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, 2)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 2)
    labeled = np.asarray(vis, dtype=np.float64).reshape(-1) > 0
    k = np.asarray(k, dtype=np.float64)
    total = 0.0
    for i in np.nonzero(labeled)[0]:
        d2 = (pred[i, 0] - gt[i, 0]) ** 2 + (pred[i, 1] - gt[i, 1]) ** 2
        total += math.exp(-d2 / (2.0 * area * k[i] ** 2))
    return total / int(labeled.sum())


def check_oks(samples, k) -> list[str]:
    """samples: (pred, gt, vis, scale, program value) as passed to and returned by metrics.oks."""
    fails = []
    for idx, (pred, gt, vis, scale, value) in enumerate(samples):
        expected = oks(pred, gt, vis, float(scale) ** 2, k)
        if not abs(float(value) - expected) <= OKS_TOL:
            fails.append(f"oks sample {idx}: program {float(value)!r}, closed form {expected!r}")
    return fails


def hungarian_loss(outputs: dict, targets: Sequence[dict], perms: Sequence[Sequence[int]], weights) -> float:
    """Closed-form batch Hungarian loss at fixed assignments.

    outputs: arrays class_probs (B,N,2), center (B,N,2), offsets and visibility (B,N,2K).
    targets[b]: arrays center (N,2), offsets (N,2K), vis (N,2K) and human (N,) bool.
    weights: (lambda_l1, lambda_l2, lambda_ctr, nonobject_class_weight).
    """
    l1, l2, lc, w_no = weights
    b, n = outputs["class_probs"].shape[:2]
    humans = max(int(sum(int(np.sum(t["human"])) for t in targets)), 1)
    nll = kp = vi = ct = 0.0
    for bi, (t, perm) in enumerate(zip(targets, perms)):
        perm = np.asarray(perm, dtype=np.intp)
        human = np.asarray(t["human"], dtype=bool)
        probs = outputs["class_probs"][bi, perm]
        p_true = np.where(human, probs[:, 0], probs[:, 1])
        nll += float(np.sum(np.where(human, 1.0, w_no) * -np.log(np.maximum(p_true, PROB_FLOOR))))
        v = t["vis"][human]
        kp += l1 * float(np.abs(v * (t["offsets"][human] - outputs["offsets"][bi, perm][human])).sum())
        vi += l2 * float(((v - outputs["visibility"][bi, perm][human]) ** 2).sum())
        ct += lc * float(((t["center"][human] - outputs["center"][bi, perm][human]) ** 2).sum())
    return nll / (n * b) + (kp + vi + ct) / humans


def check_gradients(analytic: dict, loss_at: Callable[[object, float], float], steps=(1e-6, 1e-7)) -> list[str]:
    """Compare analytic gradients with central differences of ``loss_at(coordinate, delta)``.

    A coordinate passes if any step size agrees within 1e-5 relative: a loss
    with relu and abs kinks can put one step across a kink, a wrong gradient
    disagrees at every step.
    """
    fails = []
    for coord, grad in analytic.items():
        seen = []
        for h in steps:
            numeric = (loss_at(coord, h) - loss_at(coord, -h)) / (2.0 * h)
            seen.append(numeric)
            if abs(grad - numeric) <= 1e-5 * max(abs(grad), abs(numeric)) + 1e-9:
                break
        else:
            fails.append(f"gradient at {coord}: backward gives {grad!r}, central differences give {seen}")
    return fails
