"""Set-prediction training objective: per-pair pose loss and the Hungarian loss.

The pose loss combines a visibility-masked L1 on keypoint offsets, a squared
L2 on the duplicated visibility vector and a squared L2 on the center. The
Hungarian loss adds a class negative log-likelihood over all slots (non-object
slots down-weighted) and is evaluated at a fixed, externally supplied optimal
assignment. The tape-recorded version is the one the package runs, for
training and validation alike; on untaped tensors it yields plain floats. The
plain-float hungarian_loss is kept as the test oracle it is pinned against,
next to finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .config import LossWeights
from .pose import PoseVector, PredictionSet, TargetSet

PROB_FLOOR = 1e-12  # -log(p) clamp to avoid infinities early in training


class ClassMismatch(ValueError):
    """pose_loss was given a non-object target."""


@dataclass(frozen=True)
class LossBreakdown:
    """Normalized, weight-scaled components; total is their sum by construction."""

    total: float
    class_nll: float
    keypoint_l1: float
    visibility_l2: float
    center_l2: float

    @staticmethod
    def build(class_nll: float, keypoint_l1: float, visibility_l2: float, center_l2: float) -> "LossBreakdown":
        return LossBreakdown(
            total=class_nll + keypoint_l1 + visibility_l2 + center_l2,
            class_nll=class_nll,
            keypoint_l1=keypoint_l1,
            visibility_l2=visibility_l2,
            center_l2=center_l2,
        )


def pose_loss(target: PoseVector, pred: PoseVector, weights: LossWeights) -> tuple[float, tuple[float, float, float]]:
    """Pose discrepancy between a human target and a predicted pose.

    Returns (value, (keypoint_l1, visibility_l2, center_l2)), each component
    already scaled by its lambda. The L1 term is masked by target visibilities
    on both sides, so invisible keypoints contribute exactly zero.
    """
    if not target.is_human:
        raise ClassMismatch("pose_loss target must be a human pose")
    if target.num_keypoints != pred.num_keypoints:
        raise ValueError(f"keypoint counts differ: {target.num_keypoints} vs {pred.num_keypoints}")
    v = np.asarray(target.visibilities)
    z = np.asarray(target.offsets)
    zh = np.asarray(pred.offsets)
    vh = np.asarray(pred.visibilities)
    l1 = weights.lambda_l1 * float(np.abs(v * z - v * zh).sum())
    l2 = weights.lambda_l2 * float(((v - vh) ** 2).sum())
    c = np.asarray(target.center) - np.asarray(pred.center)
    ctr = weights.lambda_ctr * float((c**2).sum())
    return l1 + l2 + ctr, (l1, l2, ctr)


def _perm_of(assignment) -> Sequence[int]:
    perm = getattr(assignment, "perm", assignment)
    return list(perm)


def hungarian_loss(
    targets: TargetSet,
    preds: PredictionSet,
    assignment,
    weights: LossWeights,
    num_humans_in_batch: int,
    num_images_in_batch: int = 1,
) -> LossBreakdown:
    """Plain-float Hungarian loss for one image at a fixed assignment; the oracle for hungarian_loss_graph.

    The class NLL sums over all slots with the non-object weight applied and is
    divided by slots * images so its scale is batch-size stable; the pose
    components sum over human targets and are divided by the number of humans
    in the batch (clamped to 1 when the batch is human-free).
    """
    perm = _perm_of(assignment)
    n = len(targets)
    if len(preds) != n or len(perm) != n:
        raise ValueError(f"slot counts differ: targets {n}, preds {len(preds)}, perm {len(perm)}")
    humans = max(int(num_humans_in_batch), 1)
    class_sum = 0.0
    l1 = l2 = ctr = 0.0
    for i, target in enumerate(targets):
        slot = preds[perm[i]]
        p_true = slot.class_probs[0] if target.is_human else slot.class_probs[1]
        w = 1.0 if target.is_human else weights.nonobject_class_weight
        class_sum += w * -np.log(max(p_true, PROB_FLOOR))
        if target.is_human:
            _, (a, b, c) = pose_loss(target, slot.pose, weights)
            l1 += a
            l2 += b
            ctr += c
    return LossBreakdown.build(
        class_sum / (n * num_images_in_batch),
        l1 / humans,
        l2 / humans,
        ctr / humans,
    )


def hungarian_loss_graph(
    targets: Sequence[TargetSet],
    outputs: dict[str, ad.Tensor],
    assignments: Sequence,
    weights: LossWeights,
    num_humans_in_batch: int,
) -> tuple[ad.Tensor, LossBreakdown]:
    """Tape-recorded Hungarian loss for a batch of images.

    ``outputs`` holds the prediction tensors: class_probs (B,N,2), center
    (B,N,2), offsets (B,N,2K) and visibility (B,N,2K). Targets and the
    assignments are constants; gradients flow only through the prediction
    tensors. Returns the scalar loss plus its float breakdown.
    """
    b = len(targets)
    if b == 0:
        raise ValueError("empty batch")
    n = len(targets[0])
    twok = outputs["offsets"].shape[-1]
    humans = max(int(num_humans_in_batch), 1)

    # flat index of the prediction slot matched to target (img, i)
    idx = (np.arange(b)[:, None] * n + np.array([_perm_of(a) for a in assignments], dtype=np.intp)).ravel()
    is_human = np.concatenate([t.human for t in targets])
    people = [t for t in targets if t.num_humans]  # a set without people may have no keypoint columns
    tgt_center, tgt_offsets, tgt_vis = np.zeros((b * n, 2)), np.zeros((b * n, twok)), np.zeros((b * n, twok))
    if people:
        tgt_center[is_human] = np.concatenate([t.center[t.human] for t in people])
        tgt_offsets[is_human] = np.concatenate([t.offsets[t.human] for t in people])
        tgt_vis[is_human] = np.concatenate([t.visibilities[t.human] for t in people])
    human_mask = is_human.astype(np.float64)
    class_w = np.where(is_human, 1.0, weights.nonobject_class_weight)
    onehot = np.stack([human_mask, 1.0 - human_mask], axis=1)

    probs = ad.take_rows(ad.reshape(outputs["class_probs"], (b * n, 2)), idx)
    center = ad.take_rows(ad.reshape(outputs["center"], (b * n, 2)), idx)
    offsets = ad.take_rows(ad.reshape(outputs["offsets"], (b * n, twok)), idx)
    vis = ad.take_rows(ad.reshape(outputs["visibility"], (b * n, twok)), idx)

    p_true = ad.reduce_sum(ad.mul(probs, ad.Tensor(onehot)), axis=-1)
    nll = ad.neg(ad.log(ad.clamp_min(p_true, PROB_FLOOR)))
    class_nll = ad.reduce_sum(ad.mul(nll, ad.Tensor(class_w))) / float(n * b)

    vmask = ad.Tensor(tgt_vis)
    l1_rows = ad.reduce_sum(ad.absolute(ad.mul(vmask, ad.sub(ad.Tensor(tgt_offsets), offsets))), axis=-1)
    keypoint_l1 = ad.reduce_sum(ad.mul(l1_rows, ad.Tensor(human_mask * weights.lambda_l1))) / float(humans)

    dv = ad.sub(vmask, vis)
    l2_rows = ad.reduce_sum(ad.mul(dv, dv), axis=-1)
    visibility_l2 = ad.reduce_sum(ad.mul(l2_rows, ad.Tensor(human_mask * weights.lambda_l2))) / float(humans)

    dc = ad.sub(ad.Tensor(tgt_center), center)
    ctr_rows = ad.reduce_sum(ad.mul(dc, dc), axis=-1)
    center_l2 = ad.reduce_sum(ad.mul(ctr_rows, ad.Tensor(human_mask * weights.lambda_ctr))) / float(humans)

    total = ad.add(ad.add(class_nll, keypoint_l1), ad.add(visibility_l2, center_l2))
    breakdown = LossBreakdown.build(
        float(class_nll.data), float(keypoint_l1.data), float(visibility_l2.data), float(center_l2.data)
    )
    return total, breakdown
