"""Slow, one-at-a-time references that the tests check the package against.

Nothing in the package calls these. Each is the plain form of something the
package does on whole arrays: one pose vector per instance, one pixel
keypoint per row, one cost per target and prediction pair, one COCO record
per instance. An instance's annotation is a (K, 3) array of x, y, v rows, the
layout of ``Sample.keypoints``.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from poet.data import Dataset
from poet.loss import LossWeights, pose_loss
from poet.pose import PoseClass, PoseVector, PredictionSlot, encode_targets


def non_object_pose(num_keypoints: int) -> PoseVector:
    return PoseVector((0.0, 0.0), (0.0,) * (2 * num_keypoints), (0.0,) * (2 * num_keypoints), PoseClass.NON_OBJECT)


def encode_pose(keypoints, image_size: Sequence[float]) -> PoseVector:
    """One instance's pose vector: encode_targets' row for it, a non-object when no keypoint is visible."""
    return encode_targets(np.asarray(keypoints, dtype=np.float64)[None], image_size, 1)[0]


def decode_pose(p: PoseVector, image_size: Sequence[float]) -> np.ndarray:
    """Invert encode_pose: (K, 3) pixel x, y rows with v 1 where the visibility pair is above 0.5, else 0."""
    w, h = float(image_size[0]), float(image_size[1])
    rows = []
    for i in range(p.num_keypoints):
        x = (p.center[0] + p.offsets[2 * i]) * w
        y = (p.center[1] + p.offsets[2 * i + 1]) * h
        rows.append((x, y, 1 if p.visibilities[2 * i] > 0.5 else 0))
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def to_flat(p: PoseVector) -> list[float]:
    """Serialize as [x_c, y_c, dx_1, dy_1, v_1, dx_2, dy_2, v_2, ...] (one v per keypoint), from_flat's layout."""
    out = [p.center[0], p.center[1]]
    for i in range(p.num_keypoints):
        out.extend((p.offsets[2 * i], p.offsets[2 * i + 1], p.visibilities[2 * i]))
    return out


def match_cost(target: PoseVector, pred: PredictionSlot, weights: LossWeights) -> float:
    """Pairwise matching cost; zero for non-object targets."""
    if not target.is_human:
        return 0.0
    value, _ = pose_loss(target, pred.pose, weights)
    return -pred.class_probs[0] + value


def save_coco_keypoints(dataset: Dataset, path: str) -> None:
    """Write the ingestion subset of the COCO schema (inverse of load_coco_keypoints), v as an integer."""
    images = []
    annotations = []
    ann_id = 1
    for i, sample in enumerate(dataset.samples):
        img_id = sample.image_id if sample.image_id is not None else i + 1
        w, h = sample.size
        images.append({"id": img_id, "width": w, "height": h, "file_name": f"{img_id}.png"})
        for j, rows in enumerate(sample.keypoints.tolist()):
            record = {
                "id": ann_id,
                "image_id": img_id,
                "category_id": 1,
                "keypoints": [c for x, y, v in rows for c in (x, y, int(v))],
                "num_keypoints": sum(1 for _, _, v in rows if v > 0),
                "iscrowd": 0,
            }
            if sample.areas is not None and sample.areas[j] is not None:
                record["area"] = sample.areas[j]
            annotations.append(record)
            ann_id += 1
    doc = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": 1, "name": "person", "keypoints": [f"kp{i}" for i in range(dataset.num_keypoints)]}],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
