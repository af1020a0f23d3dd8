"""Keypoint-similarity scoring and average precision/recall evaluation.

OKS is an exponential of squared keypoint distances normalized by object
scale and per-keypoint constants, averaged over ground-truth-visible
keypoints. Each image's detection x ground-truth OKS matrix is computed
once, one ``oks`` call per pair, and the sweep over thresholds
0.50:0.05:0.95 and the medium/large size buckets reads it: at each
threshold, detections are greedily matched per image in descending score
order, and precision-recall curves accumulate across images, summarized by
101-point interpolated AP and final recall.

Instances are bucketed by ground-truth area: the provided annotation area
when available, otherwise the tight bounding box of visible keypoints (sides
floored at one pixel). Fields with no ground truth to score stay undefined
(None), never zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .data import ParseError
from .pose import prediction_arrays, read_records

DEFAULT_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
MEDIUM_RANGE = (32.0**2, 96.0**2)
LARGE_RANGE = (96.0**2, float("inf"))

# Per-keypoint labeling-uncertainty constants for the 17-keypoint person layout,
# as distributed with the standard COCO evaluation toolkit (k_i = 2 * sigma_i).
COCO_K17 = tuple(
    2.0 * s
    for s in (
        0.026, 0.025, 0.025, 0.035, 0.035, 0.079, 0.079, 0.072, 0.072,
        0.062, 0.062, 0.107, 0.107, 0.087, 0.087, 0.089, 0.089,
    )
)


class NoVisibleKeypoints(ValueError):
    """OKS is undefined for a ground truth without visible keypoints."""


@dataclass(frozen=True)
class OksParams:
    k: tuple[float, ...]

    def __init__(self, k: Sequence[float]):
        k = tuple(float(x) for x in k)
        if any(x <= 0 for x in k):
            raise ValueError("all OKS constants must be > 0")
        object.__setattr__(self, "k", k)

    @staticmethod
    def coco17() -> "OksParams":
        return OksParams(COCO_K17)

    @staticmethod
    def uniform(num_keypoints: int, value: float = 0.1) -> "OksParams":
        return OksParams((value,) * num_keypoints)


@dataclass(frozen=True)
class Detection:
    keypoints: np.ndarray  # (K, 2) pixels
    score: float

    def __init__(self, keypoints, score):
        object.__setattr__(self, "keypoints", np.asarray(keypoints, dtype=np.float64).reshape(-1, 2))
        object.__setattr__(self, "score", float(score))


@dataclass(frozen=True)
class GroundTruthInstance:
    keypoints: np.ndarray  # (K, 2) pixels
    visibility: np.ndarray  # (K,) flags, >0 means labeled
    area: float | None = None

    def __init__(self, keypoints, visibility, area=None):
        object.__setattr__(self, "keypoints", np.asarray(keypoints, dtype=np.float64).reshape(-1, 2))
        object.__setattr__(self, "visibility", np.asarray(visibility, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "area", None if area is None else float(area))

    @property
    def num_visible(self) -> int:
        return int((self.visibility > 0).sum())

    def effective_area(self) -> float:
        """Annotation area if provided, else visible-keypoint box area (sides >= 1 px)."""
        if self.area is not None:
            return self.area
        pts = self.keypoints[self.visibility > 0]
        if len(pts) == 0:
            return 0.0
        w = max(float(pts[:, 0].max() - pts[:, 0].min()), 1.0)
        h = max(float(pts[:, 1].max() - pts[:, 1].min()), 1.0)
        return w * h


@dataclass(frozen=True)
class EvalResult:
    ap: float | None
    ap50: float | None
    ap75: float | None
    ap_m: float | None
    ap_l: float | None
    ar: float | None
    ar50: float | None
    ar75: float | None
    ar_m: float | None
    ar_l: float | None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    def table_row(self) -> str:
        cells = ["  ----" if v is None else f"{v:6.3f}" for v in self.as_dict().values()]
        return " ".join(cells)

    @staticmethod
    def table_header() -> str:
        return " ".join(f"{name:>6}" for name in ("AP", "AP50", "AP75", "AP_M", "AP_L", "AR", "AR50", "AR75", "AR_M", "AR_L"))


def oks(pred_keypoints, gt_keypoints, gt_visibility, scale: float, params: OksParams) -> float:
    """Similarity in [0, 1]; only ground-truth-visible keypoints contribute."""
    if scale <= 0:
        raise ValueError(f"object scale must be positive, got {scale}")
    pred = np.asarray(pred_keypoints, dtype=np.float64).reshape(-1, 2)
    gt = np.asarray(gt_keypoints, dtype=np.float64).reshape(-1, 2)
    vis = np.asarray(gt_visibility, dtype=np.float64).reshape(-1)
    k = np.asarray(params.k, dtype=np.float64)
    if not (len(pred) == len(gt) == len(vis) == len(k)):
        raise ValueError(f"keypoint counts differ: pred {len(pred)}, gt {len(gt)}, vis {len(vis)}, k {len(k)}")
    mask = vis > 0
    if not mask.any():
        raise NoVisibleKeypoints("ground truth has no visible keypoints")
    d2 = ((pred[mask] - gt[mask]) ** 2).sum(axis=1)
    e = np.exp(-d2 / (2.0 * scale**2 * k[mask] ** 2))
    return float(e.sum() / mask.sum())


@dataclass(frozen=True)
class _ScoredImage:
    """What the threshold and bucket sweep reads of one image, computed once."""

    scores: tuple[float, ...]
    order: tuple[int, ...]  # detections by descending score, then index
    oks: list[list[float]]  # [detection][ground truth]; 0.0 in columns without visible keypoints
    visible: tuple[bool, ...]
    areas: tuple[float, ...]  # effective area of each visible ground truth


def _score_image(dets: Sequence[Detection], gts: Sequence[GroundTruthInstance], params: OksParams) -> _ScoredImage:
    """One ``oks`` call per pair of a detection and a ground truth with visible keypoints."""
    visible = tuple(gt.num_visible > 0 for gt in gts)
    areas = tuple(gt.effective_area() if vis else 0.0 for gt, vis in zip(gts, visible))
    matrix = [[0.0] * len(gts) for _ in dets]
    for j, gt in enumerate(gts):
        if visible[j]:
            scale = np.sqrt(areas[j])
            for row, det in zip(matrix, dets):
                row[j] = oks(det.keypoints, gt.keypoints, gt.visibility, scale, params)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    return _ScoredImage(tuple(det.score for det in dets), tuple(order), matrix, visible, areas)


def _match_image(image: _ScoredImage, valid, threshold):
    """Greedy per-image matching: best remaining OKS >= threshold wins.

    Each detection, by descending score, takes its best untaken valid ground
    truth (strict ``>`` from 0.0, so the first maximum wins). Returns
    (score, is_tp) records for detections that enter the PR curve;
    detections whose only match is an ignored ground truth (visible but not
    valid) are dropped.
    """
    taken = [False] * len(valid)
    records = []
    for di in image.order:
        row = image.oks[di]
        best_j, best_oks = -1, 0.0
        for j, value in enumerate(row):
            if valid[j] and not taken[j] and value > best_oks:
                best_j, best_oks = j, value
        if best_j >= 0 and best_oks >= threshold:
            taken[best_j] = True
            records.append((image.scores[di], True))
        elif not any(vis and not ok and value >= threshold for vis, ok, value in zip(image.visible, valid, row)):
            records.append((image.scores[di], False))
    return records


def _pr_summary(all_records, num_gt):
    """101-point interpolated AP and final recall from pooled detection records."""
    if num_gt == 0:
        return None, None
    if not all_records:
        return 0.0, 0.0
    all_records.sort(key=lambda r: (-r[0], r[1], r[2]))
    tp = np.cumsum([1.0 if r[3] else 0.0 for r in all_records])
    fp = np.cumsum([0.0 if r[3] else 1.0 for r in all_records])
    recall = tp / num_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    # precision envelope: best precision at any recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    levels = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(recall, levels, side="left")
    interp = np.where(idx < len(env), env[np.minimum(idx, len(env) - 1)], 0.0)
    return float(interp.mean()), float(recall[-1])


def _sweep(images: Sequence[_ScoredImage], thresholds, bucket):
    """{threshold: (AP, recall)} over ground truths in the area bucket (None: all); the rest are ignored."""
    valid_per_image = [
        [vis and (bucket is None or bucket[0] <= area < bucket[1]) for vis, area in zip(image.visible, image.areas)]
        for image in images
    ]
    num_gt = sum(sum(v) for v in valid_per_image)
    if num_gt == 0:
        return {t: (None, None) for t in thresholds}
    out = {}
    for t in thresholds:
        records = []
        for img, image in enumerate(images):
            for di, (score, is_tp) in enumerate(_match_image(image, valid_per_image[img], t)):
                records.append((score, img, di, is_tp))
        out[t] = _pr_summary(records, num_gt)
    return out


def _mean(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def evaluate_detections(
    detections: Sequence[Sequence[Detection]],
    ground_truths: Sequence[Sequence[GroundTruthInstance]],
    params: OksParams,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> EvalResult:
    """Score per-image detections against annotations across thresholds and size buckets."""
    if len(detections) != len(ground_truths):
        raise ValueError(f"image counts differ: {len(detections)} detection lists, {len(ground_truths)} gt lists")
    thresholds = tuple(thresholds)
    images = [_score_image(dets, gts, params) for dets, gts in zip(detections, ground_truths)]
    if not any(any(image.visible) for image in images):
        # nothing to score: every field is undefined, not zero
        return EvalResult(*(None,) * 10)
    all_b = _sweep(images, thresholds, None)
    med_b = _sweep(images, thresholds, MEDIUM_RANGE)
    lrg_b = _sweep(images, thresholds, LARGE_RANGE)

    def at(bucket, t, idx):
        return bucket[t][idx]

    return EvalResult(
        ap=_mean([at(all_b, t, 0) for t in thresholds]),
        ap50=at(all_b, 0.5, 0) if 0.5 in all_b else None,
        ap75=at(all_b, 0.75, 0) if 0.75 in all_b else None,
        ap_m=_mean([at(med_b, t, 0) for t in thresholds]),
        ap_l=_mean([at(lrg_b, t, 0) for t in thresholds]),
        ar=_mean([at(all_b, t, 1) for t in thresholds]),
        ar50=at(all_b, 0.5, 1) if 0.5 in all_b else None,
        ar75=at(all_b, 0.75, 1) if 0.75 in all_b else None,
        ar_m=_mean([at(med_b, t, 1) for t in thresholds]),
        ar_l=_mean([at(lrg_b, t, 1) for t in thresholds]),
    )


# ---------------------------------------------------------------------------
# slot selection and detection-file ingestion


def select_detections(score, center, offsets, sizes, score_threshold: float, top_k: int) -> list[list[Detection]]:
    """Per-image detections from B images' N slots: the slots kept, decoded to pixels.

    score is (B, N) human-class probabilities, center (B, N, 2) and offsets
    (B, N, 2K) normalized poses, sizes each image's (W, H). With top_k > 0
    the top_k scores are kept, ties going to the lower slot; otherwise every
    slot scoring at least score_threshold. A keypoint lands at
    (center + offset) * (W, H).
    """
    b, n = score.shape
    per_keypoint = offsets.reshape(b, n, offsets.shape[-1] // 2, 2)
    pixels = (center[:, :, None, :] + per_keypoint) * np.asarray(sizes, dtype=np.float64)[:, None, None, :]
    dets = []
    for i in range(b):
        keep = np.argsort(-score[i], kind="stable")[:top_k] if top_k > 0 else np.flatnonzero(score[i] >= score_threshold)
        dets.append([Detection(pixels[i, j], score[i, j]) for j in keep])
    return dets


def load_detections_jsonl(
    path: str, image_sizes: Sequence[tuple[float, float]], score_threshold: float, top_k: int
) -> list[list[Detection]]:
    """Read the package's JSON-lines prediction format, one image per line.

    Each line holds {"preds": [{"pose": [...], "class_probs": [p_human, p_non]}]}
    with normalized flat poses; select_detections keeps each line's slots by
    the threshold or top-k rule and decodes them with the image's size.
    """
    records = read_records(path, "preds")
    if len(records) > len(image_sizes):
        raise ValueError(f"{path}:{records[len(image_sizes)][0]}: more prediction lines than images ({len(image_sizes)})")
    per_image: list[list[Detection]] = []
    for (line_no, entries), size in zip(records, image_sizes):
        try:
            score, center, offsets, _ = prediction_arrays(entries)
        except ValueError as e:
            raise ValueError(f"{path}:{line_no}: {e}") from e
        per_image += select_detections(score[None], center[None], offsets[None], [size], score_threshold, top_k)
    return per_image


def load_detections_coco(path: str, image_ids: Sequence[int]) -> list[list[Detection]]:
    """Read a COCO results-format list of keypoint detections, grouped by image id.

    An entry that is not an object, or whose fields are missing, null or not
    numbers, or whose score is NaN or infinite, raises ParseError naming the
    file and the entry's index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ParseError(f"{path}: COCO results file must be a JSON array")
    by_image: dict[int, list[Detection]] = {int(i): [] for i in image_ids}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: entry {pos}: expected a JSON object, got {type(entry).__name__}")
        try:
            img = int(entry["image_id"])
            if img in by_image:
                triplets = np.asarray(entry["keypoints"], dtype=np.float64).reshape(-1, 3)
                det = Detection(triplets[:, :2], entry.get("score", 1.0))
                if not np.isfinite(det.score):
                    raise ParseError(f"{path}: entry {pos}: score must be finite, got {det.score}")
                by_image[img].append(det)
        except KeyError as e:
            raise ParseError(f"{path}: entry {pos} has no {e.args[0]!r}") from e
        except (TypeError, ValueError) as e:  # a null or non-numeric value where a number belongs
            raise ParseError(f"{path}: entry {pos}: {e}") from e
    return [by_image[int(i)] for i in image_ids]
