"""Keypoint-similarity scoring and average precision/recall evaluation.

OKS is an exponential of squared keypoint distances normalized by object
scale and per-keypoint constants, averaged over ground-truth-visible
keypoints. Each image's detection x ground-truth OKS matrix is computed
once, one ``oks`` call per pair (score_image), and one sweep over
thresholds 0.50:0.05:0.95 and the medium/large size buckets reads them all
(summarize): at each threshold, detections are greedily matched per image
in descending score order, and precision-recall curves accumulate across
images, summarized by 101-point interpolated AP and final recall.

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

    def table_row(self) -> str:
        cells = ["  ----" if v is None else f"{v:6.3f}" for v in self.as_dict().values()]
        return " ".join(cells)

    @staticmethod
    def table_header() -> str:
        return " ".join(f"{f.name.upper():>6}" for f in fields(EvalResult))


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
class ScoredImage:
    """What the threshold and bucket sweep reads of one image, computed once."""

    scores: np.ndarray  # (D,)
    order: np.ndarray  # (D,) detections by descending score, then index
    oks: np.ndarray  # (D, G); 0.0 in columns without visible keypoints
    visible: np.ndarray  # (G,) bool
    areas: np.ndarray  # (G,) effective area of each visible ground truth, 0.0 for the rest


def score_image(dets: Sequence[Detection], gts: Sequence[GroundTruthInstance], params: OksParams) -> ScoredImage:
    """One ``oks`` call per pair of a detection and a ground truth with visible keypoints."""
    visible = np.array([gt.num_visible > 0 for gt in gts], dtype=bool)
    areas = np.array([gt.effective_area() if vis else 0.0 for gt, vis in zip(gts, visible)])
    matrix = np.zeros((len(dets), len(gts)))
    for j, gt in enumerate(gts):
        if visible[j]:
            scale = np.sqrt(areas[j])
            for i, det in enumerate(dets):
                matrix[i, j] = oks(det.keypoints, gt.keypoints, gt.visibility, scale, params)
    scores = np.array([det.score for det in dets])
    return ScoredImage(scores, np.argsort(-scores, kind="stable"), matrix, visible, areas)


def _pr_summary(hits, num_gt):
    """101-point interpolated AP and final recall from pooled detections' hits, by descending score."""
    if num_gt == 0:
        return None, None
    if not len(hits):
        return 0.0, 0.0
    tp = np.cumsum(hits, dtype=np.float64)
    fp = np.cumsum(~hits, dtype=np.float64)
    recall = tp / num_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    # precision envelope: best precision at any recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    levels = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(recall, levels, side="left")
    interp = np.where(idx < len(env), env[np.minimum(idx, len(env) - 1)], 0.0)
    return float(interp.mean()), float(recall[-1])


def _sweep(images: Sequence[ScoredImage], thresholds, buckets) -> list[dict]:
    """Per area bucket (None: all), {threshold: (AP, recall)} over its ground truths; the other visible ones are ignored.

    The images are padded into arrays of images x detections by rank x ground truths, and the greedy
    match runs for every image, bucket and threshold at once, one rank at a time: a detection takes
    its best untaken valid ground truth (the first maximum, strictly above 0.0) when that OKS reaches
    the threshold; an unmatched one that reaches it against an ignored ground truth leaves the curve.
    """
    d = max((len(image.scores) for image in images), default=0)
    g = max((len(image.areas) for image in images), default=0)
    scores, ranked, present = np.zeros((len(images), d)), np.zeros((len(images), d, g)), np.zeros((len(images), d), bool)
    visible, areas = np.zeros((len(images), g), bool), np.zeros((len(images), g))
    for i, image in enumerate(images):
        n, m = image.oks.shape
        scores[i, :n], ranked[i, :n, :m], present[i, :n] = image.scores[image.order], image.oks[image.order], True
        visible[i, :m], areas[i, :m] = image.visible, image.areas
    valid = np.stack([visible if b is None else visible & (b[0] <= areas) & (areas < b[1]) for b in buckets])[:, None]
    ignored = visible & ~valid  # (buckets, 1, images, ground truths)
    t = np.asarray(thresholds, dtype=np.float64)[:, None]
    untaken = np.repeat(valid, len(t), axis=1)
    matched = np.zeros((len(buckets), len(t), len(images), d), bool)
    kept = matched.copy()
    for r in range(d if g else 0):
        row = np.where(untaken, ranked[:, r], 0.0)
        best_j = row.argmax(axis=-1)
        best = np.take_along_axis(row, best_j[..., None], axis=-1)[..., 0]
        matched[..., r] = present[:, r] & (best > 0.0) & (best >= t)
        untaken &= ~(matched[..., r, None] & (np.arange(g) == best_j[..., None]))
        reaches_ignored = (ignored & (ranked[:, r] >= t[..., None])).any(axis=-1)
        kept[..., r] = present[:, r] & (matched[..., r] | ~reaches_ignored)
    out = []
    for b, num_gt in enumerate(valid.sum(axis=(1, 2, 3))):
        by_threshold = {}
        for i, threshold in enumerate(thresholds):
            keep = kept[b, i].ravel()
            hits = matched[b, i].ravel()[keep]
            by_threshold[threshold] = _pr_summary(hits[np.argsort(-scores.ravel()[keep], kind="stable")], num_gt)
        out.append(by_threshold)
    return out


def _mean(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def summarize(images: Sequence[ScoredImage], thresholds: Sequence[float] = DEFAULT_THRESHOLDS) -> EvalResult:
    """AP and AR of scored images across thresholds and size buckets.

    Each kind (AP, AR) gets its mean over the thresholds in every bucket (all, _m, _l) and, from the
    bucket of all ground truths, its values at 0.5 and 0.75.
    """
    thresholds = tuple(thresholds)
    buckets = {"": None, "_m": MEDIUM_RANGE, "_l": LARGE_RANGE}  # field-name suffix: area range
    swept = dict(zip(buckets, _sweep(images, thresholds, list(buckets.values()))))
    values = {}
    for i, kind in enumerate(("ap", "ar")):
        for suffix, by_threshold in swept.items():
            values[kind + suffix] = _mean([by_threshold[t][i] for t in thresholds])
        for t in (0.5, 0.75):
            values[f"{kind}{round(100 * t)}"] = swept[""][t][i] if t in swept[""] else None
    return EvalResult(**values)


def evaluate_detections(
    detections: Sequence[Sequence[Detection]],
    ground_truths: Sequence[Sequence[GroundTruthInstance]],
    params: OksParams,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> EvalResult:
    """Score per-image detections against annotations: summarize over each image's score_image."""
    if len(detections) != len(ground_truths):
        raise ValueError(f"image counts differ: {len(detections)} detection lists, {len(ground_truths)} gt lists")
    return summarize([score_image(dets, gts, params) for dets, gts in zip(detections, ground_truths)], thresholds)


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
    the threshold or top-k rule and decodes them with the image's size. A
    p_human, center or offset that is NaN or infinite raises ValueError
    naming the file, the line and the entry.
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
        for what, values in (("p_human", score[:, None]), ("center", center), ("offsets", offsets)):
            bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
            if bad.size:
                raise ValueError(f"{path}:{line_no}: preds: entry {bad[0]}: {what} must be finite")
        per_image += select_detections(score[None], center[None], offsets[None], [size], score_threshold, top_k)
    return per_image


def load_detections_coco(path: str, image_ids: Sequence[int]) -> list[list[Detection]]:
    """Read a COCO results-format list of keypoint detections, grouped by image id.

    An entry that is not an object, or whose fields are missing, null or not
    numbers, or whose score or keypoints hold a NaN or infinite number, raises
    ParseError naming the file and the entry's index.
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
                if not np.isfinite(triplets).all():
                    raise ParseError(f"{path}: entry {pos}: keypoints must be finite numbers")
                det = Detection(triplets[:, :2], entry.get("score", 1.0))
                if not np.isfinite(det.score):
                    raise ParseError(f"{path}: entry {pos}: score must be finite, got {det.score}")
                by_image[img].append(det)
        except KeyError as e:
            raise ParseError(f"{path}: entry {pos} has no {e.args[0]!r}") from e
        except ParseError:
            raise
        except (TypeError, ValueError) as e:  # a null or non-numeric value where a number belongs
            raise ParseError(f"{path}: entry {pos}: {e}") from e
    return [by_image[int(i)] for i in image_ids]
