"""Datasets: COCO-keypoints JSON ingestion and a synthetic blob-pose generator.

Synthetic samples place 1..max instances of a fixed keypoint template (jittered,
randomly occluded) in an image and render one Gaussian blob per visible
keypoint into channel ``keypoint_index % channels``, so poses are recoverable
from pixels and occlusion is visible as a missing blob. Everything is a pure
function of the seed. Rendering is lazy: caches store only annotations plus
the render parameters.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from . import checkpoint
from .config import SynthConfig
from .pose import InstanceAnnotation, Keypoint, TargetSet, encode_targets

log = logging.getLogger("poet.data")


class ParseError(ValueError):
    pass


class MissingField(ValueError):
    pass


@dataclass(frozen=True)
class RenderSpec:
    blob_radius: float
    channels: int


@dataclass
class Sample:
    annotations: list[InstanceAnnotation]
    image: np.ndarray | None = None  # (C, H, W); None when rendered lazily or eval-only
    image_id: int | None = None
    areas: list[float | None] | None = None  # per-annotation object area for OKS scale, where the source provides one


class Dataset:
    """Samples plus shared geometry; images can be pixels, lazily rendered, or absent."""

    def __init__(self, samples: Sequence[Sample], image_size: tuple[float, float], num_keypoints: int, render: RenderSpec | None = None):
        self.samples = list(samples)
        self.image_size = (float(image_size[0]), float(image_size[1]))
        self.num_keypoints = int(num_keypoints)
        self.render = render
        for i, sample in enumerate(self.samples):
            for ann in sample.annotations:
                if ann.num_keypoints != self.num_keypoints:
                    raise ValueError(f"sample {i}: annotation has {ann.num_keypoints} keypoints, dataset has {self.num_keypoints}")

    def __len__(self):
        return len(self.samples)

    def image(self, i: int) -> np.ndarray:
        sample = self.samples[i]
        if sample.image is None:
            if self.render is None:
                raise ValueError(f"sample {i} has no pixels and the dataset has no render spec")
            sample.image = render_image(sample.annotations, self.image_size, self.render)
        return sample.image


# ---------------------------------------------------------------------------
# synthetic generation


def _template(num_keypoints: int, radius: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(num_keypoints) / num_keypoints
    return np.stack([np.cos(angles), np.sin(angles)], axis=1) * radius


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset; one rng drives counts, placement, jitter, occlusion.

    Each instance carries its full-template bounding-box area (computed before
    occlusion), playing the role of the annotation area real datasets provide
    for the OKS object scale.
    """
    rng = np.random.default_rng(cfg.seed)
    size = float(cfg.image_size)
    template = _template(cfg.num_keypoints, cfg.template_scale * size)
    margin = cfg.margin
    samples = []
    for _ in range(cfg.num_samples):
        count = int(rng.integers(cfg.min_instances, cfg.max_instances + 1))
        annotations = []
        areas = []
        for _ in range(count):
            base = rng.uniform(margin, size - margin, 2)
            jitter = rng.normal(0.0, 1.2, (cfg.num_keypoints, 2))
            points = np.clip(base + template + jitter, 1.0, size - 2.0)
            occluded = rng.random(cfg.num_keypoints) < cfg.occlusion
            kps = [Keypoint(float(x), float(y), 0 if occ else 2) for (x, y), occ in zip(points, occluded)]
            annotations.append(InstanceAnnotation(kps, (size, size)))
            spans = points.max(axis=0) - points.min(axis=0)
            areas.append(float(max(spans[0], 1.0) * max(spans[1], 1.0)))
        samples.append(Sample(annotations, areas=areas))
    return Dataset(samples, (size, size), cfg.num_keypoints, RenderSpec(cfg.blob_radius, cfg.channels))


def render_image(annotations: Sequence[InstanceAnnotation], image_size, spec: RenderSpec) -> np.ndarray:
    """One Gaussian blob per visible keypoint, channel = keypoint index mod channels.

    Overlapping blobs compose by max, so each visible keypoint keeps a local
    peak at its own location.
    """
    w, h = int(image_size[0]), int(image_size[1])
    image = np.zeros((spec.channels, h, w))
    sigma = spec.blob_radius / 2.0
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    for ann in annotations:
        for k, kp in enumerate(ann.keypoints):
            if kp.v <= 0:
                continue
            blob = np.exp(-((xs - kp.x) ** 2 + (ys - kp.y) ** 2) / (2.0 * sigma**2))
            channel = k % spec.channels
            np.maximum(image[channel], blob, out=image[channel])
    return image


# ---------------------------------------------------------------------------
# batching


@dataclass(frozen=True)
class Batch:
    images: np.ndarray  # (B, C, H, W)
    targets: list[TargetSet]
    num_humans: int
    indices: tuple[int, ...]


def batch_iter(dataset: Dataset, batch_size: int, shuffle_seed: int | None, num_slots: int) -> Iterator[Batch]:
    """Deterministic shuffled batches; the last partial batch is kept.

    Each batch carries its human count (slots whose encoded class is human)
    for loss normalization.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    order = np.arange(len(dataset))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(dataset))
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        images = np.stack([dataset.image(int(i)) for i in chunk])
        targets = [encode_targets(dataset.samples[int(i)].annotations, dataset.num_keypoints, num_slots) for i in chunk]
        num_humans = sum(t.num_humans for t in targets)
        yield Batch(images, targets, num_humans, tuple(int(i) for i in chunk))


def filter_for_training(dataset: Dataset, max_instances: int) -> tuple[Dataset, int, int]:
    """Drop samples without any visible-keypoint person or with too many instances.

    Returns (filtered dataset, dropped_empty, dropped_overfull); drops are logged.
    """
    kept = []
    dropped_empty = dropped_overfull = 0
    for sample in dataset.samples:
        visible = [a for a in sample.annotations if a.num_visible > 0]
        if not visible:
            dropped_empty += 1
            continue
        if len(visible) > max_instances:
            dropped_overfull += 1
            continue
        kept.append(sample)
    if dropped_empty or dropped_overfull:
        log.info("filtered dataset: dropped %d empty and %d over-capacity samples", dropped_empty, dropped_overfull)
    return Dataset(kept, dataset.image_size, dataset.num_keypoints, dataset.render), dropped_empty, dropped_overfull


# ---------------------------------------------------------------------------
# COCO-format ingestion


def _field(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise MissingField(f"{path}: expected a JSON object with the field {key!r}, got {type(obj).__name__}")
    if key not in obj:
        raise MissingField(f"{path}.{key} is missing")
    return obj[key]


def load_coco_keypoints(path: str) -> Dataset:
    """Read a COCO-format annotation file (images/annotations arrays, keypoint triplets).

    Persons with zero labeled keypoints are retained (they encode as
    non-objects); crowd annotations are skipped. Pixels are not loaded:
    the result supports target encoding and metric evaluation only. A field
    of the wrong type raises ParseError naming the file and the entry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON at byte offset {e.pos}: {e.msg}") from e
    images = _field(doc, "images", path)
    annotations = _field(doc, "annotations", path)
    sizes: dict[int, tuple[float, float]] = {}
    order: list[int] = []
    grouped: dict[int, list[InstanceAnnotation]] = {}
    grouped_areas: dict[int, list[float]] = {}
    num_keypoints = None
    where = path
    try:
        for i, img in enumerate(images):
            where = f"{path}.images[{i}]"
            img_id = int(_field(img, "id", where))
            sizes[img_id] = (float(_field(img, "width", where)), float(_field(img, "height", where)))
            order.append(img_id)
            grouped[img_id], grouped_areas[img_id] = [], []

        for i, ann in enumerate(annotations):
            where = f"{path}.annotations[{i}]"
            if not isinstance(ann, dict):
                raise ParseError(f"{where}: expected a JSON object, got {type(ann).__name__}")
            if ann.get("iscrowd", 0):
                continue
            img_id = int(_field(ann, "image_id", where))
            if img_id not in sizes:
                raise ParseError(f"{where}: unknown image_id {img_id}")
            triplets = _field(ann, "keypoints", where)
            if not isinstance(triplets, list) or len(triplets) % 3 != 0:
                raise ParseError(f"{where}: keypoints must be a list of x, y, v triplets, got {triplets!r:.40}")
            k = len(triplets) // 3
            if num_keypoints is None:
                num_keypoints = k
            elif k != num_keypoints:
                raise ParseError(f"{where}: {k} keypoints, expected {num_keypoints}")
            kps = [Keypoint(float(triplets[3 * j]), float(triplets[3 * j + 1]), int(triplets[3 * j + 2])) for j in range(k)]
            grouped[img_id].append(InstanceAnnotation(kps, sizes[img_id]))
            grouped_areas[img_id].append(float(ann["area"]) if "area" in ann else -1.0)
    except (ParseError, MissingField):
        raise
    except (TypeError, ValueError) as e:  # a null or non-numeric value where a number belongs
        raise ParseError(f"{where}: {e}") from e

    if num_keypoints is None:
        num_keypoints = 0
    samples = [
        Sample(
            grouped[img_id],
            image_id=img_id,
            areas=[a if a > 0 else None for a in grouped_areas[img_id]] if grouped_areas[img_id] else None,
        )
        for img_id in order
    ]
    # image sizes can vary across a COCO set; keep the first as the nominal size
    nominal = sizes[order[0]] if order else (0.0, 0.0)
    return Dataset(samples, nominal, num_keypoints)


def save_coco_keypoints(dataset: Dataset, path: str) -> None:
    """Write the ingestion subset of the COCO schema (inverse of load_coco_keypoints)."""
    images = []
    annotations = []
    ann_id = 1
    for i, sample in enumerate(dataset.samples):
        img_id = sample.image_id if sample.image_id is not None else i + 1
        if sample.annotations:
            w, h = sample.annotations[0].image_size
        else:
            w, h = dataset.image_size
        images.append({"id": img_id, "width": w, "height": h, "file_name": f"{img_id}.png"})
        for j, ann in enumerate(sample.annotations):
            triplets: list[float] = []
            for kp in ann.keypoints:
                triplets.extend((kp.x, kp.y, kp.v))
            record = {
                "id": ann_id,
                "image_id": img_id,
                "category_id": 1,
                "keypoints": triplets,
                "num_keypoints": ann.num_visible,
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


# ---------------------------------------------------------------------------
# binary cache


def save_dataset_cache(dataset: Dataset, path: str, synth_cfg: SynthConfig | None = None) -> None:
    """Persist annotations as a binary array container plus a JSON manifest sidecar."""
    arrays: dict[str, np.ndarray] = {}
    for i, sample in enumerate(dataset.samples):
        rows = np.zeros((len(sample.annotations), dataset.num_keypoints, 3))
        for a, ann in enumerate(sample.annotations):
            for k, kp in enumerate(ann.keypoints):
                rows[a, k] = (kp.x, kp.y, kp.v)
        arrays[f"sample{i:06d}"] = rows
        if sample.areas is not None:
            arrays[f"sample{i:06d}.areas"] = np.array([-1.0 if a is None else a for a in sample.areas])
    checkpoint.save_arrays(path, arrays)
    manifest = {
        "num_samples": len(dataset.samples),
        "image_size": list(dataset.image_size),
        "num_keypoints": dataset.num_keypoints,
        "render": None if dataset.render is None else {"blob_radius": dataset.render.blob_radius, "channels": dataset.render.channels},
        "synth_config": None if synth_cfg is None else {f.name: getattr(synth_cfg, f.name) for f in fields(synth_cfg)},
    }
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset_cache(path: str) -> Dataset:
    """Read a cache written by save_dataset_cache.

    A manifest that is not JSON or lacks a field, or a container that is cut
    short or lacks a sample, raises ParseError naming the path; a missing file
    raises FileNotFoundError.
    """
    try:
        with open(path + ".json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        arrays = checkpoint.load_arrays(path)
        image_size = tuple(manifest["image_size"])
        samples = []
        for i in range(manifest["num_samples"]):
            rows = arrays[f"sample{i:06d}"]
            annotations = [
                InstanceAnnotation([Keypoint(float(x), float(y), int(v)) for x, y, v in inst], image_size)
                for inst in rows
            ]
            raw_areas = arrays.get(f"sample{i:06d}.areas")
            areas = None if raw_areas is None else [None if a < 0 else float(a) for a in raw_areas]
            samples.append(Sample(annotations, areas=areas))
        render = manifest.get("render")
        spec = RenderSpec(render["blob_radius"], int(render["channels"])) if render else None
        return Dataset(samples, image_size, int(manifest["num_keypoints"]), spec)
    except checkpoint.ContainerError as e:  # its message starts with the path
        raise ParseError(f"dataset cache {e}") from e
    except KeyError as e:
        raise ParseError(f"dataset cache {path}: {e.args[0]!r} is missing") from e
    except (TypeError, ValueError) as e:  # a manifest that is not JSON, or a field of the wrong type
        raise ParseError(f"dataset cache {path}: {e}") from e
