"""Datasets: COCO-keypoints JSON ingestion and a synthetic blob-pose generator.

Synthetic samples place 1..max instances of a fixed keypoint template (jittered,
randomly occluded) in an image and render one Gaussian blob per visible
keypoint into channel ``keypoint_index % channels``, so poses are recoverable
from pixels and occlusion is visible as a missing blob. Everything is a pure
function of the seed. Rendering is lazy: caches store only annotations plus
the render parameters.

A sample's annotations are one float64 array of shape (instances, K, 3): each
keypoint's x, y in pixels and its COCO visibility v (0 unlabeled, 1 occluded,
2 visible), the rows of a COCO keypoint triplet list.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from . import checkpoint
from .config import SynthConfig
from .pose import TargetSet, encode_targets

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
    keypoints: np.ndarray  # (instances, K, 3) float64 x, y, v rows
    size: tuple[float, float]  # the image's (W, H) in pixels
    image: np.ndarray | None = None  # (C, H, W); None when rendered lazily or eval-only
    image_id: int | None = None
    areas: list[float | None] | None = None  # per-instance object area for OKS scale, where the source provides one

    @property
    def num_people(self) -> int:
        """Instances with a visible keypoint (v > 0): those that take a prediction slot."""
        return int(np.count_nonzero((self.keypoints[:, :, 2] > 0).any(axis=1)))


class Dataset:
    """Samples plus shared geometry; images can be pixels, lazily rendered, or absent."""

    def __init__(self, samples: Sequence[Sample], image_size: tuple[float, float], num_keypoints: int, render: RenderSpec | None = None):
        self.samples = list(samples)
        self.image_size = (float(image_size[0]), float(image_size[1]))
        self.num_keypoints = int(num_keypoints)
        self.render = render
        for i, sample in enumerate(self.samples):
            shape = sample.keypoints.shape
            if len(shape) != 3 or shape[1:] != (self.num_keypoints, 3):
                raise ValueError(f"sample {i}: keypoints of shape {shape}, the dataset has (instances, {self.num_keypoints}, 3)")

    def __len__(self):
        return len(self.samples)

    def image(self, i: int) -> np.ndarray:
        sample = self.samples[i]
        if sample.image is None:
            if self.render is None:
                raise ValueError(f"sample {i} has no pixels and the dataset has no render spec")
            sample.image = render_image(sample.keypoints, self.image_size, self.render)
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
        keypoints = np.empty((count, cfg.num_keypoints, 3))
        areas = []
        for kps in keypoints:
            base = rng.uniform(margin, size - margin, 2)
            jitter = rng.normal(0.0, 1.2, (cfg.num_keypoints, 2))
            kps[:, :2] = points = np.clip(base + template + jitter, 1.0, size - 2.0)
            kps[:, 2] = np.where(rng.random(cfg.num_keypoints) < cfg.occlusion, 0.0, 2.0)
            spans = points.max(axis=0) - points.min(axis=0)
            areas.append(float(max(spans[0], 1.0) * max(spans[1], 1.0)))
        samples.append(Sample(keypoints, (size, size), areas=areas))
    return Dataset(samples, (size, size), cfg.num_keypoints, RenderSpec(cfg.blob_radius, cfg.channels))


def render_image(keypoints: np.ndarray, image_size, spec: RenderSpec) -> np.ndarray:
    """One Gaussian blob per visible keypoint of the (instances, K, 3) rows, channel = keypoint index mod channels.

    Overlapping blobs compose by max, so each visible keypoint keeps a local
    peak at its own location. Division by a positive number and exp are
    monotone, so each channel's max of blobs is one exp of its pixels' least
    squared distance to a keypoint, bit for bit; no keypoint leaves zeros.
    """
    w, h = int(image_size[0]), int(image_size[1])
    d2 = np.full((spec.channels, h, w), np.inf)
    sigma = spec.blob_radius / 2.0
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    for i, k in zip(*np.nonzero(keypoints[:, :, 2] > 0)):
        x, y = keypoints[i, k, :2].tolist()
        channel = k % spec.channels
        np.minimum(d2[channel], (xs - x) ** 2 + (ys - y) ** 2, out=d2[channel])
    return np.exp(-d2 / (2.0 * sigma**2))


# ---------------------------------------------------------------------------
# batching


@dataclass(frozen=True)
class Batch:
    images: np.ndarray | None  # (B, C, H, W), or only one half's images, or None for an empty half
    targets: list[TargetSet]
    num_humans: int
    indices: tuple[int, ...]


def batch_iter(dataset: Dataset, batch_size: int, shuffle_seed: int | None, num_slots: int, half: int | None = None) -> Iterator[Batch]:
    """Deterministic shuffled batches; the last partial batch is kept.

    Each batch carries its human count (slots whose encoded class is human)
    for loss normalization. With half 0 or 1, only the images of the batch's
    first ceil(b/2) samples or of the rest, which may be none, are rendered
    and stacked; the targets, count and indices stay the whole batch's.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    order = np.arange(len(dataset))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(dataset))
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size].tolist()
        cut = -(-len(chunk) // 2)
        shown = chunk if half is None else chunk[:cut] if half == 0 else chunk[cut:]
        images = np.stack([dataset.image(i) for i in shown]) if shown else None
        targets = [encode_targets(dataset.samples[i].keypoints, dataset.samples[i].size, num_slots) for i in chunk]
        num_humans = sum(t.num_humans for t in targets)
        yield Batch(images, targets, num_humans, tuple(chunk))


def filter_for_training(dataset: Dataset, max_instances: int) -> tuple[Dataset, int, int]:
    """Drop samples without any visible-keypoint person or with too many instances.

    Returns (filtered dataset, dropped_empty, dropped_overfull); drops are logged.
    """
    kept = []
    dropped_empty = dropped_overfull = 0
    for sample in dataset.samples:
        people = sample.num_people
        if not people:
            dropped_empty += 1
            continue
        if people > max_instances:
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


def _finite(value, what: str) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ParseError(f"{what} must be finite, got {value}")
    return value


def load_coco_keypoints(path: str) -> Dataset:
    """Read a COCO-format annotation file (images/annotations arrays, keypoint triplets).

    Persons with zero labeled keypoints are retained (they encode as
    non-objects); crowd annotations are skipped. Pixels are not loaded:
    the result supports target encoding and metric evaluation only. A field
    of the wrong type, a repeated image id, a width or height that is not
    positive, or a NaN or infinite number raises ParseError naming the file
    and the entry. Each v is truncated toward zero, as int() does.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON at byte offset {e.pos}: {e.msg}") from e
    images = _field(doc, "images", path)
    annotations = _field(doc, "annotations", path)
    sizes: dict[int, tuple[float, float]] = {}
    grouped: dict[int, list[np.ndarray]] = {}
    grouped_areas: dict[int, list[float]] = {}
    num_keypoints = None
    where = path
    try:
        for i, img in enumerate(images):
            where = f"{path}.images[{i}]"
            img_id = int(_field(img, "id", where))
            if img_id in sizes:
                raise ParseError(f"{where}: duplicate image id {img_id}")
            size = tuple(_finite(_field(img, key, where), f"{where}: {key}") for key in ("width", "height"))
            if min(size) <= 0:
                raise ParseError(f"{where}: width and height must be positive, got {size[0]:g} x {size[1]:g}")
            sizes[img_id] = size
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
            kps = np.array(triplets)
            if kps.dtype.kind not in "biuf" or not np.isfinite(kps).all():
                raise ParseError(f"{where}: keypoints must be finite numbers, got {triplets!r:.40}")
            kps = kps.astype(np.float64).reshape(k, 3)
            kps[:, 2] = np.trunc(kps[:, 2]) + 0.0  # v as int() reads it; + 0.0 as int() has no -0
            grouped[img_id].append(kps)
            grouped_areas[img_id].append(_finite(ann["area"], f"{where}: area") if "area" in ann else -1.0)
    except (ParseError, MissingField):
        raise
    except (TypeError, ValueError, OverflowError) as e:  # a null, non-numeric or huge value where a number belongs
        raise ParseError(f"{where}: {e}") from e

    k = num_keypoints or 0
    samples = [
        Sample(
            np.array(grouped[img_id]) if grouped[img_id] else np.zeros((0, k, 3)),
            sizes[img_id],
            image_id=img_id,
            areas=[a if a > 0 else None for a in grouped_areas[img_id]] if grouped_areas[img_id] else None,
        )
        for img_id in sizes
    ]
    # image sizes can vary across a COCO set; keep the first as the nominal size
    nominal = next(iter(sizes.values()), (0.0, 0.0))
    return Dataset(samples, nominal, k)


# ---------------------------------------------------------------------------
# binary cache


def save_dataset_cache(dataset: Dataset, path: str, synth_cfg: SynthConfig | None = None) -> None:
    """Persist annotations as a binary array container plus a JSON manifest sidecar."""
    arrays: dict[str, np.ndarray] = {}
    for i, sample in enumerate(dataset.samples):
        arrays[f"sample{i:06d}"] = sample.keypoints
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
    short, lacks a sample or holds one of the wrong shape or a NaN or infinite
    value, raises ParseError naming the path; a missing file raises
    FileNotFoundError. Each v is truncated toward zero, as int() does.
    """
    try:
        with open(path + ".json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        arrays = checkpoint.load_arrays(path)
        size = (float(manifest["image_size"][0]), float(manifest["image_size"][1]))
        k = int(manifest["num_keypoints"])
        samples = []
        for i in range(manifest["num_samples"]):
            keypoints = arrays[f"sample{i:06d}"]
            if keypoints.ndim != 3 or keypoints.shape[1:] != (k, 3) or not np.isfinite(keypoints).all():
                raise ValueError(f"sample {i} must hold finite (instances, {k}, 3) keypoint rows, got shape {keypoints.shape}")
            keypoints[:, :, 2] = np.trunc(keypoints[:, :, 2]) + 0.0  # + 0.0 as int() has no -0
            raw_areas = arrays.get(f"sample{i:06d}.areas")
            areas = None if raw_areas is None else [None if a < 0 else float(a) for a in raw_areas]
            samples.append(Sample(keypoints, size, areas=areas))
        render = manifest.get("render")
        spec = RenderSpec(render["blob_radius"], int(render["channels"])) if render else None
        return Dataset(samples, size, k, spec)
    except checkpoint.ContainerError as e:  # its message starts with the path
        raise ParseError(f"dataset cache {e}") from e
    except KeyError as e:
        raise ParseError(f"dataset cache {path}: {e.args[0]!r} is missing") from e
    except (TypeError, ValueError, IndexError) as e:  # a manifest that is not JSON, or a field of the wrong type
        raise ParseError(f"dataset cache {path}: {e}") from e
