"""Pose vectors: one instance as a center, per-keypoint offsets and visibilities.

An annotated instance is encoded as its visible-keypoint center of mass plus
normalized displacements from that center, with each keypoint's binary
visibility duplicated once per coordinate so the vector masks cleanly against
the offset pairs. Empty slots (and instances without any labeled keypoint)
carry the non-object class with all visibilities zero.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class PoseClass(enum.IntEnum):
    NON_OBJECT = 0
    HUMAN = 1


class TooManyInstances(ValueError):
    """More instances than available slots."""


@dataclass(frozen=True)
class PoseVector:
    """Flat instance representation: center in [0,1]^2, 2K offsets, 2K duplicated visibilities.

    Target vectors carry binary visibilities; prediction-side vectors reuse the
    same container with visibility scores in (0,1), still duplicated pairwise.
    """

    center: tuple[float, float]
    offsets: tuple[float, ...]
    visibilities: tuple[float, ...]
    pose_class: PoseClass

    def __init__(self, center, offsets, visibilities, pose_class):
        center = (float(center[0]), float(center[1]))
        offsets = tuple(float(o) for o in offsets)
        visibilities = tuple(float(v) for v in visibilities)
        if len(offsets) != len(visibilities):
            raise ValueError(f"offsets ({len(offsets)}) and visibilities ({len(visibilities)}) differ in length")
        if len(offsets) % 2 != 0:
            raise ValueError(f"offsets length must be 2K, got {len(offsets)}")
        for i in range(0, len(visibilities), 2):
            if visibilities[i] != visibilities[i + 1]:
                raise ValueError(f"visibilities must be duplicated pairwise, differ at keypoint {i // 2}")
        pose_class = PoseClass(pose_class)
        if pose_class is PoseClass.NON_OBJECT and any(v != 0.0 for v in visibilities):
            raise ValueError("non-object poses must have all-zero visibilities")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "visibilities", visibilities)
        object.__setattr__(self, "pose_class", pose_class)

    @property
    def num_keypoints(self) -> int:
        return len(self.offsets) // 2

    @property
    def is_human(self) -> bool:
        return self.pose_class is PoseClass.HUMAN


@dataclass(frozen=True)
class PredictionSlot:
    """One decoded query: class probabilities plus a pose-shaped output."""

    class_probs: tuple[float, float]  # (human, non-object)
    pose: PoseVector

    @property
    def score(self) -> float:
        return self.class_probs[0]


@dataclass(frozen=True, eq=False)
class TargetSet:
    """One image's targets as arrays over n slots: humans first, then non-object padding rows of zeros.

    ``human`` is (n,) bool, ``center`` (n, 2), ``offsets`` and the duplicated
    ``visibilities`` (n, 2K). Indexing, and so iterating, yields PoseVector rows.
    """

    human: np.ndarray
    center: np.ndarray
    offsets: np.ndarray
    visibilities: np.ndarray

    def __len__(self):
        return self.human.shape[0]

    def __getitem__(self, i) -> PoseVector:
        return PoseVector(self.center[i], self.offsets[i], self.visibilities[i], PoseClass(int(self.human[i])))

    @property
    def num_humans(self) -> int:
        return int(np.count_nonzero(self.human))


def _blank_targets(n: int, width: int) -> TargetSet:
    return TargetSet(np.zeros(n, dtype=bool), np.zeros((n, 2)), np.zeros((n, width)), np.zeros((n, width)))


@dataclass(frozen=True)
class PredictionSet:
    slots: tuple[PredictionSlot, ...]

    def __init__(self, slots: Iterable[PredictionSlot]):
        object.__setattr__(self, "slots", tuple(slots))

    def __len__(self):
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)

    def __getitem__(self, i):
        return self.slots[i]


def encode_targets(keypoints: np.ndarray, image_size: Sequence[float], num_slots: int) -> TargetSet:
    """One image's targets from its (instances, K, 3) x, y, v rows: each instance with a visible keypoint (v > 0) takes the next slot, in order.

    Its center is the mean of the visible keypoints divided per axis by the
    image's (W, H); its offsets are the visible keypoints' displacements from
    that center, normalized alike, and zero for invisible ones. Instances
    without a visible keypoint are non-objects.
    """
    if len(keypoints) and min(image_size) <= 0:
        raise ValueError(f"image size must be positive, got {tuple(image_size)}")
    people = keypoints[(keypoints[:, :, 2] > 0).any(axis=1)]
    h = len(people)
    if h > num_slots:
        raise TooManyInstances(f"{h} instances exceed {num_slots} slots")
    out = _blank_targets(num_slots, 2 * keypoints.shape[1])
    if not h:
        return out
    size = np.asarray(image_size, dtype=np.float64)
    visible = people[:, :, 2:] > 0
    xy = np.where(visible, people[:, :, :2], 0.0)
    # summed in keypoint order from +0.0, as sum() does: a total of only -0.0 terms is +0.0
    center = (0.0 + xy.cumsum(axis=1)[:, -1:]) / visible.sum(axis=1, keepdims=True)
    out.human[:h] = True
    out.center[:h] = (center / size)[:, 0]
    out.offsets[:h] = np.where(visible, (xy - center) / size, 0.0).reshape(h, -1)
    out.visibilities[:h] = np.repeat(visible[:, :, 0], 2, axis=1)
    return out


def pad_targets(poses: Sequence[PoseVector], num_slots: int) -> TargetSet:
    """The poses as a target set, order preserved, padded with non-object rows up to num_slots."""
    if len(poses) > num_slots:
        raise TooManyInstances(f"{len(poses)} instances exceed {num_slots} slots")
    out = _blank_targets(num_slots, len(poses[0].offsets) if poses else 0)
    for i, p in enumerate(poses):
        out.human[i] = p.is_human
        out.center[i], out.offsets[i], out.visibilities[i] = p.center, p.offsets, p.visibilities
    return out


def from_flat(values: Sequence[float], pose_class: PoseClass | int) -> PoseVector:
    """A pose from [x_c, y_c, dx_1, dy_1, v_1, ...] (one v per keypoint), re-duplicating each visibility per coordinate."""
    if (len(values) - 2) % 3 != 0:
        raise ValueError(f"flat pose length must be 2 + 3K, got {len(values)}")
    k = (len(values) - 2) // 3
    center = (values[0], values[1])
    offsets: list[float] = []
    vis: list[float] = []
    for i in range(k):
        dx, dy, v = values[2 + 3 * i : 5 + 3 * i]
        offsets.extend((dx, dy))
        vis.extend((v, v))
    return PoseVector(center, offsets, vis, PoseClass(pose_class))


# ---------------------------------------------------------------------------
# JSON-lines records as arrays: {"pose": [2 + 3K numbers], "class": 0|1} targets
# and {"pose": [...], "class_probs": [p_human, p_non]} predictions, n per record


def read_records(path: str, key: str) -> list[tuple[int, list]]:
    """(line number, entries) of each non-blank line of a JSON-lines file of {key: [entries]} objects.

    A line that is not JSON, or not an object with a list under key, raises ValueError naming path:line.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {e}") from e
            entries = doc.get(key) if isinstance(doc, dict) else None
            if not isinstance(entries, list):
                raise ValueError(f"{path}:{line_no}: expected an object with a {key!r} list")
            records.append((line_no, entries))
    return records


def arrays_from_flat(poses: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse n flat poses (from_flat's layout) into float64 arrays, with no PoseVector.

    Returns the centers (n, 2), the offsets (n, 2K) and the visibilities
    duplicated per coordinate (n, 2K), holding the values from_flat would.
    Raises ValueError naming the first pose that is not a list of 2 + 3K
    numbers, that differs in length from the first pose, or that holds a
    null (which numpy would read as NaN).
    """
    try:
        flat = np.asarray(poses, dtype=np.float64) if len(poses) else np.zeros((0, 2))
    except (TypeError, ValueError):
        flat = None
    if flat is None or flat.ndim != 2 or (flat.shape[1] - 2) % 3:
        raise ValueError(_flat_error(poses))
    if np.isnan(flat).any():  # only then can a null be hiding in the input
        bad = next((i for i, pose in enumerate(poses) if None in pose), None)
        if bad is not None:
            raise ValueError(f"pose {bad} holds a null")
    n, k = flat.shape[0], (flat.shape[1] - 2) // 3
    per_keypoint = flat[:, 2:].reshape(n, k, 3)
    return flat[:, :2], per_keypoint[:, :, :2].reshape(n, 2 * k), np.repeat(per_keypoint[:, :, 2], 2, axis=1)


def _flat_error(poses) -> str:
    for i, pose in enumerate(poses):
        if not isinstance(pose, (list, tuple)):
            return f"pose {i} is not a list"
        if (len(pose) - 2) % 3:
            return f"pose {i}: flat pose length must be 2 + 3K, got {len(pose)}"
        if len(pose) != len(poses[0]):
            return f"pose {i} has {len(pose)} values, pose 0 has {len(poses[0])}"
    return "poses must be lists of numbers"


def _field(entries: Sequence[dict], key: str, side: str) -> list:
    try:
        return [e[key] for e in entries]
    except KeyError:
        raise ValueError(f"{side}: an entry has no {key!r}") from None
    except TypeError:
        raise ValueError(f"{side}: entries must be JSON objects") from None


def _poses(entries: Sequence[dict], side: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    poses = _field(entries, "pose", side)
    try:
        return arrays_from_flat(poses)
    except ValueError as e:
        raise ValueError(f"{side}: {e}") from None


def _class_of(value) -> int | None:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        return None


def target_arrays(entries: Sequence[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse target entries into (is human (n,) bool, centers, offsets, visibilities).

    A class is read as PoseClass(int(value)) would read it and must be 0 or 1;
    non-object targets must have all-zero visibilities.
    """
    raw = _field(entries, "class", "targets")
    classes = [_class_of(c) for c in raw]
    if not set(classes) <= {0, 1}:
        bad = next(i for i, c in enumerate(classes) if c not in (0, 1))
        raise ValueError(f"targets: entry {bad}: class must be 0 or 1, got {raw[bad]!r}")
    human = np.array(classes, dtype=bool)
    center, offsets, vis = _poses(entries, "targets")
    stray = np.flatnonzero(~human & (vis != 0.0).any(axis=1))
    if stray.size:
        raise ValueError(f"targets: entry {stray[0]}: non-object poses must have all-zero visibilities")
    return human, center, offsets, vis


def prediction_arrays(entries: Sequence[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse prediction entries into (p_human (n,), centers, offsets, visibilities)."""
    probs = _field(entries, "class_probs", "preds")
    first = [p[0] if isinstance(p, list) and p else None for p in probs]
    bad = next((i for i, x in enumerate(first) if not isinstance(x, (int, float))), None)
    if bad is not None:
        raise ValueError(f"preds: entry {bad}: class_probs must be a list [p_human, p_non] of numbers, got {probs[bad]!r}")
    return (np.array(first, dtype=np.float64), *_poses(entries, "preds"))
