import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import decode_pose, encode_pose, non_object_pose, to_flat
from poet.pose import (
    arrays_from_flat,
    PoseClass,
    PoseVector,
    TooManyInstances,
    encode_targets,
    from_flat,
    pad_targets,
    target_arrays,
)


def ann(kps, w=100, h=100):
    """One instance's (K, 3) x, y, v rows and its image's (W, H)."""
    return np.array(kps, dtype=np.float64).reshape(-1, 3), (float(w), float(h))


def test_encode_two_visible_keypoints():
    p = encode_pose(*ann([(10, 10, 2), (30, 30, 2)]))
    assert p.center == (0.20, 0.20)
    assert p.offsets == pytest.approx((-0.10, -0.10, 0.10, 0.10), abs=1e-15)
    assert p.visibilities == (1.0, 1.0, 1.0, 1.0)
    assert p.pose_class is PoseClass.HUMAN


def test_encode_single_visible_keypoint_center_coincides():
    p = encode_pose(*ann([(50, 50, 2)]))
    assert p.center == (0.5, 0.5)
    assert p.offsets == (0.0, 0.0)
    assert p.visibilities == (1.0, 1.0)


def test_encode_all_invisible_becomes_non_object():
    p = encode_pose(*ann([(10, 10, 0), (30, 30, 0)]))
    assert p.pose_class is PoseClass.NON_OBJECT
    assert all(v == 0.0 for v in p.visibilities)


def test_encode_occluded_flag_counts_as_visible():
    p = encode_pose(*ann([(10, 10, 1), (30, 30, 2)]))
    assert p.visibilities == (1.0, 1.0, 1.0, 1.0)


def test_encode_invisible_keypoint_masked_offset_zero():
    p = encode_pose(*ann([(10, 10, 2), (99, 99, 0)]))
    assert p.offsets[2:] == (0.0, 0.0)
    assert p.visibilities == (1.0, 1.0, 0.0, 0.0)
    assert p.center == (0.1, 0.1)


def test_decode_hand_case():
    p = PoseVector((0.5, 0.5), (0.1, -0.1), (1.0, 1.0), PoseClass.HUMAN)
    (kp,) = decode_pose(p, (200, 100))
    assert kp.tolist() == [120.0, 40.0, 1.0]


def test_decode_non_object_all_invisible():
    kps = decode_pose(non_object_pose(3), (64, 64))
    assert kps.shape == (3, 3) and not kps[:, 2].any()


def test_roundtrip_visible_exact():
    kps, size = ann([(10.5, 20.25, 2), (77, 3, 1), (50, 50, 0)], w=160, h=90)
    decoded = decode_pose(encode_pose(kps, size), (160, 90))
    for (x, y, v), back in zip(kps.tolist(), decoded.tolist()):
        if v > 0:
            assert back[0] == pytest.approx(x, rel=1e-12)
            assert back[1] == pytest.approx(y, rel=1e-12)
            assert back[2] == 1


coords = st.floats(min_value=0.5, max_value=99.5, allow_nan=False)
flags = st.sampled_from([0, 1, 2])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coords, coords, flags), min_size=1, max_size=8))
def test_roundtrip_and_center_properties(kp_list):
    kps, size = ann(kp_list)
    p = encode_pose(kps, size)
    if p.pose_class is PoseClass.NON_OBJECT:
        assert all(v == 0 for v in p.visibilities)
        return
    decoded = decode_pose(p, size)
    vis = [(orig, back) for orig, back in zip(kps.tolist(), decoded.tolist()) if orig[2] > 0]
    for orig, back in vis:
        assert back[0] == pytest.approx(orig[0], rel=1e-12, abs=1e-9)
        assert back[1] == pytest.approx(orig[1], rel=1e-12, abs=1e-9)
    # center definition: mean of visible decoded pixels == center * (W, H)
    mx = sum(b[0] for _, b in vis) / len(vis)
    my = sum(b[1] for _, b in vis) / len(vis)
    assert mx == pytest.approx(p.center[0] * 100, rel=1e-12, abs=1e-9)
    assert my == pytest.approx(p.center[1] * 100, rel=1e-12, abs=1e-9)
    # visibility duplication
    for i in range(p.num_keypoints):
        assert p.visibilities[2 * i] == p.visibilities[2 * i + 1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coords, coords, flags), min_size=1, max_size=6), st.sampled_from([2.0, 3.0, 7.5]))
def test_scale_covariance(kp_list, s):
    kps, (w, h) = ann(kp_list)
    pa, pb = encode_pose(kps, (w, h)), encode_pose(kps * [s, s, 1.0], (w * s, h * s))
    assert pa.pose_class == pb.pose_class
    np.testing.assert_allclose(pa.center, pb.center, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(pa.offsets, pb.offsets, rtol=1e-12, atol=1e-14)
    assert pa.visibilities == pb.visibilities


def test_pad_targets_counts_and_order():
    humans = [encode_pose(*ann([(10 * (i + 1), 10, 2)])) for i in range(2)]
    ts = pad_targets(humans, 5)
    assert len(ts) == 5
    assert ts.num_humans == 2
    assert ts[0] == humans[0] and ts[1] == humans[1]
    assert all(not ts[i].is_human for i in range(2, 5))


def test_pad_targets_empty_image():
    ts = pad_targets([], 25)
    assert len(ts) == 25 and ts.num_humans == 0


def test_pad_targets_thirteen_humans_accepted():
    humans = [encode_pose(*ann([(5 + i, 5, 2)])) for i in range(13)]
    assert pad_targets(humans, 25).num_humans == 13


def test_pad_targets_overflow():
    humans = [encode_pose(*ann([(5 + i, 5, 2)])) for i in range(3)]
    with pytest.raises(TooManyInstances):
        pad_targets(humans, 2)


def oracle_encode_pose(kps: np.ndarray, size) -> PoseVector:
    """The per-instance encoder as it was written before encode_targets: plain floats, one keypoint at a time."""
    w, h = size
    rows = kps.tolist()
    visible = [(x, y) for x, y, v in rows if v > 0]
    if not visible:
        return non_object_pose(len(rows))
    cx = sum(x for x, _ in visible) / len(visible)
    cy = sum(y for _, y in visible) / len(visible)
    offsets, vis = [], []
    for x, y, v in rows:
        if v > 0:
            offsets.extend(((x - cx) / w, (y - cy) / h))
            vis.extend((1.0, 1.0))
        else:
            offsets.extend((0.0, 0.0))
            vis.extend((0.0, 0.0))
    return PoseVector((cx / w, cy / h), offsets, vis, PoseClass.HUMAN)


def oracle_targets(anns, size, k, num_slots):
    """Arrays of the oracle's human poses in order, then zero rows; as pad_targets lays them out, but 2K wide when empty."""
    humans = [p for p in (oracle_encode_pose(a, size) for a in anns) if p.is_human]
    human = np.arange(num_slots) < len(humans)
    center, offsets, vis = np.zeros((num_slots, 2)), np.zeros((num_slots, 2 * k)), np.zeros((num_slots, 2 * k))
    for i, p in enumerate(humans):
        center[i], offsets[i], vis[i] = p.center, p.offsets, p.visibilities
    return humans, (human, center, offsets, vis)


@st.composite
def annotated_images(draw):
    k = draw(st.sampled_from([1, 5, 17]))
    size = (draw(st.floats(1.0, 640.0)), draw(st.floats(1.0, 640.0)))  # rarely square
    coord = st.floats(-20.0, 660.0)
    anns = []
    for _ in range(draw(st.integers(0, 4))):
        kps = draw(st.lists(st.tuples(coord, coord, st.sampled_from([0, 1, 2])), min_size=k, max_size=k))
        if draw(st.integers(0, 3)) == 0:  # an instance with every keypoint unlabeled
            kps = [(x, y, 0) for x, y, _ in kps]
        anns.append(np.array(kps, dtype=np.float64))
    return k, anns, size, len(anns) + draw(st.integers(0, 3))


def _fields(t):
    return (t.human, t.center, t.offsets, t.visibilities)


@settings(max_examples=150, deadline=None)
@given(annotated_images())
@example((1, [np.array([[0.0, -0.0, 1.0]])], (1.0, 1.0), 1))  # a -0.0 total: sum() gives +0.0
def test_encode_targets_holds_the_per_instance_encoders_bits(case):
    k, anns, size, num_slots = case
    humans, expected = oracle_targets(anns, size, k, num_slots)
    got = encode_targets(np.array(anns).reshape(-1, k, 3), size, num_slots)
    for want, have in zip(expected, _fields(got)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()
    if humans:  # pad_targets, the PoseVector boundary, gives the same arrays
        assert all(a.tobytes() == b.tobytes() for a, b in zip(_fields(pad_targets(humans, num_slots)), expected))
    assert [encode_pose(a, size) for a in anns] == [oracle_encode_pose(a, size) for a in anns]


def test_encode_targets_of_an_image_without_annotations():
    t = encode_targets(np.zeros((0, 17, 3)), (0.0, 0.0), 3)  # no instance: the size is not read
    assert len(t) == 3 and t.num_humans == 0 and t.offsets.shape == (3, 34)
    assert not any(f.any() for f in _fields(t))
    with pytest.raises(TooManyInstances):
        encode_targets(np.array([[[1.0, 1.0, 2.0]], [[2.0, 2.0, 1.0]]]), (100.0, 100.0), 1)


@pytest.mark.parametrize("size", [(0.0, 64.0), (64.0, -1.0)])
def test_encode_targets_rejects_a_size_that_is_not_positive(size):
    hidden = np.array([[[5.0, 5.0, 0.0]]])  # checked for any instance, a hidden one too
    with pytest.raises(ValueError, match=re.escape(f"image size must be positive, got {size}")):
        encode_targets(hidden, size, 1)


def test_pose_vector_validation():
    with pytest.raises(ValueError):
        PoseVector((0, 0), (0.1, 0.2), (1.0, 0.0), PoseClass.HUMAN)  # not duplicated
    with pytest.raises(ValueError):
        PoseVector((0, 0), (0.1, 0.2, 0.3), (1.0, 1.0, 1.0), PoseClass.HUMAN)  # odd length
    with pytest.raises(ValueError):
        PoseVector((0, 0), (0.0, 0.0), (1.0, 1.0), PoseClass.NON_OBJECT)  # non-object with vis


def test_flat_serialization_roundtrip():
    p = encode_pose(*ann([(10, 10, 2), (30, 50, 0), (60, 20, 1)]))
    flat = to_flat(p)
    assert len(flat) == 2 + 3 * 3
    assert flat[:2] == list(p.center)
    assert flat[4] == 1.0 and flat[7] == 0.0
    back = from_flat(flat, PoseClass.HUMAN)
    assert back == p
    with pytest.raises(ValueError):
        from_flat([0.0] * 4, PoseClass.HUMAN)


def test_arrays_from_flat_holds_from_flats_values():
    rng = np.random.default_rng(4)
    for n, k in ((1, 1), (7, 5), (30, 17)):
        poses = [[float(x) for x in rng.normal(size=2 + 3 * k)] for _ in range(n)]
        poses[0][4] = 1  # an int, as JSON gives it
        center, offsets, vis = arrays_from_flat(poses)
        objects = [from_flat(p, PoseClass.HUMAN) for p in poses]
        for got, field in ((center, "center"), (offsets, "offsets"), (vis, "visibilities")):
            assert got.dtype == np.float64
            assert got.tobytes() == np.array([getattr(o, field) for o in objects]).tobytes()
    center, offsets, vis = arrays_from_flat([])
    assert center.shape == (0, 2) and offsets.shape == vis.shape == (0, 0)


@pytest.mark.parametrize(
    "poses, message",
    [
        ([[0.5, 0.5, 0.1, 0.1, 1.0], [0.5, None, 0.1, 0.1, 1.0]], "pose 1 holds a null"),
        ([[0.5, 0.5, 0.1, 0.1, 1.0], 0.5], "pose 1 is not a list"),
        ([[0.5, 0.5, 0.1, 0.1]], "pose 0: flat pose length must be 2 + 3K, got 4"),
        ([[0.5] * 5, [0.5] * 8], "pose 1 has 8 values, pose 0 has 5"),
        ([[0.5] * 5, [0.5, 0.5, [0.1], 0.1, 1.0]], "poses must be lists of numbers"),
        ([[0.5, 0.5, 0.1, 0.1, {}]], "poses must be lists of numbers"),
    ],
)
def test_arrays_from_flat_rejects(poses, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        arrays_from_flat(poses)


def test_arrays_from_flat_keeps_a_nan_that_is_not_a_null():
    center, _, _ = arrays_from_flat([[float("nan"), 0.5, 0.1, 0.1, 1.0]])
    assert np.isnan(center[0, 0])


def test_target_classes_follow_the_int_rule():
    pose = [0.5, 0.5, 0.1, 0.1, 1.0]
    human, _, _, _ = target_arrays([{"pose": pose, "class": 1.7}, {"pose": [0.0] * 5, "class": False}])
    assert human.tolist() == [True, False]
    for bad in (2, -1, "x", None, float("inf")):
        with pytest.raises(ValueError, match="entry 0: class must be 0 or 1"):
            target_arrays([{"pose": pose, "class": bad}])
