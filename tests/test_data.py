import hashlib
import json

import numpy as np
import pytest

from oracles import encode_pose, save_coco_keypoints
from poet.data import (
    Dataset,
    MissingField,
    ParseError,
    RenderSpec,
    Sample,
    SynthConfig,
    batch_iter,
    filter_for_training,
    load_coco_keypoints,
    load_dataset_cache,
    render_image,
    save_dataset_cache,
    synth_generate,
)


def same_annotations(a: Sample, b: Sample) -> bool:
    """The same keypoint rows bit for bit, in the same layout, on images of the same size."""
    return a.keypoints.shape == b.keypoints.shape and a.keypoints.tobytes() == b.keypoints.tobytes() and a.size == b.size


def small_cfg(**kw):
    base = dict(num_samples=20, image_size=48, num_keypoints=4, min_instances=1, max_instances=3, occlusion=0.2, blob_radius=3.0, seed=5)
    base.update(kw)
    return SynthConfig(**base)


def test_synth_deterministic():
    a = synth_generate(small_cfg())
    b = synth_generate(small_cfg())
    assert len(a) == len(b) == 20
    for sa, sb in zip(a.samples, b.samples):
        assert same_annotations(sa, sb)


def test_synth_zero_occlusion_all_visible():
    ds = synth_generate(small_cfg(occlusion=0.0))
    for sample in ds.samples:
        assert (sample.keypoints[:, :, 2] > 0).all()


def test_synth_instance_count_range():
    ds = synth_generate(small_cfg(num_samples=200, min_instances=2, max_instances=3))
    counts = {len(s.keypoints) for s in ds.samples}
    assert counts == {2, 3}


def test_rendered_blob_peaks_near_keypoints():
    ds = synth_generate(small_cfg(num_samples=30, occlusion=0.3))
    spec = ds.render
    checked = 0
    for i in range(len(ds)):
        image = ds.image(i)
        # all visible keypoints per channel; blobs that collide on a channel
        # merge by design, so the peak property applies to isolated blobs
        per_channel: dict[int, list[tuple[float, float]]] = {}
        instances = ds.samples[i].keypoints.tolist()
        for rows in instances:
            for k, (kx, ky, v) in enumerate(rows):
                if v > 0:
                    per_channel.setdefault(k % spec.channels, []).append((kx, ky))
        for rows in instances:
            for k, (kx, ky, v) in enumerate(rows):
                if v <= 0:
                    continue
                channel_id = k % spec.channels
                neighbors = [
                    p
                    for p in per_channel[channel_id]
                    if p != (kx, ky) and np.hypot(p[0] - kx, p[1] - ky) < 2.5 * spec.blob_radius
                ]
                if neighbors:
                    continue
                channel = image[channel_id]
                x, y = int(round(kx)), int(round(ky))
                r = int(spec.blob_radius)
                window = channel[max(0, y - r) : y + r + 1, max(0, x - r) : x + r + 1]
                py, px = np.unravel_index(np.argmax(window), window.shape)
                peak_y, peak_x = max(0, y - r) + py, max(0, x - r) + px
                assert abs(peak_x - kx) <= 1.0 and abs(peak_y - ky) <= 1.0
                checked += 1
    assert checked > 100  # the property was actually exercised


def test_invisible_keypoints_leave_no_blob():
    image = render_image(np.array([[[10.0, 10.0, 2.0], [30.0, 30.0, 0.0]]]), (48, 48), RenderSpec(3.0, 2))
    assert image[0, 10, 10] > 0.9
    assert image[1].max() == 0.0  # keypoint 1 occluded, channel 1 stays empty


def test_image_rendering_cached_and_lazy():
    ds = synth_generate(small_cfg())
    assert ds.samples[0].image is None
    first = ds.image(0)
    assert ds.samples[0].image is first
    eval_only = Dataset([Sample(ds.samples[0].keypoints, ds.samples[0].size)], ds.image_size, ds.num_keypoints, None)
    with pytest.raises(ValueError):
        eval_only.image(0)


def test_batch_iter_sizes_and_determinism():
    ds = synth_generate(small_cfg(num_samples=10))
    batches = list(batch_iter(ds, 3, shuffle_seed=7, num_slots=8))
    assert [len(b.indices) for b in batches] == [3, 3, 3, 1]
    again = list(batch_iter(ds, 3, shuffle_seed=7, num_slots=8))
    assert [b.indices for b in batches] == [b.indices for b in again]
    for b in batches:
        assert b.images.shape[1:] == (3, 48, 48)
        assert all(len(t) == 8 for t in b.targets)
        assert b.num_humans == sum(t.num_humans for t in b.targets)


def test_batch_iter_empty_batch_human_count():
    hidden = np.array([[[5.0, 5.0, 0.0], [9.0, 9.0, 0.0]]])
    ds = Dataset([Sample(hidden, (32.0, 32.0), image=np.zeros((3, 32, 32)))], (32, 32), 2, None)
    (batch,) = batch_iter(ds, 1, shuffle_seed=None, num_slots=4)
    assert batch.num_humans == 0
    assert batch.targets[0].num_humans == 0


def test_batch_iter_validates_batch_size():
    ds = synth_generate(small_cfg(num_samples=2))
    with pytest.raises(ValueError):
        next(batch_iter(ds, 0, None, 4))


def test_filter_for_training():
    visible, hidden = [[5.0, 5.0, 2.0]], [[5.0, 5.0, 0.0]]
    samples = [
        Sample(np.array([visible]), (32.0, 32.0)),
        Sample(np.array([hidden]), (32.0, 32.0)),
        Sample(np.array([visible, visible, visible]), (32.0, 32.0)),
    ]
    ds = Dataset(samples, (32, 32), 1, None)
    kept, dropped_empty, dropped_overfull = filter_for_training(ds, max_instances=2)
    assert len(kept) == 1 and dropped_empty == 1 and dropped_overfull == 1
    assert [s.num_people for s in samples] == [1, 0, 3]


@pytest.mark.parametrize("shape", [(2, 3), (1, 2, 3), (1, 1, 2)])
def test_dataset_rejects_keypoints_of_another_layout(shape):
    with pytest.raises(ValueError, match=r"sample 0: keypoints of shape"):
        Dataset([Sample(np.zeros(shape), (32.0, 32.0))], (32, 32), 1, None)


def coco_doc():
    return {
        "images": [{"id": 7, "width": 100, "height": 80, "file_name": "7.png"}],
        "annotations": [
            {"id": 1, "image_id": 7, "category_id": 1, "keypoints": [10, 20, 2, 30, 40, 1], "num_keypoints": 2, "iscrowd": 0},
            {"id": 2, "image_id": 7, "category_id": 1, "keypoints": [0, 0, 0, 0, 0, 0], "num_keypoints": 0, "iscrowd": 0},
            {"id": 3, "image_id": 7, "category_id": 1, "keypoints": [1, 1, 2, 2, 2, 2], "num_keypoints": 2, "iscrowd": 1},
        ],
        "categories": [{"id": 1, "name": "person", "keypoints": ["a", "b"]}],
    }


def test_load_coco_minimal_fixture(tmp_path):
    import json

    path = tmp_path / "ann.json"
    path.write_text(json.dumps(coco_doc()))
    ds = load_coco_keypoints(str(path))
    assert len(ds) == 1
    assert ds.num_keypoints == 2
    sample = ds.samples[0]
    assert sample.keypoints.shape == (2, 2, 3)  # crowd skipped, zero-keypoint person retained
    assert sample.keypoints[0, 0].tolist() == [10.0, 20.0, 2.0] and sample.size == (100.0, 80.0)
    assert sample.num_people == 1
    assert not encode_pose(sample.keypoints[1], sample.size).is_human


def test_load_coco_seventeen_triplets(tmp_path):
    import json

    doc = coco_doc()
    doc["annotations"] = [
        {"id": 1, "image_id": 7, "category_id": 1, "keypoints": [float(i) for i in range(17 * 3)], "iscrowd": 0}
    ]
    path = tmp_path / "ann17.json"
    path.write_text(json.dumps(doc))
    assert load_coco_keypoints(str(path)).num_keypoints == 17


def test_load_coco_errors(tmp_path):
    import json

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ParseError, match="byte offset"):
        load_coco_keypoints(str(bad))

    doc = coco_doc()
    del doc["annotations"][0]["keypoints"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc))
    with pytest.raises(MissingField, match=r"annotations\[0\].keypoints"):
        load_coco_keypoints(str(missing))


def test_coco_roundtrip(tmp_path):
    import json

    src = tmp_path / "src.json"
    src.write_text(json.dumps(coco_doc()))
    ds = load_coco_keypoints(str(src))
    out = tmp_path / "out.json"
    save_coco_keypoints(ds, str(out))
    again = load_coco_keypoints(str(out))
    assert len(again) == len(ds)
    for a, b in zip(ds.samples, again.samples):
        assert same_annotations(a, b)


def test_cache_roundtrip_and_byte_identical(tmp_path):
    cfg = small_cfg()
    ds = synth_generate(cfg)
    p1, p2 = str(tmp_path / "c1.bin"), str(tmp_path / "c2.bin")
    save_dataset_cache(ds, p1, cfg)
    save_dataset_cache(synth_generate(cfg), p2, cfg)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert open(p1 + ".json").read() == open(p2 + ".json").read()
    back = load_dataset_cache(p1)
    assert len(back) == len(ds)
    for a, b in zip(ds.samples, back.samples):
        assert same_annotations(a, b)
    np.testing.assert_array_equal(back.image(0), ds.image(0))


# sha256 of the container and the manifest that save_dataset_cache writes for PINNED_SYNTH
PINNED_SYNTH = SynthConfig(
    num_samples=6, image_size=32, num_keypoints=3, min_instances=1, max_instances=3, occlusion=0.3, blob_radius=2.0, channels=2, seed=4
)
PINNED_CACHE_SHA256 = "687112bfe1f15130442a1020c07f39562570e7bb26c4d723547a949c47acdee3"
PINNED_MANIFEST_SHA256 = "64cb462caf89f0942a2baf74260985f7b65129cb4fdcd23d5c2457ea8ebe878f"


def _sha256(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_cache_bytes_are_pinned_and_load_save_keeps_them(tmp_path):
    first, again = str(tmp_path / "first.bin"), str(tmp_path / "again.bin")
    save_dataset_cache(synth_generate(PINNED_SYNTH), first, PINNED_SYNTH)
    assert (_sha256(first), _sha256(first + ".json")) == (PINNED_CACHE_SHA256, PINNED_MANIFEST_SHA256)
    save_dataset_cache(load_dataset_cache(first), again, PINNED_SYNTH)
    assert open(again, "rb").read() == open(first, "rb").read()
    assert open(again + ".json", "rb").read() == open(first + ".json", "rb").read()


def _cache_of(tmp_path, keypoints, num_keypoints=2):
    from poet import checkpoint

    path = str(tmp_path / "c.bin")
    checkpoint.save_arrays(path, {"sample000000": keypoints})
    manifest = {"num_samples": 1, "image_size": [32.0, 32.0], "num_keypoints": num_keypoints, "render": None}
    (tmp_path / "c.bin.json").write_text(json.dumps(manifest))
    return path


def test_cache_visibility_is_truncated_as_int_reads_it(tmp_path):
    rows = np.array([[[1.0, 2.0, -0.5], [3.0, 4.0, 1.7]], [[5.0, 6.0, 2.0], [7.0, 8.0, -0.0]]])
    back = load_dataset_cache(_cache_of(tmp_path, rows))
    got = back.samples[0].keypoints
    assert got[:, :, 2].tolist() == [[0.0, 1.0], [2.0, 0.0]]
    assert not np.signbit(got[:, :, 2]).any()  # int() gives 0, never -0
    assert got[:, :, :2].tobytes() == rows[:, :, :2].tobytes() and back.samples[0].size == (32.0, 32.0)


@pytest.mark.parametrize(
    "rows",
    [np.zeros((2, 3)), np.zeros((1, 3, 3)), np.zeros((1, 2, 2)), np.array([[[1.0, np.nan, 2.0], [1.0, 1.0, 2.0]]]),
     np.array([[[1.0, 1.0, np.inf], [1.0, 1.0, 2.0]]])],
    ids=["rank-2", "three-keypoints", "pairs", "nan-y", "infinite-v"],
)
def test_cache_sample_of_another_layout_or_not_finite_is_a_parse_error(tmp_path, rows):
    with pytest.raises(ParseError, match=r"dataset cache .*c\.bin: sample 0 must hold finite \(instances, 2, 3\) keypoint rows"):
        load_dataset_cache(_cache_of(tmp_path, rows))
