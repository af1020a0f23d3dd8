import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poet import metrics
from poet.metrics import (
    COCO_K17,
    DEFAULT_THRESHOLDS,
    Detection,
    EvalResult,
    GroundTruthInstance,
    LARGE_RANGE,
    MEDIUM_RANGE,
    NoVisibleKeypoints,
    OksParams,
    evaluate_detections,
    load_detections_coco,
    load_detections_jsonl,
    oks,
)

P2 = OksParams.uniform(2)


def gt(points, vis=None, area=None):
    points = np.asarray(points, dtype=float)
    vis = np.ones(len(points)) if vis is None else np.asarray(vis, dtype=float)
    return GroundTruthInstance(points, vis, area)


def det(points, score=1.0):
    return Detection(np.asarray(points, dtype=float), score)


def test_oks_identity_is_one():
    pts = [(10.0, 20.0), (30.0, 40.0)]
    assert oks(pts, pts, [2, 2], 25.0, P2) == 1.0


def test_oks_analytic_single_keypoint():
    s, k = 20.0, 0.1
    d = math.sqrt(2.0) * s * k
    value = oks([(d, 0.0)], [(0.0, 0.0)], [2], s, OksParams.uniform(1))
    assert value == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_oks_far_prediction_goes_to_zero():
    assert oks([(1e5, 1e5)], [(0.0, 0.0)], [2], 10.0, OksParams.uniform(1)) < 1e-12


def test_oks_only_visible_counted():
    value = oks([(0.0, 0.0), (999.0, 999.0)], [(0.0, 0.0), (5.0, 5.0)], [2, 0], 10.0, P2)
    assert value == 1.0


def test_oks_requires_visible_and_positive_scale():
    with pytest.raises(NoVisibleKeypoints):
        oks([(0, 0)], [(0, 0)], [0], 10.0, OksParams.uniform(1))
    with pytest.raises(ValueError):
        oks([(0, 0)], [(0, 0)], [2], 0.0, OksParams.uniform(1))


def test_oks_bounds_translation_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        gt_pts = rng.uniform(0, 50, (k, 2))
        pr_pts = gt_pts + rng.normal(0, 3, (k, 2))
        vis = rng.integers(0, 3, k)
        if (vis > 0).sum() == 0:
            vis[0] = 2
        params = OksParams.uniform(k)
        v = oks(pr_pts, gt_pts, vis, 20.0, params)
        assert 0.0 <= v <= 1.0
        shift = rng.uniform(-100, 100, 2)
        assert oks(pr_pts + shift, gt_pts + shift, vis, 20.0, params) == pytest.approx(v, abs=1e-12)
        assert oks(pr_pts * 3, gt_pts * 3, vis, 60.0, params) == pytest.approx(v, abs=1e-12)


def test_oks_monotone_in_distance():
    base = oks([(1.0, 0.0)], [(0.0, 0.0)], [2], 10.0, OksParams.uniform(1))
    farther = oks([(2.0, 0.0)], [(0.0, 0.0)], [2], 10.0, OksParams.uniform(1))
    assert farther < base


def test_coco_constants_shape():
    assert len(COCO_K17) == 17
    assert OksParams.coco17().k == COCO_K17


def test_perfect_detector_all_ones():
    g1 = [gt([(10, 10), (40, 40)]), gt([(100, 100), (150, 160)], area=50 * 60)]
    g2 = [gt([(5, 5), (200, 200)], area=100**2)]
    dets = [[det(g.keypoints) for g in g1], [det(g.keypoints) for g in g2]]
    r = evaluate_detections(dets, [g1, g2], P2)
    assert r.ap == 1.0 and r.ap50 == 1.0 and r.ap75 == 1.0
    assert r.ar == 1.0 and r.ar50 == 1.0 and r.ar75 == 1.0
    assert r.ap_m == 1.0 and r.ap_l == 1.0 and r.ar_m == 1.0 and r.ar_l == 1.0


def test_no_detections_is_zero():
    g = [[gt([(10, 10), (40, 40)])]]
    r = evaluate_detections([[]], g, P2)
    assert r.ap == 0.0 and r.ar == 0.0 and r.ap50 == 0.0


def test_empty_ground_truth_undefined_not_zero():
    r = evaluate_detections([[det([(0, 0), (1, 1)])]], [[]], P2)
    assert all(v is None for v in r.as_dict().values())


def test_two_gts_one_perfect_detection_ap50():
    g = [gt([(10, 10), (40, 40)]), gt([(100, 10), (140, 40)])]
    r = evaluate_detections([[det(g[0].keypoints)]], [g], P2)
    # 101-point interpolation: levels 0.00..0.50 see precision 1, the rest 0
    assert r.ap50 == pytest.approx(51 / 101, abs=1e-12)
    assert r.ar50 == pytest.approx(0.5, abs=1e-12)


def test_threshold_monotonicity():
    rng = np.random.default_rng(9)
    gts = []
    dets = []
    for _ in range(6):
        g = [gt(rng.uniform(0, 80, (3, 2))) for _ in range(2)]
        d = [det(x.keypoints + rng.normal(0, 2.0, (3, 2)), rng.uniform(0.3, 1.0)) for x in g]
        gts.append(g)
        dets.append(d)
    params = OksParams.uniform(3)
    aps = []
    for t in DEFAULT_THRESHOLDS:
        r = evaluate_detections(dets, gts, params, thresholds=[t])
        aps.append(r.ap)
    for lo, hi in zip(aps[1:], aps[:-1]):
        assert lo <= hi + 1e-12


def test_greedy_matcher_one_to_one():
    # two detections near one gt: only one may be a true positive
    g = [gt([(10, 10), (40, 40)])]
    d = [det(g[0].keypoints, 0.9), det(g[0].keypoints + 0.5, 0.8)]
    r = evaluate_detections([d], [g], P2, thresholds=[0.5])
    # one TP then one FP at lower score: precision falls to 1/2 after recall 1.0
    assert r.ar50 == 1.0
    assert r.ap50 == 1.0


def test_duplicate_detections_hurt_precision_before_recall():
    # duplicate has the higher score, so the PR curve starts with a FP
    g = [gt([(10, 10), (40, 40)])]
    d = [det(g[0].keypoints + 30.0, 0.95), det(g[0].keypoints, 0.8)]
    r = evaluate_detections([d], [g], P2, thresholds=[0.5])
    assert r.ap50 == pytest.approx(0.5, abs=1e-9)


def test_size_buckets_select_instances():
    small = gt([(0, 0), (10, 10)])           # area 100
    medium = gt([(100, 0), (150, 50)])       # area 2500
    large = gt([(300, 300), (450, 450)])     # area 22500
    g = [small, medium, large]
    d = [det(medium.keypoints, 0.9)]         # only the medium instance is found
    r = evaluate_detections([d], [g], P2, thresholds=[0.5])
    assert r.ap_m == 1.0
    assert r.ap_l == 0.0
    assert r.ar_m == 1.0 and r.ar_l == 0.0


def test_undefined_bucket_when_no_instances_in_range():
    g = [[gt([(0, 0), (10, 10)])]]  # small only
    r = evaluate_detections([[det(g[0][0].keypoints)]], g, P2)
    assert r.ap_m is None and r.ap_l is None and r.ar_m is None and r.ar_l is None
    assert r.ap == 1.0


def test_provided_area_overrides_proxy():
    g = [[gt([(0, 0), (10, 10)], area=40.0**2)]]  # proxy would say small; annotation says medium
    r = evaluate_detections([[det(g[0][0].keypoints)]], g, P2)
    assert r.ap_m == 1.0 and r.ap_l is None


def test_eval_result_json_and_table():
    r = evaluate_detections([[det([(0, 0), (5, 5)])]], [[gt([(0, 0), (5, 5)])]], P2)
    parsed = json.loads(r.to_json())
    assert parsed["ap"] == 1.0 and parsed["ap_m"] is None
    assert len(EvalResult.table_header().split()) == 10
    assert "----" in r.table_row()


def test_load_detections_jsonl(tmp_path):
    path = tmp_path / "preds.jsonl"
    record = {"preds": [{"pose": [0.5, 0.5, 0.1, -0.1, 1.0], "class_probs": [0.8, 0.2]}]}
    path.write_text(json.dumps(record) + "\n")
    per_image = load_detections_jsonl(str(path), [(200, 100)], 0.0, 0)
    assert len(per_image) == 1 and len(per_image[0]) == 1
    np.testing.assert_allclose(per_image[0][0].keypoints, [[120.0, 40.0]])
    assert per_image[0][0].score == 0.8


def test_load_detections_jsonl_empty_line_is_an_image_without_detections(tmp_path):
    path = tmp_path / "preds.jsonl"
    record = {"preds": [{"pose": [0.5, 0.5, 0.1, -0.1, 1.0], "class_probs": [0.8, 0.2]}]}
    path.write_text(json.dumps({"preds": []}) + "\n" + json.dumps(record) + "\n")
    empty, one = load_detections_jsonl(str(path), [(200, 100), (200, 100)], 0.0, 0)
    assert empty == [] and len(one) == 1


def test_load_detections_jsonl_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_detections_jsonl(str(path), [(10, 10)], 0.0, 0)


def test_load_detections_jsonl_equals_from_flat_and_decode_pose(tmp_path):
    from oracles import decode_pose
    from poet.pose import PoseClass, from_flat

    rng = np.random.default_rng(17)
    for trial, k in enumerate((1, 5, 17)):
        sizes = [tuple(int(x) for x in rng.integers(16, 640, 2)) for _ in range(6)]
        records = []
        for _ in sizes:
            preds = []
            for _ in range(int(rng.integers(0, 9))):
                ph = float(rng.uniform())
                preds.append({"pose": [float(x) for x in rng.uniform(-0.3, 1.1, 2 + 3 * k)], "class_probs": [ph, 1 - ph]})
            records.append(preds)
        path = tmp_path / f"preds{trial}.jsonl"
        path.write_text("".join(json.dumps({"preds": preds}) + "\n" for preds in records))
        per_image = load_detections_jsonl(str(path), sizes, 0.0, 0)
        assert len(per_image) == len(records)
        for dets, preds, size in zip(per_image, records, sizes):
            assert len(dets) == len(preds)
            for d, e in zip(dets, preds):
                kps = decode_pose(from_flat(e["pose"], PoseClass.HUMAN), size)
                assert d.keypoints.tobytes() == kps[:, :2].tobytes()
                assert d.score == e["class_probs"][0]


def test_load_detections_coco(tmp_path):
    path = tmp_path / "results.json"
    entries = [
        {"image_id": 2, "category_id": 1, "keypoints": [5, 6, 2, 7, 8, 2], "score": 0.7},
        {"image_id": 1, "category_id": 1, "keypoints": [1, 2, 2, 3, 4, 2], "score": 0.9},
        {"image_id": 99, "category_id": 1, "keypoints": [0, 0, 0, 0, 0, 0], "score": 0.1},
    ]
    path.write_text(json.dumps(entries))
    per_image = load_detections_coco(str(path), [1, 2])
    assert len(per_image) == 2
    np.testing.assert_allclose(per_image[0][0].keypoints, [[1, 2], [3, 4]])
    assert per_image[1][0].score == 0.7


# ---------------------------------------------------------------------------
# slow oracle: the per-threshold matcher, recomputing OKS per pair, threshold and bucket


def _oracle_oks(det, g, params):
    return oks(det.keypoints, g.keypoints, g.visibility, np.sqrt(g.effective_area()), params)


def _oracle_match_image(dets, gts, gt_valid, threshold, params, pair_oks):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gts)
    records = []
    for di in order:
        d = dets[di]
        best_j, best_oks = -1, 0.0
        for j, g in enumerate(gts):
            if taken[j] or not gt_valid[j] or g.num_visible == 0:
                continue
            value = pair_oks(d, g, params)
            if value > best_oks:
                best_j, best_oks = j, value
        if best_j >= 0 and best_oks >= threshold:
            taken[best_j] = True
            records.append((d.score, True))
            continue
        ignored = False
        for j, g in enumerate(gts):
            if taken[j] or gt_valid[j] or g.num_visible == 0:
                continue
            if pair_oks(d, g, params) >= threshold:
                ignored = True
                break
        if not ignored:
            records.append((d.score, False))
    return records


def _oracle_pr_summary(all_records, num_gt):
    if num_gt == 0:
        return None, None
    if not all_records:
        return 0.0, 0.0
    all_records.sort(key=lambda r: (-r[0], r[1], r[2]))
    tp = np.cumsum([1.0 if r[3] else 0.0 for r in all_records])
    fp = np.cumsum([0.0 if r[3] else 1.0 for r in all_records])
    recall = tp / num_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    env = precision.copy()
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    levels = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(recall, levels, side="left")
    interp = np.where(idx < len(env), env[np.minimum(idx, len(env) - 1)], 0.0)
    return float(interp.mean()), float(recall[-1])


def _oracle_bucket_valid(g, bucket):
    if g.num_visible == 0:
        return False
    if bucket is None:
        return True
    lo, hi = bucket
    return lo <= g.effective_area() < hi


def _oracle_sweep(detections, ground_truths, thresholds, params, bucket, pair_oks):
    valid_per_image = [[_oracle_bucket_valid(g, bucket) for g in gts] for gts in ground_truths]
    num_gt = sum(sum(v) for v in valid_per_image)
    if num_gt == 0:
        return {t: (None, None) for t in thresholds}
    out = {}
    for t in thresholds:
        records = []
        for img, (dets, gts) in enumerate(zip(detections, ground_truths)):
            matched = _oracle_match_image(dets, gts, valid_per_image[img], t, params, pair_oks)
            for di, (score, is_tp) in enumerate(matched):
                records.append((score, img, di, is_tp))
        out[t] = _oracle_pr_summary(records, num_gt)
    return out


def _oracle_mean(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def oracle_evaluate(detections, ground_truths, params, thresholds=DEFAULT_THRESHOLDS, pair_oks=_oracle_oks):
    thresholds = tuple(thresholds)
    if not any(g.num_visible > 0 for gts in ground_truths for g in gts):
        return EvalResult(*(None,) * 10)
    all_b, med_b, lrg_b = (
        _oracle_sweep(detections, ground_truths, thresholds, params, bucket, pair_oks)
        for bucket in (None, MEDIUM_RANGE, LARGE_RANGE)
    )
    return EvalResult(
        ap=_oracle_mean([all_b[t][0] for t in thresholds]),
        ap50=all_b[0.5][0] if 0.5 in all_b else None,
        ap75=all_b[0.75][0] if 0.75 in all_b else None,
        ap_m=_oracle_mean([med_b[t][0] for t in thresholds]),
        ap_l=_oracle_mean([lrg_b[t][0] for t in thresholds]),
        ar=_oracle_mean([all_b[t][1] for t in thresholds]),
        ar50=all_b[0.5][1] if 0.5 in all_b else None,
        ar75=all_b[0.75][1] if 0.75 in all_b else None,
        ar_m=_oracle_mean([med_b[t][1] for t in thresholds]),
        ar_l=_oracle_mean([lrg_b[t][1] for t in thresholds]),
    )


# no area (keypoint box), small, the lower medium edge, medium, just under and at the large edge, large
GIVEN_AREAS = (None, 20.0**2, 32.0**2, 50.0**2, 96.0**2 - 1.0, 96.0**2, 150.0**2)


@st.composite
def scoring_cases(draw):
    """Images of people with mixed visibility and areas, and detections near them or not, with score ties."""
    k = draw(st.sampled_from([5, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    detections, ground_truths = [], []
    for _ in range(draw(st.integers(1, 4))):
        gts = []
        for _ in range(draw(st.integers(0, 3))):
            if gts and draw(st.booleans()):
                # the same keypoints and area, labeled differently: an exact copy of them scores
                # 1.0 against both, a tie only the first-maximum rule settles
                points, area = gts[-1].keypoints, gts[-1].area
            else:
                spread = draw(st.sampled_from([4.0, 25.0, 80.0]))
                points = rng.uniform(50, 250, 2) + rng.normal(0, spread, (k, 2))
                area = draw(st.sampled_from(GIVEN_AREAS))
            vis = {"all": np.full(k, 2.0), "some": rng.integers(0, 3, k).astype(float), "none": np.zeros(k)}[
                draw(st.sampled_from(["all", "some", "none"]))
            ]
            gts.append(GroundTruthInstance(points, vis, area))
        dets = []
        for _ in range(draw(st.integers(0, 5))):
            target = draw(st.integers(-1, len(gts) - 1))
            if target < 0:
                points = rng.uniform(0, 300, (k, 2))
            else:
                points = gts[target].keypoints + rng.normal(0, draw(st.sampled_from([0.0, 0.5, 3.0, 10.0, 40.0])), (k, 2))
            dets.append(Detection(points, draw(st.sampled_from([0.2, 0.5, 0.9]))))
        detections.append(dets)
        ground_truths.append(gts)
    params = OksParams.coco17() if k == 17 else OksParams.uniform(k)
    return detections, ground_truths, params


@settings(max_examples=200, deadline=None)
@given(scoring_cases())
def test_evaluate_detections_equals_per_threshold_oracle(case):
    detections, ground_truths, params = case
    assert evaluate_detections(detections, ground_truths, params) == oracle_evaluate(detections, ground_truths, params)


def test_oracle_cases_cover_ties_ignored_and_invisible_ground_truths():
    # the fixed cases below hold what the hypothesis search may miss: a score tie between
    # detections of one person, a visible person outside both buckets (ignored in each), an
    # invisible person, images without detections or without people, and two people with the
    # same keypoints and area labeled differently, whom an exact copy ties at OKS 1.0: the first
    # maximum takes `twin_a`, which leaves `twin_b` (OKS 1.0) to the second detection
    a = gt([(10, 10), (40, 40)], area=50.0**2)
    b = gt([(100, 10), (140, 40)], area=150.0**2)
    small = gt([(200, 200), (205, 204)])
    hidden = gt([(10, 10), (40, 40)], vis=[0, 0])
    twin_a = gt([(60, 60), (90, 90)], area=50.0**2)
    twin_b = gt([(60, 60), (90, 90)], vis=[2, 0], area=50.0**2)
    detections = [
        [det(a.keypoints, 0.5), det(a.keypoints + 1.0, 0.5), det(b.keypoints + 2.0, 0.7), det(small.keypoints, 0.6)],
        [],
        [det([(0, 0), (1, 1)], 0.3)],
        [det(twin_a.keypoints, 0.9), det([(60, 60), (300, 300)], 0.8)],
    ]
    ground_truths = [[a, b, small, hidden], [a], [], [twin_a, twin_b]]
    result = evaluate_detections(detections, ground_truths, P2)
    assert result == oracle_evaluate(detections, ground_truths, P2)
    assert result.ap_m is not None and result.ap_l is not None


def test_oks_is_called_once_per_visible_pair_and_is_all_the_sweep_reads(monkeypatch):
    # metrics.oks is replaced on the module, as the benchmark's check and tracer replace it.
    # It returns a random value per call, so a value read from anywhere else shows; values
    # equal to 0.0 or to a threshold, and ties, pin the strict ">" and the ">= threshold" rules
    rng = np.random.default_rng(4)
    detections, ground_truths = [], []
    for n_gts, n_dets in ((3, 4), (0, 2), (2, 0), (4, 6)):
        gts = [
            GroundTruthInstance(rng.uniform(0, 200, (5, 2)), rng.integers(0, 3, 5) * (j % 3 != 1), rng.choice([None, 40.0**2, 120.0**2]))
            for j in range(n_gts)
        ]
        ground_truths.append(gts)
        detections.append([Detection(rng.uniform(0, 200, (5, 2)), rng.choice([0.4, 0.8])) for _ in range(n_dets)])
    params = OksParams.uniform(5)
    returned, scales = {}, {}

    def recording(pred, gt_keypoints, gt_visibility, scale, oks_params):
        key = (np.asarray(pred).tobytes(), np.asarray(gt_keypoints).tobytes())
        assert key not in returned, "a pair was scored twice"
        returned[key] = float(rng.choice([0.0, 0.5, 0.75, 0.9, 0.95, 1.0, rng.uniform(0.3, 1.0)]))
        scales[key] = scale
        return returned[key]

    monkeypatch.setattr(metrics, "oks", recording)
    result = evaluate_detections(detections, ground_truths, params)
    pair_scales = {
        (d.keypoints.tobytes(), g.keypoints.tobytes()): np.sqrt(g.effective_area())
        for dets, gts in zip(detections, ground_truths)
        for d in dets
        for g in gts
        if g.num_visible > 0
    }
    assert scales == pair_scales and len(pair_scales) > 20
    recorded = lambda d, g, _: returned[(d.keypoints.tobytes(), g.keypoints.tobytes())]
    assert result == oracle_evaluate(detections, ground_truths, params, pair_oks=recorded)
