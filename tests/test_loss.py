import math

import numpy as np
import pytest

import poet.autodiff as ad
from poet.loss import (
    ClassMismatch,
    LossBreakdown,
    LossWeights,
    hungarian_loss,
    hungarian_loss_graph,
    pose_loss,
)
from poet.matching import build_cost_matrix, hungarian_assign
from oracles import non_object_pose
from poet.pose import PoseClass, PoseVector, PredictionSet, PredictionSlot, pad_targets

W = LossWeights()


def make_random_case(rng, n, k, n_humans):
    humans = []
    for _ in range(n_humans):
        vis_bits = rng.integers(0, 2, k).astype(float)
        if vis_bits.sum() == 0:
            vis_bits[0] = 1.0
        offsets = rng.uniform(-0.3, 0.3, 2 * k) * np.repeat(vis_bits, 2)
        humans.append(
            PoseVector(tuple(rng.uniform(0.1, 0.9, 2)), tuple(offsets), tuple(np.repeat(vis_bits, 2)), PoseClass.HUMAN)
        )
    targets = pad_targets(humans, n)
    outputs = {
        "class_probs": softmax_rows(rng.normal(size=(1, n, 2))),
        "center": rng.uniform(0.05, 0.95, (1, n, 2)),
        "offsets": rng.uniform(-0.4, 0.4, (1, n, 2 * k)),
        "visibility": np.repeat(rng.uniform(0.05, 0.95, (1, n, k)), 2, axis=-1),
    }
    return targets, outputs


def softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def prediction_set_from_outputs(outputs, image=0):
    slots = []
    n = outputs["class_probs"].shape[1]
    for j in range(n):
        pose = PoseVector(
            tuple(outputs["center"][image, j]),
            tuple(outputs["offsets"][image, j]),
            tuple(outputs["visibility"][image, j]),
            PoseClass.HUMAN,
        )
        slots.append(PredictionSlot(tuple(outputs["class_probs"][image, j]), pose))
    return PredictionSet(slots)


def tensor_outputs(tape, outputs):
    return {k: tape.leaf(v) for k, v in outputs.items()}


def test_pose_loss_zero_at_equality():
    p = PoseVector((0.4, 0.6), (0.1, -0.1), (1.0, 1.0), PoseClass.HUMAN)
    value, parts = pose_loss(p, p, W)
    assert value == 0.0 and parts == (0.0, 0.0, 0.0)


def test_pose_loss_l1_hand_value():
    target = PoseVector((0.5, 0.5), (0.1, 0.1), (1.0, 1.0), PoseClass.HUMAN)
    pred = PoseVector((0.5, 0.5), (0.2, 0.0), (1.0, 1.0), PoseClass.HUMAN)
    value, (l1, l2, ctr) = pose_loss(target, pred, W)
    assert l1 == pytest.approx(4 * 0.2, abs=1e-12)
    assert l2 == 0.0 and ctr == 0.0
    assert value == pytest.approx(0.8, abs=1e-12)


def test_pose_loss_invisible_keypoint_masked():
    target = PoseVector((0.5, 0.5), (0.0, 0.0), (0.0, 0.0), PoseClass.HUMAN)
    pred = PoseVector((0.5, 0.5), (123.0, -55.0), (0.3, 0.3), PoseClass.HUMAN)
    value, (l1, l2, ctr) = pose_loss(target, pred, W)
    assert l1 == 0.0
    assert l2 == pytest.approx(0.2 * (0.09 + 0.09), abs=1e-12)
    assert value == pytest.approx(0.036, abs=1e-12)


def test_pose_loss_rejects_non_object_target():
    with pytest.raises(ClassMismatch):
        pose_loss(non_object_pose(1), non_object_pose(1), W)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_l1=-1.0)


def test_breakdown_total_is_component_sum():
    b = LossBreakdown.build(0.1, 0.2, 0.3, 0.4)
    assert b.total == pytest.approx(1.0, abs=1e-15)


def test_hungarian_loss_perfect_predictions_zero():
    target = PoseVector((0.4, 0.4), (0.05, -0.05), (1.0, 1.0), PoseClass.HUMAN)
    targets = pad_targets([target], 2)
    preds = PredictionSet(
        [
            PredictionSlot((1.0, 0.0), target),
            PredictionSlot((0.0, 1.0), non_object_pose(1)),
        ]
    )
    assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
    b = hungarian_loss(targets, preds, assignment, W, num_humans_in_batch=1)
    assert b.total == 0.0


def test_hungarian_loss_class_nll_hand_value():
    # one human matched at p=0.5 with exact pose, one pad at p(non-object)=0.5
    target = PoseVector((0.4, 0.4), (0.05, -0.05), (1.0, 1.0), PoseClass.HUMAN)
    targets = pad_targets([target], 2)
    preds = PredictionSet(
        [
            PredictionSlot((0.5, 0.5), target),
            PredictionSlot((0.5, 0.5), target),
        ]
    )
    assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
    b = hungarian_loss(targets, preds, assignment, W, num_humans_in_batch=1)
    unnormalized = b.class_nll * len(targets)
    assert unnormalized == pytest.approx(1.1 * math.log(2.0), rel=1e-12)
    assert b.keypoint_l1 == 0.0 and b.center_l2 == 0.0 and b.visibility_l2 == 0.0


def test_hungarian_loss_no_humans_clamps_normalizer():
    targets = pad_targets([], 3)
    rng = np.random.default_rng(0)
    _, outputs = make_random_case(rng, 3, 2, 0)
    preds = prediction_set_from_outputs(outputs)
    assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
    b = hungarian_loss(targets, preds, assignment, W, num_humans_in_batch=0)
    assert b.keypoint_l1 == 0.0 and b.visibility_l2 == 0.0 and b.center_l2 == 0.0
    assert b.class_nll > 0.0 and math.isfinite(b.total)


def test_graph_matches_reference_implementation():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        targets, outputs = make_random_case(rng, n, k, int(rng.integers(0, n + 1)))
        preds = prediction_set_from_outputs(outputs)
        assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
        humans = targets.num_humans
        ref = hungarian_loss(targets, preds, assignment, W, num_humans_in_batch=humans)
        tape = ad.Tape()
        total, got = hungarian_loss_graph([targets], tensor_outputs(tape, outputs), [assignment], W, humans)
        assert float(total.data) == pytest.approx(ref.total, rel=1e-12, abs=1e-14)
        assert got.class_nll == pytest.approx(ref.class_nll, rel=1e-12, abs=1e-14)
        assert got.keypoint_l1 == pytest.approx(ref.keypoint_l1, rel=1e-12, abs=1e-14)
        assert got.visibility_l2 == pytest.approx(ref.visibility_l2, rel=1e-12, abs=1e-14)
        assert got.center_l2 == pytest.approx(ref.center_l2, rel=1e-12, abs=1e-14)


def test_center_gradient_closed_form():
    rng = np.random.default_rng(3)
    targets, outputs = make_random_case(rng, 3, 2, 2)
    preds = prediction_set_from_outputs(outputs)
    assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
    tape = ad.Tape()
    tensors = tensor_outputs(tape, outputs)
    grads = ad.backward(hungarian_loss_graph([targets], tensors, [assignment], W, 2)[0])
    g_center = grads.wrt(tensors["center"])
    for i, target in enumerate(targets):
        j = assignment.perm[i]
        if target.is_human:
            expected = 2.0 * W.lambda_ctr * (outputs["center"][0, j] - np.asarray(target.center)) / 2.0
            np.testing.assert_allclose(g_center[0, j], expected, rtol=1e-12)
        else:
            np.testing.assert_array_equal(g_center[0, j], 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        targets, outputs = make_random_case(rng, n, k, int(rng.integers(1, n + 1)))
        preds = prediction_set_from_outputs(outputs)
        assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
        humans = targets.num_humans
        tape = ad.Tape()
        tensors = tensor_outputs(tape, outputs)
        grads = ad.backward(hungarian_loss_graph([targets], tensors, [assignment], W, humans)[0])
        for key in ("class_probs", "center", "offsets", "visibility"):
            def f(t, key=key):
                probe = {k2: ad.Tensor(v) for k2, v in outputs.items()}
                probe[key] = t
                total, _ = hungarian_loss_graph([targets], probe, [assignment], W, humans)
                return float(total.data)

            numeric = ad.finite_diff(f, ad.Tensor(outputs[key]), eps=1e-4)
            err = ad.relative_error(grads.wrt(tensors[key]), numeric.data)
            assert err < 1e-4, f"{key}: rel err {err}"


def test_masking_is_bitwise_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        targets, outputs = make_random_case(rng, n, k, int(rng.integers(1, n + 1)))
        preds = prediction_set_from_outputs(outputs)
        assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
        humans = targets.num_humans

        perturbed = {key: v.copy() for key, v in outputs.items()}
        touched = False
        for i, target in enumerate(targets):
            j = assignment.perm[i]
            vis = np.asarray(target.visibilities) if target.is_human else np.zeros(2 * k)
            invisible = vis == 0.0
            if target.is_human and invisible.any():
                perturbed["offsets"][0, j, invisible] += rng.normal(size=int(invisible.sum())) * 10
                touched = True
        if not touched:
            continue

        tape_a, tape_b = ad.Tape(), ad.Tape()
        ta = tensor_outputs(tape_a, outputs)
        tb = tensor_outputs(tape_b, perturbed)
        total_a, ga = hungarian_loss_graph([targets], ta, [assignment], W, humans)
        total_b, gb = hungarian_loss_graph([targets], tb, [assignment], W, humans)
        assert float(total_a.data).hex() == float(total_b.data).hex()
        grads_a = ad.backward(total_a)
        grads_b = ad.backward(total_b)
        for key in outputs:
            assert grads_a.wrt(ta[key]).tobytes() == grads_b.wrt(tb[key]).tobytes()


def test_permutation_invariance_with_rematching():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        targets, outputs = make_random_case(rng, n, k, int(rng.integers(1, n + 1)))
        preds = prediction_set_from_outputs(outputs)
        humans = targets.num_humans
        a1 = hungarian_assign(build_cost_matrix(targets, preds, W))
        b1 = hungarian_loss(targets, preds, a1, W, humans)

        pi = rng.permutation(n)
        shuffled_outputs = {key: v[:, pi] for key, v in outputs.items()}
        shuffled_preds = prediction_set_from_outputs(shuffled_outputs)
        a2 = hungarian_assign(build_cost_matrix(targets, shuffled_preds, W))
        b2 = hungarian_loss(targets, shuffled_preds, a2, W, humans)
        assert b2.total == pytest.approx(b1.total, abs=1e-12)


def test_non_negativity_and_zero_iff_perfect():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        targets, outputs = make_random_case(rng, n, 2, int(rng.integers(0, n + 1)))
        preds = prediction_set_from_outputs(outputs)
        assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
        b = hungarian_loss(targets, preds, assignment, W, targets.num_humans)
        assert b.class_nll >= 0 and b.keypoint_l1 >= 0 and b.visibility_l2 >= 0 and b.center_l2 >= 0
        assert b.total > 0  # random predictions are never exact


def test_lambda_homogeneity():
    rng = np.random.default_rng(19)
    targets, outputs = make_random_case(rng, 4, 3, 2)
    preds = prediction_set_from_outputs(outputs)
    assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
    base = hungarian_loss(targets, preds, assignment, W, 2)
    scaled_w = LossWeights(lambda_l1=W.lambda_l1 * 3.0, lambda_l2=W.lambda_l2, lambda_ctr=W.lambda_ctr)
    scaled = hungarian_loss(targets, preds, assignment, scaled_w, 2)
    assert scaled.keypoint_l1 == pytest.approx(3.0 * base.keypoint_l1, rel=1e-12)
    assert scaled.visibility_l2 == base.visibility_l2
    assert scaled.center_l2 == base.center_l2
    assert scaled.class_nll == base.class_nll


def test_nonobject_weight_increase_raises_class_nll():
    rng = np.random.default_rng(23)
    targets, outputs = make_random_case(rng, 4, 2, 1)
    preds = prediction_set_from_outputs(outputs)
    assignment = hungarian_assign(build_cost_matrix(targets, preds, W))
    low = hungarian_loss(targets, preds, assignment, W, 1)
    high = hungarian_loss(targets, preds, assignment, LossWeights(nonobject_class_weight=1.0), 1)
    assert high.class_nll > low.class_nll
