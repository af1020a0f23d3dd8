import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poet import matching
from poet.loss import LossWeights
from poet.matching import (
    Assignment,
    CostMatrix,
    NonFiniteEntry,
    SizeMismatch,
    TooLarge,
    array_cost_matrix,
    brute_force_assign,
    build_cost_matrix,
    hungarian_assign,
)
from oracles import match_cost, non_object_pose
from poet.pose import (
    PoseClass,
    PoseVector,
    PredictionSet,
    PredictionSlot,
    pad_targets,
)

W = LossWeights()


def human_pose(center=(0.5, 0.5), offsets=(0.1, 0.1), vis=(1.0, 1.0)):
    return PoseVector(center, offsets, vis, PoseClass.HUMAN)


def slot(p_human, pose=None):
    pose = pose or human_pose()
    return PredictionSlot((p_human, 1.0 - p_human), pose)


def random_prediction_set(rng, n, k):
    slots = []
    for _ in range(n):
        ph = float(rng.uniform(0.01, 0.99))
        vis_scores = rng.uniform(0.01, 0.99, k)
        pose = PoseVector(
            tuple(rng.uniform(0.1, 0.9, 2)),
            tuple(rng.uniform(-0.3, 0.3, 2 * k)),
            tuple(np.repeat(vis_scores, 2)),
            PoseClass.HUMAN,
        )
        slots.append(PredictionSlot((ph, 1.0 - ph), pose))
    return PredictionSet(slots)


def random_target_set(rng, n, k, n_humans):
    humans = []
    for _ in range(n_humans):
        vis_bits = rng.integers(0, 2, k).astype(float)
        if vis_bits.sum() == 0:
            vis_bits[0] = 1.0
        offsets = rng.uniform(-0.3, 0.3, 2 * k) * np.repeat(vis_bits, 2)
        humans.append(
            PoseVector(tuple(rng.uniform(0.1, 0.9, 2)), tuple(offsets), tuple(np.repeat(vis_bits, 2)), PoseClass.HUMAN)
        )
    return pad_targets(humans, n)


def test_match_cost_non_object_target_is_zero():
    assert match_cost(non_object_pose(1), slot(0.9), W) == 0.0


def test_match_cost_hand_value():
    # p_hat(human)=0.8 and a pose whose loss is exactly 0.5:
    # L1 masked diff 0.1 per coord -> 4 * 0.1 = 0.4; center diff gives 0.5 * 0.2 = 0.1
    target = human_pose(center=(0.5, 0.5), offsets=(0.1, 0.1))
    pred_pose = PoseVector((0.5 + np.sqrt(0.2), 0.5), (0.15, 0.05), (1.0, 1.0), PoseClass.HUMAN)
    value = match_cost(target, PredictionSlot((0.8, 0.2), pred_pose), W)
    assert value == pytest.approx(-0.8 + 0.5, abs=1e-12)


def test_match_cost_perfect_prediction():
    target = human_pose()
    assert match_cost(target, PredictionSlot((1.0, 0.0), target), W) == pytest.approx(-1.0, abs=1e-15)


def test_build_cost_matrix_all_non_object_is_zero():
    targets = pad_targets([], 4)
    preds = random_prediction_set(np.random.default_rng(0), 4, 1)
    np.testing.assert_array_equal(build_cost_matrix(targets, preds, W).entries, np.zeros((4, 4)))


def test_build_cost_matrix_single_human_row_structure():
    rng = np.random.default_rng(1)
    targets = random_target_set(rng, 4, 2, 1)
    preds = random_prediction_set(rng, 4, 2)
    m = build_cost_matrix(targets, preds, W).entries
    assert np.any(m[0] != 0)
    np.testing.assert_array_equal(m[1:], np.zeros((3, 4)))


def test_build_cost_matrix_matches_pairwise_recomputation():
    rng = np.random.default_rng(2)
    targets = random_target_set(rng, 3, 2, 2)
    preds = random_prediction_set(rng, 3, 2)
    m = build_cost_matrix(targets, preds, W).entries
    for i in range(3):
        for j in range(3):
            assert m[i, j] == match_cost(targets[i], preds[j], W)


def test_build_cost_matrix_size_mismatch():
    with pytest.raises(SizeMismatch):
        build_cost_matrix(pad_targets([], 3), random_prediction_set(np.random.default_rng(0), 4, 1), W)


def _target_arrays(targets):
    return (
        np.array([t.is_human for t in targets]),
        *(np.array([getattr(t, f) for t in targets]) for f in ("center", "offsets", "visibilities")),
    )


def _pred_arrays(preds):
    poses = [p.pose for p in preds]
    return (np.array([p.class_probs[0] for p in preds]), *(np.array([getattr(q, f) for q in poses]) for f in ("center", "offsets", "visibilities")))


def test_array_cost_matrix_equals_match_cost_with_interleaved_padding():
    rng = np.random.default_rng(21)
    for n, k in ((1, 1), (6, 3), (25, 17)):
        humans = list(random_target_set(rng, n, k, n))
        targets = pad_targets([h if rng.random() < 0.5 else non_object_pose(k) for h in humans], n)
        preds = random_prediction_set(rng, n, k)
        m = array_cost_matrix(*_target_arrays(targets), *_pred_arrays(preds), W).entries
        assert m.tobytes() == build_cost_matrix(targets, preds, W).entries.tobytes()
        for i in range(n):
            for j in range(n):
                assert m[i, j] == match_cost(targets[i], preds[j], W)


def test_array_cost_matrix_checks_keypoint_counts_only_on_people_rows():
    preds = random_prediction_set(np.random.default_rng(5), 2, 2)
    nobody = array_cost_matrix(*_target_arrays(pad_targets([], 2)), *_pred_arrays(preds), W)
    assert not nobody.entries.any()  # padding without keypoints, as pad_targets gives an empty image
    one_keypoint = pad_targets([human_pose()], 2)
    with pytest.raises(ValueError, match="keypoint counts differ: 1 vs 2"):
        array_cost_matrix(*_target_arrays(one_keypoint), *_pred_arrays(preds), W)


def test_hungarian_two_by_two():
    a = hungarian_assign(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert a.perm == (0, 1)
    assert a.total_cost == 2.0


def test_hungarian_diagonal_zero():
    c = 1.0 - np.eye(5)
    a = hungarian_assign(c)
    assert a.perm == tuple(range(5))
    assert a.total_cost == 0.0


def test_hungarian_rejects_non_finite():
    with pytest.raises(NonFiniteEntry):
        hungarian_assign(np.array([[np.inf, 1.0], [1.0, 0.0]]))
    with pytest.raises(NonFiniteEntry):
        brute_force_assign(np.array([[np.nan, 1.0], [1.0, 0.0]]))


def test_brute_force_basics():
    assert brute_force_assign(np.array([[3.0]])).perm == (0,)
    a = brute_force_assign(np.array([[0.0, 5.0], [5.0, 0.0]]))
    assert a.perm == (0, 1) and a.total_cost == 0.0
    with pytest.raises(TooLarge):
        brute_force_assign(np.zeros((9, 9)))


def test_cost_matrix_must_be_square():
    with pytest.raises(SizeMismatch):
        CostMatrix(np.zeros((2, 3)))


def test_optimality_against_brute_force_grid():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        entries = rng.integers(-1000, 1001, size=(n, n)) * 0.001
        h = hungarian_assign(entries)
        b = brute_force_assign(entries)
        assert h.total_cost == b.total_cost
        assert h.perm == b.perm  # lexicographic tie rule shared with the oracle


def test_permutation_equivariance_of_columns():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        c = rng.normal(size=(n, n))
        base = hungarian_assign(c)
        pi = rng.permutation(n)
        shuffled = hungarian_assign(c[:, pi])
        # column j of the shuffled matrix is column pi[j] of the original
        assert tuple(pi[list(shuffled.perm)]) == base.perm
        assert shuffled.total_cost == pytest.approx(base.total_cost, abs=1e-12)


def test_row_constant_shift_keeps_permutation():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        c = rng.normal(size=(n, n))
        base = hungarian_assign(c)
        shifted = c.copy()
        shifted[1] += 2.5
        after = hungarian_assign(shifted)
        assert after.perm == base.perm
        assert after.total_cost == pytest.approx(base.total_cost + 2.5, abs=1e-10)


def test_non_object_rows_do_not_change_human_matching():
    rng = np.random.default_rng(7)
    targets = random_target_set(rng, 5, 2, 2)
    preds = random_prediction_set(rng, 5, 2)
    full = hungarian_assign(build_cost_matrix(targets, preds, W))
    human_rows = build_cost_matrix(targets, preds, W).entries[:2]
    # total depends only on human rows
    assert full.total_cost == pytest.approx(sum(human_rows[i, full.perm[i]] for i in range(2)), abs=1e-12)


def test_assignment_total_consistency():
    c = np.random.default_rng(8).normal(size=(4, 4))
    a = hungarian_assign(c)
    assert isinstance(a, Assignment)
    assert sorted(a.perm) == [0, 1, 2, 3]
    assert a.total_cost == pytest.approx(sum(c[i, a.perm[i]] for i in range(4)), abs=1e-12)


def _grid_case(rng, trial):
    """A small cost matrix on a coarse grid (many ties) with zero rows of one of three layouts."""
    n = int(rng.integers(1, 8))
    entries = rng.integers(-2, 3, size=(n, n)) * 0.25 if trial % 2 else rng.integers(-1000, 1001, size=(n, n)) * 0.001
    layout = trial % 3
    if layout == 0:  # humans first, as pad_targets lays them out
        entries[int(rng.integers(0, n + 1)) :] = 0.0
    elif layout == 1:  # zero rows interleaved with the people rows
        entries[rng.random(n) < 0.4] = 0.0
    elif trial % 9 == 2:  # a human-free image
        entries[:] = 0.0
    return entries


def test_people_rows_solver_matches_brute_force_perm():
    rng = np.random.default_rng(2103)
    for trial in range(600):
        entries = _grid_case(rng, trial)
        h = hungarian_assign(entries)
        b = brute_force_assign(entries)
        assert h.perm == b.perm, entries
        assert h.total_cost == b.total_cost


def test_padding_rows_take_leftover_columns_in_ascending_order():
    rng = np.random.default_rng(12)
    for _ in range(20):
        entries = np.zeros((30, 30))
        h = int(rng.integers(1, 10))
        entries[:h] = rng.normal(size=(h, 30))
        perm = hungarian_assign(entries).perm
        assert list(perm[h:]) == sorted(set(range(30)) - set(perm[:h]))


def test_tie_detection_is_exact():
    # a second optimum exists iff the people rows (up to the last non-zero one)
    # have two optimal assignments; the padding rows' order does not count
    rng = np.random.default_rng(31)
    seen = {True: 0, False: 0}
    for trial in range(400):
        entries = _grid_case(rng, trial)
        n = entries.shape[0]
        nonzero = np.flatnonzero(entries.any(axis=1))
        k = int(nonzero[-1]) + 1 if nonzero.size else 0
        if k == 0:
            continue
        perms = np.array(list(itertools.permutations(range(n))))
        totals = entries[np.arange(n), perms].sum(axis=1)
        eps = matching._TIE_EPS
        optimal = {tuple(p[:k]) for p in perms[totals <= totals.min() + eps]}
        block = entries[:k]
        cols, u, v = matching._shortest_augmenting_paths(block)
        found = matching._has_second_optimum(block - u[:, None] - v[None, :] <= eps, cols, v >= -eps)
        assert found == (len(optimal) > 1), entries
        seen[found] += 1
    assert seen[True] > 50 and seen[False] > 50


def test_continuous_humans_first_never_enters_tie_repair(monkeypatch):
    def forbidden(*args):
        raise AssertionError("tie repair entered without a tie")

    monkeypatch.setattr(matching, "_lex_smallest_matching", forbidden)
    rng = np.random.default_rng(100)
    for trial in range(30):
        h = int(rng.integers(1, 21))
        if trial % 3:
            entries = np.zeros((100, 100))
            entries[:h] = rng.normal(size=(h, 100))
        else:
            targets = random_target_set(rng, 100, 17, h)
            entries = build_cost_matrix(targets, random_prediction_set(rng, 100, 17), W).entries
        perm = hungarian_assign(entries).perm
        assert sorted(perm) == list(range(100))


@pytest.mark.parametrize("n", [25, 100])
def test_total_cost_matches_scipy(n):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(n)
    for trial in range(10):
        entries = np.zeros((n, n))
        h = int(rng.integers(1, n + 1)) if trial % 2 else int(rng.integers(1, 21))
        entries[:h] = rng.normal(size=(h, n))
        rows, cols = scipy_optimize.linear_sum_assignment(entries)
        assert hungarian_assign(entries).total_cost == pytest.approx(float(entries[rows, cols].sum()), abs=1e-9)


def test_matching_never_imports_scipy():
    code = "import sys, poet.matching, poet.training, poet.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(matching.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, env=env)
    assert out.stdout.strip() == "False"
