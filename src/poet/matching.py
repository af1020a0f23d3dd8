"""Bipartite matching between target and prediction slots.

The pairwise cost couples the (raw) predicted probability of the target class
with the pose discrepancy; non-object targets cost zero against everything.
The cost block of the human rows is built in one numpy broadcast that repeats
``pose_loss``'s operations in its order, so every entry is bit-identical to
``pose_loss`` minus the predicted human probability.

The solver works on the people rows only: rows up to the last non-zero one
are solved against all columns by shortest augmenting paths with potentials
(a rectangular assignment, as in Jonker & Volgenant 1987), and the trailing
all-zero rows take the leftover columns in ascending order. When several
assignments share the optimal cost, the lexicographically smallest full
permutation is returned. Ties are detected exactly on the people rows'
equality graph, and only then repaired. A factorial brute-force solver over
the full square doubles as the testing oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .loss import LossWeights
from .pose import PredictionSet, TargetSet

BRUTE_FORCE_MAX = 8
_TIE_EPS = 1e-9  # far below any sensible cost grid, far above float-sum noise


class SizeMismatch(ValueError):
    pass


class NonFiniteEntry(ValueError):
    pass


class TooLarge(ValueError):
    pass


@dataclass(frozen=True)
class CostMatrix:
    entries: np.ndarray

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise SizeMismatch(f"cost matrix must be square, got shape {arr.shape}")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Assignment:
    perm: tuple[int, ...]  # perm[i] = prediction index matched to target i
    total_cost: float


def _cost_block(t_center, t_offsets, t_vis, p_human, p_center, p_offsets, p_vis, weights: LossWeights) -> np.ndarray:
    """Costs of h human targets against n predictions, shape (h, n), in one broadcast.

    The operations and their order are those of ``pose_loss`` and then
    ``-p_human + value``, so each entry equals that plain-float cost bit for bit.
    """
    if t_offsets.shape[-1] != p_offsets.shape[-1]:
        raise ValueError(f"keypoint counts differ: {t_offsets.shape[-1] // 2} vs {p_offsets.shape[-1] // 2}")
    v = t_vis[:, None, :]
    l1 = weights.lambda_l1 * np.abs(v * t_offsets[:, None, :] - v * p_offsets[None]).sum(axis=-1)
    l2 = weights.lambda_l2 * ((v - p_vis[None]) ** 2).sum(axis=-1)
    c = t_center[:, None, :] - p_center[None]
    ctr = weights.lambda_ctr * (c**2).sum(axis=-1)
    return -p_human[None, :] + (l1 + l2 + ctr)


def array_cost_matrix(
    t_human: np.ndarray,
    t_center: np.ndarray,
    t_offsets: np.ndarray,
    t_vis: np.ndarray,
    p_human: np.ndarray,
    p_center: np.ndarray,
    p_offsets: np.ndarray,
    p_vis: np.ndarray,
    weights: LossWeights,
) -> CostMatrix:
    """All pairwise costs of n targets against n predictions, both held as arrays.

    ``t_human`` is (n,) bool, true for the human targets, and ``p_human`` (n,)
    the human-class probabilities; centers are (n, 2), offsets and duplicated
    visibilities (n, 2K). Only the human rows are computed, in one
    ``_cost_block``; non-object rows stay zero, as their indicator terms
    vanish. Every human row's entry equals ``-p_human + pose_loss`` bit for bit.
    """
    n = t_human.shape[0]
    if p_human.shape[0] != n:
        raise SizeMismatch(f"targets have {n} slots, predictions {p_human.shape[0]}")
    entries = np.zeros((n, n))
    rows = np.flatnonzero(t_human)
    if rows.size:
        entries[rows] = _cost_block(
            t_center[rows], t_offsets[rows], t_vis[rows], p_human, p_center, p_offsets, p_vis, weights
        )
    return CostMatrix(entries)


def build_cost_matrix(targets: TargetSet, preds: PredictionSet, weights: LossWeights) -> CostMatrix:
    """All pairwise costs; plain floats, never recorded on a tape."""
    poses = [pred.pose for pred in preds]
    return array_cost_matrix(
        targets.human, targets.center, targets.offsets, targets.visibilities,
        np.array([pred.class_probs[0] for pred in preds]),
        np.array([p.center for p in poses]),
        np.array([p.offsets for p in poses]),
        np.array([p.visibilities for p in poses]),
        weights,
    )


def _perm_total(entries: np.ndarray, perm) -> float:
    idx = np.arange(entries.shape[0])
    return float(entries[idx, list(perm)].sum())


def hungarian_assign(cost: CostMatrix | np.ndarray) -> Assignment:
    """Minimum-cost perfect matching, solved on the rows up to the last non-zero one.

    Those k rows are assigned to k of the n columns; the all-zero rows after
    them cost nothing wherever they go and take the leftover columns in
    ascending order. When several permutations share the optimal cost, the
    lexicographically smallest one is returned, matching the brute-force
    oracle's tie rule.
    """
    entries = cost.entries if isinstance(cost, CostMatrix) else CostMatrix(cost).entries
    if not np.all(np.isfinite(entries)):
        raise NonFiniteEntry("cost matrix contains non-finite entries")
    n = entries.shape[0]
    nonzero = np.flatnonzero(entries.any(axis=1))
    k = int(nonzero[-1]) + 1 if nonzero.size else 0
    block = entries[:k]

    cols, u, v = _shortest_augmenting_paths(block)
    # every co-optimal assignment uses only edges of ~0 reduced cost and leaves
    # only columns of ~0 potential unmatched
    tight = block - u[:, None] - v[None, :] <= _TIE_EPS
    freeable = v >= -_TIE_EPS
    if k and _has_second_optimum(tight, cols, freeable):
        cols = _lex_smallest_matching(tight, cols, freeable)
    taken = np.zeros(n, dtype=bool)
    taken[cols] = True
    perm = tuple(int(j) for j in cols) + tuple(int(j) for j in np.flatnonzero(~taken))
    return Assignment(perm, _perm_total(entries, perm))


def _shortest_augmenting_paths(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign each of k rows to its own column out of n >= k, at minimum total cost.

    Returns (column of each row, row potentials u, column potentials v) with
    u[i] + v[j] <= block[i, j] everywhere, equality on the matched edges and
    v = 0 on the unmatched columns, which no augmentation ever visits.
    Columns are scanned in ascending index order, so ties resolve toward
    smaller prediction indices.
    """
    k, n = block.shape
    # 1-based columns; row p[j] is assigned to column j, p[0] tracks the row being inserted
    u = np.zeros(k + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.intp)
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, k + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used
            free[0] = False
            cols = np.nonzero(free)[0]
            cur = block[i0 - 1, cols - 1] - u[i0] - v[cols]
            better = cur < minv[cols]
            if np.any(better):
                improved = cols[better]
                minv[improved] = cur[better]
                way[improved] = j0
            j1 = cols[np.argmin(minv[cols])]  # argmin takes the first minimum: smallest index wins ties
            delta = minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    cols = np.empty(k, dtype=np.intp)
    matched = np.flatnonzero(p[1:])
    cols[p[1:][matched] - 1] = matched
    return cols, u[1:], v[1:]


# The tie helpers below read the people rows as a square problem: each unmatched
# column is held by a padding row, and padding rows may hold any column of ~0
# potential. The padding rows are interchangeable, so they act as one node,
# the pool (index k), in the graph of who can take whose column.


def _owners(cols: np.ndarray, n: int) -> np.ndarray:
    """Row holding each column; unmatched columns are held by the pool (index k)."""
    k = cols.shape[0]
    owner = np.full(n, k, dtype=np.intp)
    owner[cols] = np.arange(k)
    return owner


def _has_second_optimum(tight: np.ndarray, cols: np.ndarray, freeable: np.ndarray) -> bool:
    """Does the equality graph admit an optimal assignment other than ``cols``?

    Row r points at the holder of every other column it is tight to; the pool
    points at the rows holding a column of ~0 potential. A second optimum
    exists exactly when this graph has a cycle: either an alternating cycle
    among the rows, or (through the pool) an alternating path from a matched
    column of ~0 potential to an unmatched one.
    """
    k, n = tight.shape
    owner = _owners(cols, n)
    others = tight.copy()
    others[np.arange(k), cols] = False
    adj = np.zeros((k + 1, k + 1), dtype=bool)
    rows, other_cols = np.nonzero(others)
    adj[rows, owner[other_cols]] = True
    adj[k, owner[freeable & (owner < k)]] = True
    # Kahn's algorithm: the graph is acyclic iff every node can be peeled off at in-degree 0
    indeg = adj.sum(axis=0)
    ready = list(np.flatnonzero(indeg == 0))
    peeled = 0
    while ready:
        x = ready.pop()
        peeled += 1
        for y in np.flatnonzero(adj[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                ready.append(y)
    return peeled < k + 1


def _lex_smallest_matching(tight: np.ndarray, cols: np.ndarray, freeable: np.ndarray) -> np.ndarray:
    """Lexicographically smallest optimal assignment of the people rows, from the optimal ``cols``.

    Row by row, each row moves to its smallest tight column that an
    alternating cycle through the rows below it (and the pool) can free for
    it; the rows above it stay fixed.
    """
    k, n = tight.shape
    pool = k
    cols = cols.copy()
    owner = _owners(cols, n)
    for i in range(k):
        held = cols[i]
        cands = np.flatnonzero(tight[i, :held])
        cands = cands[owner[cands] > i]  # columns of the rows above are fixed
        if not cands.size:
            continue
        nxt = _paths_back(tight, cols, owner, freeable, i)
        reached = nxt[owner[cands]] >= 0
        if not reached.any():
            continue
        j = int(cands[np.argmax(reached)])
        node = owner[j]
        owner[j], cols[i] = i, j
        while True:  # walk the cycle: each holder takes the next column, until row i's old one
            c = nxt[node]
            prev = owner[c]
            owner[c] = node
            if node != pool:
                cols[node] = c
            if c == held:
                break
            node = prev
    return cols


def _paths_back(tight, cols, owner, freeable, i) -> np.ndarray:
    """For the rows below i and the pool: the column each takes on a path that frees row i's column.

    -1 where no such path exists. Following these columns from any reached
    node ends at row i's column; each step goes to a node reached earlier, so
    the path is simple.
    """
    k, n = tight.shape
    nxt = np.full(k + 1, -1, dtype=np.intp)
    open_rows = np.zeros(k, dtype=bool)
    open_rows[i + 1 :] = True
    pool_open = True
    wanted = [int(cols[i])]
    while wanted:
        c = wanted.pop()
        rows = np.flatnonzero(open_rows & tight[:, c])
        open_rows[rows] = False
        nxt[rows] = c
        wanted.extend(int(x) for x in cols[rows])
        if pool_open and freeable[c]:
            pool_open = False
            nxt[k] = c
            wanted.extend(int(x) for x in np.flatnonzero(owner == k))
    return nxt


_PERM_CACHE: dict[int, np.ndarray] = {}


def _all_perms(n: int) -> np.ndarray:
    """All permutations of range(n) in lexicographic order, shape (n!, n)."""
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return _PERM_CACHE[n]


def brute_force_assign(cost: CostMatrix | np.ndarray) -> Assignment:
    """Exhaustive oracle: factorial search, ties to the lexicographically smallest permutation.

    Totals within a tiny tolerance of the minimum count as ties so that equal
    costs on a decimal grid (whose float representations differ by a few ulps
    once summed) are recognized as such; the first hit in lexicographic order
    wins.
    """
    entries = cost.entries if isinstance(cost, CostMatrix) else CostMatrix(cost).entries
    n = entries.shape[0]
    if n > BRUTE_FORCE_MAX:
        raise TooLarge(f"brute force limited to n <= {BRUTE_FORCE_MAX}, got {n}")
    if not np.all(np.isfinite(entries)):
        raise NonFiniteEntry("cost matrix contains non-finite entries")
    perms = _all_perms(n)
    totals = entries[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmax(totals <= totals.min() + _TIE_EPS))
    best_perm = tuple(int(j) for j in perms[best])
    return Assignment(best_perm, _perm_total(entries, best_perm))
