"""Random forest for binary classification, built from scratch.

Each tree is CART with Gini-impurity splits, grown on a bootstrap resample,
with mtry candidate features sampled without replacement at every node.
Hyperparameter defaults mirror the classic classification settings of the
reference R implementation: 500 trees, mtry = ceil(sqrt(p)), min_leaf 1,
unbounded depth.

Reproducibility contract: tree t draws from an RNG stream keyed by
(seed, t), so the same data and seed give a bit-identical forest.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import HiddenPopError

log = logging.getLogger(__name__)

_NO_FEATURE = -1


@dataclass
class DecisionTree:
    """Flat array representation: node i is a leaf iff feature[i] == -1."""

    feature: np.ndarray      # int, split feature or -1
    threshold: np.ndarray    # float, split threshold
    left: np.ndarray         # int child index
    right: np.ndarray        # int child index
    counts: np.ndarray       # (n_nodes, 2) class counts of training rows at node

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        """Majority class per row (ties -> 0); vectorized level-order walk."""
        node = np.zeros(len(X), dtype=np.intp)
        active = self.feature[node] != _NO_FEATURE
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] != _NO_FEATURE
        leaf_counts = self.counts[node]
        return (leaf_counts[:, 1] > leaf_counts[:, 0]).astype(int)


@dataclass
class ForestModel:
    trees: list
    n_trees: int
    mtry: int
    min_leaf: int
    max_depth: int | None
    seed: int
    n_features: int
    oob_error: float
    oob_votes: np.ndarray = field(repr=False, default=None)

    @property
    def width(self) -> int:
        return self.n_features


def _gini_best_split(X, y, idx, features, min_leaf):
    """Best (cost, feature, threshold) over the candidate features at a node.

    Ties in cost keep the first candidate encountered, which makes the search
    deterministic given the feature sampling order.
    """
    n = len(idx)
    labels = y[idx]
    best = (np.inf, _NO_FEATURE, 0.0)
    for f in features:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        v_sorted = values[order]
        pos = np.cumsum(labels[order])          # positives in the left block
        total_pos = pos[-1]
        # valid cut after position i (1-based sizes), only between distinct values
        sizes_l = np.arange(1, n)
        cut = v_sorted[:-1] < v_sorted[1:]
        cut &= (sizes_l >= min_leaf) & (n - sizes_l >= min_leaf)
        if not cut.any():
            continue
        pl = pos[:-1]
        nl = sizes_l - pl
        pr = total_pos - pl
        nr = (n - sizes_l) - pr
        gini_l = 1.0 - (pl * pl + nl * nl) / (sizes_l * sizes_l)
        gini_r = 1.0 - (pr * pr + nr * nr) / ((n - sizes_l) * (n - sizes_l))
        cost = (sizes_l * gini_l + (n - sizes_l) * gini_r) / n
        cost = np.where(cut, cost, np.inf)
        j = int(np.argmin(cost))
        if cost[j] < best[0]:
            best = (float(cost[j]), int(f), float((v_sorted[j] + v_sorted[j + 1]) / 2.0))
    return best


def _grow_tree(X, y, idx, rng, mtry, min_leaf, max_depth):
    p = X.shape[1]
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node(node_idx):
        feature.append(_NO_FEATURE)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        labels = y[node_idx]
        counts.append([int(np.sum(labels == 0)), int(np.sum(labels == 1))])
        return len(feature) - 1

    root = new_node(idx)
    # depth-first, left before right, so the RNG consumption order is fixed
    stack = [(root, idx, 0)]
    while stack:
        node, node_idx, depth = stack.pop()
        labels = y[node_idx]
        if (
            len(node_idx) < 2 * min_leaf
            or labels.min() == labels.max()
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        cand = rng.choice(p, size=mtry, replace=False)
        parent_gini = 1.0 - ((np.mean(labels)) ** 2 + (1 - np.mean(labels)) ** 2)
        cost, f, thr = _gini_best_split(X, y, node_idx, cand, min_leaf)
        if f == _NO_FEATURE or cost >= parent_gini - 1e-15:
            continue
        mask = X[node_idx, f] <= thr
        left_idx = node_idx[mask]
        right_idx = node_idx[~mask]
        feature[node] = f
        threshold[node] = thr
        l_id = new_node(left_idx)
        r_id = new_node(right_idx)
        left[node] = l_id
        right[node] = r_id
        # push right first so the left branch is processed (and draws RNG) first
        stack.append((r_id, right_idx, depth + 1))
        stack.append((l_id, left_idx, depth + 1))
    return DecisionTree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        counts=np.array(counts, dtype=np.int64),
    )


def fit_forest(
    data,
    *,
    n_trees: int = 500,
    mtry: int | None = None,
    min_leaf: int = 1,
    max_depth: int | None = None,
    seed: int = 0,
) -> ForestModel:
    """Bagged Gini trees with per-node feature subsampling and OOB error."""
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=int)
    if y.min() == y.max():
        raise ValueError("both classes must be present")
    n, p = X.shape
    if mtry is None:
        mtry = math.ceil(math.sqrt(p))
    mtry = min(mtry, p)

    trees = []
    votes = np.zeros((n, 2), dtype=np.int64)  # OOB votes per class
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        tree = _grow_tree(X, y, boot, rng, mtry, min_leaf, max_depth)
        trees.append(tree)
        oob_mask = np.ones(n, dtype=bool)
        oob_mask[boot] = False
        if oob_mask.any():
            pred = tree.predict_class(X[oob_mask])
            rows = np.nonzero(oob_mask)[0]
            np.add.at(votes, (rows, pred), 1)

    voted = votes.sum(axis=1) > 0
    oob_pred = (votes[:, 1] > votes[:, 0]).astype(int)
    oob_error = float(np.mean(oob_pred[voted] != y[voted])) if voted.any() else float("nan")
    log.info("forest: %d trees, mtry=%d, OOB error %.4f", n_trees, mtry, oob_error)
    return ForestModel(
        trees=trees,
        n_trees=n_trees,
        mtry=mtry,
        min_leaf=min_leaf,
        max_depth=max_depth,
        seed=seed,
        n_features=p,
        oob_error=oob_error,
        oob_votes=votes,
    )


def predict_forest(model: ForestModel, fv) -> float | np.ndarray:
    """Fraction of trees voting positive; accepts a vector or a matrix."""
    fv = np.asarray(fv, dtype=float)
    single = fv.ndim == 1
    X = fv[None, :] if single else fv
    if X.shape[1] != model.n_features:
        raise HiddenPopError(
            f"expected width {model.n_features}, got {X.shape[1]}"
        )
    votes = np.zeros(len(X))
    for tree in model.trees:
        votes += tree.predict_class(X)
    frac = votes / model.n_trees
    return float(frac[0]) if single else frac


@dataclass
class ImportanceReport:
    """Mean decrease in accuracy per feature group (may be negative)."""

    mda: dict
    ranking: list
    baseline_accuracy: float
    n_repeats: int


def permutation_importance(
    model: ForestModel,
    data,
    *,
    seed: int = 0,
    n_repeats: int = 10,
    groups: list | None = None,
    threshold: float = 0.5,
) -> ImportanceReport:
    """MDA_g = mean over repeats of (baseline accuracy - accuracy with group g permuted).

    groups is a list of (name, [column indices]); one-hot dummies of the same
    categorical should be passed as a single group so the whole predictor is
    scrambled jointly.  Default: every column is its own group.
    """
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=int)
    if groups is None:
        groups = [(f"x{j}", [j]) for j in range(X.shape[1])]
    baseline = float(np.mean((predict_forest(model, X) > threshold).astype(int) == y))
    rng = np.random.default_rng(seed)
    mda = {}
    for name, cols in groups:
        drops = []
        for _ in range(n_repeats):
            perm = rng.permutation(len(X))
            Xp = X.copy()
            Xp[:, cols] = X[np.ix_(perm, cols)]
            if np.array_equal(Xp, X):
                drops.append(0.0)
                continue
            acc = float(np.mean((predict_forest(model, Xp) > threshold).astype(int) == y))
            drops.append(baseline - acc)
        mda[name] = float(np.mean(drops))
    ranking = sorted(mda, key=lambda k: mda[k], reverse=True)
    return ImportanceReport(
        mda=mda, ranking=ranking, baseline_accuracy=baseline, n_repeats=n_repeats
    )
