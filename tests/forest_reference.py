"""Sequential reference implementation of the forest, for equality tests.

Grows one tree after another, one node search at a time, walks every row
through every tree, and scores each permuted copy on its own.  The package's
lockstep growth, bitmask scoring and batched versions must reproduce these
bit for bit; nothing here calls the package's scoring code.
"""

import math

import numpy as np

from hiddenpop.models.forest import DecisionTree, ForestModel

_NO_FEATURE = -1


def predict_class(tree, X):
    """Majority class per row (ties -> 0); vectorized level-order walk."""
    node = np.zeros(len(X), dtype=np.intp)
    active = tree.feature[node] != _NO_FEATURE
    while active.any():
        idx = np.nonzero(active)[0]
        nd = node[idx]
        go_left = X[idx, tree.feature[nd]] <= tree.threshold[nd]
        node[idx] = np.where(go_left, tree.left[nd], tree.right[nd])
        active = tree.feature[node] != _NO_FEATURE
    leaf_counts = tree.counts[node]
    return (leaf_counts[:, 1] > leaf_counts[:, 0]).astype(int)


def gini_best_split(X, y, idx, features):
    """Best (cost, feature, threshold) over the candidate features at a node.

    Ties in cost keep the first candidate encountered.  The threshold is the
    midpoint of the two values around the cut, or the lower value where the
    midpoint rounds onto the upper one or overflows.
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
            low, high = v_sorted[j], v_sorted[j + 1]
            with np.errstate(over="ignore"):
                mid = (low + high) / 2.0
            best = (float(cost[j]), int(f), float(mid if low <= mid < high else low))
    return best


def grow_tree(X, y, idx, rng, mtry):
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
    stack = [(root, idx)]
    while stack:
        node, node_idx = stack.pop()
        labels = y[node_idx]
        if labels.min() == labels.max():
            continue
        cand = rng.choice(p, size=mtry, replace=False)
        parent_gini = 1.0 - ((np.mean(labels)) ** 2 + (1 - np.mean(labels)) ** 2)
        cost, f, thr = gini_best_split(X, y, node_idx, cand)
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
        stack.append((r_id, right_idx))
        stack.append((l_id, left_idx))
    return DecisionTree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        counts=np.array(counts, dtype=np.int64),
    )


def fit_forest(data, *, n_trees=500, seed=0):
    """Trees grown to purity with ceil(sqrt(p)) candidates per node, and the OOB error."""
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=int)
    n, p = X.shape
    mtry = math.ceil(math.sqrt(p))
    trees = []
    votes = np.zeros((n, 2), dtype=np.int64)  # OOB votes per class
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        tree = grow_tree(X, y, boot, rng, mtry)
        trees.append(tree)
        oob_mask = np.ones(n, dtype=bool)
        oob_mask[boot] = False
        if oob_mask.any():
            pred = predict_class(tree, X[oob_mask])
            rows = np.nonzero(oob_mask)[0]
            np.add.at(votes, (rows, pred), 1)
    voted = votes.sum(axis=1) > 0
    oob_pred = (votes[:, 1] > votes[:, 0]).astype(int)
    oob_error = float(np.mean(oob_pred[voted] != y[voted])) if voted.any() else float("nan")
    return ForestModel(trees=trees, seed=seed, n_features=p, oob_error=oob_error)


def predict_forest(model, X):
    """Fraction of trees voting positive, every row through every tree."""
    votes = np.zeros(len(X))
    for tree in model.trees:
        votes += predict_class(tree, X)
    return votes / model.n_trees


def permutation_importance(model, data, *, seed=0, groups=None, threshold=0.5):
    """(mda, ranking, baseline accuracy), ten permutations per group, one prediction each."""
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=int)
    if groups is None:
        groups = [(f"x{j}", [j]) for j in range(X.shape[1])]
    baseline = float(np.mean((predict_forest(model, X) > threshold).astype(int) == y))
    rng = np.random.default_rng(seed)
    mda = {}
    for name, cols in groups:
        drops = []
        for _ in range(10):
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
    return mda, ranking, baseline
