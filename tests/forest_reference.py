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


def gini_best_split(X, y, idx, features, min_leaf):
    """Best (cost, feature, threshold) over the candidate features at a node.

    Ties in cost keep the first candidate encountered.
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


def grow_tree(X, y, idx, rng, mtry, min_leaf, max_depth):
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
        cost, f, thr = gini_best_split(X, y, node_idx, cand, min_leaf)
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


def fit_forest(data, *, n_trees=500, mtry=None, min_leaf=1, max_depth=None, seed=0):
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=int)
    n, p = X.shape
    if mtry is None:
        mtry = math.ceil(math.sqrt(p))
    mtry = min(mtry, p)
    trees = []
    votes = np.zeros((n, 2), dtype=np.int64)  # OOB votes per class
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        tree = grow_tree(X, y, boot, rng, mtry, min_leaf, max_depth)
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
    return ForestModel(trees=trees, n_trees=n_trees, mtry=mtry, min_leaf=min_leaf,
                       max_depth=max_depth, seed=seed, n_features=p,
                       oob_error=oob_error, oob_votes=votes)


def predict_forest(model, X):
    """Fraction of trees voting positive, every row through every tree."""
    votes = np.zeros(len(X))
    for tree in model.trees:
        votes += predict_class(tree, X)
    return votes / model.n_trees


def permutation_importance(model, data, *, seed=0, n_repeats=10, groups=None,
                           threshold=0.5):
    """(mda, ranking, baseline accuracy), one prediction per permuted copy."""
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
    return mda, ranking, baseline
