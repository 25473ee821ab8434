"""Random forest for binary classification, built from scratch.

Each tree is CART with Gini-impurity splits, grown on a bootstrap resample
to purity (min_leaf 1, no depth limit), with mtry = ceil(sqrt(p)) candidate
features sampled without replacement at every node.  These settings are
fixed; only the number of trees (500 by default) and the seed are chosen.
R's randomForest takes floor(sqrt(p)) for classification; the two agree at
the feature layout's p = 9.  The training matrix must be finite.

Reproducibility contract: tree t draws from its own RNG stream keyed by
(seed, t): first its bootstrap, then one mtry draw per searched node, taken
in the tree's own depth-first order (left child before right).  The draws
come _BLOCK nodes at a time, one Generator.integers call per block, and
equal successive Generator.choice(p, mtry, replace=False) calls for any
p <= 10,000 (the feature layout has at most 9 columns); draws past a tree's
last node are never read.  fit_forest grows all trees in lockstep, searching
the next node of every unfinished tree in one vectorized pass, but no tree's
stream or node order depends on another tree, so the same data and seed give
a bit-identical forest, the same as growing the trees one after another.

Scoring contract: a tree's class for a row is the majority class (ties -> 0)
of the leaf that the walk from the root reaches, going left where
x[feature] <= threshold, so a NaN on either side goes right.  predict_forest
and the OOB votes score each distinct row once, with all trees at once, by
the bitmask exit-leaf scheme of _LeafTables; their votes equal that walk's
bit for bit, for every tree load_model accepts, with values tied to
thresholds, infinities and NaN included.

Memory: the bootstrap row ids of all trees are held at once, n_trees x n
int32 (about 1 MB at 500 trees x 536 rows), each node owning a range of its
tree's row, and so are the training values' histogram keys, p x n int64
(38 KB at 536 x 9).  The split search takes the nodes in chunks whose
(row, candidate) pairs and histogram bins number at most _SEARCH_CHUNK
(2^17) together, so a chunk's histogram (two int64 cells per bin) takes at
most 2 MB and each of its per-pair int64 arrays 1 MB; a node with more
than _SEARCH_CHUNK is searched alone.  The stacks are n_trees x cap x 4
int64, cap < 2 (tree depth + 2); the candidates n_trees x _BLOCK x mtry
int64, drawn as n_trees x _BLOCK x (2 mtry - 1) (each under 1.5 MB at 500
trees, cap 64, mtry 3).  The leaf-mask tables hold, per split feature f,
(distinct f-thresholds + 1) x trees x W uint64 words, W = ceil(most leaves
in a tree / 64): 2.6 MB for the default forest at seed 3 (315 thresholds,
so 324 rows; 500 trees; W = 2).  Trees are taken in groups whose tables fit
in _TABLE_BYTES (4 MB, or one tree); a forest that fits one group keeps its
tables, a larger one builds each group's anew per call, so deep trees cost
time, not memory.
Rows are scored in chunks of _SCORE_WORDS mask words (256 KiB), in two buffers,
each chunk reading its rows of X through the distinct-row index, a column at a
time; permutation_importance scores one group's _REPEATS copies at a time, only
their rows a permutation changed.  The node table takes the model file's 28
bytes a node: 2.0 MiB for the default forest at seed 3 (75,210 nodes).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import HiddenPopError
from ..features import design_matrix, distinct_rows, fit_input

log = logging.getLogger(__name__)

_NO_FEATURE = -1
_SEARCH_CHUNK = 1 << 17  # (row, candidate) pairs plus histogram bins per vectorized split search
_BLOCK = 64  # nodes per candidate draw of one tree
_TABLE_BYTES = 1 << 22  # leaf-mask tables of one group of trees
_SCORE_WORDS = 1 << 15  # mask words per scoring chunk (rows x trees x W)
_REPEATS = 10  # permutations per group in permutation_importance
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)  # k lowest bits set


# each node field of the whole forest, tree after tree, as the little-endian items that
# stand for it in a model file; counts is (nodes, 2), row-major
_NODE_FIELDS = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4",
                "counts": "<i4"}


@dataclass(eq=False)
class ForestModel:
    """Every tree in one node table: each node field is one array of its _NODE_FIELDS type
    (cast if need be; a value the type cannot hold raises HiddenPopError).

    Tree t owns the n_nodes[t] nodes after trees 0..t-1, numbered in the tree
    from 0 at its root.  A leaf has feature -1.  An internal node's children
    come after it, and every node but a root is the child of exactly one, so
    each tree is one binary tree; load_model checks this.  A row goes left
    where x[feature] <= threshold; a leaf's class is its majority (ties -> 0).
    """

    n_nodes: np.ndarray      # nodes per tree
    feature: np.ndarray      # split feature, or -1 at a leaf
    threshold: np.ndarray    # split threshold
    left: np.ndarray         # left child, or -1 at a leaf
    right: np.ndarray        # right child, or -1 at a leaf
    counts: np.ndarray       # (nodes, 2) class counts of the training rows at the node
    seed: int
    n_features: int
    oob_error: float

    def __post_init__(self):
        for name, dtype in _NODE_FIELDS.items():
            items = np.ascontiguousarray(values := getattr(self, name), dtype)
            if items is not values and name != "threshold" and not np.array_equal(items, values):
                raise HiddenPopError(f"a forest's {name} holds a value outside {dtype}")
            setattr(self, name, items)

    @property
    def width(self) -> int:
        return self.n_features

    @property
    def n_trees(self) -> int:
        return len(self.n_nodes)

    @property
    def mtry(self) -> int:
        """Candidate features per node, fixed at ceil(sqrt(p))."""
        return math.ceil(math.sqrt(self.n_features))

    def subforest(self, t0: int, t1: int) -> ForestModel:
        """Trees t0 up to t1, as a forest whose node fields are views of this one's."""
        nodes = slice(int(self.n_nodes[:t0].sum()), int(self.n_nodes[:t1].sum()))
        return ForestModel(self.n_nodes[t0:t1], *(getattr(self, f)[nodes] for f in _NODE_FIELDS),
                           self.seed, self.n_features, self.oob_error)

    @property
    def trees(self) -> list:
        """Each tree as a one-tree subforest (perfbench/tracer.py counts nodes through it)."""
        return [self.subforest(t, t + 1) for t in range(self.n_trees)]

    @cached_property
    def leaf_tables(self) -> _LeafTables:
        """The exit-leaf scorer of the trees, built on first use."""
        return _LeafTables(self)


@dataclass
class _Bins:
    """The histogram bins of the training columns, made once per fit.

    Column f's bins are its distinct values in increasing order, and X[i, f]
    falls in the bin np.unique's inverse gives it: bin b's value is
    value[first[f] + b], b < width[f], and -0.0 and 0.0, which compare
    equal, share a bin.  A histogram has two cells per bin, negatives then
    positives: keys[f, i] = 2 * (bin of X[i, f]) + y[i].
    """

    keys: np.ndarray
    value: np.ndarray
    first: np.ndarray
    width: np.ndarray

    @classmethod
    def of(cls, X, y):
        values, bins = zip(*(np.unique(column, return_inverse=True) for column in X.T))
        width = np.array([len(v) for v in values])
        return cls(2 * np.array(bins) + y, np.concatenate(values), np.cumsum(width) - width, width)


def _split_nodes(X, y, bins, rows, sizes, cands):
    """Best split of each node over its candidates, and its rows per child.

    Node k holds rows[sum(sizes[:k]) : sum(sizes[:k+1])] and draws the
    features cands[k].  Segment g = k * mtry + s of the chunk's histogram
    holds the bins of node k's s-th candidate; one bincount over the
    segments' bases plus the rows' keys counts every bin's negatives and
    positives at once, with no sort.  Cumulative sums over the non-empty
    bins, less what earlier segments hold, give the rows and positives at
    or below each bin of its segment.  A cut after a non-empty bin is valid
    if rows remain on its right.  Its threshold is the midpoint of that
    bin's value and the next non-empty bin's, or the lower value where the
    midpoint is not in [lower, upper): two adjacent floats can round it onto
    the upper one, and two huge ones overflow it.  So x <= threshold sends
    exactly the rows of the bins up to the cut left, and neither child is
    empty.  The cost is the Gini formula on int64 counts, the same floats as
    a per-candidate search over sorted values gives, and each node keeps its
    first minimum-cost cut in (candidate, bin) order, which is the sorted
    search's (candidate, position) order, so ties go the same way.  A node
    without a valid cut gets feature -1 and cost inf.

    Returns cost, feature and threshold per node; the rows ordered by child,
    node k's child 2k before its child 2k + 1, each in the node's row order;
    and the (2k, 2) class counts of the children.  Rows go to child 2k where
    x[feature] <= threshold.
    """
    k, mtry = cands.shape
    width = bins.width[cands].ravel()               # bins of segment g
    base = np.cumsum(width) - width                 # its first bin in the histogram
    key = np.repeat(cands * bins.keys.shape[1], sizes, axis=0)  # (row, candidate) in keys.flat
    key += rows[:, None]
    cell = np.repeat(2 * base.reshape(k, mtry), sizes, axis=0)
    cell += bins.keys.take(key)
    hist = np.bincount(cell.ravel(), minlength=2 * (base[-1] + width[-1])).reshape(-1, 2)
    bin_n = hist[:, 0] + hist[:, 1]
    filled = np.flatnonzero(bin_n)                  # the non-empty bins, in (segment, bin) order
    seg = np.searchsorted(base, filled, "right") - 1
    # rows and positives from the chunk's start up to each non-empty bin and each segment's end
    cum_n = np.cumsum(bin_n[filled])
    cum_1 = np.cumsum(hist[filled, 1])
    n = np.repeat(sizes, mtry)
    end_n = np.cumsum(n)
    end_1 = cum_1[np.searchsorted(cum_n, end_n)]
    before_n, before_1 = end_n - n, np.concatenate([[0], end_1[:-1]])

    sizes_l, sizes_r = cum_n - before_n[seg], end_n[seg] - cum_n
    c = np.flatnonzero(sizes_r > 0)
    s = seg[c]
    sizes_l, n = sizes_l[c], n[s]
    pl = cum_1[c] - before_1[s]
    nl = sizes_l - pl
    pr = end_1[s] - cum_1[c]
    nr = (n - sizes_l) - pr
    gini_l = 1.0 - (pl * pl + nl * nl) / (sizes_l * sizes_l)
    gini_r = 1.0 - (pr * pr + nr * nr) / ((n - sizes_l) * (n - sizes_l))
    cost = (sizes_l * gini_l + (n - sizes_l) * gini_r) / n

    node = s // mtry
    best_cost = np.full(k, np.inf)
    np.minimum.at(best_cost, node, cost)
    hits = np.flatnonzero(cost == best_cost[node])
    split, first = np.unique(node[hits], return_index=True)
    e = c[hits[first]]
    g = seg[e]
    feature = np.full(k, _NO_FEATURE, dtype=np.intp)
    feature[split] = cands[split, g % mtry]
    at = bins.first[feature[split]] - base[g]       # bin b of segment g in bins.value
    low, high = bins.value[at + filled[e]], bins.value[at + filled[e + 1]]
    with np.errstate(over="ignore"):
        mid = (low + high) / 2.0
    threshold = np.zeros(k)
    threshold[split] = np.where((low <= mid) & (mid < high), mid, low)

    node = np.repeat(np.arange(k), sizes)
    flat = np.repeat(feature, sizes) + rows * np.intp(X.shape[1])  # (row, feature) in X.flat
    child = 2 * node + ~(X.take(flat) <= np.repeat(threshold, sizes))
    counts = np.bincount(2 * child + y[rows], minlength=4 * k).reshape(-1, 2)
    return best_cost, feature, threshold, rows[np.argsort(child, kind="stable")], counts


def _split_in_place(X, y, bins, rows, starts, sizes, cands):
    """Search nodes in chunks of whole nodes, up to _SEARCH_CHUNK entries each.

    A node's entries are its (row, candidate) pairs and its histogram bins;
    a node with more than _SEARCH_CHUNK is searched alone.  Node k owns
    rows[starts[k] : starts[k] + sizes[k]]; its range is reordered in place
    so that its left child's rows come first.  Returns what _split_nodes
    does, less the rows: cost, feature and threshold per node, and the class
    counts of node k's left child in row 2k, of its right child in row 2k + 1.
    """
    entries = sizes * cands.shape[1] + bins.width[cands].sum(axis=1)
    ends = np.cumsum(entries)
    parts = []
    lo = 0
    while lo < len(sizes):
        bound = ends[lo] - entries[lo] + _SEARCH_CHUNK
        hi = max(lo + 1, int(np.searchsorted(ends, bound, "right")))
        m = sizes[lo:hi]
        at = np.repeat(starts[lo:hi] - (np.cumsum(m) - m), m) + np.arange(m.sum())
        cost, feature, threshold, rows[at], counts = _split_nodes(
            X, y, bins, rows[at], m, cands[lo:hi])
        parts.append((cost, feature, threshold, counts))
        lo = hi
    return tuple(map(np.concatenate, zip(*parts)))


def _draw_candidates(rngs, p, mtry):
    """The next _BLOCK nodes' candidates from each generator: (len(rngs), _BLOCK, mtry).

    Generator.choice(p, mtry, replace=False) makes 2 mtry - 1 bounded draws:
    Floyd's from [0, j] for j = p - mtry .. p - 1, then its shuffle's from
    [0, i] for i = mtry - 1 .. 1.  One Generator.integers call per generator
    makes the same draws for a block of nodes.  Floyd's rule keeps draw j
    unless an earlier column holds it, else takes j; the shuffle swaps
    column i with the column its draw names.
    """
    bounds = np.concatenate([np.arange(p - mtry + 1, p + 1), np.arange(mtry, 1, -1)])
    block = np.tile(bounds, _BLOCK)
    draws = np.array([rng.integers(0, block) for rng in rngs]).reshape(-1, len(bounds))
    cand = np.empty((len(draws), mtry), dtype=np.int64)
    for j in range(mtry):
        taken = (cand[:, :j] == draws[:, j, None]).any(axis=1)
        cand[:, j] = np.where(taken, p - mtry + j, draws[:, j])
    row = np.arange(len(draws))
    for i, swap in zip(range(mtry - 1, 0, -1), draws[:, mtry:].T):
        cand[row, i], cand[row, swap] = cand[row, swap], cand[row, i]
    return cand.reshape(len(rngs), _BLOCK, mtry)


def _gini(n1, size):
    """Gini impurity of nodes with n1 positives of size rows, rounded as a per-node loop's."""
    mean = n1 / size  # float_power is C pow per element, as scalar ** is; an array's ** squares
    return 1.0 - (np.float_power(mean, 2) + np.float_power(1 - mean, 2))


def _grow_trees(X, y, seed, n_trees, mtry):
    """Grow n_trees trees in lockstep; returns (n_nodes, roots, records, oob).

    Tree t draws its bootstrap and then its candidates from the stream keyed
    by (seed, t), _BLOCK nodes' worth at a time.  Its bootstrap rows fill
    rows[t], and each node owns a range of that row, partitioned in place
    when the node splits.  Each tree's depth-first stack holds only nodes to
    be searched: a pure child is never pushed.  Each step pops one node from
    every non-empty stack and searches them all at once.  Node ids count up
    per tree in creation order (right child = left child + 1).  Returned:
    each tree's node count and root class counts, one record per step of
    its splits (see _assemble_trees), and the (n_trees, n) out-of-bag mask.
    """
    n, p = X.shape
    rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
    rows = np.array([rng.integers(0, n, size=n) for rng in rngs], dtype=np.int32)
    oob = np.ones((n_trees, n), dtype=bool)
    oob[np.arange(n_trees)[:, None], rows] = False
    n1 = y[rows].sum(axis=1)
    roots = np.column_stack([n - n1, n1])
    bins = _Bins.of(X, y)

    def searchable(nodes):
        pos = nodes[:, 3]
        return (pos > 0) & (pos < nodes[:, 2] - nodes[:, 1])

    stack = np.zeros((n_trees, 1, 4), dtype=np.int64)  # node, lo, hi, positives
    stack[:, 0, 2], stack[:, 0, 3] = n, n1
    top = searchable(stack[:, 0]).astype(np.intp)  # entries on each tree's stack
    cands = np.empty((n_trees, _BLOCK, mtry), dtype=np.int64)
    used = np.full(n_trees, _BLOCK)  # candidate rows of the block already taken
    n_nodes = np.ones(n_trees, dtype=np.intp)
    records = []
    while (tree := np.flatnonzero(top)).size:
        top[tree] -= 1
        node, lo, hi, pos = stack[tree, top[tree]].T
        refill = tree[used[tree] == _BLOCK]
        if refill.size:
            cands[refill] = _draw_candidates([rngs[t] for t in refill], p, mtry)
            used[refill] = 0
        cost, feature, threshold, child_counts = _split_in_place(
            X, y, bins, rows.reshape(-1), tree * n + lo, hi - lo, cands[tree, used[tree]])
        used[tree] += 1
        split = np.flatnonzero((feature != _NO_FEATURE) & (cost < _gini(pos, hi - lo) - 1e-15))
        t = tree[split]
        left = n_nodes[t]
        n_nodes[t] += 2
        counts = child_counts.reshape(-1, 4)[split]
        mid = lo[split] + counts[:, 0] + counts[:, 1]
        if top.max() + 2 > stack.shape[1]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
        # push right first so the left branch is searched (and draws) first
        for child in (np.column_stack([left + 1, mid, hi[split], counts[:, 3]]),
                      np.column_stack([left, lo[split], mid, counts[:, 1]])):
            push = searchable(child)
            stack[t[push], top[t[push]]] = child[push]
            top[t[push]] += 1
        records.append((np.column_stack([t, node[split], feature[split], left, counts]
                                        ).astype(np.int32), threshold[split]))
    return n_nodes, roots, records, oob


def _assemble_trees(n_nodes, roots, records):
    """The node fields of the forest, from _grow_trees' records, emptying the list.

    Each record is one step's splits: an int32 array with columns tree, node,
    feature, left child, left child's class counts, right child's class
    counts, and the thresholds.  Called once _grow_trees has returned, so the
    growth buffers are freed before the node table is allocated.
    """
    offset = np.cumsum(n_nodes) - n_nodes
    feature = np.full(n_nodes.sum(), _NO_FEATURE, dtype=np.int32)
    threshold = np.zeros(len(feature))
    left = np.full(len(feature), -1, dtype=np.int32)
    counts = np.empty((len(feature), 2), dtype=np.int32)
    counts[offset] = roots
    while records:
        splits, thr = records.pop()
        t, node, f, lft = splits[:, :4].T
        feature[offset[t] + node] = f
        threshold[offset[t] + node] = thr
        left[offset[t] + node] = lft
        counts[offset[t] + lft] = splits[:, 4:6]
        counts[offset[t] + lft + 1] = splits[:, 6:]
    return feature, threshold, left, np.where(left < 0, left, left + 1), counts


def fit_forest(data, *, n_trees: int = 500, seed: int = 0) -> ForestModel:
    """Bagged Gini trees with per-node feature subsampling and OOB error."""
    X, y = fit_input(data)
    n, p = X.shape
    n_nodes, roots, records, oob = _grow_trees(X, y, seed, n_trees, math.ceil(math.sqrt(p)))
    model = ForestModel(n_nodes, *_assemble_trees(n_nodes, roots, records), seed=seed,
                        n_features=p, oob_error=float("nan"))

    # OOB votes: the distinct training rows are scored once, by every tree
    first, inverse = distinct_rows(X.T)
    positive = np.empty((len(first), n_trees), dtype=bool)
    for lo, hi, t0, t1, vote in model.leaf_tables.votes(X, first):
        positive[lo:hi, t0:t1] = vote
    n_oob = oob.sum(axis=0)  # per training row, its out-of-bag trees and their positive votes
    n_positive = (oob & positive[inverse].T).sum(axis=0)
    voted = n_oob > 0
    if voted.any():
        model.oob_error = float(np.mean((2 * n_positive > n_oob)[voted] != y[voted]))
    log.info("forest: %d trees, mtry=%d, OOB error %.4f", n_trees, model.mtry, model.oob_error)
    return model


def _table_bytes(forest):
    """Bytes of the tables _group_tables builds: a row per distinct (feature, non-NaN
    threshold) pair, and one per split feature (return_* keeps numpy.ma unimported)."""
    inner = forest.feature != _NO_FEATURE
    real = inner & ~np.isnan(forest.threshold)
    values, rank = np.unique(forest.threshold[real], return_inverse=True)
    pairs = np.unique(rank + forest.feature[real] * np.intp(len(values)), return_index=True)[1]
    features = np.unique(forest.feature[inner], return_index=True)[1]
    words = -(-(int(forest.n_nodes.max()) + 1) // 128)  # leaves = (nodes + 1) / 2
    return (len(pairs) + len(features)) * forest.n_trees * words * 8


def _node_masks(forest):
    """Each internal node's leaf mask, and each tree's class-1 leaves, as W-word bitsets.

    Returns the internal nodes' feature, threshold, tree and (nodes, W) masks,
    and the (n_trees, W) words of the trees' class-1 leaves.  Leaves are
    numbered in order, left to right; bit i of a set is word i // 64, bit
    i % 64, and a node's mask clears the bits of its left subtree's leaves.
    """
    start = (np.cumsum(forest.n_nodes) - forest.n_nodes).astype(np.int32)  # left, right are int32
    owner = np.repeat(np.arange(forest.n_trees, dtype=np.int32), forest.n_nodes)
    left = forest.left + start[owner]
    right = forest.right + start[owner]
    inner = forest.feature != _NO_FEATURE

    levels = []  # the internal nodes of each depth, across trees
    nodes = start
    while (nodes := nodes[inner[nodes]]).size:
        levels.append(nodes)
        nodes = np.concatenate([left[nodes], right[nodes]])
    n_leaves = (~inner).astype(np.int32)
    for nodes in reversed(levels):
        n_leaves[nodes] = n_leaves[left[nodes]] + n_leaves[right[nodes]]
    first = np.zeros(len(inner), dtype=np.int32)  # the number of a node's first leaf
    for nodes in levels:
        first[left[nodes]] = first[nodes]
        first[right[nodes]] = first[nodes] + n_leaves[left[nodes]]
    n_words = -(-int(n_leaves[start].max()) // 64)

    leaf = np.flatnonzero(~inner & (forest.counts[:, 1] > forest.counts[:, 0]))
    positive = np.zeros((forest.n_trees, n_words), dtype=np.uint64)
    np.bitwise_or.at(positive, (owner[leaf], first[leaf] // 64),
                     np.uint64(1) << (first[leaf] % 64).astype(np.uint64))
    del levels, right, leaf  # each index is freed once read, before the masks are made

    nodes = np.flatnonzero(inner)
    lo, hi = first[nodes], first[nodes] + n_leaves[left[nodes]]
    del first, n_leaves, left
    masks = np.empty((len(nodes), n_words), dtype=np.uint64)
    for w in range(n_words):
        below_hi = _LOW_BITS[np.clip(hi - 64 * w, 0, 64)]
        masks[:, w] = ~(below_hi ^ _LOW_BITS[np.clip(lo - 64 * w, 0, 64)])
    return forest.feature[nodes], forest.threshold[nodes], owner[nodes], masks, positive


def _group_tables(forest):
    """The exit-leaf tables of a forest (a group of trees); see _LeafTables.

    Returns (features, thresholds, tables, positive): each feature that
    splits a node once, with its sorted distinct non-NaN thresholds T_f and
    its (len(T_f) + 1, n_trees, W) uint64 table; and the (n_trees, W) words
    marking each tree's leaves of class 1.
    """
    feature, threshold, owner, masks, positive = _node_masks(forest)
    features, which = np.unique(feature, return_inverse=True)
    thresholds, tables = [], []
    for i in range(len(features)):
        at = which == i
        real = ~np.isnan(threshold[at])
        values, rank = np.unique(threshold[at][real], return_inverse=True)
        # x <= nan is false for every x: such a node's mask is in every row, from row 0
        row = np.zeros(len(real), dtype=np.intp)
        row[real] = rank + 1
        table = np.full((len(values) + 1, *positive.shape), _LOW_BITS[64])
        np.bitwise_and.at(table, (row, owner[at]), masks[at])
        np.bitwise_and.accumulate(table, axis=0, out=table)
        thresholds.append(values)
        tables.append(table)
    return features, thresholds, tables, positive


class _LeafTables:
    """Every tree's class for many rows at once, from per-feature leaf bitmasks.

    The exit-leaf scheme of QuickScorer (Lucchese et al., SIGIR 2015).  Each
    tree's leaves are numbered in order, left to right, one bit each; the
    mask of an internal node clears the bits of its left subtree's leaves.
    A row's exit leaf is the lowest bit left set once the masks of all the
    nodes where `x <= threshold` is false are ANDed together.  Per feature f,
    row k of the table holds that AND over the f-nodes whose threshold is
    among the first k of T_f, so a row's bin k_f = searchsorted(T_f, x_f)
    picks exactly its false f-nodes: a threshold equal to x_f is not among
    them, and a NaN x_f (which sorts after every threshold) or a NaN
    threshold makes every such node false.
    """

    def __init__(self, forest):
        # runs [t0, t1) of step trees: a run's tables take no more rows and words per tree
        # than the whole forest's, so runs of its share of _TABLE_BYTES fit, or of one tree
        n = forest.n_trees
        step = max(1, _TABLE_BYTES * n // max(1, _table_bytes(forest)))
        self.groups = [(t0, min(t0 + step, n)) for t0 in range(0, n, step)]
        # each run's trees as views: the forest and its tables make no reference cycle
        self._forests = [forest.subforest(t0, t1) for t0, t1 in self.groups]
        # a forest whose tables fit one group keeps them; otherwise each call rebuilds them
        self._kept = _group_tables(forest) if len(self.groups) == 1 else None

    def votes(self, X, rows):
        """Yields (lo, hi, t0, t1, vote): vote[i, j] says tree t0 + j puts row rows[lo + i]
        of X in class 1.  Each chunk reads its rows of X through rows, a column at a time."""
        for (t0, t1), forest in zip(self.groups, self._forests):
            features, thresholds, tables, positive = self._kept or _group_tables(forest)
            step = max(1, _SCORE_WORDS // positive.size)
            exits = np.empty((min(step, len(rows)), *positive.shape), dtype=np.uint64)
            taken = np.empty_like(exits)
            for lo in range(0, len(rows), step):
                hi = min(lo + step, len(rows))
                exit_masks, table_rows = exits[:hi - lo], taken[:hi - lo]
                exit_masks.fill(_LOW_BITS[64])
                for f, values, table in zip(features, thresholds, tables):
                    np.take(table, np.searchsorted(values, X[rows[lo:hi], f]), axis=0,
                            out=table_rows, mode="clip")
                    exit_masks &= table_rows
                yield lo, hi, t0, t1, _exit_class(exit_masks, positive)


def _exit_class(exit_masks, positive):
    """Whether each (row, tree)'s lowest set bit, its exit leaf, is a class-1 leaf."""
    vote = np.zeros(exit_masks.shape[:2], dtype=bool)
    found = np.zeros_like(vote)
    for w in range(exit_masks.shape[2]):
        word = exit_masks[:, :, w]
        vote |= ~found & ((word & (~word + 1) & positive[:, w]) != 0)
        found |= word != 0
    return vote


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Fraction of trees voting positive, per row of a (rows, width) matrix.

    Each distinct row is scored once: register covariates repeat, and rows
    that compare equal take every split alike.
    """
    X = design_matrix(X, model.n_features)
    first, inverse = distinct_rows(X.T)
    votes = np.zeros(len(first))
    for lo, hi, _t0, _t1, vote in model.leaf_tables.votes(X, first):
        votes[lo:hi] += vote.sum(axis=1)
    return votes[inverse] / model.n_trees


@dataclass
class ImportanceReport:
    """Mean decrease in accuracy per feature group (may be negative)."""

    mda: dict
    baseline_accuracy: float

    ranking = property(lambda self: sorted(self.mda, key=self.mda.get, reverse=True),
                       doc="The groups by decreasing MDA, ties in group order.")


def permutation_importance(
    model: ForestModel,
    data,
    *,
    seed: int = 0,
    groups: list | None = None,
    threshold: float = 0.5,
) -> ImportanceReport:
    """MDA_g = mean over _REPEATS permutations of (baseline accuracy - accuracy with g permuted).

    groups is a list of (name, [column indices]); one-hot dummies of the same
    categorical should be passed as a single group so the whole predictor is
    scrambled jointly.  Default: every column is its own group.  A group's permuted
    copies are made together, and only their rows that a permutation changed are
    scored again, in one predict_forest call; every other row keeps its baseline score,
    so a copy equal to the data drops exactly 0.0.
    """
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=int)
    if groups is None:
        groups = [(f"x{j}", [j]) for j in range(X.shape[1])]
    scores = predict_forest(model, X)
    baseline = float(np.mean((scores > threshold).astype(int) == y))
    rng = np.random.default_rng(seed)
    mda = {}
    for name, cols in groups:
        copies = np.repeat(X[None], _REPEATS, axis=0)
        for Xp in copies:
            Xp[:, cols] = X[np.ix_(rng.permutation(len(X)), cols)]
        changed = (copies[:, :, cols] != X[:, cols]).any(axis=2)
        copy_scores = np.repeat(scores[None], _REPEATS, axis=0)
        copy_scores[changed] = predict_forest(model, copies[changed])
        mda[name] = float(np.mean(baseline - np.mean((copy_scores > threshold) == y, axis=1)))
    return ImportanceReport(mda=mda, baseline_accuracy=baseline)
