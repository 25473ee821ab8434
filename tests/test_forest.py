"""Random forest: determinism, OOB, prediction, permutation importance."""

import signal
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_reference as reference
from hiddenpop.errors import HiddenPopError
from hiddenpop.features import LabeledDataset
from hiddenpop.models import (fit_forest, load_model, permutation_importance, predict_forest,
                              save_model)
from hiddenpop.models import forest as forest_module
from hiddenpop.models.forest import (_BLOCK, _NODE_FIELDS, _draw_candidates, _gini,
                                     _group_tables, _table_bytes)


def learnable_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    X[:, 3] = 0.0                       # constant column
    y = ((X[:, 0] + 0.5 * X[:, 1]) > 0).astype(int)
    return LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(n)])


def trees_equal(a, b):
    return (
        np.array_equal(a.feature, b.feature)
        and np.array_equal(a.threshold, b.threshold)
        and np.array_equal(a.left, b.left)
        and np.array_equal(a.right, b.right)
        and np.array_equal(a.counts, b.counts)
    )


def test_fit_is_deterministic():
    data = learnable_data()
    first = fit_forest(data, n_trees=40, seed=7)
    again = fit_forest(data, n_trees=40, seed=7)
    assert all(trees_equal(a, b) for a, b in zip(first.trees, again.trees))
    assert first.oob_error == again.oob_error
    np.testing.assert_array_equal(
        predict_forest(first, data.X), predict_forest(again, data.X)
    )


def test_different_seeds_differ():
    data = learnable_data()
    a = fit_forest(data, n_trees=10, seed=0)
    b = fit_forest(data, n_trees=10, seed=1)
    assert not all(trees_equal(x, y) for x, y in zip(a.trees, b.trees))


def test_forest_learns_signal_and_oob_is_reasonable():
    data = learnable_data()
    model = fit_forest(data, n_trees=100, seed=0)
    scores = predict_forest(model, data.X)
    train_acc = np.mean((scores > 0.5) == (data.y == 1))
    assert train_acc > 0.95
    assert 0.0 <= model.oob_error < 0.25
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_mtry_default_is_ceil_sqrt_p():
    data = learnable_data()
    model = fit_forest(data, n_trees=5, seed=0)
    assert model.mtry == 2  # ceil(sqrt(4))


def test_single_row_prediction_matches_matrix():
    data = learnable_data()
    model = fit_forest(data, n_trees=30, seed=2)
    one = predict_forest(model, data.X[5:6])
    assert one.shape == (1,)
    assert one[0] == predict_forest(model, data.X)[5]
    with pytest.raises(HiddenPopError, match=r"expected a \(rows, 4\) matrix, got shape \(4,\)"):
        predict_forest(model, data.X[5])


def test_predict_dimension_mismatch():
    model = fit_forest(learnable_data(), n_trees=5, seed=0)
    with pytest.raises(HiddenPopError, match=r"expected a \(rows, 4\) matrix, got shape \(3, 7\)"):
        predict_forest(model, np.zeros((3, 7)))


def test_permutation_importance_ranks_signal_and_zeros_constants():
    data = learnable_data(n=400, seed=3)
    model = fit_forest(data, n_trees=100, seed=0)
    report = permutation_importance(model, data, seed=0)
    assert report.ranking[0] == "x0"
    assert report.mda["x0"] > report.mda["x2"]     # x2 is pure noise
    assert report.mda["x3"] == 0.0                 # constant column: exactly zero
    assert 0.0 <= report.baseline_accuracy <= 1.0


def test_permutation_importance_grouped():
    data = learnable_data(n=200, seed=4)
    model = fit_forest(data, n_trees=60, seed=0)
    groups = [("signal", [0, 1]), ("rest", [2, 3])]
    report = permutation_importance(model, data, seed=0, groups=groups)
    assert set(report.mda) == {"signal", "rest"}
    assert report.mda["signal"] > report.mda["rest"]


def test_permutation_importance_is_seeded():
    data = learnable_data(n=200, seed=5)
    model = fit_forest(data, n_trees=40, seed=0)
    a = permutation_importance(model, data, seed=11)
    b = permutation_importance(model, data, seed=11)
    assert a.mda == b.mda


def test_single_class_rejected():
    data = LabeledDataset(X=np.zeros((10, 2)), y=np.zeros(10, dtype=int),
                          row_ids=[str(i) for i in range(10)])
    with pytest.raises(ValueError):
        fit_forest(data, n_trees=3)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_training_matrix_rejected(value):
    data = learnable_data(n=20)
    data.X[3, 1] = value
    with pytest.raises(ValueError, match="non-finite entries in design matrix"):
        fit_forest(data, n_trees=3)


def tied_data(n=160, seed=0):
    """Repeated values and rows, a 3-valued column and a constant column."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.normal(size=n).round(1),
        rng.integers(0, 3, size=n),
        np.zeros(n),
        rng.integers(0, 2, size=n),
        rng.normal(size=n),
    ]).astype(float)
    X[n // 2:, :2] = X[:n - n // 2, :2]            # duplicated rows in the first columns
    y = ((X[:, 0] + X[:, 1] - 1 + rng.normal(scale=0.8, size=n)) > 0).astype(int)
    return LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(n)])


def assert_same_forest(got, want):
    """Bit for bit: the node table, in the model file's item types, and the OOB error."""
    np.testing.assert_array_equal(got.n_nodes, want.n_nodes)
    for name, dtype in _NODE_FIELDS.items():
        x, w = getattr(got, name), getattr(want, name)
        assert x.dtype == dtype and x.shape == w.shape and x.tobytes() == w.tobytes(), name
    np.testing.assert_equal(got.oob_error, want.oob_error)  # NaN when no row was out of bag
    assert got.mtry == want.mtry


# p columns: tied_data's 5, or its first p, or those 5 and their reversed copies; named by
# the mtry = ceil(sqrt(p)) they give, which is every column at p = 1 and 2
LAYOUTS = {"defaults": 5, "mtry_1": 1, "mtry_2": 2, "mtry_4": 10}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("p", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_lockstep_fit_matches_sequential_reference(seed, p):
    data = tied_data(seed=seed)
    X = np.column_stack([data.X, data.X[::-1]])[:, :p]
    data = LabeledDataset(X=X, y=data.y, row_ids=data.row_ids)
    got = fit_forest(data, n_trees=12, seed=seed)
    assert got.mtry == {1: 1, 2: 2, 5: 3, 10: 4}[p]
    assert_same_forest(got, reference.fit_forest(data, n_trees=12, seed=seed))


def test_single_tree_matches_sequential_reference():
    data = tied_data(seed=7)
    assert_same_forest(fit_forest(data, n_trees=1, seed=7),
                       reference.fit_forest(data, n_trees=1, seed=7))


def test_lockstep_fit_matches_sequential_reference_on_register_rows(small_training):
    _schema, data = small_training
    assert_same_forest(fit_forest(data, n_trees=20, seed=3),
                       reference.fit_forest(data, n_trees=20, seed=3))


def test_lockstep_fit_matches_sequential_reference_with_nodes_over_a_search_chunk(monkeypatch):
    monkeypatch.setattr(forest_module, "_SEARCH_CHUNK", 1 << 11)
    data = tied_data(n=5000, seed=4)
    assert len(data.X) > forest_module._SEARCH_CHUNK  # the root alone fills more than one chunk
    assert_same_forest(fit_forest(data, n_trees=3, seed=4),
                       reference.fit_forest(data, n_trees=3, seed=4))


def test_lockstep_fit_matches_sequential_reference_across_candidate_blocks():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 3)).round(2)
    data = LabeledDataset(X=X, y=rng.integers(0, 2, size=600),
                          row_ids=[str(i) for i in range(600)])
    got = fit_forest(data, n_trees=3, seed=1)
    # every tree searches (at least) its splitting nodes, over two blocks' worth
    assert min(int((tree.feature >= 0).sum()) for tree in got.trees) > 2 * _BLOCK
    assert_same_forest(got, reference.fit_forest(data, n_trees=3, seed=1))


_B = float(np.nextafter(1.0, 2.0))  # the float after 1.0
_EDGE_COLUMNS = {
    "ties": np.array([0.5, 0.5, 0.5, 1.0, 1.0, 2.25, 2.25, 2.25]),
    "signed_zeros": np.array([-0.0, 0.0, -0.0, 0.0, 1.0, -1.5, 0.0, -0.0]),
    "adjacent_floats": np.array([1.0, _B, np.nextafter(_B, 2.0), _B, 1.0, 1.0, 0.5, _B]),
    "huge": np.array([-1.5e308, -1e308, 1e308, 1.5e308, -1.5e308, 1.5e308, 0.5, -1e308]),
}


@contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block after `seconds`: a cut that repeats never ends."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("column", _EDGE_COLUMNS, ids=_EDGE_COLUMNS.keys())
def test_histogram_search_matches_sequential_reference_on_edge_values(column, p):
    """The edge column, then a 3-valued one, then _TRAINING_POOL values: mtry = p at p <= 2."""
    rng = np.random.default_rng(len(column) + p)
    n = 120
    X = np.column_stack([rng.choice(_EDGE_COLUMNS[column], size=n), rng.integers(0, 3, size=n),
                         rng.choice(_TRAINING_POOL, size=n)])[:, :p]
    y = (rng.random(n) < np.where(rng.integers(0, 3, size=n) > 0, 0.7, 0.3)).astype(int)
    data = LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(n)])
    with deadline(20):
        got = fit_forest(data, n_trees=8, seed=p)
        assert_same_forest(got, reference.fit_forest(data, n_trees=8, seed=p))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 60), p=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_histogram_search_matches_sequential_reference(data, n, p, seed):
    """Columns drawn from a few _TRAINING_POOL values each: ties, both zeros, adjacent floats,
    and floats whose midpoint overflows."""
    palettes = [data.draw(st.lists(st.sampled_from(_TRAINING_POOL.tolist()), min_size=1,
                                   max_size=5))
                for _ in range(p)]
    X = np.column_stack([data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
                         for palette in palettes])
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]
    dataset = LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(n)])
    with deadline(20):
        got = fit_forest(dataset, n_trees=4, seed=seed)
        assert_same_forest(got, reference.fit_forest(dataset, n_trees=4, seed=seed))


@pytest.mark.parametrize("low", [1.0, _B], ids=["midpoint_rounds_down", "midpoint_rounds_up"])
def test_rows_are_cut_on_raw_values_where_the_midpoint_rounds(low):
    """Of two adjacent floats the midpoint may equal either one; the cut is at the lower."""
    high = float(np.nextafter(low, 2.0))
    midpoint = (low + high) / 2.0
    assert midpoint == (high if low > 1.0 else low)
    X = np.column_stack([np.repeat([low, high], 20), np.tile([0.0, 1.0], 20)])
    y = np.repeat([0, 1], 20)
    y[::7] ^= 1
    data = LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(40)])
    with deadline(10):
        got = fit_forest(data, n_trees=5, seed=1)
        assert_same_forest(got, reference.fit_forest(data, n_trees=5, seed=1))
    tree = got.trees[0]
    assert (tree.feature[0], tree.threshold[0]) == (0, low)
    boot = np.random.default_rng([1, 0]).integers(0, 40, size=40)  # tree 0's bootstrap
    assert tree.counts[tree.left[0]].sum() == (X[boot, 0] == low).sum() < 40


@pytest.mark.parametrize("low, high", [
    (_B, float(np.nextafter(_B, 2.0))), (-1.5e308, -1e308), (1e308, 1.5e308),
], ids=["midpoint_rounds_up", "midpoint_overflows_down", "midpoint_overflows_up"])
def test_a_cut_whose_midpoint_leaves_its_interval_is_taken_at_the_lower_value(low, high):
    """Trees grown to purity end: the cut sends the high rows right, not every row left."""
    with np.errstate(over="ignore"):
        midpoint = (low + high) / 2.0
    assert not low <= midpoint < high
    X = np.repeat([[low], [high]], 10, axis=0)
    y = np.repeat([0, 1], 10)
    data = LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(20)])
    with deadline(10):
        got = fit_forest(data, n_trees=5, seed=0)
        assert_same_forest(got, reference.fit_forest(data, n_trees=5, seed=0))
    assert all(tree.feature.size <= 3 for tree in got.trees)
    assert any(tree.feature.size == 3 for tree in got.trees)
    for tree in got.trees:
        np.testing.assert_array_equal(tree.threshold[tree.feature == 0], low)


def test_nodes_are_chunked_by_histogram_bins(monkeypatch):
    """A 5,000-value column: nodes whose rows would share a chunk are split by their bins."""
    monkeypatch.setattr(forest_module, "_SEARCH_CHUNK", 1 << 12)
    calls, steps = [], []
    split_nodes, split_in_place = forest_module._split_nodes, forest_module._split_in_place

    def recording_split_nodes(X, y, bins, rows, sizes, cands):
        calls.append((len(sizes), sizes.sum() * cands.shape[1] + bins.width[cands].sum()))
        return split_nodes(X, y, bins, rows, sizes, cands)

    def recording_split_in_place(X, y, bins, rows, starts, sizes, cands):
        before = len(calls)
        out = split_in_place(X, y, bins, rows, starts, sizes, cands)
        steps.append((sizes.sum() * cands.shape[1], len(calls) - before))
        return out

    monkeypatch.setattr(forest_module, "_split_nodes", recording_split_nodes)
    monkeypatch.setattr(forest_module, "_split_in_place", recording_split_in_place)
    data = tied_data(n=5000, seed=8)
    assert len(np.unique(data.X[:, 4])) == 5000
    got = fit_forest(data, n_trees=2, seed=8)
    assert_same_forest(got, reference.fit_forest(data, n_trees=2, seed=8))
    # every chunk of several nodes fits the bound, and some step's row pairs fit one chunk
    # but its bins did not
    assert all(entries <= forest_module._SEARCH_CHUNK for nodes, entries in calls if nodes > 1)
    assert any(pairs <= forest_module._SEARCH_CHUNK and n_chunks > 1 for pairs, n_chunks in steps)


@pytest.mark.parametrize("p", range(1, 13))
def test_block_draws_equal_successive_choice_calls(p):
    """Whole blocks give each call's candidates and leave the generator where the calls do."""
    for mtry in range(1, p + 1):
        for count in (1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 3):
            calls, blocks = (np.random.default_rng([p, mtry, count]) for _ in range(2))
            calls.integers(0, 7, size=7)  # a bootstrap-like draw first, as in a tree
            blocks.integers(0, 7, size=7)
            want = [calls.choice(p, size=mtry, replace=False) for _ in range(count)]
            n_blocks = -(-count // _BLOCK)
            got = np.concatenate([_draw_candidates([blocks], p, mtry)[0] for _ in range(n_blocks)])
            np.testing.assert_array_equal(got[:count], want, err_msg=f"mtry={mtry} count={count}")
            for _ in range(n_blocks * _BLOCK - count):  # the rest of the last block
                calls.choice(p, size=mtry, replace=False)
            assert blocks.bit_generator.state == calls.bit_generator.state, (mtry, count)


def test_parent_gini_rounds_as_the_per_node_loop():
    """Every node of up to 400 rows, as the reference's scalar `**` rounds it."""
    pairs = [(n1, size) for size in range(1, 401) for n1 in range(size + 1)]
    n1, size = np.array(pairs).T
    want = [1.0 - (m ** 2 + (1 - m) ** 2) for m in (np.float64(a) / b for a, b in pairs)]
    assert _gini(n1, size).tobytes() == np.array(want).tobytes()


def test_duplicated_rows_score_as_if_alone():
    data = tied_data(seed=1)
    model = fit_forest(data, n_trees=30, seed=2)
    X = np.vstack([data.X, data.X[::-1], data.X[5:6]])
    scores = predict_forest(model, X)
    np.testing.assert_array_equal(scores, [predict_forest(model, row[None])[0] for row in X])
    np.testing.assert_array_equal(scores, reference.predict_forest(model, X))


@pytest.mark.parametrize("seed", [3, 10])
@pytest.mark.parametrize("groups", [
    None, [("x0", [0]), ("x1_x3", [1, 3]), ("constant", [2]), ("x4", [4])], [("constant", [2])],
], ids=["per_column", "grouped", "constant_only"])
def test_permutation_importance_matches_per_copy_reference(groups, seed):
    data = tied_data(n=120, seed=5)
    model = fit_forest(data, n_trees=25, seed=0)
    got = permutation_importance(model, data, seed=seed, groups=groups)
    mda, ranking, baseline = reference.permutation_importance(
        model, data, seed=seed, groups=groups)
    assert (got.mda, got.ranking, got.baseline_accuracy) == (mda, ranking, baseline)
    assert got.mda["x2" if groups is None else "constant"] == 0.0


# values tied to thresholds, both zeros, both infinities and NaN
_POOL = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 1.0, 2.25, 7.0, np.inf, np.nan])
# training values: _POOL's finite ones, adjacent floats, and floats whose midpoint overflows
_TRAINING_POOL = np.concatenate([_POOL[np.isfinite(_POOL)], _EDGE_COLUMNS["adjacent_floats"][:3],
                                 [-1.5e308, -1e308, 1e308, 1.5e308]])


def random_tree(rng, n_leaves, n_features):
    """A random binary tree, its nodes numbered in a random order with children after parents.

    Split thresholds come from _POOL, NaN and the infinities included.
    """
    kids, leaves, n = {}, [0], 1
    while len(leaves) < n_leaves:
        node = leaves.pop(int(rng.integers(len(leaves))))
        kids[node] = (n, n + 1)
        leaves += [n, n + 1]
        n += 2
    order, frontier = [], [0]
    while frontier:
        node = frontier.pop(int(rng.integers(len(frontier))))
        order.append(node)
        frontier += kids.get(node, ())
    ids = {node: i for i, node in enumerate(order)}
    feature = np.full(n, -1, dtype=np.intp)
    threshold = np.zeros(n)
    left, right = np.full(n, -1, dtype=np.intp), np.full(n, -1, dtype=np.intp)
    for node, (lft, rgt) in kids.items():
        i = ids[node]
        feature[i], threshold[i] = rng.integers(n_features), rng.choice(_POOL)
        left[i], right[i] = ids[lft], ids[rgt]
    counts = rng.integers(0, 3, size=(n, 2)).astype(np.int64)
    return reference.Tree(feature=feature, threshold=threshold, left=left, right=right,
                          counts=counts)


def scoring_rows(rng, n_rows, n_features):
    """Rows mostly from _POOL, so that many values equal a threshold, the rest normal."""
    X = rng.choice(_POOL, size=(n_rows, n_features))
    return np.where(rng.random(X.shape) < 0.8, X, rng.normal(size=X.shape))


def assert_scores_equal_the_walk(model, X):
    """predict_forest on a matrix, on zero rows and on a single row, against every tree's walk."""
    got = predict_forest(model, X)
    assert got.tobytes() == reference.predict_forest(model, X).tobytes()
    assert predict_forest(model, X[:0]).shape == (0,)
    if len(X):
        one = predict_forest(model, X[:1])
        assert one.tobytes() == reference.predict_forest(model, X[:1]).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.sampled_from([1, 2, 5, 64, 65, 128, 129, 150]), min_size=1, max_size=4),
       n_rows=st.sampled_from([0, 1, 3, 60]))
def test_bitmask_scores_of_loaded_trees_equal_the_walk(small_training, seed, sizes, n_rows):
    """Hand-built trees of 1 to 3 mask words, saved and loaded."""
    schema, _data = small_training
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, n_leaves, schema.width) for n_leaves in sizes]
    built = reference.forest(trees, n_features=schema.width)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(Path(tmp) / "model.json", built, schema)
        model, _schema = load_model(Path(tmp) / "model.json")
    assert_scores_equal_the_walk(model, scoring_rows(rng, n_rows, schema.width))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.sampled_from([1, 2, 5, 64, 150]), min_size=1, max_size=4))
def test_saved_forest_loads_equal_arrays_and_votes(small_training, seed, sizes):
    """Random trees, with counts up to 2**31 - 1, saved and loaded: the same bits and votes."""
    schema, _data = small_training
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, n_leaves, schema.width) for n_leaves in sizes]
    trees[0].counts[:] = rng.integers(0, 2**31, size=trees[0].counts.shape)
    built = reference.forest(trees, n_features=schema.width)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(Path(tmp) / "model.json", built, schema)
        model, _schema = load_model(Path(tmp) / "model.json")
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        for name in ("feature", "left", "right", "counts"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.threshold.tobytes() == want.threshold.tobytes()  # -0.0 and NaN too
    assert_same_forest(model, built)
    X = scoring_rows(rng, 60, schema.width)
    assert predict_forest(model, X).tobytes() == predict_forest(built, X).tobytes()


def test_a_count_outside_int32_is_not_saved(small_training, tmp_path):
    """A forest holds its node table in the file's item types, so no such forest is made."""
    schema, _data = small_training
    tree = random_tree(np.random.default_rng(0), 3, schema.width)
    tree.counts[-1, 1] = 2**31
    with pytest.raises(HiddenPopError, match="counts holds a value outside <i4"):
        save_model(tmp_path / "model.json", reference.forest([tree], n_features=schema.width),
                   schema)
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 150), levels=st.sampled_from([2, 4, 40]))
def test_bitmask_oob_votes_and_scores_of_fitted_forests_equal_the_walk(seed, n, levels):
    """Fitted on few distinct values (ties, repeated rows), scored on _POOL rows."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, 3)) / 2.0
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    data = LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(n)])
    got = fit_forest(data, n_trees=6, seed=seed)
    assert_same_forest(got, reference.fit_forest(data, n_trees=6, seed=seed))
    assert_scores_equal_the_walk(got, np.vstack([X, scoring_rows(rng, 40, 3)]))


def test_bitmask_scorer_in_tree_groups_and_row_chunks(monkeypatch):
    """Tables over the byte budget are built per group of trees; rows go in chunks."""
    monkeypatch.setattr(forest_module, "_TABLE_BYTES", 2_000)
    monkeypatch.setattr(forest_module, "_SCORE_WORDS", 50)
    data = tied_data(n=200, seed=6)
    got = fit_forest(data, n_trees=9, seed=6)
    assert len(got.leaf_tables.groups) > 2
    assert_same_forest(got, reference.fit_forest(data, n_trees=9, seed=6))
    rng = np.random.default_rng(6)
    trees = [random_tree(rng, n_leaves, 5) for n_leaves in (1, 70, 140, 3)]
    model = reference.forest(trees, n_features=5)
    assert len(model.leaf_tables.groups) > 2
    assert_scores_equal_the_walk(got, np.vstack([data.X, scoring_rows(rng, 30, 5)]))
    assert_scores_equal_the_walk(model, scoring_rows(rng, 90, 5))


def built_table_bytes(forest):
    _features, _thresholds, tables, _positive = _group_tables(forest)
    return sum(table.nbytes for table in tables)


def test_table_bytes_counts_the_rows_the_tables_build(small_training):
    """A NaN threshold's node goes in row 0 of its feature's table, and adds no row.

    A fitted forest with one threshold set to NaN, then hand-built trees whose
    thresholds come from _POOL: NaN, -0.0 and 0.0, and the infinities.
    """
    schema, data = small_training
    model = fit_forest(data, n_trees=20, seed=3)
    model.threshold[np.flatnonzero(model.feature != -1)[0]] = np.nan
    assert _table_bytes(model) == built_table_bytes(model)
    rng = np.random.default_rng(3)
    for sizes in ([1], [1, 2], [5, 64, 150, 3], [129, 70]):
        model = reference.forest([random_tree(rng, n, schema.width) for n in sizes],
                                 n_features=schema.width)
        assert _table_bytes(model) == built_table_bytes(model)


def assert_one_node_table(model):
    """One C-contiguous array per node field, in its _NODE_FIELDS type; no per-tree objects."""
    n = int(model.n_nodes.sum())
    for name, dtype in _NODE_FIELDS.items():
        values = getattr(model, name)
        assert values.dtype == dtype and values.flags.c_contiguous, name
        assert values.shape == ((n, 2) if name == "counts" else (n,)), name
    assert not [name for name, value in vars(model).items()
                if isinstance(value, (list, tuple, dict))]


def test_fitted_and_loaded_forests_hold_one_node_table(small_training, tmp_path):
    schema, data = small_training
    fitted = fit_forest(data, n_trees=20, seed=3)
    save_model(tmp_path / "model.json", fitted, schema)
    loaded, _schema = load_model(tmp_path / "model.json")
    assert_one_node_table(fitted)
    assert_one_node_table(loaded)
    assert_same_forest(loaded, fitted)


@contextmanager
def traced_memory():
    """Yields a dict that gets the bytes traced by tracemalloc in the block: its "peak" and
    what is still held at its end ("retained"), over what was held at its start."""
    tracemalloc.start()
    traced = {}
    try:
        base = tracemalloc.get_traced_memory()[0]
        yield traced
        held, peak = tracemalloc.get_traced_memory()
        traced.update(retained=held - base, peak=peak - base)
    finally:
        tracemalloc.stop()


def test_load_model_retains_at_most_28_bytes_per_node(small_training, tmp_path):
    """The decoded node strings are the loaded forest's arrays: 4 + 8 + 4 + 4 + 2 x 4 bytes."""
    schema, _data = small_training
    rng = np.random.default_rng(0)
    built = reference.forest([random_tree(rng, 150, schema.width) for _ in range(200)],
                             n_features=schema.width)
    path = tmp_path / "model.json"
    save_model(path, built, schema)
    load_model(path)  # whatever a first load caches is made here
    with traced_memory() as traced:
        model, _schema = load_model(path)
    n = int(model.n_nodes.sum())
    assert n == 200 * 299
    assert traced["retained"] <= 28 * n + (64 << 10), traced


def test_save_model_peaks_below_a_quarter_of_the_node_table(small_training, tmp_path):
    """The node strings are written in slices as they are encoded, never held whole."""
    schema, _data = small_training
    rng = np.random.default_rng(0)
    built = reference.forest([random_tree(rng, 150, schema.width) for _ in range(200)],
                             n_features=schema.width)
    path = tmp_path / "model.json"
    save_model(path, built, schema)  # whatever a first save caches is made here
    first = path.read_bytes()
    with traced_memory() as traced:
        save_model(path, built, schema)
    assert path.read_bytes() == first
    assert traced["peak"] < 28 * int(built.n_nodes.sum()) // 4, traced


def test_predict_forest_copies_no_distinct_rows():
    """Each scoring chunk reads its rows through the distinct-row index: the scoring of
    30,000 distinct rows peaks below one (distinct rows x width) float copy of them."""
    rng = np.random.default_rng(0)
    model = reference.forest([random_tree(rng, 64, 60) for _ in range(100)], n_features=60)
    X = rng.normal(size=(30_000, 60))
    predict_forest(model, X[:10])  # the leaf tables, which the forest keeps, are built here
    with traced_memory() as traced:
        predict_forest(model, X)
    assert traced["peak"] < X.nbytes, traced


def assert_same_importance(got, want):
    """Bit for bit: each group's MDA, in group order, and the baseline accuracy."""
    mda, baseline = want
    assert list(got.mda) == list(mda)
    assert np.array(list(got.mda.values())).tobytes() == np.array(list(mda.values())).tobytes()
    assert np.float64(got.baseline_accuracy).tobytes() == np.float64(baseline).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 60),
       threshold=st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1.0])))
def test_permutation_importance_matches_the_stacked_reference(seed, n_rows, threshold):
    """Small random forests, rows of tied values, random disjoint groups and thresholds; column
    0 is constant, so its group's permutations change no row and it scores no row again."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 7))
    model = reference.forest([random_tree(rng, int(rng.integers(1, 10)), p)
                              for _ in range(int(rng.integers(1, 8)))], n_features=p)
    X = scoring_rows(rng, n_rows, p)[rng.integers(0, n_rows, size=n_rows)]  # repeated rows
    X[:, 0] = rng.choice(_POOL[np.isfinite(_POOL)])
    data = LabeledDataset(X=X, y=rng.integers(0, 2, size=n_rows), row_ids=list(range(n_rows)))
    cuts = np.sort(rng.choice(np.arange(1, p - 1), size=int(rng.integers(0, p - 1)), replace=False))
    parts = np.split(rng.permutation(np.arange(1, p)), cuts)  # columns 1..p-1 in random groups
    groups = [("constant", [0])] + [(f"g{i}", part.tolist()) for i, part in enumerate(parts)]
    groups = [groups[i] for i in rng.permutation(len(groups))]
    for chosen in (groups, None):
        got = permutation_importance(model, data, seed=seed, groups=chosen, threshold=threshold)
        assert_same_importance(got, reference.permutation_importance_stacked(
            model, data, seed=seed, groups=chosen, threshold=threshold))
        assert got.mda["constant" if chosen else "x0"] == 0.0

    scored = []
    real = forest_module.predict_forest
    with mock.patch.object(forest_module, "predict_forest",
                           lambda m, rows: scored.append(len(rows)) or real(m, rows)):
        permutation_importance(model, data, seed=seed, groups=[("constant", [0])])
    assert scored[0] == n_rows and not any(scored[1:]), scored  # the baseline, then no row


def test_permutation_importance_holds_one_group_of_copies_at_a_time():
    """Listing every group twice scores twice the copies at about the same traced peak."""
    rng = np.random.default_rng(1)
    model = reference.forest([random_tree(rng, 30, 6) for _ in range(50)], n_features=6)
    X = rng.normal(size=(3000, 6))
    data = LabeledDataset(X=X, y=rng.integers(0, 2, size=len(X)), row_ids=list(range(len(X))))
    groups = [(f"x{j}", [j]) for j in range(6)]
    twice = groups + [(f"{name} again", cols) for name, cols in groups]
    predict_forest(model, X[:10])  # the leaf tables, which the forest keeps, are built here
    peaks = []
    for chosen in (groups, twice):
        with traced_memory() as traced:
            permutation_importance(model, data, seed=0, groups=chosen)
        peaks.append(traced["peak"])
    assert peaks[1] <= 1.2 * peaks[0], peaks
