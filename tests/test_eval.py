"""Metrics, ROC/AUC, stratified splitting and cross-validation."""

import csv
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hiddenpop.errors import DataError, HiddenPopError
from hiddenpop.eval import (
    METRIC_NAMES,
    ConfusionMatrix,
    CvResult,
    _stratified_allocation,
    evaluate,
    kfold_cv,
    roc,
    split_train_validate,
    stratified_folds,
)
from hiddenpop.features import LabeledDataset
from hiddenpop.models import logistic_trainer
from hiddenpop.report import write_cv_csv


def test_fixture_confusion_metrics():
    r = ConfusionMatrix(tp=3, fp=1, fn=2, tn=4)
    assert r.accuracy == 0.7
    assert r.precision == 0.75
    assert r.true_positive_rate == 0.6
    assert abs(r.f1 - 2 / 3) < 1e-12


def test_tie_at_threshold_classifies_negative():
    cm = evaluate(np.array([0.5, 0.5001]), np.array([1, 1]), threshold=0.5)
    assert (cm.tp, cm.fn) == (1, 1)


def test_undefined_metrics_are_none_not_zero():
    # nothing predicted positive -> precision undefined
    r = evaluate(np.array([0.1, 0.2]), np.array([0, 1]))
    assert r.precision is None
    assert r.f1 is None
    assert r.true_positive_rate == 0.0
    # no actual positives -> TPR undefined
    r = evaluate(np.array([0.9, 0.1]), np.array([0, 0]))
    assert r.true_positive_rate is None


def test_kappa_known_value():
    # accuracy 0.7, chance agreement (4*5 + 5*6)/100 = 0.5 -> kappa 0.4
    r = ConfusionMatrix(tp=3, fp=1, fn=2, tn=4)
    assert abs(r.kappa - 0.4) < 1e-12


def test_roc_edge_cases():
    assert roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]).auc == 1.0
    assert roc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]).auc == 0.5
    assert roc([0.1, 0.2, 0.8], [1, 1, 0]).auc == 0.0
    with pytest.raises(DataError, match="ROC needs both classes"):
        roc([0.1, 0.2], [1, 1])


def test_roc_equals_pair_counting_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=60) / 4.0  # heavy ties
    labels = rng.integers(0, 2, size=60)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    curve = roc(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    assert abs(curve.auc - wins / (len(pos) * len(neg))) < 1e-12


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(1)
    curve = roc(rng.random(100), rng.integers(0, 2, size=100))
    pts = curve.points
    np.testing.assert_array_equal(pts[0], [0, 0])
    np.testing.assert_array_equal(pts[-1], [1, 1])
    assert np.all(np.diff(pts[:, 0]) >= 0)
    assert np.all(np.diff(pts[:, 1]) >= 0)


def make_data(n_pos, n_neg, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_pos + n_neg, 2))
    y = np.r_[np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)]
    X[:, 0] += y  # signal so the trainers have something to fit
    return LabeledDataset(X=X, y=y, row_ids=[str(i) for i in range(n_pos + n_neg)])


def test_split_sizes_and_stratification_paper_shape():
    data = make_data(312, 402)
    train, val = split_train_validate(data, ratio=0.75, seed=0)
    assert len(train.y) == round(0.75 * 714) == 536
    assert len(val.y) == 178
    # per-class allocation by largest remainder
    assert int(train.y.sum()) == 234
    assert int(val.y.sum()) == 78
    assert set(train.row_ids).isdisjoint(val.row_ids)
    assert sorted(train.row_ids + val.row_ids) == sorted(data.row_ids)


def test_split_is_seeded():
    data = make_data(30, 30)
    a, _ = split_train_validate(data, seed=5)
    b, _ = split_train_validate(data, seed=5)
    c, _ = split_train_validate(data, seed=6)
    assert a.row_ids == b.row_ids
    assert a.row_ids != c.row_ids


def test_scores_and_labels_must_pair_up():
    with pytest.raises(HiddenPopError, match="^3 scores vs 2 labels$"):
        evaluate([0.1, 0.2, 0.9], [0, 1])
    with pytest.raises(HiddenPopError, match="^no predictions to evaluate$"):
        evaluate([], [])
    with pytest.raises(HiddenPopError, match="^1 scores vs 2 labels$"):
        roc([0.5], [0, 1])


def test_split_needs_both_classes():
    with pytest.raises(DataError, match="^both classes must be present$"):
        split_train_validate(make_data(0, 10))


def test_split_too_small():
    with pytest.raises(DataError, match="need at least 8 rows"):
        split_train_validate(make_data(3, 4))


def test_split_leaving_a_class_out_of_training():
    with pytest.raises(DataError, match="^ratio 0.5 leaves a class out of the 5 training rows$"):
        split_train_validate(make_data(1, 9), ratio=0.5)
    with pytest.raises(DataError, match="^ratio 0.9 leaves a class out of the 1 validation rows$"):
        split_train_validate(make_data(1, 9), ratio=0.9)


def test_stratified_folds_balanced():
    y = np.r_[np.ones(31, dtype=int), np.zeros(44, dtype=int)]
    fold = stratified_folds(y, k=10, seed=0)
    assert fold.shape == (75,) and 0 <= fold.min() and fold.max() < 10  # one fold per row
    sizes = np.bincount(fold, minlength=10)
    assert sizes.sum() == 75
    assert max(sizes) - min(sizes) <= 1
    pos = np.bincount(fold[y == 1], minlength=10)
    assert max(pos) - min(pos) <= 1


def list_folds(y, k, seed):
    """The fold lists that stratified_folds's array replaced: k sorted index lists."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    cursor = 0
    for c in (0, 1):
        for i in rng.permutation(np.nonzero(y == c)[0]):
            folds[cursor % k].append(int(i))
            cursor += 1
    return [sorted(f) for f in folds]


def list_split(y, ratio, seed):
    """The sorted training and validation rows of the list code split_train_validate
    replaced, or None where it leaves a class out of training or of validation."""
    n_train = round(ratio * len(y))
    rng = np.random.default_rng(seed)
    class_idx = [np.nonzero(y == c)[0] for c in (0, 1)]
    take = _stratified_allocation([len(ix) for ix in class_idx], n_train, ratio)
    if min(take) == 0 or any(t == len(ix) for t, ix in zip(take, class_idx)):
        return None
    train_idx, val_idx = [], []
    for ix, t in zip(class_idx, take):
        shuffled = rng.permutation(ix)
        train_idx.extend(shuffled[:t])
        val_idx.extend(shuffled[t:])
    return sorted(train_idx), sorted(val_idx)


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.integers(0, 1), min_size=8, max_size=60).filter(lambda y: len(set(y)) == 2),
       k=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
       ratio=st.floats(0.05, 0.95))
def test_fold_array_and_split_mask_equal_the_list_code(y, k, seed, ratio):
    y = np.array(y)
    fold = stratified_folds(y, k, seed)
    assert [np.flatnonzero(fold == f).tolist() for f in range(k)] == list_folds(y, k, seed)
    data = LabeledDataset(X=np.arange(len(y), dtype=float)[:, None], y=y,
                          row_ids=[str(i) for i in range(len(y))])
    want = list_split(y, ratio, seed)
    if want is None:
        with pytest.raises(DataError, match="leaves a class out"):
            split_train_validate(data, ratio=ratio, seed=seed)
        return
    train, val = split_train_validate(data, ratio=ratio, seed=seed)
    assert [train.row_ids, val.row_ids] == [[str(i) for i in rows] for rows in want]
    assert train.X[:, 0].tolist() == [float(i) for i in want[0]]


def test_kfold_cv_runs_and_aggregates():
    data = make_data(60, 80)
    result = kfold_cv(data, logistic_trainer(), k=5, seed=0)
    assert len(result.fold_reports) == 5
    assert 0.5 < result.mean["accuracy"] <= 1.0
    assert result.sd["accuracy"] >= 0.0
    assert result.undefined_counts["accuracy"] == 0


def per_fold_cv(data, trainer, k, seed, threshold=0.5):
    """kfold_cv as a loop that copies each fold's test rows and scores them alone."""
    fold = stratified_folds(data.y, k, seed)
    reports = []
    for f in range(k):
        train, test = [LabeledDataset(X=data.X[rows], y=data.y[rows],
                                      row_ids=[data.row_ids[i] for i in rows])
                       for rows in (np.flatnonzero(fold != f), np.flatnonzero(fold == f))]
        reports.append(evaluate(trainer(train)(test.X), test.y, threshold))
    return CvResult(reports)


@settings(max_examples=100, deadline=None)
@given(n_pos=st.integers(2, 40), n_neg=st.integers(2, 40), k=st.integers(2, 10),
       seed=st.integers(0, 2**32 - 1), logistic=st.booleans())
def test_kfold_cv_equals_the_per_fold_loop(n_pos, n_neg, k, seed, logistic):
    """Two or more rows of each class keep both classes in every fold's training part."""
    assume(n_pos + n_neg >= k)
    data = make_data(n_pos, n_neg, seed)
    trainer = logistic_trainer() if logistic else (lambda train: lambda X: X[:, 0] - 0.5)
    got, want = kfold_cv(data, trainer, k=k, seed=seed), per_fold_cv(data, trainer, k, seed)
    assert got.fold_reports == want.fold_reports
    assert (got.mean, got.sd, got.undefined_counts) == (
        want.mean, want.sd, want.undefined_counts)


def test_kfold_cv_metric_defined_in_one_fold(tmp_path, caplog):
    """Only the fold holding row 0 predicts a positive, so only it defines precision:
    the aggregates skip the other k - 1 folds, and one value has sd 0."""
    data = make_data(10, 10)
    data.X[:] = 0.0
    data.X[0, 0] = 1.0
    k = 5
    result = kfold_cv(data, lambda train: lambda X: X[:, 0], k=k, seed=0)
    assert [r.precision is not None for r in result.fold_reports].count(True) == 1
    assert (result.mean["precision"], result.sd["precision"]) == (1.0, 0.0)
    assert result.undefined_counts["precision"] == k - 1
    assert "CV aggregation skipped undefined metrics" in caplog.text
    path = tmp_path / "cv.csv"
    write_cv_csv(path, result)
    rows = {row[0]: dict(zip(METRIC_NAMES, row[1:]))
            for row in csv.reader(io.StringIO(path.read_text()))}
    assert rows["sd"]["precision"] == "0.000000"
    assert rows["n_undefined"]["precision"] == str(k - 1)


def test_kfold_cv_fold_whose_training_part_lost_a_class():
    """The one positive is dealt last, to fold 4, so fold 4 trains on negatives only."""
    with pytest.raises(DataError, match="^fold 4: training part lost a class$"):
        kfold_cv(make_data(1, 9), lambda train: lambda X: X[:, 0], k=5)


def test_kfold_cv_too_few_rows():
    with pytest.raises(DataError, match="n=8 < k=10"):
        kfold_cv(make_data(4, 4), logistic_trainer(), k=10)
