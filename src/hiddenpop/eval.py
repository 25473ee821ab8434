"""Validation harness: split, confusion metrics, Cohen's kappa, ROC/AUC, k-fold CV.

Each result holds only what it counted, and derives its figures from that: a
confusion matrix its metrics, a ROC curve its AUC, a CV result its aggregates.
Metrics with a zero denominator are reported as None ("undefined"), never 0;
cross-validation aggregates skip undefined folds and report how many were
skipped, so a metric that one fold defines has sd 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, HiddenPopError
from .features import LabeledDataset

log = logging.getLogger(__name__)

METRIC_NAMES = ["accuracy", "precision", "true_positive_rate", "f1", "kappa"]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts at a threshold, and the metrics they define; None = undefined."""

    tp: int
    fp: int
    fn: int
    tn: int

    total = property(lambda self: self.tp + self.fp + self.fn + self.tn)
    accuracy = property(lambda self: (self.tp + self.tn) / self.total)
    precision = property(
        lambda self: self.tp / (self.tp + self.fp) if (self.tp + self.fp) > 0 else None)
    true_positive_rate = property(
        lambda self: self.tp / (self.tp + self.fn) if (self.tp + self.fn) > 0 else None)

    @property
    def f1(self) -> float | None:
        precision, tpr = self.precision, self.true_positive_rate
        if precision is None or tpr is None or (precision + tpr) == 0:
            return None
        return 2 * precision * tpr / (precision + tpr)

    @property
    def kappa(self) -> float | None:
        # chance agreement from the marginal products
        p_e = ((self.tp + self.fp) * (self.tp + self.fn)
               + (self.fn + self.tn) * (self.fp + self.tn)) / self.total**2
        return (self.accuracy - p_e) / (1.0 - p_e) if p_e < 1.0 else None

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def evaluate(scores, labels, threshold: float = 0.5) -> ConfusionMatrix:
    """Counts at a threshold; a score exactly at the threshold classifies negative."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(scores) != len(labels):
        raise HiddenPopError(f"{len(scores)} scores vs {len(labels)} labels")
    if len(scores) == 0:
        raise HiddenPopError("no predictions to evaluate")
    pred = (scores > threshold).astype(int)
    return ConfusionMatrix(
        tp=int(np.sum((pred == 1) & (labels == 1))),
        fp=int(np.sum((pred == 1) & (labels == 0))),
        fn=int(np.sum((pred == 0) & (labels == 1))),
        tn=int(np.sum((pred == 0) & (labels == 0))),
    )


@dataclass
class RocCurve:
    points: np.ndarray   # (m, 2) array of (fpr, tpr), (0,0) .. (1,1)
    thresholds: np.ndarray

    @property
    def auc(self) -> float:
        return float(np.trapezoid(self.points[:, 1], self.points[:, 0]))


def roc(scores, labels) -> RocCurve:
    """Staircase ROC swept over the distinct observed scores; AUC by trapezoid.

    The trapezoid over these exact points equals the Mann-Whitney pair
    statistic with ties counted one half.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(scores) != len(labels):
        raise HiddenPopError(f"{len(scores)} scores vs {len(labels)} labels")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # collapse tied scores so each distinct value contributes one step
    distinct = np.nonzero(np.diff(s))[0]
    block_ends = np.r_[distinct, len(s) - 1]
    tp = np.cumsum(y)[block_ends]
    fp = block_ends + 1 - tp
    tpr = np.r_[0.0, tp / n_pos, 1.0]
    fpr = np.r_[0.0, fp / n_neg, 1.0]
    thresholds = np.r_[np.inf, s[block_ends], -np.inf]
    return RocCurve(points=np.column_stack([fpr, tpr]), thresholds=thresholds)


def _subset(data: LabeledDataset, idx) -> LabeledDataset:
    idx = np.asarray(idx, dtype=int)
    return LabeledDataset(X=data.X[idx], y=data.y[idx], row_ids=[data.row_ids[i] for i in idx])


def _stratified_allocation(class_sizes, n_take, ratio):
    """Per-class train counts: floor of ratio*n_c, largest remainder to reach n_take."""
    ideal = [ratio * n_c for n_c in class_sizes]
    take = [int(np.floor(v)) for v in ideal]
    remainders = sorted(range(len(class_sizes)), key=lambda c: ideal[c] - take[c], reverse=True)
    for c in remainders[:n_take - sum(take)]:
        take[c] += 1
    return take


def split_train_validate(data: LabeledDataset, ratio: float = 0.75, seed: int = 0):
    """Stratified split; |train| = round(ratio*n) (banker's rounding), disjoint+exhaustive."""
    n = len(data.y)
    if n < 8:
        raise DataError(f"need at least 8 rows, got {n}")
    if data.y.min() == data.y.max():
        raise DataError("both classes must be present")
    n_train = round(ratio * n)
    rng = np.random.default_rng(seed)
    class_idx = [np.flatnonzero(data.y == c) for c in (0, 1)]
    take = _stratified_allocation([len(ix) for ix in class_idx], n_train, ratio)
    if min(take) == 0:
        raise DataError(f"ratio {ratio} leaves a class out of the {n_train} training rows")
    if any(t == len(ix) for t, ix in zip(take, class_idx)):
        raise DataError(f"ratio {ratio} leaves a class out of the {n - n_train} validation rows")
    train = np.zeros(n, dtype=bool)
    for ix, t in zip(class_idx, take):
        train[rng.permutation(ix)[:t]] = True
    return _subset(data, np.flatnonzero(train)), _subset(data, np.flatnonzero(~train))


def stratified_folds(y, k: int, seed: int) -> np.ndarray:
    """Each row's fold, 0 to k - 1; stratified, fold sizes differing by at most 1.

    The shuffled rows of class 0, then of class 1, are dealt in one continuous
    round-robin over the folds, so per-class and total counts are both balanced.
    """
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    dealt = np.concatenate([rng.permutation(np.flatnonzero(y == c)) for c in (0, 1)])
    fold = np.empty(len(y), dtype=np.intp)
    fold[dealt] = np.arange(len(y)) % k
    return fold


@dataclass
class CvResult:
    """Each fold's confusion matrix; the aggregates skip the folds a metric is undefined in."""

    fold_reports: list

    def _defined(self, name) -> list:
        return [v for r in self.fold_reports if (v := getattr(r, name)) is not None]

    def _aggregate(self, statistic) -> dict:
        return {name: float(statistic(v)) if (v := self._defined(name)) else None
                for name in METRIC_NAMES}

    mean = property(lambda self: self._aggregate(np.mean))
    sd = property(lambda self: self._aggregate(np.std))  # population sd, ddof 0
    undefined_counts = property(lambda self: {
        name: len(self.fold_reports) - len(self._defined(name)) for name in METRIC_NAMES})


def kfold_cv(data: LabeledDataset, trainer, k: int = 10, seed: int = 0,
             threshold: float = 0.5) -> CvResult:
    """k stratified fits; trainer(train_data) must return a scores(X) callable."""
    n = len(data.y)
    if n < k:
        raise DataError(f"n={n} < k={k}")
    fold = stratified_folds(data.y, k, seed)
    scores = np.empty(n)  # each row's out-of-fold score
    for f in range(k):
        train = _subset(data, np.flatnonzero(fold != f))
        if train.y.min() == train.y.max():
            raise DataError(f"fold {f}: training part lost a class")
        scores[fold == f] = trainer(train)(data.X[fold == f])
    result = CvResult([evaluate(scores[fold == f], data.y[fold == f], threshold) for f in range(k)])
    undefined = result.undefined_counts
    if any(undefined.values()):
        log.warning("CV aggregation skipped undefined metrics: %s", undefined)
    return result
