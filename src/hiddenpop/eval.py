"""Validation harness: split, confusion metrics, Cohen's kappa, ROC/AUC, k-fold CV.

Metrics with a zero denominator are reported as None ("undefined"), never 0;
cross-validation aggregates skip undefined folds and report how many were
skipped.
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
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    """Each metric is recomputable from the confusion matrix; None = undefined."""

    accuracy: float
    precision: float | None
    true_positive_rate: float | None
    f1: float | None
    kappa: float | None
    confusion: ConfusionMatrix

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def confusion_at(scores, labels, threshold: float = 0.5) -> ConfusionMatrix:
    """Counts at a threshold; a score exactly at the threshold classifies negative."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pred = (scores > threshold).astype(int)
    return ConfusionMatrix(
        tp=int(np.sum((pred == 1) & (labels == 1))),
        fp=int(np.sum((pred == 1) & (labels == 0))),
        fn=int(np.sum((pred == 0) & (labels == 1))),
        tn=int(np.sum((pred == 0) & (labels == 0))),
    )


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    total = cm.total
    if total == 0:
        raise HiddenPopError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / total
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) > 0 else None
    tpr = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else None
    if precision is None or tpr is None or (precision + tpr) == 0:
        f1 = None
    else:
        f1 = 2 * precision * tpr / (precision + tpr)
    # chance agreement from the marginal products
    p_e = ((cm.tp + cm.fp) * (cm.tp + cm.fn) + (cm.fn + cm.tn) * (cm.fp + cm.tn)) / total**2
    kappa = (accuracy - p_e) / (1.0 - p_e) if p_e < 1.0 else None
    return MetricsReport(accuracy, precision, tpr, f1, kappa, cm)


def evaluate(scores, labels, threshold: float = 0.5) -> MetricsReport:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(scores) != len(labels):
        raise HiddenPopError(f"{len(scores)} scores vs {len(labels)} labels")
    if len(scores) == 0:
        raise HiddenPopError("no predictions to evaluate")
    return metrics_from_confusion(confusion_at(scores, labels, threshold))


@dataclass
class RocCurve:
    points: np.ndarray   # (m, 2) array of (fpr, tpr), (0,0) .. (1,1)
    auc: float
    thresholds: np.ndarray


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
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    auc = float(trapezoid(tpr, fpr))
    return RocCurve(points=np.column_stack([fpr, tpr]), auc=auc, thresholds=thresholds)


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
    classes = np.unique(data.y)
    if len(classes) < 2:
        raise DataError("both classes must be present")
    n_train = round(ratio * n)
    rng = np.random.default_rng(seed)
    class_idx = [np.nonzero(data.y == c)[0] for c in classes]
    take = _stratified_allocation([len(ix) for ix in class_idx], n_train, ratio)
    if min(take) == 0:
        raise DataError(f"ratio {ratio} leaves a class out of the {n_train} training rows")
    train_idx, val_idx = [], []
    for ix, t in zip(class_idx, take):
        shuffled = rng.permutation(ix)
        train_idx.extend(shuffled[:t])
        val_idx.extend(shuffled[t:])
    return _subset(data, sorted(train_idx)), _subset(data, sorted(val_idx))


def stratified_folds(y, k: int, seed: int) -> list:
    """k index lists; stratified, overall fold sizes differing by at most 1.

    Shuffled indices are dealt class-by-class in one continuous round-robin
    over the folds, so per-class and total counts are both balanced.
    """
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    cursor = 0
    for c in np.unique(y):
        for i in rng.permutation(np.nonzero(y == c)[0]):
            folds[cursor % k].append(int(i))
            cursor += 1
    return [sorted(f) for f in folds]


@dataclass
class CvResult:
    fold_reports: list
    mean: dict
    sd: dict
    undefined_counts: dict


def kfold_cv(data: LabeledDataset, trainer, k: int = 10, seed: int = 0,
             threshold: float = 0.5) -> CvResult:
    """k stratified fits; trainer(train_data) must return a scores(X) callable."""
    n = len(data.y)
    if n < k:
        raise DataError(f"n={n} < k={k}")
    folds = stratified_folds(data.y, k, seed)
    reports = []
    for f, test_idx in enumerate(folds):
        train_idx = sorted(set(range(n)) - set(test_idx))
        train = _subset(data, train_idx)
        test = _subset(data, test_idx)
        if len(np.unique(train.y)) < 2:
            raise DataError(f"fold {f}: training part lost a class")
        score_fn = trainer(train)
        reports.append(evaluate(score_fn(test.X), test.y, threshold))
    mean, sd, undefined = {}, {}, {}
    for name in METRIC_NAMES:
        values = [getattr(r, name) for r in reports]
        defined = [v for v in values if v is not None]
        undefined[name] = len(values) - len(defined)
        mean[name] = float(np.mean(defined)) if defined else None
        sd[name] = float(np.std(defined, ddof=0)) if defined else None
    if any(undefined.values()):
        log.warning("CV aggregation skipped undefined metrics: %s", undefined)
    return CvResult(reports, mean, sd, undefined)
