"""CSV / markdown emission for every pipeline artifact.

All writers are atomic (temp file + rename) and format numbers with fixed
precision, so a rerun with the same inputs produces byte-identical files.
Undefined metrics are written as the literal string "undefined".
"""

from __future__ import annotations

import csv
from pathlib import Path

from .domain import BackgroundKind, MigrantBackground, compute_delta_type
from .errors import DataError
from .eval import CvResult, MetricsReport, RocCurve, METRIC_NAMES
from .expand import BiasReport, DistributionTable, ExpandedRecord
from .ingest import ADMIN_COLUMNS, AdminRecord, atomic_open, read_csv
from .models import ImportanceReport


def _fmt(value, digits=6):
    return "undefined" if value is None else f"{value:.{digits}f}"


def write_metrics_markdown(path, reports: dict):
    """reports: model name -> MetricsReport; one row per model."""
    with atomic_open(path) as f:
        f.write("| Model | Accuracy | Precision | True positive rate | F1 Score | Kappa |\n")
        f.write("|---|---|---|---|---|---|\n")
        for name, r in reports.items():
            f.write(
                f"| {name} | {_fmt(r.accuracy, 4)} | {_fmt(r.precision, 4)} | "
                f"{_fmt(r.true_positive_rate, 4)} | {_fmt(r.f1, 4)} | {_fmt(r.kappa, 4)} |\n"
            )


def write_metrics_csv(path, reports: dict):
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["model"] + METRIC_NAMES + ["tp", "fp", "fn", "tn"])
        for name, r in reports.items():
            cm = r.confusion
            writer.writerow(
                [name] + [_fmt(getattr(r, m)) for m in METRIC_NAMES]
                + [cm.tp, cm.fp, cm.fn, cm.tn]
            )


def write_roc_csv(path, curve: RocCurve):
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["fpr", "tpr", "threshold"])
        for (fpr, tpr), thr in zip(curve.points, curve.thresholds):
            writer.writerow([_fmt(fpr), _fmt(tpr), _fmt(float(thr))
                             if thr not in (float("inf"), float("-inf")) else thr])
        writer.writerow(["auc", _fmt(curve.auc), ""])


def write_cv_csv(path, result: CvResult):
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["fold"] + METRIC_NAMES)
        for i, r in enumerate(result.fold_reports):
            writer.writerow([i] + [_fmt(getattr(r, m)) for m in METRIC_NAMES])
        writer.writerow(["mean"] + [_fmt(result.mean[m]) for m in METRIC_NAMES])
        writer.writerow(["sd"] + [_fmt(result.sd[m]) for m in METRIC_NAMES])
        writer.writerow(["n_undefined"] + [result.undefined_counts[m] for m in METRIC_NAMES])


def write_importance_csv(path, report: ImportanceReport):
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["rank", "feature", "mean_decrease_accuracy"])
        for rank, name in enumerate(report.ranking, start=1):
            writer.writerow([rank, name, _fmt(report.mda[name])])
        writer.writerow(["", "baseline_accuracy", _fmt(report.baseline_accuracy)])


def write_distribution_csv(path, table: DistributionTable):
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["delta", "kind", "label", "count", "pct_of_all", "pct_of_members"])
        for row in table.rows:
            writer.writerow([
                row["delta"], row["kind"], row["label"], row["count"],
                _fmt(row["pct_of_all"], 2), _fmt(row["pct_of_members"], 2),
            ])


def write_distribution_markdown(path, table: DistributionTable):
    with atomic_open(path) as f:
        f.write(f"Register records: {table.n_total}; "
                f"estimated members: {table.n_members}\n\n")
        f.write("| delta | kind | count | % of all | % of members | background |\n")
        f.write("|---|---|---|---|---|---|\n")
        for row in table.rows:
            f.write(
                f"| {row['delta']} | {row['kind']} | {row['count']} | "
                f"{_fmt(row['pct_of_all'], 2)} | {_fmt(row['pct_of_members'], 2)} | "
                f"{row['label']} |\n"
            )


def write_bias_csv(path, report: BiasReport, *, plot_data_dir=None):
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["variable", "level", "population_share",
                         "sample_share", "gap_pp", "flagged"])
        for var, table in report.variables.items():
            for level, (pop, sample, gap) in table.items():
                writer.writerow([
                    var, level, _fmt(pop, 2), _fmt(sample, 2), _fmt(gap, 2),
                    int(abs(gap) >= report.alert_threshold),
                ])
    if plot_data_dir is not None:
        plot_data_dir = Path(plot_data_dir)
        plot_data_dir.mkdir(parents=True, exist_ok=True)
        for var, table in report.variables.items():
            with atomic_open(plot_data_dir / f"bias_{var}.csv") as f:
                writer = csv.writer(f)
                writer.writerow(["level", "population_share", "sample_share"])
                for level, (pop, sample, _gap) in table.items():
                    writer.writerow([level, _fmt(pop, 2), _fmt(sample, 2)])


_EXPANDED_COLUMNS = ADMIN_COLUMNS + ["delta", "kind", "provenance", "predicted_score"]


def write_expanded_csv(path, expanded: list[ExpandedRecord]):
    """Original register columns plus delta, kind, provenance, predicted_score."""
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(_EXPANDED_COLUMNS)
        for e in expanded:
            writer.writerow(
                [getattr(e.record, c) for c in ADMIN_COLUMNS]
                + [e.delta, int(e.kind), e.provenance,
                   "" if e.predicted_score is None else _fmt(e.predicted_score)]
            )


_INT_FIELDS = {"enrollment_year", "years_enrolled", "ects_earned"}


def _expanded_row(row: dict) -> ExpandedRecord:
    """One written row back as a record; ValueError unless the domain allows it."""
    record = AdminRecord(**{
        c: int(row[c]) if c in _INT_FIELDS else row[c] for c in ADMIN_COLUMNS
    })
    bg = MigrantBackground(int(row["delta"]), BackgroundKind(int(row["kind"])))
    provenance = row["provenance"]
    if (record.bp, record.cit) == (1, 1):
        allowed = provenance != "exact" and bg in (
            compute_delta_type(1, 1, 0), compute_delta_type(1, 1, 1))
    else:
        allowed = provenance == "exact" and bg == compute_delta_type(record.bp, record.cit, 0)
    if not allowed:
        raise ValueError(
            f"delta={bg.delta} kind={int(bg.kind)} provenance={provenance!r} is not "
            f"allowed for bp={record.bp} cit={record.cit}"
        )
    score = row["predicted_score"]
    return ExpandedRecord(record=record, delta=bg.delta, kind=bg.kind, provenance=provenance,
                          predicted_score=float(score) if score else None)


def read_expanded_csv(path) -> list[ExpandedRecord]:
    """Read write_expanded_csv's output; a row the domain forbids raises DataError."""
    out = []
    for lineno, row in read_csv(path, _EXPANDED_COLUMNS):
        try:
            out.append(_expanded_row(row))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out


def write_correlation_csv(path, corr: dict):
    names = corr["names"]
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow([""] + names)
        for name, row in zip(names, corr["matrix"]):
            writer.writerow([name] + [_fmt(v, 4) for v in row])
