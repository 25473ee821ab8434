"""CSV / markdown emission for every pipeline artifact.

All writers are atomic (temp file + rename) and format numbers with fixed
precision, so a rerun with the same inputs produces byte-identical files.
Undefined metrics are written as the literal string "undefined".
"""

from __future__ import annotations

import csv

import numpy as np

from .domain import MEMBERSHIP, PA_UNOBSERVED, BackgroundKind, MigrantBackground
from .errors import DataError
from .eval import CvResult, MetricsReport, RocCurve, METRIC_NAMES
from .expand import PROVENANCES, BiasReport, DistributionTable, Expanded
from .ingest import (ADMIN_COLUMNS, ITALY, Coder, Register, atomic_open, read_csv,
                     write_admin_csv)
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


def write_bias_csv(path, report: BiasReport):
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


def write_bias_plot(path, table: dict):
    """Plot data of one BiasReport variable: level -> (population, sample, gap)."""
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["level", "population_share", "sample_share"])
        for level, (pop, sample, _gap) in table.items():
            writer.writerow([level, _fmt(pop, 2), _fmt(sample, 2)])


_MEMBERSHIP_COLUMNS = ["delta", "kind", "provenance", "predicted_score"]
_EXPANDED_COLUMNS = ADMIN_COLUMNS + _MEMBERSHIP_COLUMNS
_DIGITS = np.array([str(d) for d in range(10)], dtype=object)


def write_expanded_csv(path, expanded: Expanded):
    """Original register columns plus delta, kind, provenance, predicted_score."""
    provenance_text = np.array(PROVENANCES, dtype=object)
    predicted = PROVENANCES.index("predicted")

    def membership_cells(rows):
        provenance = expanded.provenance[rows]
        scores = [_fmt(s) if p == predicted else ""
                  for s, p in zip(expanded.score[rows].tolist(), provenance.tolist())]
        return [_DIGITS[expanded.delta[rows]], _DIGITS[expanded.kind[rows]],
                provenance_text[provenance], scores]

    write_admin_csv(path, expanded.register, _MEMBERSHIP_COLUMNS, membership_cells)


_INT_FIELDS = ("enrollment_year", "years_enrolled", "ects_earned")


def _membership(row: dict) -> tuple:
    """(delta, kind, provenance index, score) of one written row; ValueError unless allowed."""
    bp, cit = int(row["birth_country"] == ITALY), int(row["citizenship_country"] == ITALY)
    bg = MigrantBackground(int(row["delta"]), BackgroundKind(int(row["kind"])))
    found, provenance, score = [bg.delta, int(bg.kind)], row["provenance"], row["predicted_score"]
    if provenance not in PROVENANCES:
        raise ValueError(f"bad provenance {provenance!r}")
    # exact: bp/cit settle the row; linked: an observed pa decides what they do not
    # (inside (1,1), or pa = 1 at (0,1)); predicted: an imputed pa, inside (1,1) only
    settled = MEMBERSHIP[bp, cit, PA_UNOBSERVED].tolist()
    observed = MEMBERSHIP[bp, cit, :2].tolist()
    if not {"exact": found == settled, "linked": found in observed and found != settled,
            "predicted": found in observed and (bp, cit) == (1, 1)}[provenance]:
        raise ValueError(
            f"delta={bg.delta} kind={int(bg.kind)} provenance={provenance!r} is not "
            f"allowed for bp={bp} cit={cit}"
        )
    value = float(score) if score else np.nan
    if provenance == "predicted" and not score:
        raise ValueError("predicted record without a score")
    return (*found, PROVENANCES.index(provenance), value)


def read_expanded_csv(path) -> Expanded:
    """Read write_expanded_csv's output; a forbidden row or a repeated key raises DataError."""
    coders = {c: Coder(int if c in _INT_FIELDS else None) for c in ADMIN_COLUMNS[1:]}
    lines, codes, found = {}, [], []  # lines: link_key -> line, in file order
    for lineno, row in read_csv(path, _EXPANDED_COLUMNS):
        key = row["link_key"]
        if key in lines:
            raise DataError(f"{path}:{lineno}: link_key {key!r} already on line {lines[key]}")
        try:
            codes.append([coders[c][row[c]] for c in coders])
            if min(codes[-1]) < 0:  # only an int column codes a value as -1
                for c in _INT_FIELDS:
                    int(row[c])
            found.append(_membership(row))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        lines[key] = lineno
    codes = np.array(codes, dtype=np.int32).reshape(-1, len(coders)).T
    delta, kind, provenance, score = np.array(found).reshape(-1, 4).T
    register = Register(np.array(list(lines), dtype=object), dict(zip(coders, codes)),
                        {c: coder.levels for c, coder in coders.items()})
    return Expanded(register, *(a.astype(np.int8) for a in (delta, kind, provenance)), score)


def write_correlation_csv(path, corr: dict):
    names = corr["names"]
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow([""] + names)
        for name, row in zip(names, corr["matrix"]):
            writer.writerow([name] + [_fmt(v, 4) for v in row])
