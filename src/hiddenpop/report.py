"""CSV / markdown emission for every pipeline artifact.

All writers are atomic (temp file + rename) and format numbers with fixed
precision, so a rerun with the same inputs produces byte-identical files.
Undefined metrics are written as the literal string "undefined".
"""

from __future__ import annotations

import numpy as np

from .domain import MEMBERSHIP, PA_UNOBSERVED, BackgroundKind, pa_open
from .eval import CvResult, RocCurve, METRIC_NAMES
from .expand import PROVENANCES, BiasReport, DistributionTable, Expanded
from .ingest import _STANDARDIZERS, Coder, atomic_open, read_register, write_admin_csv, write_csv
from .models import ImportanceReport


def _fmt(value, digits=6):
    return "undefined" if value is None else f"{value:.{digits}f}"


def _write_markdown_table(path, header, rows, preamble=""):
    """The preamble, then a markdown table: the header, the |---| rule, one line per row."""
    with atomic_open(path) as f:
        f.write(preamble + "| " + " | ".join(header) + " |\n" + "|---" * len(header) + "|\n")
        for cells in rows:
            f.write("| " + " | ".join(map(str, cells)) + " |\n")


def write_metrics_markdown(path, reports: dict):
    """reports: model name -> ConfusionMatrix; one row per model."""
    _write_markdown_table(
        path, ["Model", "Accuracy", "Precision", "True positive rate", "F1 Score", "Kappa"],
        ([name] + [_fmt(getattr(r, m), 4) for m in METRIC_NAMES] for name, r in reports.items()))


def write_metrics_csv(path, reports: dict):
    write_csv(path, ["model"] + METRIC_NAMES + ["tp", "fp", "fn", "tn"],
              ([name] + [_fmt(getattr(r, m)) for m in METRIC_NAMES]
               + [r.tp, r.fp, r.fn, r.tn]
               for name, r in reports.items()))


def write_roc_csv(path, curve: RocCurve):
    rows = [[_fmt(fpr), _fmt(tpr), _fmt(float(thr))
             if thr not in (float("inf"), float("-inf")) else thr]
            for (fpr, tpr), thr in zip(curve.points, curve.thresholds)]
    write_csv(path, ["fpr", "tpr", "threshold"], rows + [["auc", _fmt(curve.auc), ""]])


def write_cv_csv(path, result: CvResult):
    rows = [[i] + [_fmt(getattr(r, m)) for m in METRIC_NAMES]
            for i, r in enumerate(result.fold_reports)]
    rows += [["mean"] + [_fmt(result.mean[m]) for m in METRIC_NAMES],
             ["sd"] + [_fmt(result.sd[m]) for m in METRIC_NAMES],
             ["n_undefined"] + [result.undefined_counts[m] for m in METRIC_NAMES]]
    write_csv(path, ["fold"] + METRIC_NAMES, rows)


def write_importance_csv(path, report: ImportanceReport):
    rows = [[rank, name, _fmt(report.mda[name])]
            for rank, name in enumerate(report.ranking, start=1)]
    write_csv(path, ["rank", "feature", "mean_decrease_accuracy"],
              rows + [["", "baseline_accuracy", _fmt(report.baseline_accuracy)]])


def write_distribution_csv(path, table: DistributionTable):
    write_csv(path, ["delta", "kind", "label", "count", "pct_of_all", "pct_of_members"],
              ([row["delta"], row["kind"], row["label"], row["count"],
                _fmt(row["pct_of_all"], 2), _fmt(row["pct_of_members"], 2)]
               for row in table.rows))


def write_distribution_markdown(path, table: DistributionTable):
    _write_markdown_table(
        path, ["delta", "kind", "count", "% of all", "% of members", "background"],
        ([row["delta"], row["kind"], row["count"], _fmt(row["pct_of_all"], 2),
          _fmt(row["pct_of_members"], 2), row["label"]] for row in table.rows),
        preamble=f"Register records: {table.n_total}; "
                 f"estimated members: {table.n_members}\n\n")


def write_bias_csv(path, report: BiasReport):
    flagged = {(var, level) for var, level, _gap in report.flagged}
    write_csv(path, ["variable", "level", "population_share", "sample_share", "gap_pp", "flagged"],
              ([var, level, _fmt(pop, 2), _fmt(sample, 2), _fmt(gap, 2),
                int((var, level) in flagged)]
               for var, table in report.variables.items()
               for level, (pop, sample, gap) in table.items()))


def write_bias_plot(path, table: dict):
    """Plot data of one BiasReport variable: level -> (population, sample, gap)."""
    write_csv(path, ["level", "population_share", "sample_share"],
              ([level, _fmt(pop, 2), _fmt(sample, 2)]
               for level, (pop, sample, _gap) in table.items()))


_MEMBERSHIP_COLUMNS = ["delta", "kind", "provenance", "predicted_score"]
_DIGITS = [str(d) for d in range(10)]


def write_expanded_csv(path, expanded: Expanded):
    """Original register columns plus delta, kind, provenance, predicted_score, in link_key
    order; each distinct score is formatted once, and the NaN score as the empty cell."""
    scores = ["" if np.isnan(s) else _fmt(s) for s in expanded.score_levels.tolist()]
    write_admin_csv(path, expanded.register, dict(zip(_MEMBERSHIP_COLUMNS, [
        (_DIGITS, expanded.delta), (_DIGITS, expanded.kind), (PROVENANCES, expanded.provenance),
        (scores, expanded.score_codes)])), expanded.register.key_order)


def _first_fault(register, coders):
    """(position, reason) of the first row that write_expanded_csv could not write, or None.

    A row's reason is its first fault below; a column name stands for the error
    of its cell there, which its coder rejected.
    """
    codes, levels, bp, cit = register.codes, register.levels, register.bp, register.cit
    delta, kind, provenance, score = (codes[c] for c in _MEMBERSHIP_COLUMNS)
    predicted = provenance == PROVENANCES.index("predicted")
    # expand_dataset's (delta, kind): an exact row takes the pair bp and cit settle, a linked
    # row a pair of pa 0 or 1 that differs from it, a predicted row either, inside (1,1) only
    found = np.stack([delta, kind], axis=1)[:, None]
    settled, by_pa = MEMBERSHIP[bp, cit, PA_UNOBSERVED], MEMBERSHIP[bp, cit, :2]
    exact = (found[:, 0] == settled).all(axis=1)
    from_pa = (found == by_pa).all(axis=2).any(axis=1)
    allowed = np.choose(provenance, [exact, from_pa & ~exact, from_pa & pa_open(bp, cit)],
                        mode="clip")
    faults = [*((codes[c] < 0, c) for c in codes if c != "predicted_score"),
              (kind >= len(BackgroundKind), "{kind} is not a valid BackgroundKind"),
              ((delta == 0) != (kind == 0), "inconsistent delta={delta} kind={kind}"),
              (provenance >= len(PROVENANCES), "bad provenance {provenance!r}"),
              (~allowed, "delta={delta} kind={kind} provenance={provenance!r} is not allowed for "
               "bp={bp} cit={cit}"),
              (score < 0, "predicted_score"),
              (predicted & (score == 0), "predicted record without a score"),
              (~predicted & (score > 0), "predicted_score on a non-predicted record")]
    bad = np.array([mask for mask, _ in faults])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        cells = {c: levels[c][a[i]] if a[i] >= 0 else coders[c].errors[-1 - a[i]]
                 for c, a in codes.items()}
        reason = faults[int(np.argmax(bad[:, i]))][1]
        return i, cells.get(reason) or reason.format(bp=bp[i], cit=cit[i], **cells)


def _score(cell):
    """An empty score cell as None, any other as a float in [0, 1] (so not NaN), -0 as 0.0."""
    if cell and not 0 <= float(cell) <= 1:
        raise ValueError(f"predicted_score {cell!r} is not in [0, 1]")
    return float(cell) + 0.0 if cell else None


def read_expanded_csv(path) -> Expanded:
    """Read write_expanded_csv's output, each register cell standardized as parse_admin does.
    DataError names a missing column, or the first line with too few fields, a NUL or
    repeated link_key, a cell parse_admin would reject, or a fault _first_fault finds."""
    coders = {c: Coder(s) for c, s in _STANDARDIZERS.items()}
    # valid membership values come first: a valid delta or kind codes as its value, a
    # provenance as its index in PROVENANCES, and an empty score (read as None) as 0
    coders.update(delta=Coder(int, (0, 1)), kind=Coder(int, range(len(BackgroundKind))),
                  provenance=Coder(None, PROVENANCES), predicted_score=Coder(_score, [None]))
    register = read_register(path, coders, check=_first_fault)
    codes = [register.codes.pop(c) for c in _MEMBERSHIP_COLUMNS]
    scores = np.array(register.levels.pop("predicted_score"), dtype=float)
    for c in _MEMBERSHIP_COLUMNS[:3]:
        del register.levels[c]
    return Expanded(register, *(a.astype(np.int8) for a in codes[:3]), scores, codes[3])


def write_correlation_csv(path, corr: dict):
    names = corr["names"]
    write_csv(path, [""] + names,
              ([name] + [_fmt(v, 4) for v in row] for name, row in zip(names, corr["matrix"])))
