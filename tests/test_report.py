"""Artifact writers: formatting, atomicity, round trips, byte stability."""

import csv
import io
import os
import stat
from contextlib import contextmanager

import numpy as np
import pytest

import hiddenpop.ingest
import hiddenpop.models.io
from hiddenpop.domain import MEMBERSHIP, PA_UNOBSERVED, BackgroundKind
from hiddenpop.errors import DataError
from hiddenpop.eval import ConfusionMatrix, CvResult, RocCurve, evaluate, roc
from hiddenpop.expand import PROVENANCES, BiasReport, DistributionTable, Expanded
from hiddenpop.expand import expand_dataset, impute_pa, tabulate_population
from hiddenpop.ingest import (ADMIN_COLUMNS, ITALY, SurveyRecord,
                              parse_admin, write_admin_csv, write_name_table, write_survey_csv)
from hiddenpop.models.io import load_model, save_model
from hiddenpop.models import ImportanceReport, fit_logistic, fit_forest
from hiddenpop.report import (
    atomic_open,
    read_expanded_csv,
    write_bias_csv,
    write_correlation_csv,
    write_cv_csv,
    write_distribution_csv,
    write_distribution_markdown,
    write_expanded_csv,
    write_importance_csv,
    write_metrics_csv,
    write_metrics_markdown,
    write_roc_csv,
)

from register_reference import register_from_columns, register_of, register_rows
from test_ingest import make_admin


def expanded_of(records, deltas, kinds, provenances, scores):
    """An Expanded from per-row facts, as expand_dataset would hold them."""
    return Expanded(register_of(records), np.array(deltas), np.array(kinds),
                    np.array([PROVENANCES.index(p) for p in provenances]),
                    np.array([np.nan if s is None else s for s in scores]))


def test_metrics_csv_undefined_literal(tmp_path):
    report = evaluate(np.array([0.1, 0.2]), np.array([0, 1]))  # precision undefined
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, {"logistic": report})
    text = path.read_text()
    assert "undefined" in text
    assert "logistic" in text.splitlines()[1]


def test_metrics_markdown_has_table(tmp_path):
    report = evaluate(np.array([0.9, 0.1]), np.array([1, 0]))
    path = tmp_path / "metrics.md"
    write_metrics_markdown(path, {"forest": report})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("| Model |")
    assert lines[2].startswith("| forest |")


def test_roc_csv_ends_with_auc(tmp_path):
    curve = roc([0.9, 0.7, 0.3, 0.2], [1, 0, 1, 0])
    path = tmp_path / "roc.csv"
    write_roc_csv(path, curve)
    last = path.read_text().strip().splitlines()[-1]
    assert last.startswith("auc,")


def _csv_writer_bytes(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


# every table writer's bytes, pinned: csv.writer over the expected cells, or the expected text
_UNDEFINED_PRECISION = ConfusionMatrix(tp=0, fp=0, fn=1, tn=1)
_FULL = ConfusionMatrix(tp=2, fp=1, fn=0, tn=1)
_DISTRIBUTION = DistributionTable([3, 0, 0, 0, 1])  # every kind has a row, an empty one too
_BIAS = BiasReport(variables={"department": {'a,"b"': (60.0, 50.0, -10.0),
                                             "science": (40.0, 50.0, 10.0)},
                              "gender": {"F": (50.0, 52.5, 2.5)}},
                   alert_threshold=5.0)
_METRIC_HEADER = ["accuracy", "precision", "true_positive_rate", "f1", "kappa"]


def _written(writer, *values, tmp_path):
    path = tmp_path / "table"
    writer(path, *values)
    return path.read_bytes()


def test_metrics_csv_bytes(tmp_path):
    assert _written(write_metrics_csv, {"logistic": _UNDEFINED_PRECISION, "forest": _FULL},
                    tmp_path=tmp_path) == _csv_writer_bytes(
        ["model", *_METRIC_HEADER, "tp", "fp", "fn", "tn"],
        [["logistic", "0.500000", "undefined", "0.000000", "undefined", "0.000000",
          "0", "0", "1", "1"],
         ["forest", "0.750000", "0.666667", "1.000000", "0.800000", "0.500000",
          "2", "1", "0", "1"]])


def test_roc_csv_bytes(tmp_path):
    curve = RocCurve(points=np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 1.0]]),
                     thresholds=np.array([np.inf, 0.7, -np.inf]))
    assert _written(write_roc_csv, curve, tmp_path=tmp_path) == _csv_writer_bytes(
        ["fpr", "tpr", "threshold"],
        [["0.000000", "0.000000", "inf"], ["0.500000", "1.000000", "0.700000"],
         ["1.000000", "1.000000", "-inf"], ["auc", "0.750000", ""]])


def test_cv_csv_bytes(tmp_path):
    result = CvResult(fold_reports=[_UNDEFINED_PRECISION, _FULL])
    assert _written(write_cv_csv, result, tmp_path=tmp_path) == _csv_writer_bytes(
        ["fold", *_METRIC_HEADER],
        [["0", "0.500000", "undefined", "0.000000", "undefined", "0.000000"],
         ["1", "0.750000", "0.666667", "1.000000", "0.800000", "0.500000"],
         ["mean", "0.625000", "0.666667", "0.500000", "0.800000", "0.250000"],
         ["sd", "0.125000", "0.000000", "0.500000", "0.000000", "0.250000"],
         ["n_undefined", "0", "1", "0", "1", "0"]])


def test_importance_csv_bytes(tmp_path):
    report = ImportanceReport(mda={"employment": -0.001, "gender": 0.0125}, baseline_accuracy=0.8)
    assert _written(write_importance_csv, report, tmp_path=tmp_path) == _csv_writer_bytes(
        ["rank", "feature", "mean_decrease_accuracy"],
        [["1", "gender", "0.012500"], ["2", "employment", "-0.001000"],
         ["", "baseline_accuracy", "0.800000"]])


def test_distribution_csv_bytes(tmp_path):
    assert _written(write_distribution_csv, _DISTRIBUTION, tmp_path=tmp_path) == \
        _csv_writer_bytes(["delta", "kind", "label", "count", "pct_of_all", "pct_of_members"],
                          [["0", "0", "no migrant background", "3", "75.00", "undefined"],
                           ["1", "1", "2nd generation Italian", "0", "0.00", "0.00"],
                           ["1", "2", "2nd generation foreign", "0", "0.00", "0.00"],
                           ["1", "3", "Italian with migrant experience", "0", "0.00", "0.00"],
                           ["1", "4", "Foreign", "1", "25.00", "100.00"]])


def test_distribution_has_a_row_per_kind_when_kinds_are_empty(tmp_path):
    expanded = expanded_of([make_admin("S1"), make_admin("S2")], [0, 1], [0, 4],
                           ["exact", "exact"], [None, None])
    table = tabulate_population(expanded)
    assert (table.counts, table.n_total, table.n_members) == ([1, 0, 0, 0, 1], 2, 1)
    rows = list(csv.reader(io.StringIO(
        _written(write_distribution_csv, table, tmp_path=tmp_path).decode())))[1:]
    assert [(row[1], row[3], row[5]) for row in rows] == [
        ("0", "1", "undefined"), ("1", "0", "0.00"), ("2", "0", "0.00"), ("3", "0", "0.00"),
        ("4", "1", "100.00")]


def test_bias_csv_bytes(tmp_path):
    assert _written(write_bias_csv, _BIAS, tmp_path=tmp_path) == _csv_writer_bytes(
        ["variable", "level", "population_share", "sample_share", "gap_pp", "flagged"],
        [["department", 'a,"b"', "60.00", "50.00", "-10.00", "1"],
         ["department", "science", "40.00", "50.00", "10.00", "1"],
         ["gender", "F", "50.00", "52.50", "2.50", "0"]])


def test_correlation_csv_bytes(tmp_path):
    corr = {"names": ["x", "y,z"], "matrix": np.array([[1.0, -0.25], [-0.25, 1.0]])}
    assert _written(write_correlation_csv, corr, tmp_path=tmp_path) == _csv_writer_bytes(
        ["", "x", "y,z"], [["x", "1.0000", "-0.2500"], ["y,z", "-0.2500", "1.0000"]])


def test_survey_and_name_table_bytes(tmp_path):
    records = [SurveyRecord("S1", True, 0), SurveyRecord('S"2', False, 1)]
    assert _written(write_survey_csv, records, tmp_path=tmp_path) == _csv_writer_bytes(
        ["link_key", "eligible", "pa_observed"], [["S1", "1", "0"], ['S"2', "0", "1"]])
    table = {"zoe": 3, "anna, maria": 7}
    assert _written(write_name_table, table, tmp_path=tmp_path) == _csv_writer_bytes(
        ["name", "count"], [["anna, maria", "7"], ["zoe", "3"]])


def test_rejects_csv_bytes(tmp_path):
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of([make_admin(f"S{i}") for i in range(40)]))
    with open(path, "a", newline="") as f:
        f.write('S40,x,"X,""q""",IT,IT,bachelor,science,2020,1,10,student\r\n'
                "S41,x,F,IT,IT,bachelor,science,2020,0,10,student,extra\r\n")
    assert len(parse_admin(path)) == 40
    rest = "birth_country=IT;citizenship_country=IT;course_level=bachelor;department=science"
    assert path.with_suffix(".rejects.csv").read_bytes() == _csv_writer_bytes(
        ["line", "reason", "raw"],
        [["42", "unrecognized gender 'X,\"q\"'",
          f'link_key=S40;given_name=x;gender=X,"q";{rest};enrollment_year=2020;'
          "years_enrolled=1;ects_earned=10;employment=student"],
         ["43", "years_enrolled must be in [1, 2**53), got 0",
          f"link_key=S41;given_name=x;gender=F;{rest};enrollment_year=2020;"
          "years_enrolled=0;ects_earned=10;employment=student;None=['extra']"]])


def test_markdown_tables_text(tmp_path):
    path = tmp_path / "metrics.md"
    write_metrics_markdown(path, {"logistic": _UNDEFINED_PRECISION, "forest": _FULL})
    assert path.read_bytes() == (
        b"| Model | Accuracy | Precision | True positive rate | F1 Score | Kappa |\n"
        b"|---|---|---|---|---|---|\n"
        b"| logistic | 0.5000 | undefined | 0.0000 | undefined | 0.0000 |\n"
        b"| forest | 0.7500 | 0.6667 | 1.0000 | 0.8000 | 0.5000 |\n")
    path = tmp_path / "distribution.md"
    write_distribution_markdown(path, _DISTRIBUTION)
    assert path.read_bytes() == (
        b"Register records: 4; estimated members: 1\n\n"
        b"| delta | kind | count | % of all | % of members | background |\n"
        b"|---|---|---|---|---|---|\n"
        b"| 0 | 0 | 3 | 75.00 | undefined | no migrant background |\n"
        b"| 1 | 1 | 0 | 0.00 | 0.00 | 2nd generation Italian |\n"
        b"| 1 | 2 | 0 | 0.00 | 0.00 | 2nd generation foreign |\n"
        b"| 1 | 3 | 0 | 0.00 | 0.00 | Italian with migrant experience |\n"
        b"| 1 | 4 | 1 | 25.00 | 100.00 | Foreign |\n")


def test_writers_are_byte_stable(tmp_path):
    report = evaluate(np.array([0.9, 0.4, 0.3]), np.array([1, 1, 0]))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_metrics_csv(a, {"m": report})
    write_metrics_csv(b, {"m": report})
    assert a.read_bytes() == b.read_bytes()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    report = evaluate(np.array([0.9]), np.array([1]))
    write_metrics_csv(tmp_path / "m.csv", {"m": report})
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def test_atomic_write_gets_plain_open_mode(tmp_path):
    old = os.umask(0o027)
    try:
        with atomic_open(tmp_path / "atomic.txt") as f:
            f.write("x")
        with open(tmp_path / "plain.txt", "w") as f:
            f.write("x")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "atomic.txt").stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == 0o640


def test_expanded_register_round_trip(tmp_path):
    expanded = expanded_of(
        [make_admin("S1"), make_admin("S2", birth_country="XX", citizenship_country="XX"),
         make_admin("S3")],
        [0, 1, 1],
        [BackgroundKind.NO_BACKGROUND, BackgroundKind.FOREIGN,
         BackgroundKind.SECOND_GEN_ITALIAN],
        ["linked", "exact", "predicted"], [None, None, 0.734211])
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, expanded)
    again = read_expanded_csv(path)
    assert register_rows(again.register) == register_rows(expanded.register)
    assert again.kind.tolist() == expanded.kind.tolist()
    assert again.provenance.tolist() == expanded.provenance.tolist()
    assert abs(again.score[2] - 0.734211) < 1e-9
    table = tabulate_population(again)
    assert table.n_members == 2


# cells csv.writer must quote, and ones it must not
_INT_COLUMNS = ("enrollment_year", "years_enrolled", "ects_earned")
_AWKWARD = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", "", "  lead", '"',
            ","]


def _exact_or_predicted(register, predicted):
    """register expanded with an exact (0,0) row, or a predicted (1,1) member where predicted,
    scored 0.0, 0.5 and 1.0, repeated within a block and across blocks."""
    members = [MEMBERSHIP[1, 1, 0] if p else MEMBERSHIP[0, 0, PA_UNOBSERVED] for p in predicted]
    return Expanded(register, *np.array(members, dtype=np.int8).T,
                    np.array([PROVENANCES.index("predicted" if p else "exact")
                              for p in predicted], dtype=np.int8),
                    np.array([(i // 2 % 3) / 2 if p else np.nan
                              for i, p in enumerate(predicted)]))


def test_register_writers_quote_as_csv_writer(tmp_path, monkeypatch):
    """Both register writers give csv.writer's bytes on levels and keys that need quoting:
    write_admin_csv in row order, write_expanded_csv in link_key order, each row's
    membership and score beside its own key.  read_expanded_csv reads back a register
    whose cells need quoting and are each a fixed point of their column's standardizer."""
    monkeypatch.setattr(hiddenpop.ingest, "BLOCK_ROWS", 4)  # blocks with and without quoted keys
    n = 30
    keys = [f"K{i}" for i in range(n)]
    keys[9], keys[13], keys[21], keys[22], keys[23] = 'K"9', "K,13", "K\r\n21", " K22", ""
    columns = {"link_key": keys}
    for j, c in enumerate(ADMIN_COLUMNS[1:]):
        columns[c] = [i - j if c in _INT_COLUMNS else _AWKWARD[(i + j) % len(_AWKWARD)]
                      for i in range(n)]
    predicted = [i % 3 != 1 for i in range(n)]
    for c in ("birth_country", "citizenship_country"):
        columns[c] = [ITALY if p else v for v, p in zip(columns[c], predicted)]
    register = register_from_columns(columns)
    rows = [[str(columns[c][i]) for c in ADMIN_COLUMNS] for i in range(n)]
    write_admin_csv(tmp_path / "admin.csv", register)
    assert (tmp_path / "admin.csv").read_bytes() == _csv_writer_bytes(ADMIN_COLUMNS, rows)

    expanded = _exact_or_predicted(register, predicted)
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, expanded)
    tails = [[str(d), str(k), PROVENANCES[p], "" if np.isnan(s) else f"{s:.6f}"]
             for d, k, p, s in zip(expanded.delta, expanded.kind, expanded.provenance,
                                   expanded.score)]
    order = sorted(range(n), key=keys.__getitem__)  # written in link_key order
    assert order != list(range(n))
    assert path.read_bytes() == _csv_writer_bytes(
        ADMIN_COLUMNS + ["delta", "kind", "provenance", "predicted_score"],
        [rows[i] + tails[i] for i in order])

    keys[22] = "K 22"  # " K22" reads back stripped
    fixed = {"given_name": ["plain", "a,b", 'say "hi"', "two\nlines"], "gender": ["F", "M"],
             "birth_country": ["A,B"], "citizenship_country": ["A,B"],
             "course_level": ["bachelor", "master", "bachelor_and_master"],
             "department": ["a,b", "science"],
             "employment": ["student", "student_worker", "worker_student", "not_available"]}
    columns.update({c: [cells[i % len(cells)] for i in range(n)] for c, cells in fixed.items()})
    columns.update(enrollment_year=[2000 + i for i in range(n)],
                   years_enrolled=[1 + i for i in range(n)], ects_earned=[7 * i for i in range(n)])
    for c in ("birth_country", "citizenship_country"):
        columns[c] = [ITALY if p else v for v, p in zip(columns[c], predicted)]
    register = register_from_columns(columns)
    expanded = _exact_or_predicted(register, predicted)
    write_expanded_csv(path, expanded)
    order = sorted(range(n), key=keys.__getitem__)
    again = read_expanded_csv(path)
    assert register_rows(again.register) == register_rows(register.take(order))
    for column in ("delta", "kind", "provenance"):
        assert getattr(again, column).tolist() == getattr(expanded, column)[order].tolist()
    np.testing.assert_array_equal(again.score, expanded.score[order])


def test_expanded_register_round_trip_on_a_register(tmp_path, small_inputs, small_training):
    admin, _survey, table, linked = small_inputs
    schema, data = small_training
    imputations = impute_pa(fit_logistic(data), schema, admin, table, linked_rows=linked.rows)
    expanded = expand_dataset(admin, linked, imputations)
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, expanded)
    again = read_expanded_csv(path)
    assert register_rows(again.register) == register_rows(expanded.register)
    for column in ("delta", "kind", "provenance"):
        assert getattr(again, column).tolist() == getattr(expanded, column).tolist()
    predicted = expanded.provenance == PROVENANCES.index("predicted")
    assert np.isnan(again.score[~predicted]).all()
    np.testing.assert_allclose(again.score[predicted], expanded.score[predicted], atol=5e-7)
    write_expanded_csv(tmp_path / "again.csv", again)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("row, reason", [
    ("1,0,linked", "delta=1 kind=0"),
    ("0,1,linked", "inconsistent delta=0"),
    ("1,1,exact", "provenance='exact' is not allowed for bp=1 cit=1"),
    ("1,2,predicted", "kind=2 provenance='predicted' is not allowed"),
])
def test_expanded_register_rejects_rows_the_domain_forbids(tmp_path, row, reason):
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, expanded_of(
        [make_admin("S1"), make_admin("S2")], [0, 1],
        [BackgroundKind.NO_BACKGROUND, BackgroundKind.SECOND_GEN_ITALIAN],
        ["linked", "linked"], [None, None]))
    text = path.read_text().replace("1,1,linked", row)
    path.write_text(text)
    with pytest.raises(DataError, match=f"expanded.csv:3: .*{reason}"):
        read_expanded_csv(path)


def test_expanded_register_names_the_first_unreadable_line(tmp_path):
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, expanded_of(
        [make_admin("S1"), make_admin("S2", ects_earned=7), make_admin("S3")], [0, 1, 1],
        [BackgroundKind.NO_BACKGROUND] + [BackgroundKind.SECOND_GEN_ITALIAN] * 2,
        ["linked", "predicted", "predicted"], [None, 0.9, 0.8]))
    text = path.read_text()
    path.write_text(text.replace("0.800000", "high"))
    with pytest.raises(DataError, match="expanded.csv:4: could not convert string to float"):
        read_expanded_csv(path)
    path.write_text(text.replace("0.800000", "high").replace(",7,", ",seven,"))
    with pytest.raises(DataError, match="expanded.csv:3: invalid literal for int"):
        read_expanded_csv(path)


def test_expanded_register_rejects_a_repeated_link_key(tmp_path):
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, expanded_of(
        [make_admin("S1"), make_admin("S2")], [0, 1],
        [BackgroundKind.NO_BACKGROUND, BackgroundKind.SECOND_GEN_ITALIAN],
        ["linked", "linked"], [None, None]))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[1:2]))
    with pytest.raises(DataError, match="expanded.csv:4: link_key 'S1' already on line 2"):
        read_expanded_csv(path)


def test_failed_model_save_leaves_old_file(tmp_path, small_training, monkeypatch):
    schema, data = small_training
    path = tmp_path / "model.json"
    save_model(path, fit_logistic(data), schema)
    before = path.read_bytes()
    real_open = hiddenpop.models.io.atomic_open
    partial = []

    @contextmanager
    def open_then_fail(target):
        # the write puts down a prefix of the model, then the disk fills up
        with real_open(target) as f:
            class Partial:
                def write(self, text):
                    f.write(text[:len('{"format_version": ')])
                    f.flush()
                    partial.extend(p.read_text() for p in tmp_path.iterdir() if p != path)
                    raise OSError("disk full")

            yield Partial()

    monkeypatch.setattr(hiddenpop.models.io, "atomic_open", open_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_model(path, fit_logistic(data), schema)
    assert partial == ["{"]  # json.dump writes the opening brace first
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_model_io_round_trip(tmp_path, small_training):
    schema, data = small_training
    lm = fit_logistic(data)
    path = tmp_path / "logistic.json"
    save_model(path, lm, schema)
    model, loaded_schema = load_model(path)
    np.testing.assert_array_equal(model.weights, lm.weights)
    assert model.intercept == lm.intercept
    assert loaded_schema.names == schema.names

    fm = fit_forest(data, n_trees=5, seed=0)
    fpath = tmp_path / "forest.json"
    save_model(fpath, fm, schema)
    loaded, _ = load_model(fpath)
    assert loaded.n_trees == 5
    X = data.X[:20]
    from hiddenpop.models import predict_forest
    np.testing.assert_array_equal(predict_forest(loaded, X), predict_forest(fm, X))
