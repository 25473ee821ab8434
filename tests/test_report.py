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
from hiddenpop.eval import evaluate, roc
from hiddenpop.expand import PROVENANCES, Expanded, tabulate_population
from hiddenpop.expand import expand_dataset, impute_pa
from hiddenpop.ingest import ADMIN_COLUMNS, ITALY, Register, write_admin_csv
from hiddenpop.models.io import load_model, save_model
from hiddenpop.models import fit_logistic, fit_forest
from hiddenpop.report import (
    atomic_open,
    read_expanded_csv,
    write_expanded_csv,
    write_metrics_csv,
    write_metrics_markdown,
    write_roc_csv,
)

from register_reference import register_of, register_rows
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


def _csv_writer_bytes(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def test_register_writers_quote_as_csv_writer(tmp_path, monkeypatch):
    """Both register writers give csv.writer's bytes on levels and keys that need quoting."""
    monkeypatch.setattr(hiddenpop.ingest, "BLOCK_ROWS", 4)  # blocks with and without quoted keys
    n = 30
    keys = [f"K{i}" for i in range(n)]
    keys[9], keys[13], keys[21], keys[22], keys[23] = 'K"9', "K,13", "K\r\n21", " K22", ""
    columns = {"link_key": keys}
    for j, c in enumerate(ADMIN_COLUMNS[1:]):
        columns[c] = [i - j if c in _INT_COLUMNS else _AWKWARD[(i + j) % len(_AWKWARD)]
                      for i in range(n)]
    predicted = [i % 5 == 0 for i in range(n)]
    for c in ("birth_country", "citizenship_country"):
        columns[c] = [ITALY if p else v for v, p in zip(columns[c], predicted)]
    register = Register.from_columns(columns)
    rows = [[str(columns[c][i]) for c in ADMIN_COLUMNS] for i in range(n)]
    write_admin_csv(tmp_path / "admin.csv", register)
    assert (tmp_path / "admin.csv").read_bytes() == _csv_writer_bytes(ADMIN_COLUMNS, rows)

    members = [MEMBERSHIP[1, 1, 0] if p else MEMBERSHIP[0, 0, PA_UNOBSERVED] for p in predicted]
    expanded = Expanded(register, *np.array(members, dtype=np.int8).T,
                        np.array([PROVENANCES.index("predicted" if p else "exact")
                                  for p in predicted], dtype=np.int8),
                        np.array([i / 40 if p else np.nan for i, p in enumerate(predicted)]))
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, expanded)
    tails = [[str(d), str(k), PROVENANCES[p], "" if np.isnan(s) else f"{s:.6f}"]
             for d, k, p, s in zip(expanded.delta, expanded.kind, expanded.provenance,
                                   expanded.score)]
    assert path.read_bytes() == _csv_writer_bytes(
        ADMIN_COLUMNS + ["delta", "kind", "provenance", "predicted_score"],
        [row + tail for row, tail in zip(rows, tails)])
    again = read_expanded_csv(path)
    assert register_rows(again.register) == register_rows(register)
    for column in ("delta", "kind", "provenance"):
        assert getattr(again, column).tolist() == getattr(expanded, column).tolist()
    np.testing.assert_array_equal(again.score, expanded.score)


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
