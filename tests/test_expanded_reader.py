"""report's expanded-register reader against the row-at-a-time reference."""

import csv
import json
import re
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiddenpop.ingest
from hiddenpop.cli import main
from hiddenpop.domain import MEMBERSHIP, BackgroundKind
from hiddenpop.errors import DataError
from hiddenpop.expand import PROVENANCES, Imputations, expand_dataset
from hiddenpop.ingest import (_STANDARDIZERS, ADMIN_COLUMNS, ITALY, SurveyRecord, link,
                              parse_admin, write_admin_csv)
from hiddenpop.report import read_expanded_csv, write_expanded_csv

from register_reference import read_expanded_rows, register_of
from test_ingest import make_admin

_ADMISSIBLE = [(bp, cit, pa) for bp in (0, 1) for cit in (0, 1) for pa in (0, 1)
               if MEMBERSHIP[bp, cit, pa, 1] >= 0]
_COUNTRY = {0: "XX", 1: ITALY}


def _expansion(rows, scores):
    """expand_dataset's result for rows of ((bp, cit, pa), linked); an unlinked (1,1)
    row gets its pa imputed with the next score."""
    admin = register_of([make_admin(f"S{i:02d}", birth_country=_COUNTRY[bp],
                                    citizenship_country=_COUNTRY[cit], ects_earned=7 * i)
                         for i, ((bp, cit, _pa), _linked) in enumerate(rows)])
    survey = [SurveyRecord(f"S{i:02d}", True, pa)
              for i, ((_bp, _cit, pa), linked) in enumerate(rows) if linked]
    imputed = [i for i, ((bp, cit, _pa), linked) in enumerate(rows)
               if not linked and (bp, cit) == (1, 1)]
    return expand_dataset(admin, link(admin, survey), Imputations(
        np.array(imputed, dtype=np.intp), np.array([rows[i][0][2] for i in imputed]),
        np.array(scores), np.arange(len(imputed)) % len(scores)))


def _read(reader, path):
    try:
        return reader(path)
    except DataError as exc:
        return exc


def _assert_same_expansion(got, want):
    for name in ("delta", "kind", "provenance", "score"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    np.testing.assert_array_equal(got.score, want.score)
    for name in ("delta", "kind", "provenance"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    assert got.register.link_key.tolist() == want.register.link_key.tolist()
    assert list(got.register.codes) == list(want.register.codes)
    for column, codes in want.register.codes.items():
        assert got.register.codes[column].dtype == codes.dtype
        assert got.register.codes[column].tolist() == codes.tolist(), column
        assert got.register.levels[column] == want.register.levels[column], column


_EVERY_ROW = [(triple, linked) for triple in _ADMISSIBLE for linked in (False, True)]

_COLUMN = {c: i for i, c in enumerate(
    ADMIN_COLUMNS + ["delta", "kind", "provenance", "predicted_score"])}

# column -> the cells a corruption may write there
_BAD_CELLS = {**dict.fromkeys(["enrollment_year", "years_enrolled", "ects_earned"],
                              ["seven", "", "4.5"]),
              "delta": ["0", "1", "2", "-1", "x"], "kind": ["0", "1", "2", "3", "4", "7", "-1", "x"],
              "provenance": [*PROVENANCES, "guessed", ""],
              "predicted_score": ["", "high", "0.5", "nan", "-3"]}
# (edit, column, new cell): the corruptions a line may take
_CORRUPTIONS = st.one_of(
    *(st.tuples(st.just("cell"), st.just(column), st.sampled_from(cells))
      for column, cells in _BAD_CELLS.items()),
    st.tuples(st.just("duplicate"), st.none(), st.none()),
    st.tuples(st.just("drop"), st.none(), st.none()),
)


def _corrupt(lines, edit, column, cell, at, to):
    """Apply one corruption to data line at (and, for a duplicate, insert it at to)."""
    data = len(lines) - 1
    at, to = 1 + at % data, 1 + to % (data + 1)
    if edit == "duplicate":
        lines.insert(to, lines[at])
        return
    cells = lines[at].split(",")
    if edit == "drop":
        cells.pop()
    elif _COLUMN[column] < len(cells):  # a field dropped before stays dropped
        cells[_COLUMN[column]] = cell
    lines[at] = ",".join(cells)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ADMISSIBLE), st.booleans()), min_size=1, max_size=12),
       st.lists(st.floats(0, 1), min_size=1, max_size=3),
       st.lists(st.tuples(_CORRUPTIONS, st.integers(0, 99), st.integers(0, 99)), max_size=2))
def test_reader_agrees_with_the_row_reference_on_corrupted_files(rows, scores, corruptions):
    """Both readers accept a file with equal results, or raise the same DataError.

    The reader checks a line's faults in the reference's order, so even a line
    with two faults gets the reference's message.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "expanded.csv"
        write_expanded_csv(path, _expansion(rows, scores))
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        for (edit, column, cell), at, to in corruptions:
            _corrupt(lines, edit, column, cell, at, to)
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
        _assert_readers_agree(path)


def _assert_readers_agree(path):
    want, got = _read(read_expanded_rows, path), _read(read_expanded_csv, path)
    if isinstance(want, DataError):
        assert isinstance(got, DataError), want
        assert str(got) == str(want)
    else:
        assert not isinstance(got, DataError), got
        _assert_same_expansion(got, want)


def test_every_single_fault_gets_the_reference_message(tmp_path):
    """Each bad cell, and each dropped field, on each kind of row."""
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, _expansion(_EVERY_ROW, [0.25]))
    text = path.read_bytes().decode()
    edits = [("drop", None, None)] + [("cell", column, cell)
                                      for column, cells in _BAD_CELLS.items() for cell in cells]
    for at in range(len(_EVERY_ROW)):
        for edit in edits:
            lines = text.split("\r\n")[:-1]
            _corrupt(lines, *edit, at, 0)
            path.write_bytes("".join(line + "\r\n" for line in lines).encode())
            _assert_readers_agree(path)


def test_a_repeated_key_goes_first_on_its_line(tmp_path):
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, _expansion([((1, 1, 1), True), ((0, 0, 0), False)], [0.5]))
    lines = path.read_bytes().decode().split("\r\n")
    lines.insert(-1, lines[1].replace(",linked,", ",guessed,"))
    path.write_bytes("\r\n".join(lines).encode())
    for reader in (read_expanded_rows, read_expanded_csv):
        with pytest.raises(DataError, match="expanded.csv:4: link_key 'S00' already on line 2$"):
            reader(path)


def test_first_bad_line_is_named_ahead_of_a_later_unreadable_int(tmp_path):
    """A forbidden exact row on line 2 and an ects_earned of 'seven' on line 3."""
    path = tmp_path / "edge.csv"
    write_expanded_csv(path, _expansion([((1, 1, 1), True), ((1, 1, 0), True)], [0.5]))
    lines = path.read_bytes().decode().split("\r\n")
    lines[1] = lines[1].replace(",linked,", ",exact,")
    lines[2] = lines[2].replace(",7,", ",seven,")
    path.write_bytes("\r\n".join(lines).encode())
    message = "edge.csv:2: delta=0 kind=0 provenance='exact' is not allowed for bp=1 cit=1"
    for reader in (read_expanded_rows, read_expanded_csv):
        with pytest.raises(DataError, match=re.escape(message)):
            reader(path)


def test_first_bad_line_is_named_ahead_of_a_later_read_failure(tmp_path):
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, _expansion([((1, 1, 1), True), ((0, 0, 0), False),
                                         ((1, 1, 0), True)], [0.5]))
    lines = path.read_bytes().decode().split("\r\n")
    lines[2] = lines[2].replace(",exact,", ",predicted,")
    lines[3] = lines[3].rsplit(",", 1)[0]  # fewer fields than the header
    path.write_bytes("\r\n".join(lines).encode())
    message = "expanded.csv:3: delta=1 kind=4 provenance='predicted' is not allowed for bp=0 cit=0"
    with pytest.raises(DataError, match=re.escape(message)):
        read_expanded_csv(path)


def test_reader_accepts_exactly_what_expand_dataset_writes(tmp_path):
    """Row 0 given each (bp, cit), provenance and kind, with delta = kind != 0: the reader
    accepts exactly the (bp, cit, provenance, kind) that expand_dataset gives over every
    admissible (bp, cit, pa) triple, linked or not, and says why it rejects any other."""
    expanded = _expansion(_EVERY_ROW, [0.5])
    written = set(zip(expanded.register.bp.tolist(), expanded.register.cit.tolist(),
                      expanded.provenance.tolist(), expanded.kind.tolist()))
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, expanded)
    lines = path.read_bytes().decode().split("\r\n")
    accepted = set()
    for bp, cit, provenance, kind in product((0, 1), (0, 1), range(len(PROVENANCES)),
                                             range(len(BackgroundKind))):
        cells = lines[1].split(",")
        for column, cell in [("birth_country", _COUNTRY[bp]),
                             ("citizenship_country", _COUNTRY[cit]),
                             ("delta", str(int(kind != 0))), ("kind", str(kind)),
                             ("provenance", PROVENANCES[provenance]),
                             ("predicted_score",
                              "0.500000" if PROVENANCES[provenance] == "predicted" else "")]:
            cells[_COLUMN[column]] = cell
        path.write_bytes("\r\n".join([lines[0], ",".join(cells), *lines[2:]]).encode())
        try:
            read_expanded_csv(path)
        except DataError as exc:
            assert "is not allowed for" in str(exc), exc
        else:
            accepted.add((bp, cit, provenance, kind))
    assert accepted == written


@pytest.mark.parametrize("n_scores", [126, 127, 128])
def test_scores_round_trip_at_the_one_byte_code_limit(tmp_path, n_scores):
    """Score codes that fill a one-byte code type still leave the unscored rows empty,
    both as expand_dataset codes them and as read_expanded_csv does."""
    rows = [((1, 1, 1), False)] * n_scores + [((0, 0, 0), False), ((1, 1, 0), True)]
    expanded = _expansion(rows, np.arange(n_scores) / 1000)
    path, again = tmp_path / "expanded.csv", tmp_path / "again.csv"
    write_expanded_csv(path, expanded)
    ends = [line.rsplit(",", 2)[1:] for line in path.read_bytes().decode().split("\r\n")[1:-1]]
    assert sorted((provenance, cell == "") for provenance, cell in ends) == \
        [("exact", True), ("linked", True)] + [("predicted", False)] * n_scores
    _assert_readers_agree(path)
    read = read_expanded_csv(path)
    np.testing.assert_array_equal(read.score, expanded.score[expanded.register.key_order])
    write_expanded_csv(again, read)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("zeros", [("0", "-0"), ("-0", "0"), ("-0.0", "0.0")])
def test_a_zero_score_reads_as_positive_zero_in_either_order(tmp_path, zeros):
    """A score of 0 and one of -0 share a level: whichever comes first, it reads as +0.0
    and writes as 0.000000, as impute writes a zero."""
    path, again = tmp_path / "expanded.csv", tmp_path / "again.csv"
    write_expanded_csv(path, _expansion([((1, 1, 1), False)] * 2, [0.25, 0.75]))
    lines = path.read_bytes().decode().split("\r\n")
    for at, cell in zip((1, 2), zeros):
        cells = lines[at].split(",")
        cells[_COLUMN["predicted_score"]] = cell
        lines[at] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode())
    _assert_readers_agree(path)
    read = read_expanded_csv(path)
    assert not np.signbit(read.score).any()
    write_expanded_csv(again, read)
    assert [line.rsplit(",", 1)[1] for line in again.read_bytes().decode().split("\r\n")[1:-1]
            ] == ["0.000000"] * 2


# per column, a cell parse_admin rejects
_REJECTED = {"gender": "X", "course_level": "phd", "employment": "banana",
             "years_enrolled": "0", "ects_earned": "-5", "enrollment_year": "20x0"}


@pytest.mark.parametrize("column, cell", _REJECTED.items())
def test_a_cell_parse_admin_rejects_names_its_line_with_its_reject_reason(tmp_path, column, cell):
    """The same row of admin.csv and of the expanded file, given the same bad cell: the
    readers name its line with the reason parse_admin writes to its reject file."""
    expanded = _expansion(_EVERY_ROW * 2, [0.5])  # 24 rows, so one reject is under 5%
    admin, path = tmp_path / "admin.csv", tmp_path / "expanded.csv"
    write_admin_csv(admin, expanded.register)
    write_expanded_csv(path, expanded)
    for written in (admin, path):  # both in key order, S00 first
        lines = written.read_bytes().decode().split("\r\n")[:-1]
        _corrupt(lines, "cell", column, cell, 2, 0)
        written.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert len(parse_admin(admin)) == len(expanded.delta) - 1
    with open(admin.with_suffix(".rejects.csv"), newline="", encoding="utf-8") as f:
        [(line, reason, _raw)] = list(csv.reader(f))[1:]
    assert line == "4" and reason
    for reader in (read_expanded_rows, read_expanded_csv):
        with pytest.raises(DataError) as info:
            reader(path)
        assert str(info.value) == f"{path}:4: {reason}"


_ALIASES = [*hiddenpop.ingest._EMPLOYMENT_ALIASES, *hiddenpop.ingest._COURSE_ALIASES,
            *hiddenpop.ingest._GENDER_ALIASES, *hiddenpop.ingest._COUNTRY_ALIASES]
# raw cells: any text, counts, aliases, and aliases with case and separators changed
_RAW = st.one_of(st.text(), st.integers(-2, 2**54).map(str), st.sampled_from(_ALIASES),
                 st.builds("{}{}{}".format, st.text(" \t-./(>%"),
                           st.sampled_from(_ALIASES).map(str.title) | st.sampled_from(_ALIASES),
                           st.text(" \t-./()>%")))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(list(_STANDARDIZERS)), _RAW)
def test_each_standardizer_is_a_fixed_point_on_its_own_output(column, raw):
    """What a register writer writes for a standardized value standardizes back to it, so
    report reads the expanded register impute writes to the levels impute wrote."""
    standardize = _STANDARDIZERS[column]
    try:
        value = standardize(raw)
    except ValueError:
        return
    assert standardize(str(value)) == value


def test_report_exits_3_on_a_cell_parse_admin_rejects(tmp_path, capsys):
    """A member row's gender set to X: report names the line and writes no bias report."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_register": 600, "n_survey_native": 20,
                                  "n_survey_migrant": 20, "n_screened_out": 40}))
    pipe = tmp_path / "pipe"
    assert main(["pipeline", "--out", str(pipe), "--config", str(config),
                 "--model", "logistic", "--k", "0"]) == 0
    path = pipe / "impute" / "expanded_register.csv"
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    at = next(i for i, row in enumerate(rows) if row[_COLUMN["delta"]] == "1")
    rows[at][_COLUMN["gender"]] = "X"
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    capsys.readouterr()
    out = tmp_path / "report"
    assert main(["report", "--data-dir", str(pipe / "data"), "--out", str(out),
                 "--expanded", str(path)]) == 3
    assert capsys.readouterr().err == \
        f"error: DataError: {path}:{at + 1}: unrecognized gender 'X'\n"
    assert not (out / "bias_report.csv").exists()



def test_a_reject_reason_names_the_cell_that_report_names(tmp_path):
    """gender '?' and years_enrolled 0 on the same row of admin.csv and of the expanded
    file: the reject reason is report's message, the first bad cell's in column order."""
    expanded = _expansion(_EVERY_ROW * 2, [0.5])
    admin, path = tmp_path / "admin.csv", tmp_path / "expanded.csv"
    write_admin_csv(admin, expanded.register)
    write_expanded_csv(path, expanded)
    for written in (admin, path):
        lines = written.read_bytes().decode().split("\r\n")[:-1]
        _corrupt(lines, "cell", "gender", "?", 2, 0)
        _corrupt(lines, "cell", "years_enrolled", "0", 2, 0)
        written.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert len(parse_admin(admin)) == len(expanded.delta) - 1
    with open(admin.with_suffix(".rejects.csv"), newline="", encoding="utf-8") as f:
        [(line, reason, _raw)] = list(csv.reader(f))[1:]
    assert (line, reason) == ("4", "unrecognized gender '?'")
    with pytest.raises(DataError) as info:
        read_expanded_csv(path)
    assert str(info.value) == f"{path}:4: {reason}"
