"""The columnar register against the row-at-a-time reference parser."""

import csv
import io
import itertools
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hiddenpop.ingest
import hiddenpop.synth
from hiddenpop.errors import DataError
from hiddenpop.expand import expand_dataset, impute_pa
from hiddenpop.ingest import ADMIN_COLUMNS, parse_admin, write_admin_csv
from hiddenpop.models import fit_logistic
from hiddenpop.report import read_expanded_csv, write_expanded_csv

from conftest import small_config
from register_reference import decoded, parse_admin_rows, register_of, register_rows
from test_ingest import make_admin

# column -> (spellings that standardize, spellings that are rejected)
_SPELLINGS = {
    "given_name": (["maria", " Maria ", "josé", "", "  ", "ma\nria", "a,b", 'say "hi"'], []),
    "gender": (["F", "M", " f ", "female", "MASCHIO", "Femmina"], ["?", ""]),
    "birth_country": (["IT", "it", " Italia ", "ITA", "FR", "xx", ""], []),
    "citizenship_country": (["IT", "ITALY", "fr", "Marocco", " it"], []),
    "course_level": (["bachelor", "Triennale", "single-cycle", "MA", "ciclo unico"],
                     ["phd", ""]),
    "department": (["science", " Social-Sciences ", "law/economics", "Med. (Milano)", "",
                    "x\ny"], []),
    "enrollment_year": (["2020", " 2019 ", "+2021", "2_022"], ["20x0", ""]),
    "years_enrolled": (["1", "2", " 3 "], ["0", "-1", "x", "9007199254740992"]),
    "ects_earned": (["0", "40", "113"], ["-5", "4.5", ""]),
    "employment": (["student", "Student ( >75% )", "Worker", "N/A", "na", "", "students",
                    "working student"], ["retired"]),
}
_REJECTABLE = [c for c, (_ok, bad) in _SPELLINGS.items() if bad]
_GOOD_FIELDS = st.tuples(*(st.sampled_from(_SPELLINGS[c][0]) for c in ADMIN_COLUMNS[1:]))
_BAD_VALUE = {c: st.sampled_from(_SPELLINGS[c][1]) for c in _REJECTABLE}


@st.composite
def messy_admin(draw):
    """An admin.csv as rows: aliases, case and whitespace variants, parentheticals,
    bad values, blank lines, quoted newlines, rows longer than the header,
    repeated keys and (rarely) short rows.  Rare events compare a drawn
    integer with a value in the middle of its range, which Hypothesis draws
    no more often than the others."""
    header = list(ADMIN_COLUMNS)
    if draw(st.booleans()):
        header.append(draw(st.sampled_from(["note", "gender", "ects_earned"])))
    lines = [header]
    keys = []
    for i in range(draw(st.integers(0, 80))):
        key = f"S{i}"
        if keys and draw(st.integers(0, 99)) == 41:
            key = draw(st.sampled_from(keys)) + draw(st.sampled_from(["", " "]))
        keys.append(key)
        row = [key, *draw(_GOOD_FIELDS)]
        if draw(st.integers(0, 29)) == 17:
            for c in draw(st.lists(st.sampled_from(_REJECTABLE), min_size=1, max_size=4)):
                row[ADMIN_COLUMNS.index(c)] = draw(_BAD_VALUE[c])
        extra = len(header) - len(row) + draw(st.integers(0, 2) if i % 7 == 0 else st.just(0))
        row += [draw(st.sampled_from(["", "x", "female"])) for _ in range(extra)]
        if draw(st.integers(0, 199)) == 123:
            row = row[:draw(st.integers(1, len(header) - 1))]  # short row
        if draw(st.integers(0, 19)) == 11:
            lines.append([])  # blank line
        lines.append(row)
    return lines


def _write(path, lines):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        for row in lines:
            if row:
                writer.writerow(row)
            else:
                f.write("\r\n")


def _outcome(parse, path, reject_path):
    try:
        result = parse()
    except DataError as exc:
        result = f"DataError: {exc}"
    rejects = reject_path.read_bytes() if reject_path.exists() else None
    return result, rejects


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=messy_admin(), block_rows=st.sampled_from([1, 3, 512]))
def test_columnar_parse_matches_row_reference(lines, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "admin.csv"
        _write(path, lines)
        with mock.patch.object(hiddenpop.ingest, "BLOCK_ROWS", block_rows):
            got, got_rejects = _outcome(lambda: parse_admin(path),
                                        path, path.with_suffix(".rejects.csv"))
        ref_rejects_path = Path(tmp) / "reference.rejects.csv"
        want, want_rejects = _outcome(lambda: parse_admin_rows(path, ref_rejects_path),
                                      path, ref_rejects_path)
    if isinstance(want, str):
        assert got == want
    else:
        assert register_rows(got) == want
    assert got_rejects == want_rejects


def test_reject_reasons_match_the_reference_for_every_pair_of_bad_values(tmp_path):
    # the reason names the first failing check, in the reference's order
    bad = [(c, v) for c in _REJECTABLE for v in _SPELLINGS[c][1]]
    good = [_SPELLINGS[c][0][0] for c in ADMIN_COLUMNS[1:]]
    lines = [ADMIN_COLUMNS]
    for i, ((c1, v1), (c2, v2)) in enumerate(itertools.combinations(bad, 2)):
        row = [f"B{i}", *good]
        row[ADMIN_COLUMNS.index(c1)] = v1
        row[ADMIN_COLUMNS.index(c2)] = v2
        lines.append(row)
    lines += [[f"G{i}", *good] for i in range(20 * len(lines))]
    path = tmp_path / "admin.csv"
    _write(path, lines)
    parse_admin(path)
    parse_admin_rows(path, tmp_path / "reference.rejects.csv")
    assert (path.with_suffix(".rejects.csv").read_bytes()
            == (tmp_path / "reference.rejects.csv").read_bytes())


def test_register_take_and_columns():
    reg = register_of([
        make_admin("S1", gender="M", birth_country="FR"),
        make_admin("S2", years_enrolled=5),
        make_admin("S3", gender="M", citizenship_country="MA"),
    ])
    assert len(reg) == 3
    sub = reg.take([2, 0])
    assert sub.link_key.tolist() == ["S3", "S1"]
    assert decoded(sub, "gender") == ["M", "M"]
    assert decoded(reg, "years_enrolled") == [2, 5, 2]
    assert reg.bp.tolist() == [0, 1, 1]
    assert reg.cit.tolist() == [1, 1, 0]
    assert register_rows(sub) == [make_admin("S3", gender="M", citizenship_country="MA"),
                                  make_admin("S1", gender="M", birth_country="FR")]


def test_register_codes_each_distinct_value_once(tmp_path):
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of(
        [make_admin(f"S{i}", gender="MF"[i % 2]) for i in range(1000)]))
    calls = []
    standardize = hiddenpop.ingest.standardize_gender

    def counting(raw):
        calls.append(raw)
        return standardize(raw)

    with mock.patch.dict(hiddenpop.ingest._STANDARDIZERS, gender=counting):
        reg = parse_admin(path)
    assert sorted(calls) == ["F", "M"]
    assert reg.levels["gender"] == ["M", "F"]  # in order of first appearance
    assert reg.codes["gender"].dtype == np.int8


@pytest.mark.parametrize("n_names, itemsize", [(128, 1), (129, 2), (257, 2)])
def test_codes_widen_when_a_later_block_brings_a_new_level(tmp_path, monkeypatch,
                                                           n_names, itemsize):
    """A column's codes take one byte up to 128 levels; the block that brings the next
    one codes it in two, and the concatenation widens the earlier blocks' codes."""
    monkeypatch.setattr(hiddenpop.ingest, "BLOCK_ROWS", 50)
    names = [f"name{i}" for i in range(n_names)] * 2  # the last new name is in block 3 or later
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of([make_admin(f"S{i}", given_name=name)
                                       for i, name in enumerate(names)]))
    block_widths = []
    code = hiddenpop.ingest.Coder.code

    def recording(coder, values):
        codes = code(coder, values)
        if coder.standardize is str.strip:  # the given_name coder
            block_widths.append(codes.itemsize)
        return codes

    with mock.patch.object(hiddenpop.ingest.Coder, "code", recording):
        reg = parse_admin(path)
    assert reg.codes["given_name"].itemsize == itemsize
    assert block_widths[0] == 1 and block_widths[-1] == itemsize
    assert decoded(reg, "given_name") == names
    assert reg.codes["given_name"].tolist() == list(range(n_names)) * 2


def test_a_block_with_a_rejected_row_codes_it_negative_and_drops_it(tmp_path, monkeypatch):
    """The rejected row's error code is negative, so its block's codes are signed; every
    block's are, so dropping the row leaves the columns one byte wide."""
    coder = hiddenpop.ingest.Coder(hiddenpop.ingest.standardize_gender)
    codes = coder.code(["F", "?", "M", "?"])
    assert codes.dtype == np.int8 and codes.tolist() == [0, -1, 1, -1]
    monkeypatch.setattr(hiddenpop.ingest, "BLOCK_ROWS", 4)
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of([make_admin(f"S{i}", gender="?" if i == 5 else "MF"[i % 2])
                                       for i in range(40)]))
    reg = parse_admin(path)
    assert "S5" not in reg.link_key.tolist() and len(reg) == 39
    assert decoded(reg, "gender") == ["MF"[i % 2] for i in range(40) if i != 5]
    assert {c: a.dtype for c, a in reg.codes.items()} == dict.fromkeys(ADMIN_COLUMNS[1:], np.int8)


def test_a_synthetic_register_parses_to_one_byte_per_cell(small_inputs):
    """Every column of a seed-3 bundle has at most 128 levels: one byte per code."""
    admin = small_inputs[0]
    assert sum(a.itemsize for a in admin.codes.values()) == len(ADMIN_COLUMNS[1:]) == 10


def test_registers_hold_no_python_object_per_row(small_inputs, small_training, tmp_path,
                                                 monkeypatch):
    """parse_admin, read_expanded_csv and synth.generate hold link_key as one StringDType
    array and every other column as integer codes: no object column."""
    admin, _survey, table, linked = small_inputs
    schema, data = small_training
    imputations = impute_pa(fit_logistic(data), schema, admin, table, linked_rows=linked.rows)
    write_expanded_csv(tmp_path / "expanded.csv", expand_dataset(admin, linked, imputations))
    registers = [admin, read_expanded_csv(tmp_path / "expanded.csv").register]
    monkeypatch.setattr(hiddenpop.synth, "write_admin_csv",
                        lambda path, register: registers.append(register))
    hiddenpop.synth.generate(small_config(), tmp_path / "bundle")
    assert len(registers) == 3
    for register in registers:
        assert isinstance(register.link_key.dtype, np.dtypes.StringDType)
        assert [a.dtype.kind for a in register.codes.values()] == ["i"] * 10


@pytest.mark.parametrize("block_rows", [1, 2, 512])
def test_short_row_after_quoted_newline_names_its_last_line(tmp_path, block_rows):
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of(
        [make_admin("S1", given_name="ma\nria"), make_admin("S2")]))
    with open(path, "a", newline="") as f:
        f.write("\r\nS3,maria\r\n")
    with mock.patch.object(hiddenpop.ingest, "BLOCK_ROWS", block_rows):
        with pytest.raises(DataError, match=r"admin.csv:6: fewer fields than the header"):
            parse_admin(path)


def _writer_cell(value: str) -> str:
    """value as csv.writer writes it as one cell of a row of several."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(("", value))  # a row of one empty cell alone would read '""'
    return buffer.getvalue()[1:-2]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.text(st.sampled_from(',"\r\n \t\x00é') | st.characters(categories=["L"]))))
def test_csv_cells_quote_as_csv_writer_does(values):
    """write_admin_csv quotes each level and key by _QUOTED; csv.writer would write the same."""
    assert hiddenpop.ingest._csv_cells(values).tolist() == list(map(_writer_cell, values))


def test_admin_columns_are_the_documented_header():
    """The register's header follows _STANDARDIZERS' order, which docs/formats.md states."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text("utf-8")
    table = doc.split("### Register: `admin.csv`", 1)[1].split("\n\n")[2]
    assert ADMIN_COLUMNS == re.findall(r"^\| `(\w+)` \|", table, re.M)
