"""Parsing, standardization, linkage and the name table."""

import codecs
import csv
from pathlib import Path

import numpy as np
import pytest

import hiddenpop.features
import hiddenpop.ingest
from hiddenpop.errors import DataError
from hiddenpop.ingest import (
    COMMON_NAME_MIN_COUNT,
    KEY,
    SurveyRecord,
    build_name_table,
    first_repeat,
    is_common_name,
    link,
    normalize_name,
    parse_admin,
    parse_survey,
    standardize_country,
    standardize_course_level,
    standardize_employment,
    standardize_gender,
    write_admin_csv,
    write_survey_csv,
)

from register_reference import AdminRecord, register_of, register_rows


def make_admin(key="S1", **kw):
    base = dict(
        link_key=key, given_name="maria", gender="F", birth_country="IT",
        citizenship_country="IT", course_level="bachelor", department="science",
        enrollment_year=2020, years_enrolled=2, ects_earned=40,
        employment="student",
    )
    base.update(kw)
    return AdminRecord(**base)


def test_normalize_name_folds_case_diacritics_whitespace():
    assert normalize_name("  José  MARÍA ") == "jose maria"
    assert normalize_name("Nicolò") == "nicolo"
    assert normalize_name("") == ""


def test_standardizers():
    assert standardize_employment("Student ( >75% )") == "student"
    assert standardize_employment("Worker") == "worker_student"
    assert standardize_employment("N/A") == "not_available"
    assert standardize_course_level("Triennale") == "bachelor"
    assert standardize_course_level("single-cycle") == "bachelor_and_master"
    assert standardize_country("Italia") == "IT"
    assert standardize_country("fr") == "FR"
    assert standardize_gender("femmina") == "F"
    with pytest.raises(ValueError):
        standardize_gender("?")
    ingest = hiddenpop.ingest
    rules = {"employment": (standardize_employment, ingest._EMPLOYMENT_ALIASES),
             "course level": (standardize_course_level, ingest._COURSE_ALIASES),
             "gender": (standardize_gender, ingest._GENDER_ALIASES),
             "boolean": (ingest._parse_bool, ingest._BOOL_ALIASES)}
    for name, (standardize, aliases) in rules.items():
        for key, value in aliases.items():
            for raw in (key, f"  {key.upper()} ", f"\t{key.lower()}\n", key.title()):
                assert standardize(raw) == value, (name, raw)
        with pytest.raises(ValueError) as exc:
            standardize(" Bogus ")
        assert str(exc.value) == f"unrecognized {name} ' Bogus '"
    # str.upper maps "ı" to "I" and "ſ" to "S"
    assert standardize_gender("femmına") == "F" and standardize_gender("maſchio") == "M"
    assert ingest._parse_bool(" YES ") is True
    # every canonical value is a level the encoder knows: its reference or an encoded one
    for source, reference, levels in hiddenpop.features._CATEGORICALS:
        aliases = rules[source.replace("_", " ")][1]
        assert set(aliases.values()) == {reference, *levels}, source


def test_bp_cit_derived_from_countries():
    reg = register_of([make_admin(birth_country="FR", citizenship_country="IT")])
    assert (reg.bp[0], reg.cit[0]) == (0, 1)


def test_admin_round_trip(tmp_path):
    records = [make_admin("S1"), make_admin("S2", gender="M", ects_earned=0)]
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of(records))
    assert register_rows(parse_admin(path)) == records


def test_admin_rejects_bad_rows_to_file(tmp_path):
    path = tmp_path / "admin.csv"
    good = [make_admin(f"S{i}") for i in range(40)]
    write_admin_csv(path, register_of(good))
    with open(path, "a", newline="") as f:
        csv.writer(f).writerow(
            ["BAD", "x", "F", "IT", "IT", "bachelor", "science", "2020", "0", "10", "student"]
        )
    records = parse_admin(path)
    assert len(records) == 40
    rejects = path.with_suffix(".rejects.csv")
    assert rejects.exists()
    content = rejects.read_text()
    assert "years_enrolled" in content


def test_admin_reject_threshold(tmp_path):
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of([make_admin("S1")]))
    with open(path, "a", newline="") as f:
        csv.writer(f).writerow(
            ["S2", "x", "??", "IT", "IT", "bachelor", "science", "2020", "1", "10", "student"]
        )
    with pytest.raises(DataError, match=r"1/2 rows rejected \(limit 5%\)"):
        parse_admin(path)


@pytest.mark.parametrize("keys, message", [
    (["S1", "S2", "S1", "S3"], "admin.csv:4: link_key 'S1' already on line 2"),  # one block
    (["S0", "S1", "S2", "S3", "S4", "S2"], "admin.csv:7: link_key 'S2' already on line 4"),
    (["S5", "S6", "S5", "S7", "S5"], "admin.csv:4: link_key 'S5' already on line 2"),  # thrice
    (["S1", "S2", "S3", "S2", "S1"], "admin.csv:5: link_key 'S2' already on line 3"),
], ids=["same-block", "across-blocks", "three-times", "first-repeat-not-first-key"])
def test_a_repeated_key_names_its_first_repeat(tmp_path, monkeypatch, keys, message):
    """The first line whose key an earlier line holds, and the key's first line."""
    monkeypatch.setattr(hiddenpop.ingest, "BLOCK_ROWS", 4)
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of([make_admin(key) for key in keys]))
    with pytest.raises(DataError, match=f"/{message}$"):
        parse_admin(path)


def test_first_repeat_compares_neighbours_in_key_order(tmp_path, monkeypatch):
    """A key's rows are neighbours in the stable key order; the first repeat in row order,
    not in key order, is named, with the first line of its key."""
    line = np.arange(2, 9)

    def repeat(keys):
        keys = np.array(keys, dtype=KEY)
        return first_repeat(keys, np.argsort(keys, kind="stable"), line)

    assert repeat([]) is None
    assert repeat(["b", "a", "c", "a" * 20, "é"]) is None
    assert repeat(["x", "y", "y", "x"]) == (2, "link_key 'y' already on line 3")
    assert repeat(["c", "a", "c", "b", "c"]) == (2, "link_key 'c' already on line 2")  # thrice
    assert repeat(["é" * 20, "b", "e" * 20, "é" * 20]) == (
        3, f"link_key {'é' * 20!r} already on line 2")  # keys held on KEY's heap
    # across a block boundary: 'x' repeats first in key order, 'y' first in row order
    monkeypatch.setattr(hiddenpop.ingest, "BLOCK_ROWS", 4)
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of([make_admin(key) for key in "yxqryxy"]))
    with pytest.raises(DataError, match="/admin.csv:6: link_key 'y' already on line 2$"):
        parse_admin(path)


def test_a_key_holding_a_nul_names_its_line(tmp_path):
    """KEY compares strings only up to a NUL, so a register key may not hold one; a
    repeat on an earlier line is named first."""
    path = tmp_path / "admin.csv"
    for keys, message in [(["S1", "b\x00b", "b\x00a"], r"3: link_key 'b\\x00b' holds a NUL"),
                          (["S1", "S1", "b\x00b"], "3: link_key 'S1' already on line 2")]:
        write_admin_csv(path, register_of([make_admin(key) for key in keys]))
        with pytest.raises(DataError, match=f"/admin.csv:{message}"):
            parse_admin(path)


def test_admin_duplicate_key_and_missing_column(tmp_path):
    path = tmp_path / "admin.csv"
    write_admin_csv(path, register_of([make_admin("S1"), make_admin("S1")]))
    with pytest.raises(DataError, match=r"admin.csv:3: link_key 'S1' already on line 2"):
        parse_admin(path)
    bad = tmp_path / "short.csv"
    bad.write_text("link_key,given_name\nS1,maria\n")
    with pytest.raises(DataError, match="short.csv: missing column"):
        parse_admin(bad)


def test_survey_round_trip_and_screening_rule(tmp_path):
    ok = tmp_path / "survey.csv"
    write_survey_csv(ok, [SurveyRecord("S1", True, 0), SurveyRecord("S2", True, 1)])
    out = tmp_path / "screened.csv"
    write_survey_csv(out, [SurveyRecord("S3", False, 1)])
    records = parse_survey(ok, out)
    assert [r.link_key for r in records] == ["S1", "S2", "S3"]
    assert records[2].eligible is False

    bad = tmp_path / "bad.csv"
    bad.write_text("link_key,eligible,pa_observed\nS9,0,0\n")
    with pytest.raises(DataError, match="bad.csv:2: screened-out row with pa_observed=0"):
        parse_survey(bad)


def test_survey_duplicate_across_files(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_survey_csv(a, [SurveyRecord("S1", True, 0)])
    write_survey_csv(b, [SurveyRecord("S1", False, 1)])
    with pytest.raises(DataError, match=r"b.csv:2: link_key 'S1' already in .*a.csv:2"):
        parse_survey(a, b)


def test_link_partitions():
    admin = register_of([make_admin("S1"), make_admin("S2")])
    survey = [SurveyRecord("S2", True, 0), SurveyRecord("S9", True, 1)]
    linked = link(admin, survey)
    assert [(admin.link_key[r], s.link_key) for r, s in zip(linked.rows, linked.survey)] == [
        ("S2", "S2")]
    unmatched_admin = sorted(set(range(len(admin))) - set(linked.rows.tolist()))
    assert [admin.link_key[r] for r in unmatched_admin] == ["S1"]
    assert [r.link_key for r in linked.unmatched_survey] == ["S9"]


def test_keys_inline_on_the_heap_or_quoted_round_trip_and_link(tmp_path, monkeypatch):
    """Keys of up to 15 bytes and longer ones (KEY holds those on its heap), non-ASCII keys
    and keys that need quoting are written, parsed and written again to the same bytes,
    and the survey links to each."""
    monkeypatch.setattr(hiddenpop.ingest, "BLOCK_ROWS", 4)
    keys = ["S2", "a" * 15, "a" * 16, "é" * 8, "ü" * 40, "学生-0001", "a,b", 'say "hi"',
            "x\r\ny", "", "S10", "S1"]
    path, again = tmp_path / "admin.csv", tmp_path / "again.csv"
    write_admin_csv(path, register_of([make_admin(key) for key in keys]))
    register = parse_admin(path)
    write_admin_csv(again, register)
    assert again.read_bytes() == path.read_bytes()
    assert register.link_key.tolist() == keys
    absent = ["a" * 17, "é" * 7, "S", "S11", "~", "\x00"]
    linked = link(register, [SurveyRecord(key, True, 1) for key in keys[::-1] + absent])
    assert [register.link_key[r] for r in linked.rows] == keys[::-1]
    assert [s.link_key for s in linked.survey] == keys[::-1]
    assert [s.link_key for s in linked.unmatched_survey] == absent


def test_link_an_empty_register_or_survey():
    register, empty = register_of([make_admin("S1")]), register_of([])
    for admin, survey, matched, unmatched in [
            (empty, [SurveyRecord("S1", True, 1)], [], ["S1"]),
            (register, [], [], []), (empty, [], [], [])]:
        linked = link(admin, survey)
        assert linked.rows.dtype == np.intp and linked.rows.tolist() == []
        assert [s.link_key for s in linked.survey] == matched
        assert [s.link_key for s in linked.unmatched_survey] == unmatched


def test_name_table_merges_normalized_spellings(tmp_path):
    path = tmp_path / "names.csv"
    path.write_text("name,count\nMaria,10\nmaría,5\nanselmo,2\n")
    table = build_name_table(path)
    assert table == {"maria": 15, "anselmo": 2}


def test_name_table_malformed(tmp_path):
    path = tmp_path / "names.csv"
    path.write_text("nome,n\nmaria,10\n")
    with pytest.raises(DataError, match=r"names.csv: missing column\(s\) \['name', 'count'\]"):
        build_name_table(path)
    path.write_text("name,count\nmaria,zero\n")
    with pytest.raises(DataError, match="names.csv:2: bad count 'zero'"):
        build_name_table(path)
    path.write_text("name,count\nmaria,0\n")
    with pytest.raises(DataError, match="names.csv:2: count must be >= 1"):
        build_name_table(path)


def test_is_common_name_rules():
    table = {"maria": 100, "anna": COMMON_NAME_MIN_COUNT, "tecla": COMMON_NAME_MIN_COUNT - 1}
    assert COMMON_NAME_MIN_COUNT == 5
    assert is_common_name("MARIA", table)
    assert is_common_name("Anna", table)              # exactly the fixed minimum count
    assert not is_common_name("tecla", table)         # listed but below it
    assert not is_common_name("zork", table)          # unlisted
    assert not is_common_name("  ", table)            # empty after normalization


def test_a_byte_order_mark_is_skipped(small_bundle, tmp_path):
    """Spreadsheets' "CSV UTF-8" export starts with a BOM; each input parses as without it."""
    def with_bom(path):
        copy = tmp_path / Path(path).name
        copy.write_bytes(codecs.BOM_UTF8 + Path(path).read_bytes())
        return copy

    b = small_bundle
    assert (register_rows(parse_admin(with_bom(b.admin_path)))
            == register_rows(parse_admin(b.admin_path)))
    assert (parse_survey(with_bom(b.survey_path), with_bom(b.screened_out_path))
            == parse_survey(b.survey_path, b.screened_out_path))
    assert build_name_table(with_bom(b.name_table_path)) == build_name_table(b.name_table_path)
