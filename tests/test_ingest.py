"""Parsing, standardization, linkage and the name table."""

import codecs
import csv
from pathlib import Path

import pytest

from hiddenpop.errors import DataError
from hiddenpop.ingest import (
    COMMON_NAME_MIN_COUNT,
    NameFrequencyTable,
    SurveyRecord,
    build_name_table,
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


def test_name_table_merges_normalized_spellings(tmp_path):
    path = tmp_path / "names.csv"
    path.write_text("name,count\nMaria,10\nmaría,5\nanselmo,2\n")
    table = build_name_table(path)
    assert table.counts["maria"] == 15
    assert table.total_names == 2


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
    table = NameFrequencyTable({"maria": 100, "anna": COMMON_NAME_MIN_COUNT,
                                "tecla": COMMON_NAME_MIN_COUNT - 1})
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
