"""Row-at-a-time register parser, the reference the columnar parse_admin must match.

This is the parser the register was loaded with before it became columnar:
csv.DictReader yields one dict per row, each row is standardized on its own
into an AdminRecord, and a row that fails goes to the reject file.  Tests
compare `hiddenpop.ingest.parse_admin` against it (same rows, same reject
file bytes, same DataError text).
"""

import csv
from dataclasses import dataclass
from pathlib import Path

from hiddenpop.errors import DataError
from hiddenpop.ingest import (
    ADMIN_COLUMNS,
    Register,
    _slug,
    atomic_open,
    reading,
    standardize_country,
    standardize_course_level,
    standardize_employment,
    standardize_gender,
)

_MAX_COUNT = 2**53


@dataclass(frozen=True)
class AdminRecord:
    """One standardized register row."""

    link_key: str
    given_name: str
    gender: str
    birth_country: str
    citizenship_country: str
    course_level: str
    department: str
    enrollment_year: int
    years_enrolled: int
    ects_earned: int
    employment: str


def standardize_admin_row(row: dict) -> AdminRecord:
    years = int(row["years_enrolled"])
    ects = int(row["ects_earned"])
    if not 1 <= years < _MAX_COUNT:
        raise ValueError(f"years_enrolled must be in [1, 2**53), got {years}")
    if not 0 <= ects < _MAX_COUNT:
        raise ValueError(f"ects_earned must be in [0, 2**53), got {ects}")
    return AdminRecord(
        link_key=row["link_key"].strip(),
        given_name=row["given_name"].strip(),
        gender=standardize_gender(row["gender"]),
        birth_country=standardize_country(row["birth_country"]),
        citizenship_country=standardize_country(row["citizenship_country"]),
        course_level=standardize_course_level(row["course_level"]),
        department=_slug(row["department"]),
        enrollment_year=int(row["enrollment_year"]),
        years_enrolled=years,
        ects_earned=ects,
        employment=standardize_employment(row["employment"]),
    )


def read_csv_rows(path, required):
    """Yield (line number, row dict) through csv.DictReader."""
    with reading(path), open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        for raw in reader:
            if None in raw.values():
                raise DataError(f"{path}:{reader.line_num}: fewer fields than the header")
            yield reader.line_num, raw


def parse_admin_rows(path, reject_path) -> list[AdminRecord]:
    """The reference parse; rejects are written to reject_path."""
    path = Path(path)
    records = []
    rejects = []
    seen = {}
    for lineno, raw in read_csv_rows(path, ADMIN_COLUMNS):
        try:
            rec = standardize_admin_row(raw)
        except (ValueError, KeyError) as exc:
            rejects.append((lineno, str(exc), raw))
            continue
        if rec.link_key in seen:
            raise DataError(
                f"{path}:{lineno}: link_key {rec.link_key!r} already on line "
                f"{seen[rec.link_key]}"
            )
        seen[rec.link_key] = lineno
        records.append(rec)
    total = len(records) + len(rejects)
    if rejects:
        with atomic_open(reject_path) as f:
            writer = csv.writer(f)
            writer.writerow(["line", "reason", "raw"])
            for lineno, reason, raw in rejects:
                writer.writerow([lineno, reason, ";".join(f"{k}={v}" for k, v in raw.items())])
    if total and len(rejects) / total > 0.05:
        raise DataError(f"{path}: {len(rejects)}/{total} rows rejected (limit 5%)")
    return records


def register_of(records):
    """A Register from objects with one attribute per admin column."""
    return Register.from_columns({c: [getattr(r, c) for r in records] for c in ADMIN_COLUMNS})


def register_rows(register) -> list[AdminRecord]:
    """A Register decoded back into one AdminRecord per row."""
    columns = [register.link_key.tolist()] + [
        [register.levels[c][code] for code in register.codes[c].tolist()]
        for c in ADMIN_COLUMNS[1:]
    ]
    return [AdminRecord(*values) for values in zip(*columns)]
