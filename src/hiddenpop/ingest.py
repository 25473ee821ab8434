"""Register / survey parsing, standardization, exact linkage, name table.

All files are UTF-8 CSV with a header row (delimiter configurable).  Rows
that fail standardization are routed to a reject file with a reason code
rather than aborting the whole load; an error is raised only when the reject
fraction exceeds a configurable threshold.  A file that cannot be read, lacks
a column or holds a row with too few fields raises DataError naming the file
and line.  See docs/formats.md for the column schemas.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError

log = logging.getLogger(__name__)

GENDERS = {"F", "M"}
COURSE_LEVELS = {"bachelor", "master", "bachelor_and_master"}
EMPLOYMENTS = {"worker_student", "student_worker", "student", "not_available"}

ADMIN_COLUMNS = [
    "link_key",
    "given_name",
    "gender",
    "birth_country",
    "citizenship_country",
    "course_level",
    "department",
    "enrollment_year",
    "years_enrolled",
    "ects_earned",
    "employment",
]

SURVEY_COLUMNS = ["link_key", "eligible", "pa_observed"]

ITALY = "IT"

# counts are encoded as floats; below this they convert exactly
_MAX_COUNT = 2**53

# raw -> canonical category spellings seen in administrative exports
_EMPLOYMENT_ALIASES = {
    "student": "student",
    "students": "student",
    "student_worker": "student_worker",
    "worker_student": "worker_student",
    "worker": "worker_student",
    "working_student": "worker_student",
    "not_available": "not_available",
    "na": "not_available",
    "n_a": "not_available",
    "": "not_available",
}

_COURSE_ALIASES = {
    "bachelor": "bachelor",
    "ba": "bachelor",
    "triennale": "bachelor",
    "master": "master",
    "ma": "master",
    "magistrale": "master",
    "bachelor_and_master": "bachelor_and_master",
    "bachelor_master": "bachelor_and_master",
    "single_cycle": "bachelor_and_master",
    "ciclo_unico": "bachelor_and_master",
}

_COUNTRY_ALIASES = {"ITALY": ITALY, "ITALIA": ITALY, "ITA": ITALY}


def normalize_name(name: str) -> str:
    """Case-fold, trim, collapse inner whitespace and strip diacritics."""
    folded = unicodedata.normalize("NFKD", name)
    stripped = "".join(c for c in folded if not unicodedata.combining(c))
    return " ".join(stripped.casefold().split())


def _slug(value: str) -> str:
    """Lowercase a raw categorical value and squeeze separators to '_'."""
    v = value.strip().lower()
    # administrative exports carry parentheticals like "Student ( >75% )"
    if "(" in v:
        v = v.split("(", 1)[0]
    v = v.replace("-", " ").replace("/", " ").replace(".", " ")
    return "_".join(v.split())


def standardize_employment(raw: str) -> str:
    key = _slug(raw)
    if key in _EMPLOYMENT_ALIASES:
        return _EMPLOYMENT_ALIASES[key]
    if key in EMPLOYMENTS:
        return key
    raise ValueError(f"unrecognized employment {raw!r}")


def standardize_course_level(raw: str) -> str:
    key = _slug(raw)
    if key in _COURSE_ALIASES:
        return _COURSE_ALIASES[key]
    raise ValueError(f"unrecognized course level {raw!r}")


def standardize_country(raw: str) -> str:
    key = raw.strip().upper()
    return _COUNTRY_ALIASES.get(key, key)


def standardize_gender(raw: str) -> str:
    key = raw.strip().upper()
    if key in GENDERS:
        return key
    if key in {"FEMALE", "FEMMINA"}:
        return "F"
    if key in {"MALE", "MASCHIO"}:
        return "M"
    raise ValueError(f"unrecognized gender {raw!r}")


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

    @property
    def bp(self) -> int:
        """Born in Italy."""
        return int(self.birth_country == ITALY)

    @property
    def cit(self) -> int:
        """Italian citizenship."""
        return int(self.citizenship_country == ITALY)


@dataclass(frozen=True)
class SurveyRecord:
    """One survey row: respondents plus screened-out metadata.

    Screened-out rows (eligible=False) always carry pa_observed=1: they were
    turned away precisely because both parents were Italian nationals.
    """

    link_key: str
    eligible: bool
    pa_observed: int
    extras: tuple = ()


@dataclass
class LinkedDataset:
    matched: list  # (AdminRecord, SurveyRecord) pairs
    unmatched_admin: list
    unmatched_survey: list


@dataclass
class NameFrequencyTable:
    counts: dict  # normalized name -> count
    total_names: int = field(init=False)

    def __post_init__(self):
        self.total_names = len(self.counts)


def _standardize_admin_row(row: dict) -> AdminRecord:
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


@contextmanager
def reading(path, *content_errors):
    """Re-raise a failure to open, decode or parse path as DataError naming it.

    content_errors are further exception types that, raised inside the block,
    also mean the file is not what it should be (a missing key, a wrong type).
    """
    try:
        yield
    except (OSError, UnicodeDecodeError, csv.Error, json.JSONDecodeError,
            *content_errors) as exc:
        raise DataError(f"{path}: {type(exc).__name__}: {exc}") from exc


def read_csv(path, required, *, delimiter: str = ","):
    """Yield (line number, row dict) for every data row of a UTF-8 CSV file.

    Raises DataError naming the file when it cannot be read, when its header
    lacks a required column, and, with the line, when a row has fewer fields
    than the header.
    """
    with reading(path), open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        for raw in reader:
            if None in raw.values():
                raise DataError(f"{path}:{reader.line_num}: fewer fields than the header")
            yield reader.line_num, raw


@contextmanager
def atomic_open(path):
    """Write to a temp file beside path, then rename it over path.

    The temp file is created with mode 0666 less the umask, as open() would
    create it (mkstemp would leave 0600).
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_admin(
    path,
    schema_config: dict | None = None,
    *,
    delimiter: str = ",",
    reject_path=None,
    max_reject_fraction: float = 0.05,
) -> list[AdminRecord]:
    """Load and standardize the register; bad rows go to the reject file.

    schema_config maps canonical column names to the names used in the file.
    Raises DataError when more than max_reject_fraction of the rows fail
    standardization, when a link_key repeats, or when the file is unreadable.
    """
    path = Path(path)
    colmap = {c: c for c in ADMIN_COLUMNS}
    if schema_config:
        colmap.update(schema_config)
    records = []
    rejects = []  # (line_number, reason, raw row)
    seen = {}
    for lineno, raw in read_csv(path, colmap.values(), delimiter=delimiter):
        row = {canon: raw[col] for canon, col in colmap.items()}
        try:
            rec = _standardize_admin_row(row)
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
        _write_rejects(reject_path or path.with_suffix(".rejects.csv"), rejects)
        log.warning("%s: %d of %d rows rejected", path, len(rejects), total)
    if total and len(rejects) / total > max_reject_fraction:
        raise DataError(
            f"{path}: {len(rejects)}/{total} rows rejected "
            f"(limit {max_reject_fraction:.0%})"
        )
    return records


def _write_rejects(path, rejects):
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(["line", "reason", "raw"])
        for lineno, reason, raw in rejects:
            writer.writerow([lineno, reason, ";".join(f"{k}={v}" for k, v in raw.items())])


def _parse_bool(raw: str) -> bool:
    key = raw.strip().lower()
    if key in {"1", "true", "yes"}:
        return True
    if key in {"0", "false", "no"}:
        return False
    raise ValueError(f"unrecognized boolean {raw!r}")


def parse_survey(*paths, delimiter: str = ",") -> list[SurveyRecord]:
    """Load one or more survey extracts (respondents, screened-out) and concatenate."""
    records = []
    seen = {}
    for path in paths:
        for lineno, raw in read_csv(path, SURVEY_COLUMNS, delimiter=delimiter):
            where = f"{path}:{lineno}"
            try:
                eligible = _parse_bool(raw["eligible"])
                pa = int(raw["pa_observed"])
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from exc
            if pa not in (0, 1):
                raise DataError(f"{where}: pa_observed must be 0/1")
            if not eligible and pa != 1:
                raise DataError(
                    f"{where}: screened-out row with pa_observed={pa}; "
                    "screening implies both parents Italian"
                )
            key = raw["link_key"].strip()
            if key in seen:
                raise DataError(f"{where}: link_key {key!r} already in {seen[key]}")
            seen[key] = where
            extras = tuple(
                (k, v) for k, v in raw.items() if k not in SURVEY_COLUMNS
            )
            records.append(
                SurveyRecord(link_key=key, eligible=eligible, pa_observed=pa, extras=extras)
            )
    if not records:
        log.warning("no survey records parsed from %s", [str(p) for p in paths])
    return records


def link(admin: list[AdminRecord], survey: list[SurveyRecord]) -> LinkedDataset:
    """Exact equality join on link_key; unmatched rows are reported, not errors."""
    by_key = {rec.link_key: rec for rec in admin}
    matched = []
    unmatched_survey = []
    survey_keys = set()
    for srec in survey:
        survey_keys.add(srec.link_key)
        arec = by_key.get(srec.link_key)
        if arec is None:
            unmatched_survey.append(srec)
        else:
            matched.append((arec, srec))
    unmatched_admin = [rec for rec in admin if rec.link_key not in survey_keys]
    log.info(
        "linkage: %d matched, %d survey-only, %d register-only",
        len(matched), len(unmatched_survey), len(unmatched_admin),
    )
    return LinkedDataset(matched, unmatched_admin, unmatched_survey)


def build_name_table(path, *, delimiter: str = ",") -> NameFrequencyTable:
    """Load the external given-name reference (columns: name,count)."""
    counts = {}
    for lineno, raw in read_csv(path, ["name", "count"], delimiter=delimiter):
        try:
            count = int(raw["count"])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad count {raw['count']!r}") from None
        if count < 1:
            raise DataError(f"{path}:{lineno}: count must be >= 1")
        key = normalize_name(raw["name"])
        counts[key] = counts.get(key, 0) + count
    return NameFrequencyTable(counts)


def is_common_name(
    name: str,
    table: NameFrequencyTable,
    *,
    min_count: int = 5,
    top_k: int | None = None,
) -> bool:
    """Whether a given name counts as a common Italian name.

    Default rule: present in the reference table with count >= min_count.
    With top_k set, the name must instead rank within the top_k most frequent
    entries.  The reference data never defines "common", so both knobs are
    exposed.
    """
    key = normalize_name(name)
    if not key:
        log.warning("empty given name treated as not common")
        return False
    count = table.counts.get(key)
    if count is None:
        return False
    if top_k is not None:
        ranked = sorted(table.counts.values(), reverse=True)
        cutoff = ranked[top_k - 1] if top_k <= len(ranked) else 0
        return count >= cutoff
    return count >= min_count


def write_admin_csv(path, records: list[AdminRecord], *, delimiter: str = ","):
    """Write records in the canonical column order (round-trips via parse_admin)."""
    with atomic_open(path) as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(ADMIN_COLUMNS)
        for rec in records:
            writer.writerow([getattr(rec, c) for c in ADMIN_COLUMNS])


def write_survey_csv(path, records: list[SurveyRecord], *, delimiter: str = ","):
    extra_cols = []
    if records and records[0].extras:
        extra_cols = [k for k, _ in records[0].extras]
    with atomic_open(path) as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(SURVEY_COLUMNS + extra_cols)
        for rec in records:
            extras = dict(rec.extras)
            writer.writerow(
                [rec.link_key, int(rec.eligible), rec.pa_observed]
                + [extras.get(c, "") for c in extra_cols]
            )


def write_name_table(path, table: NameFrequencyTable, *, delimiter: str = ","):
    with atomic_open(path) as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(["name", "count"])
        for name in sorted(table.counts):
            writer.writerow([name, table.counts[name]])
