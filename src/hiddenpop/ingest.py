"""Register / survey parsing, standardization, exact linkage, name table.

All files are UTF-8 CSV with a comma-separated header row.  The register is
held as one columnar `Register`: every column but `link_key` is dictionary
encoded, so each distinct raw value is standardized once.  Register rows that
fail standardization are routed to a reject file with a reason code rather
than aborting the whole load; an error is raised only when more than 5% of
the rows are rejected.  A file that cannot be read, lacks a column or holds a
row with too few fields raises DataError naming the file and line (the
physical line on which the row ends).  See docs/formats.md for the column
schemas.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import re
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, zip_longest
from pathlib import Path

import numpy as np

from .domain import MEMBERSHIP
from .errors import DataError, ExcludedCombination

log = logging.getLogger(__name__)

COMMON_NAME_MIN_COUNT = 5  # the reference data never defines "common"; this is fixed

GENDERS = {"F", "M"}

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


def _count(name: str, low: int):
    """Standardizer of a count column: an int in [low, 2**53)."""

    def standardize(raw: str) -> int:
        value = int(raw)
        if not low <= value < _MAX_COUNT:
            raise ValueError(f"{name} must be in [{low}, 2**53), got {value}")
        return value

    return standardize


# column -> standardizer of one raw value; ValueError rejects the row
_STANDARDIZERS = {
    "given_name": str.strip,
    "gender": standardize_gender,
    "birth_country": standardize_country,
    "citizenship_country": standardize_country,
    "course_level": standardize_course_level,
    "department": _slug,
    "enrollment_year": int,
    "years_enrolled": _count("years_enrolled", 1),
    "ects_earned": _count("ects_earned", 0),
    "employment": standardize_employment,
}

MAX_REJECT_FRACTION = 0.05
# rows read, coded and written per block; a block's row lists are freed before
# the garbage collector's youngest generation (700 objects) fills up
BLOCK_ROWS = 512


class Coder(dict):
    """Raw value -> code of its standardized level; -1 when standardizing raises.

    Each distinct raw value is standardized once; levels holds the distinct
    standardized values in order of first appearance.
    """

    def __init__(self, standardize=None):
        super().__init__()
        self.standardize, self.levels, self._code_of = standardize, [], {}

    def __missing__(self, raw):
        try:
            level = raw if self.standardize is None else self.standardize(raw)
        except ValueError:
            self[raw] = -1
            return -1
        self[raw] = code = self._code_of.setdefault(level, len(self.levels))
        if code == len(self.levels):
            self.levels.append(level)
        return code

    def code(self, values) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, values), np.int32, len(values))


@dataclass
class Register:
    """The standardized register, one array per column.

    link_key is an object array of strings.  Every other column is an int32
    array of codes into levels[column], the column's distinct values.
    """

    link_key: np.ndarray
    codes: dict
    levels: dict

    def __len__(self) -> int:
        return len(self.link_key)

    @classmethod
    def from_columns(cls, columns: dict) -> "Register":
        """A register from one sequence of standardized values per admin column."""
        coders = {c: Coder() for c in ADMIN_COLUMNS[1:]}
        codes = {c: coder.code(np.asarray(columns[c], dtype=object))
                 for c, coder in coders.items()}
        return cls(np.asarray(columns["link_key"], dtype=object), codes,
                   {c: coder.levels for c, coder in coders.items()})

    @classmethod
    def concat(cls, parts, levels) -> "Register":
        """The rows of parts, which share these level lists, one after another."""
        return cls(np.concatenate([np.empty(0, dtype=object)] + [p.link_key for p in parts]),
                   {c: np.concatenate([np.empty(0, dtype=np.int32)] + [p.codes[c] for p in parts])
                    for c in levels}, levels)

    def take(self, rows) -> "Register":
        """The given rows, in the given order; the level lists are shared."""
        return Register(self.link_key[rows], {c: a[rows] for c, a in self.codes.items()},
                        self.levels)

    def column(self, name) -> np.ndarray:
        """Decoded values of a coded column."""
        return np.asarray(self.levels[name])[self.codes[name]]

    def _is_italy(self, name) -> np.ndarray:
        return np.array([lvl == ITALY for lvl in self.levels[name]], dtype=np.int8)[
            self.codes[name]]

    bp = property(lambda self: self._is_italy("birth_country"), doc="Born in Italy, 0/1 per row.")
    cit = property(lambda self: self._is_italy("citizenship_country"),
                   doc="Italian citizenship, 0/1 per row.")

@dataclass(frozen=True)
class SurveyRecord:
    """One survey row: respondents plus screened-out metadata.

    Screened-out rows (eligible=False) always carry pa_observed=1: they were
    turned away precisely because both parents were Italian nationals.
    """

    link_key: str
    eligible: bool
    pa_observed: int


@dataclass
class LinkedDataset:
    """The survey records that name a register row, and the rows they name."""

    register: Register
    rows: np.ndarray  # register row of each matched survey record
    survey: list      # the matched SurveyRecords, in survey order
    unmatched_survey: list

    def native(self) -> np.ndarray:
        """Positions, in rows and survey, of the matched students with bp = cit = 1."""
        matched = self.register.take(self.rows)
        return np.flatnonzero((matched.bp == 1) & (matched.cit == 1))


@dataclass
class NameFrequencyTable:
    counts: dict  # normalized name -> count

    @property
    def total_names(self) -> int:
        return len(self.counts)


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


def check_round_trip(stored, written, path: str = ""):
    """Raise ValueError naming the first value where stored, a file's JSON, differs.

    written is what saving the object loaded from stored writes back.  Values
    compare as JSON text, so true, 1 and 1.0 differ; a key or item only one
    holds is ... in the other.
    """
    texts = ["absent" if v is ... else json.dumps(v, sort_keys=True) for v in (stored, written)]
    if texts[0] == texts[1]:
        return
    if isinstance(stored, dict) and isinstance(written, dict):
        for key in sorted(stored.keys() | written.keys()):
            check_round_trip(stored.get(key, ...), written.get(key, ...),
                             f"{path} {key}".lstrip())
    elif isinstance(stored, list) and isinstance(written, list):
        for i, (s, w) in enumerate(zip_longest(stored, written, fillvalue=...)):
            check_round_trip(s, w, f"{path}[{i}]")
    else:
        raise ValueError(f"{path} is {texts[0]} but loads as {texts[1]}")


def read_blocks(path, required):
    """Yield (header, line numbers, rows) for the data rows of a UTF-8 CSV file.

    A leading byte-order mark (spreadsheet "CSV UTF-8" exports write one) is
    skipped.  Rows come BLOCK_ROWS at a time; blank lines are skipped, a row
    may be longer than the header, and a row's line number is that of its
    last physical line.  Raises DataError naming the file when it cannot be read
    or its header lacks a required column, and, with the line, at a row with
    fewer fields than the header; every row before a failure is yielded first.
    """
    with reading(path), open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        while True:
            lines, rows, failure, consumed = [], [], None, 0
            try:
                for consumed, row in enumerate(islice(reader, BLOCK_ROWS), start=1):
                    if not row:
                        continue
                    if len(row) < len(header):
                        failure = DataError(
                            f"{path}:{reader.line_num}: fewer fields than the header")
                        break
                    lines.append(reader.line_num)
                    rows.append(row)
            except (OSError, UnicodeDecodeError, csv.Error) as exc:
                failure = exc
            if rows:
                yield header, lines, rows
            if failure is not None:
                raise failure
            if consumed < BLOCK_ROWS:
                return


def read_csv(path, required):
    """Yield (line number, row dict) for every data row, with read_blocks' checks."""
    for header, lines, rows in read_blocks(path, required):
        for lineno, row in zip(lines, rows):
            yield lineno, dict(zip(header, row))


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


def write_csv(path, header, rows):
    """Write the header row, then rows, through csv.writer, atomically."""
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _reject_reason(row: dict) -> str:
    """Why a register row fails standardization: its first failing check."""
    try:
        int(row["years_enrolled"]), int(row["ects_earned"])  # both parse before any range check
        for name in ("years_enrolled", "ects_earned", "gender", "course_level",
                     "enrollment_year", "employment"):
            _STANDARDIZERS[name](row[name])
    except ValueError as exc:
        return str(exc)


def parse_admin(path) -> Register:
    """Load and standardize the register; bad rows go to <path>.rejects.csv.

    Raises DataError when more than MAX_REJECT_FRACTION of the rows fail
    standardization, when a link_key repeats, or when the file is unreadable.
    """
    path = Path(path)
    coders = {c: Coder(standardize) for c, standardize in _STANDARDIZERS.items()}
    levels = {c: coder.levels for c, coder in coders.items()}
    parts, lines = [], []
    rejects = []  # (line number, reason, raw row)

    def check_keys():
        keys = np.concatenate([np.empty(0, dtype=object)] + [p.link_key for p in parts])
        if len(set(keys.tolist())) == len(keys):
            return
        seen = {}
        for key, lineno in zip(keys.tolist(), np.concatenate(lines).tolist()):
            if key in seen:
                raise DataError(f"{path}:{lineno}: link_key {key!r} already on line {seen[key]}")
            seen[key] = lineno

    try:  # a repeated key before a read failure is reported first
        for header, block_lines, rows in read_blocks(path, ADMIN_COLUMNS):
            columns = dict(zip(header, zip(*rows)))  # a repeated name reads its last column
            part = Register(np.array(list(map(str.strip, columns["link_key"])), dtype=object),
                            {c: coder.code(columns[c]) for c, coder in coders.items()}, levels)
            bad = np.any([a < 0 for a in part.codes.values()], axis=0)
            for i in np.flatnonzero(bad):
                row = dict(zip(header, rows[i]))
                reason = _reject_reason(row)
                if len(rows[i]) > len(header):  # csv.DictReader's restkey, as before
                    row[None] = rows[i][len(header):]
                rejects.append((block_lines[i], reason,
                                ";".join(f"{k}={v}" for k, v in row.items())))
            good = np.flatnonzero(~bad)
            parts.append(part.take(good))
            lines.append(np.array(block_lines)[good])
    finally:
        check_keys()
    register = Register.concat(parts, levels)
    total = len(register) + len(rejects)
    if rejects:
        write_csv(path.with_suffix(".rejects.csv"), ["line", "reason", "raw"], rejects)
        log.warning("%s: %d of %d rows rejected", path, len(rejects), total)
    if total and len(rejects) / total > MAX_REJECT_FRACTION:
        raise DataError(
            f"{path}: {len(rejects)}/{total} rows rejected "
            f"(limit {MAX_REJECT_FRACTION:.0%})"
        )
    return register


def _parse_bool(raw: str) -> bool:
    key = raw.strip().lower()
    if key in {"1", "true", "yes"}:
        return True
    if key in {"0", "false", "no"}:
        return False
    raise ValueError(f"unrecognized boolean {raw!r}")


def parse_survey(*paths) -> list[SurveyRecord]:
    """Load one or more survey extracts (respondents, screened-out) and concatenate."""
    records = []
    seen = {}
    for path in paths:
        for lineno, raw in read_csv(path, SURVEY_COLUMNS):
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
            records.append(SurveyRecord(link_key=key, eligible=eligible, pa_observed=pa))
    if not records:
        log.warning("no survey records parsed from %s", [str(p) for p in paths])
    return records


def link(admin: Register, survey: list[SurveyRecord]) -> LinkedDataset:
    """Exact equality join on link_key; unmatched rows are reported, not errors.

    A matched (bp, cit, pa) triple that Jus Sanguinis rules out raises
    ExcludedCombination.
    """
    wanted = {s.link_key for s in survey}
    row_of = {key: i for i, key in enumerate(admin.link_key.tolist()) if key in wanted}
    matched = [s for s in survey if s.link_key in row_of]
    unmatched_survey = [s for s in survey if s.link_key not in row_of]
    rows = np.array([row_of[s.link_key] for s in matched], dtype=np.intp)
    bp, cit = admin.bp[rows], admin.cit[rows]
    pa = np.array([s.pa_observed for s in matched], dtype=np.intp)
    excluded = MEMBERSHIP[bp, cit, pa, 1] < 0
    if excluded.any():
        i = int(np.argmax(excluded))
        raise ExcludedCombination(
            f"link_key {matched[i].link_key!r}: (bp={bp[i]}, cit={cit[i]}, pa={pa[i]}) "
            "cannot occur under Jus Sanguinis"
        )
    log.info(
        "linkage: %d matched, %d survey-only, %d register-only",
        len(matched), len(unmatched_survey), len(admin) - len(matched),
    )
    return LinkedDataset(admin, rows, matched, unmatched_survey)


def build_name_table(path) -> NameFrequencyTable:
    """Load the external given-name reference (columns: name,count)."""
    counts = {}
    for lineno, raw in read_csv(path, ["name", "count"]):
        try:
            count = int(raw["count"])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad count {raw['count']!r}") from None
        if count < 1:
            raise DataError(f"{path}:{lineno}: count must be >= 1")
        key = normalize_name(raw["name"])
        counts[key] = counts.get(key, 0) + count
    return NameFrequencyTable(counts)


def is_common_name(name: str, table: NameFrequencyTable) -> bool:
    """Whether a given name is in the reference table with count >= COMMON_NAME_MIN_COUNT."""
    key = normalize_name(name)
    if not key:
        log.warning("empty given name treated as not common")
        return False
    return table.counts.get(key, 0) >= COMMON_NAME_MIN_COUNT


# what csv.writer's default dialect quotes: the delimiter, the quote character, CR and LF
_QUOTED = re.compile('[,"\r\n]')


def _csv_cells(values) -> np.ndarray:
    """Each value as csv.writer writes it as one cell of a row of several."""
    buffer = io.StringIO()
    writer, cells = csv.writer(buffer), []
    for value in values:
        writer.writerow(("", value))  # a row of one empty cell alone would read '""'
        cells.append(buffer.getvalue()[1:-2])
        buffer.seek(0)
        buffer.truncate()
    return np.array(cells, dtype=object)


def write_admin_csv(path, register: Register, more_columns=(), more_cells=None):
    """Write the register in the canonical column order (round-trips via parse_admin).

    The bytes are csv.writer's, but each level is quoted once, not once per
    row.  more_columns follow the register's; more_cells(rows) gives their
    cells for a slice of rows, as text that needs no quoting.  Rows are
    written BLOCK_ROWS at a time.
    """
    text = {c: _csv_cells(map(str, register.levels[c])) for c in ADMIN_COLUMNS[1:]}
    with atomic_open(path) as f:
        csv.writer(f).writerow(ADMIN_COLUMNS + list(more_columns))
        for start in range(0, len(register), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            keys = register.link_key[rows]
            if _QUOTED.search("".join(keys)):
                keys = _csv_cells(keys)
            cells = [keys] + [text[c][register.codes[c][rows]] for c in ADMIN_COLUMNS[1:]]
            if more_cells is not None:
                cells += more_cells(rows)
            f.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))


def write_survey_csv(path, records: list[SurveyRecord]):
    write_csv(path, SURVEY_COLUMNS,
              ([rec.link_key, int(rec.eligible), rec.pa_observed] for rec in records))


def write_name_table(path, table: NameFrequencyTable):
    write_csv(path, ["name", "count"], sorted(table.counts.items()))
