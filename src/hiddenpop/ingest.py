"""Register / survey parsing, standardization, exact linkage, name table.

All files are UTF-8 CSV with a comma-separated header row.  The register is
held as one columnar `Register`: every column but `link_key` is dictionary
encoded, so each distinct raw value is standardized once.  Register rows that
fail standardization go to a reject file with their first bad cell's error
rather than abort the whole load; an error is raised only when more than 5% of
the rows are rejected.  A file that cannot be read, lacks a column or holds a
row with too few fields raises DataError naming the file and line (the
physical line on which the row ends).  See docs/formats.md for the column
schemas.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import re
import unicodedata
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, zip_longest
from pathlib import Path

import numpy as np

from .domain import MEMBERSHIP, pa_open
from .errors import DataError, ExcludedCombination

log = logging.getLogger(__name__)

COMMON_NAME_MIN_COUNT = 5  # the reference data never defines "common"; this is fixed

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

_GENDER_ALIASES = {"F": "F", "FEMALE": "F", "FEMMINA": "F",
                   "M": "M", "MALE": "M", "MASCHIO": "M"}

_BOOL_ALIASES = {"1": True, "true": True, "yes": True,
                 "0": False, "false": False, "no": False}


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


def _category(name: str, aliases: dict, key):
    """Standardizer of a coded column: the value aliases holds for key(raw)."""

    def standardize(raw: str):
        try:
            return aliases[key(raw)]
        except KeyError:
            raise ValueError(f"unrecognized {name} {raw!r}") from None

    return standardize


# each rule keeps its own key: str.upper maps "ı" to "I" and "ſ" to "S", so
# "femmına" and "maſchio" are genders where a lower-case key would reject them
standardize_employment = _category("employment", _EMPLOYMENT_ALIASES, _slug)
standardize_course_level = _category("course level", _COURSE_ALIASES, _slug)
standardize_gender = _category("gender", _GENDER_ALIASES, lambda raw: raw.strip().upper())
_parse_bool = _category("boolean", _BOOL_ALIASES, lambda raw: raw.strip().lower())


def standardize_country(raw: str) -> str:
    key = raw.strip().upper()
    return _COUNTRY_ALIASES.get(key, key)


def _count(name: str, low: int):
    """Standardizer of a count column: an int in [low, 2**53)."""

    def standardize(raw: str) -> int:
        value = int(raw)
        if not low <= value < _MAX_COUNT:
            raise ValueError(f"{name} must be in [{low}, 2**53), got {value}")
        return value

    return standardize


# column -> standardizer of one raw value, in admin.csv's column order; ValueError rejects the row
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
ADMIN_COLUMNS = ["link_key", *_STANDARDIZERS]

MAX_REJECT_FRACTION = 0.05
# rows read, coded and written per block; a block's row lists are freed before
# the garbage collector's youngest generation (700 objects) fills up
BLOCK_ROWS = 512
KEY = np.dtypes.StringDType()  # link_key's type: no Python object per key, up to 15 bytes inline


class Coder(dict):
    """Raw value -> code of its standardized level; negative when standardizing raises.

    Each distinct raw value is standardized once; levels holds the given levels,
    then the other standardized values in order of first appearance, and errors
    the message of each failure, code -1 - i for errors[i].
    """

    def __init__(self, standardize=None, levels=()):
        super().__init__()
        self.standardize, self.levels, self.errors = standardize, list(levels), []
        self._code_of = {level: code for code, level in enumerate(self.levels)}

    def __missing__(self, raw):
        try:
            level = raw if self.standardize is None else self.standardize(raw)
        except ValueError as exc:
            self.errors.append(str(exc))
            self[raw] = code = -len(self.errors)
            return code
        self[raw] = code = self._code_of.setdefault(level, len(self.levels))
        if code == len(self.levels):
            self.levels.append(level)
        return code

    def code(self, values) -> np.ndarray:
        """The codes of values, in the narrowest type that holds every code given so far."""
        codes = np.fromiter(map(self.__getitem__, values), np.int32, len(values))
        return codes.astype(code_dtype(max(len(self.levels), len(self.errors))))


def code_dtype(count: int) -> np.dtype:
    """The narrowest signed integer type that holds every code in [-count, count)."""
    return np.min_scalar_type(-max(count, 1))


@dataclass
class Register:
    """The standardized register, one array per column.

    link_key is a KEY (StringDType) array.  Every other column is an array of
    codes into levels[column], the column's distinct values, in the narrowest
    signed integer type that holds them (code_dtype): one byte up to 128 levels.
    """

    link_key: np.ndarray
    codes: dict
    levels: dict

    def __len__(self) -> int:
        return len(self.link_key)

    @classmethod
    def concat(cls, parts, levels) -> "Register":
        """The rows of parts, which share these level lists, one after another; each
        column takes the widest of its parts' code types."""
        return cls(np.concatenate([np.empty(0, dtype=KEY)] + [p.link_key for p in parts]),
                   {c: np.concatenate([np.empty(0, dtype=np.int8)] + [p.codes[c] for p in parts])
                    for c in levels}, levels)

    @cached_property
    def key_order(self) -> np.ndarray:
        """The rows in link_key order, ties in row order: the one sort of the keys."""
        return np.argsort(self.link_key, kind="stable")

    def take(self, rows) -> "Register":
        """The given rows, in the given order; the level lists are shared."""
        return Register(self.link_key[rows], {c: a[rows] for c, a in self.codes.items()},
                        self.levels)

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
        """Positions, in rows and survey, of the matched students whose pa is open."""
        return np.flatnonzero(pa_open(self.register.bp[self.rows], self.register.cit[self.rows]))


@contextmanager
def reading(path, *content_errors):
    """Re-raise a failure to open, decode or parse path as DataError naming it.

    content_errors are further exception types that, raised inside the block,
    also mean the file is not what it should be (a missing key, a wrong type).
    """
    try:
        yield
    except (OSError, UnicodeDecodeError, csv.Error, json.JSONDecodeError, RecursionError,
            *content_errors) as exc:  # RecursionError: JSON nested too deep to parse
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


def first_repeat(keys, order, line):
    """(i, reason) for the first row i whose key an earlier row holds, or None.  order lists
    the rows by key, ties in row order, so a key's rows are neighbours there, in row order."""
    ordered = keys[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if len(repeats):
        i = repeats.min()
        first = order[np.argmax(ordered == keys[i])]
        return i, f"link_key {keys[i]!r} already on line {line[first]}"


def read_register(path, coders, *, keep=None, check=None):
    """The rows of a CSV file: link_key, stripped, and each coders column, coded.

    keep(header, lines, rows, part) picks the rows of each block to keep (all by
    default); check(register, coders) gives (position, reason) of the first row
    it forbids, or None.  The first line whose kept link_key holds a NUL character
    (KEY compares strings only up to one), or repeats a kept link_key, or else
    that check forbids, raises DataError naming it, ahead of a later read failure.
    """
    levels = {c: coder.levels for c, coder in coders.items()}
    parts, lines, nul = [], [], []  # nul: the position of each block's first kept key with a NUL
    try:
        for header, block_lines, rows in read_blocks(path, ["link_key", *coders]):
            columns = dict(zip(header, zip(*rows)))  # a repeated name reads its last column
            part = Register(np.array(list(map(str.strip, columns["link_key"])), dtype=object),
                            {c: coder.code(columns[c]) for c, coder in coders.items()}, levels)
            kept = slice(None) if keep is None else keep(header, block_lines, rows, part)
            part, keys = part.take(kept), part.link_key[kept].tolist()
            if "\x00" in "".join(keys):
                nul.append(sum(map(len, parts)) + ["\x00" in key for key in keys].index(True))
            part.link_key = np.array(keys, dtype=KEY)  # the block's str objects die with it
            parts.append(part)
            lines.append(np.array(block_lines)[kept])
    finally:
        register = Register.concat(parts, levels)
        line = np.concatenate([np.empty(0, dtype=int)] + lines)
        keys = register.link_key
        faults = [(nul[0], f"link_key {keys[nul[0]]!r} holds a NUL character") if nul else None,
                  first_repeat(keys, register.key_order, line),
                  check(register, coders) if check else None]  # a repeat goes first on its line
        fault = min(filter(None, faults), key=lambda fault: fault[0], default=None)
        if fault:
            raise DataError(f"{path}:{line[fault[0]]}: {fault[1]}")
    return register


@contextmanager
def atomic_open(path):
    """Write to a temp file beside path, then rename it over path.

    The temp file is created with mode 0666 less the umask, as open() would
    create it (mkstemp would leave 0600); failing to create or rename it names path.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="", encoding="utf-8") as f:
                yield f
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None


def write_csv(path, header, rows):
    """Write the header row, then rows, through csv.writer, atomically."""
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def parse_admin(path) -> Register:
    """Load and standardize the register; bad rows go to <path>.rejects.csv.

    Raises DataError when more than MAX_REJECT_FRACTION of the rows fail
    standardization, when a link_key repeats, or when the file is unreadable.
    """
    path = Path(path)
    rejects = []  # (line number, reason, raw row)
    coders = {c: Coder(s) for c, s in _STANDARDIZERS.items()}

    def keep(header, lines, rows, part):
        bad = np.any([a < 0 for a in part.codes.values()], axis=0)
        for i in np.flatnonzero(bad):
            row = dict(zip(header, rows[i]))
            # the error of the row's first rejected cell, in column order
            reason = next(coders[c].errors[-1 - a[i]] for c, a in part.codes.items() if a[i] < 0)
            if len(rows[i]) > len(header):  # csv.DictReader's restkey, as before
                row[None] = rows[i][len(header):]
            rejects.append((lines[i], reason, ";".join(f"{k}={v}" for k, v in row.items())))
        return np.flatnonzero(~bad)

    register = read_register(path, coders, keep=keep)
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
    keys, order = admin.link_key, admin.key_order
    # a binary search of the key order, comparing str: np.searchsorted compares KEY strings
    # of over 15 bytes wrongly (NumPy 2.4)
    at = [bisect_left(order, s.link_key, key=keys.__getitem__) for s in survey]
    row_of = {s.link_key: order[i] for s, i in zip(survey, at)
              if i < len(keys) and keys[order[i]] == s.link_key}
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


def build_name_table(path) -> dict[str, int]:
    """Load the external given-name reference (columns: name,count): normalized name -> count."""
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
    return counts


def is_common_name(name: str, table: dict[str, int]) -> bool:
    """Whether a given name is in the reference table with count >= COMMON_NAME_MIN_COUNT."""
    key = normalize_name(name)
    if not key:
        log.warning("empty given name treated as not common")
        return False
    return table.get(key, 0) >= COMMON_NAME_MIN_COUNT


# what csv.writer's default dialect quotes: the delimiter, the quote character, CR and LF
_QUOTED = re.compile('[,"\r\n]')


def _csv_cells(values) -> np.ndarray:
    """Each value as one cell of csv.writer: quoted, its quotes doubled, where _QUOTED matches."""
    return np.array(['"' + v.replace('"', '""') + '"' if _QUOTED.search(v) else v
                     for v in values], dtype=object)


def write_admin_csv(path, register: Register, more=None, order=None):
    """Write the register's rows in order (row order by default), in the canonical column
    order (round-trips via parse_admin).

    The bytes are csv.writer's, but each level is quoted once, not once per row.
    more maps further columns to (cells, codes): each distinct cell, as text that
    needs no quoting, and each register row's index into them.  Each level's text carries
    the separator after it; each block of BLOCK_ROWS rows is one join of its cells.
    """
    columns = {c: (_csv_cells(map(str, register.levels[c])), register.codes[c])
               for c in ADMIN_COLUMNS[1:]} | (more or {})
    ends = [","] * (len(columns) - 1) + ["\r\n"]
    text = [(np.array(cells, dtype=object) + end, codes)
            for (cells, codes), end in zip(columns.values(), ends)]
    with atomic_open(path) as f:
        csv.writer(f).writerow(ADMIN_COLUMNS[:1] + list(columns))
        for start in range(0, len(register), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            rows = block if order is None else order[block]
            keys = register.link_key[rows].tolist()
            if _QUOTED.search("".join(keys)):
                keys = _csv_cells(keys)
            table = np.empty((len(keys), len(columns) + 2), dtype=object)  # row-major
            table[:, 0], table[:, 1] = keys, ","
            for j, (cells, codes) in enumerate(text, start=2):
                table[:, j] = cells[codes[rows]]
            f.write("".join(table.ravel().tolist()))


def write_survey_csv(path, records: list[SurveyRecord]):
    write_csv(path, SURVEY_COLUMNS,
              ([rec.link_key, int(rec.eligible), rec.pa_observed] for rec in records))


def write_name_table(path, table: dict[str, int]):
    write_csv(path, ["name", "count"], sorted(table.items()))
