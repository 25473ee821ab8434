"""Row-at-a-time register readers, the references the columnar readers must match.

parse_admin_rows is the parser the register was loaded with before it became
columnar: csv.DictReader yields one dict per row, each row is standardized on
its own into an AdminRecord, and a row that fails goes to the reject file.
Tests compare `hiddenpop.ingest.parse_admin` against it (same rows, same
reject file bytes, same DataError text).

read_expanded_rows is the expanded-register reader `report` used before it
read through parse_admin's block path: one dict per row, each register cell
standardized and each membership checked on its own.  Tests compare
`hiddenpop.report.read_expanded_csv` against it (equal Expanded objects, or a
DataError naming the same line).
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hiddenpop.domain import MEMBERSHIP, PA_UNOBSERVED, BackgroundKind, MigrantBackground
from hiddenpop.errors import DataError
from hiddenpop.expand import PROVENANCES, Expanded
from hiddenpop.ingest import (
    ADMIN_COLUMNS,
    ITALY,
    KEY,
    _STANDARDIZERS,
    Coder,
    Register,
    _slug,
    atomic_open,
    read_csv,
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


def _count(raw: str, name: str, low: int) -> int:
    value = int(raw)
    if not low <= value < _MAX_COUNT:
        raise ValueError(f"{name} must be in [{low}, 2**53), got {value}")
    return value


def standardize_admin_row(row: dict) -> AdminRecord:
    """The row's cells standardized in column order: the first bad cell raises."""
    return AdminRecord(
        link_key=row["link_key"].strip(),
        given_name=row["given_name"].strip(),
        gender=standardize_gender(row["gender"]),
        birth_country=standardize_country(row["birth_country"]),
        citizenship_country=standardize_country(row["citizenship_country"]),
        course_level=standardize_course_level(row["course_level"]),
        department=_slug(row["department"]),
        enrollment_year=int(row["enrollment_year"]),
        years_enrolled=_count(row["years_enrolled"], "years_enrolled", 1),
        ects_earned=_count(row["ects_earned"], "ects_earned", 0),
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


def register_from_columns(columns: dict) -> Register:
    """A register from one sequence of standardized values per admin column, each
    column coded by a Coder, as parse_admin codes the columns of a block."""
    coders = {c: Coder() for c in ADMIN_COLUMNS[1:]}
    return Register(np.asarray(columns["link_key"], dtype=KEY),
                    {c: coder.code(np.asarray(columns[c], dtype=object))
                     for c, coder in coders.items()},
                    {c: coder.levels for c, coder in coders.items()})


def register_of(records):
    """A Register from objects with one attribute per admin column."""
    return register_from_columns({c: [getattr(r, c) for r in records] for c in ADMIN_COLUMNS})


def decoded(register, column) -> list:
    """The value of a coded register column on each row."""
    return [register.levels[column][code] for code in register.codes[column].tolist()]


def register_rows(register) -> list[AdminRecord]:
    """A Register decoded back into one AdminRecord per row."""
    columns = [register.link_key.tolist()] + [decoded(register, c) for c in ADMIN_COLUMNS[1:]]
    return [AdminRecord(*values) for values in zip(*columns)]


def narrowed(codes) -> np.ndarray:
    """codes in the first of int8, int16 and int32 that holds them all.

    A column's codes run from -(its error count) to its level count - 1, each
    value taken by some row, so this is the type Coder.code narrows them to.
    """
    lo, hi = codes.min(initial=0), codes.max(initial=0)
    return codes.astype(next(t for t in (np.int8, np.int16, np.int32)
                             if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max))


_EXPANDED_COLUMNS = ADMIN_COLUMNS + ["delta", "kind", "provenance", "predicted_score"]


def _membership(row: dict) -> tuple:
    """(delta, kind, provenance index, score) of one written row; ValueError unless allowed."""
    bp, cit = int(row["birth_country"] == ITALY), int(row["citizenship_country"] == ITALY)
    bg = MigrantBackground(int(row["delta"]), BackgroundKind(int(row["kind"])))
    found, provenance, score = [bg.delta, int(bg.kind)], row["provenance"], row["predicted_score"]
    if provenance not in PROVENANCES:
        raise ValueError(f"bad provenance {provenance!r}")
    # exact: bp/cit settle the row; linked: an observed pa decides what they do not
    # (inside (1,1), or pa = 1 at (0,1)); predicted: an imputed pa, inside (1,1) only
    settled = MEMBERSHIP[bp, cit, PA_UNOBSERVED].tolist()
    observed = MEMBERSHIP[bp, cit, :2].tolist()
    if not {"exact": found == settled, "linked": found in observed and found != settled,
            "predicted": found in observed and (bp, cit) == (1, 1)}[provenance]:
        raise ValueError(
            f"delta={bg.delta} kind={int(bg.kind)} provenance={provenance!r} is not "
            f"allowed for bp={bp} cit={cit}"
        )
    value = float(score) + 0.0 if score else np.nan  # -0 reads as +0.0
    if score and not 0 <= value <= 1:
        raise ValueError(f"predicted_score {score!r} is not in [0, 1]")
    if provenance == "predicted" and not score:
        raise ValueError("predicted record without a score")
    if provenance != "predicted" and score:
        raise ValueError("predicted_score on a non-predicted record")
    return (*found, PROVENANCES.index(provenance), value)


def read_expanded_rows(path) -> Expanded:
    """The reference read of write_expanded_csv's output, one row at a time: the link_key
    stripped, and each register cell standardized as parse_admin standardizes it, the
    first failing column's error, in column order, naming the line."""
    coders = {c: Coder() for c in _STANDARDIZERS}
    lines, codes, found = {}, [], []  # lines: link_key -> line, in file order
    for lineno, row in read_csv(path, _EXPANDED_COLUMNS):
        key = row["link_key"].strip()
        if key in lines:
            raise DataError(f"{path}:{lineno}: link_key {key!r} already on line {lines[key]}")
        try:
            row.update({c: standardize(row[c]) for c, standardize in _STANDARDIZERS.items()})
            codes.append([coders[c][row[c]] for c in coders])
            found.append(_membership(row))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        lines[key] = lineno
    codes = np.array(codes, dtype=np.int64).reshape(-1, len(coders)).T
    delta, kind, provenance, score = np.array(found).reshape(-1, 4).T
    register = Register(np.array(list(lines), dtype=KEY),
                        {c: narrowed(a) for c, a in zip(coders, codes)},
                        {c: coder.levels for c, coder in coders.items()})
    return Expanded(register, *(a.astype(np.int8) for a in (delta, kind, provenance)), score)
