"""Predictor encoding and assembly of the labeled training set.

The predictor set is fixed: gender, employment status, course level, the
common-Italian-name dummy, years enrolled and ECTS earned.  The encoder takes
each as level codes and works once per level, indexing by row only at the end:
categoricals are one-hot encoded against a reference level, an unknown level
counted once, not per row; numerics are z-scored with statistics computed on
the training rows (trees are insensitive to the monotone rescaling, the
logistic solver benefits from the conditioning).

The positive class throughout is pa=0, i.e. "at least one foreign-born
parent": the event whose probability the logistic model targets.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, HiddenPopError
from .ingest import (COMMON_NAME_MIN_COUNT, LinkedDataset, Register, check_round_trip,
                     is_common_name)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# (source field, reference level, encoded levels) in fixed order; each
# feature's column group is named after its source field
_CATEGORICALS = [
    ("gender", "F", ["M"]),
    ("employment", "student", ["worker_student", "student_worker", "not_available"]),
    ("course_level", "bachelor", ["master", "bachelor_and_master"]),
]
NAME_FLAG = "common_italian_name"
# the rule is fixed; schema.json and model files record it, with top_k, a
# retired rule, as null so that they keep their bytes
NAME_RULE = {"min_count": COMMON_NAME_MIN_COUNT, "top_k": None}
_NUMERICS = ["years_enrolled", "ects_earned"]


@dataclass
class Column:
    kind: str  # "onehot" | "binary" | "numeric"; group and name follow from kind, source, level
    source: str
    level: str = ""
    mean: float = 0.0
    sd: float = 1.0

    @property
    def group(self) -> str:
        return NAME_FLAG if self.kind == "binary" else self.source

    @property
    def name(self) -> str:
        return f"{self.group}={self.level}" if self.kind == "onehot" else self.group


@dataclass
class FeatureSchema:
    """Fixed, serialized column layout; travels with any fitted model."""

    columns: list
    dropped: list = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> list:
        return [c.name for c in self.columns]

    @property
    def groups(self) -> list:
        """Distinct column groups in order; unit of grouped permutation."""
        return list(dict.fromkeys(c.group for c in self.columns))

    def group_indices(self, group: str) -> list:
        return [i for i, c in enumerate(self.columns) if c.group == group]

    def to_json(self) -> str:
        payload = {
            "version": SCHEMA_VERSION,
            "columns": [vars(c) | {"name": c.name, "group": c.group} for c in self.columns],
            "dropped": self.dropped,
            "name_rule": NAME_RULE,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        """Parse to_json's output; ValueError where to_json would not write text back."""
        payload = json.loads(text)
        stored = {c["name"]: c for c in payload["columns"]}
        # in layout order: a column out of order or outside the layout fails the round trip
        columns = [replace(c, mean=float(stored[c.name]["mean"]), sd=float(stored[c.name]["sd"]))
                   for c in feature_layout({s: (0.0, 1.0) for s in _NUMERICS}) if c.name in stored]
        for c in columns:
            if not (math.isfinite(c.mean) and math.isfinite(c.sd) and c.sd > 0):
                raise ValueError(f"feature column {c.name!r} has mean {c.mean} and sd {c.sd}; "
                                 "both must be finite and sd positive")
        schema = cls(columns, [str(group) for group in payload["dropped"]])
        check_round_trip(payload, json.loads(schema.to_json()), "schema")
        return schema


@dataclass
class LabeledDataset:
    """Encoded design matrix with binary labels (1 = pa=0, migrant-background parent)."""

    X: np.ndarray
    y: np.ndarray
    row_ids: list

    def __post_init__(self):
        if len(self.X) != len(self.y):
            raise ValueError("X and y length mismatch")


def design_matrix(X, width: int) -> np.ndarray:
    """X as a float (rows, width) matrix, the input of every model's predict."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != width:
        raise HiddenPopError(f"expected a (rows, {width}) matrix, got shape {X.shape}")
    return X


def fit_input(data) -> tuple[np.ndarray, np.ndarray]:
    """A training set's X as floats and y as ints, the input of every model's fit."""
    X, y = np.asarray(data.X, dtype=float), np.asarray(data.y, dtype=int)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite entries in design matrix")
    if y.min() == y.max():
        raise ValueError("both classes must be present")
    return X, y


def feature_layout(moments: dict) -> list[Column]:
    """Every column in the fixed order: categorical dummies, the name flag, numerics.

    moments maps each numeric source to the (mean, sd) it is z-scored by.
    """
    return ([Column("onehot", source, level) for source, _ref, levels in _CATEGORICALS
             for level in levels] + [Column("binary", "given_name")]
            + [Column("numeric", source, "", *moments[source]) for source in _NUMERICS])


def level_codes(register: Register, name_table, rows=slice(None)) -> dict:
    """Column group -> (levels, codes), the group's values and each given row's index
    into them; the name flag is computed once per distinct given name present."""
    names, codes = register.levels["given_name"], register.codes["given_name"][rows]
    common = np.zeros(len(names), dtype=np.int8)
    for i in np.flatnonzero(np.bincount(codes, minlength=len(names))):
        common[i] = is_common_name(names[i], name_table)
    groups = {source: (np.array(register.levels[source], dtype=object),
                       register.codes[source][rows]) for source, _, _ in _CATEGORICALS}
    groups[NAME_FLAG] = (np.array([False, True]), common[codes])
    return groups | {source: (np.array(register.levels[source], dtype=float),
                              register.codes[source][rows]) for source in _NUMERICS}


def distinct_rows(columns):
    """(first, inverse): a row index per distinct row of the table with these columns, and
    each row's index into first; a lexsort groups equal rows, copying one column at a time."""
    order = np.lexsort(columns)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in columns:
        sorted_column = column[order]
        new[1:] |= sorted_column[1:] != sorted_column[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new)
    inverse -= 1
    return order[new], inverse


def build_schema(register: Register, name_table: dict[str, int]) -> FeatureSchema:
    """Derive the column layout and z-scoring stats from the training rows.

    Degenerate features (single observed level, zero-variance numeric) are
    dropped with a warning and recorded in schema.dropped.  A level is observed
    if a row uses it, whatever the (maybe shared) level list holds.
    """
    if not len(register):
        raise DataError("no linked records with bp=cit=1 to train on")
    groups = level_codes(register, name_table)
    observed = {group: set(levels[np.bincount(codes, minlength=len(levels)) > 0].tolist())
                for group, (levels, codes) in groups.items()}
    dropped = [group for group in groups if len(observed[group]) < 2]
    for group in dropped:
        log.warning("feature %r degenerate (only %s observed), dropped",
                    group, observed[group])
    values = {source: np.take(*groups[source]) for source in _NUMERICS}
    moments = {source: (float(values[source].mean()), float(values[source].std(ddof=0)))
               for source in _NUMERICS}
    columns = [
        c for c in feature_layout(moments)
        if c.group not in dropped and (c.kind != "onehot" or c.level in observed[c.group])
    ]
    return FeatureSchema(columns=columns, dropped=dropped)


def encode_matrix(groups: dict, schema: FeatureSchema, counts=None) -> np.ndarray:
    """Encode per-group level codes into the schema's columns, one row per code.

    groups maps each column group to (levels, codes), as level_codes gives them; a column
    is computed once per level and indexed by the codes.  Category levels unseen at
    schema build fall back to the reference level (all-zero dummies), with one warning
    naming the level and its register rows, row r standing for counts[r] (1 by default).
    """
    n = len(next(iter(groups.values()))[1])
    X = np.empty((n, schema.width))
    for source, reference, _ in _CATEGORICALS:
        encoded = {c.level for c in schema.columns if c.group == source}
        levels, codes = groups[source]
        rows = np.bincount(codes, counts, minlength=len(levels)).astype(int).tolist()
        for value, count in sorted(zip(levels.tolist(), rows)):
            if encoded and count and value not in encoded | {reference}:
                log.warning("unknown %s level %r mapped to reference (%d rows)",
                            source, value, count)
    for i, c in enumerate(schema.columns):
        levels, codes = groups[c.group]
        if c.kind == "numeric":
            X[:, i] = ((levels - c.mean) / c.sd)[codes]
        elif c.kind == "onehot":
            X[:, i] = (levels == c.level)[codes]
        else:
            X[:, i] = levels[codes]
    return X


def assemble_training_set(linked: LinkedDataset, schema: FeatureSchema,
                          name_table: dict[str, int]) -> LabeledDataset:
    """Training rows: linked students with bp=cit=1, labeled 1 iff pa_observed=0.

    Only in the (bp,cit)=(1,1) stratum does pa carry information; everywhere
    else membership is already determined by the register.  Rows are in
    link_key order.
    """
    native = linked.native()
    if not len(native):
        raise DataError("no linked rows with bp=cit=1")
    rows = linked.rows[native]
    order = np.argsort(linked.register.link_key[rows], kind="stable")
    y = np.array([int(linked.survey[i].pa_observed == 0) for i in native[order]], dtype=int)
    if y.min() == y.max():
        raise DataError(f"training labels are all {y[0]}")
    register = linked.register.take(rows[order])
    X = encode_matrix(level_codes(register, name_table), schema)
    log.info("training set: %d rows, %.1f%% positive (pa=0)", len(y), 100 * y.mean())
    return LabeledDataset(X=X, y=y, row_ids=register.link_key.tolist())


def correlation_report(data: LabeledDataset, schema: FeatureSchema) -> dict:
    """Pearson correlation matrix of the encoded predictors (reported, never acted on)."""
    X = data.X
    sd = X.std(axis=0, ddof=0)
    safe = np.where(sd == 0, 1.0, sd)
    Z = (X - X.mean(axis=0)) / safe
    corr = Z.T @ Z / len(X)
    return {"names": schema.names, "matrix": corr.tolist()}
