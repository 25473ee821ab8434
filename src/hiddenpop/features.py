"""Predictor encoding and assembly of the labeled training set.

The predictor set is fixed: gender, employment status, course level, the
common-Italian-name dummy, years enrolled and ECTS earned.  Categoricals are
one-hot encoded against a reference level; numerics are z-scored with
statistics computed on the training rows (trees are insensitive to the
monotone rescaling, the logistic solver benefits from the conditioning).

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
from .ingest import (COMMON_NAME_MIN_COUNT, LinkedDataset, NameFrequencyTable, Register,
                     check_round_trip, is_common_name)

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
    name: str
    kind: str  # "onehot" | "binary" | "numeric"
    group: str
    source: str = ""
    level: str = ""
    mean: float = 0.0
    sd: float = 1.0


@dataclass
class FeatureSchema:
    """Fixed, serialized column layout; travels with any fitted model."""

    columns: list
    dropped: list = field(default_factory=list)
    unknown_level_count: int = 0

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
            "columns": [vars(c) for c in self.columns],
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


def feature_layout(moments: dict) -> list[Column]:
    """Every column in the fixed order: categorical dummies, the name flag, numerics.

    moments maps each numeric source to the (mean, sd) it is z-scored by.
    """
    columns = [
        Column(name=f"{source}={level}", kind="onehot", group=source,
               source=source, level=level)
        for source, _ref, levels in _CATEGORICALS for level in levels
    ]
    columns.append(Column(name=NAME_FLAG, kind="binary", group=NAME_FLAG,
                          source="given_name"))
    for source in _NUMERICS:
        mean, sd = moments[source]
        columns.append(Column(name=source, kind="numeric", group=source,
                              source=source, mean=mean, sd=sd))
    return columns


def _source_values(register: Register, name_table) -> dict:
    """Column group -> array of its source values over the register's rows.

    The name flag is computed once per distinct given name present.
    """
    names, codes = register.levels["given_name"], register.codes["given_name"]
    common = np.zeros(len(names), dtype=bool)
    for i in np.flatnonzero(np.bincount(codes, minlength=len(names))):
        common[i] = is_common_name(names[i], name_table)
    values = {source: register.column(source) for source, _, _ in _CATEGORICALS}
    values[NAME_FLAG] = common[codes]
    for source in _NUMERICS:
        values[source] = np.array(register.levels[source], dtype=float)[register.codes[source]]
    return values


def build_schema(register: Register, name_table: NameFrequencyTable) -> FeatureSchema:
    """Derive the column layout and z-scoring stats from the training rows.

    Degenerate features (single observed level, zero-variance numeric) are
    dropped with a warning and recorded in schema.dropped.
    """
    if not len(register):
        raise ValueError("cannot build a schema from zero records")
    values = _source_values(register, name_table)
    observed = {group: set(v.tolist()) for group, v in values.items()}
    dropped = [group for group in values if len(observed[group]) < 2]
    for group in dropped:
        log.warning("feature %r degenerate (only %s observed), dropped",
                    group, observed[group])
    moments = {source: (float(values[source].mean()), float(values[source].std(ddof=0)))
               for source in _NUMERICS}
    columns = [
        c for c in feature_layout(moments)
        if c.group not in dropped and (c.kind != "onehot" or c.level in observed[c.group])
    ]
    return FeatureSchema(columns=columns, dropped=dropped)


def encode_columns(values: dict, schema: FeatureSchema) -> np.ndarray:
    """Encode per-group source arrays into the schema's columns, one column at a time.

    values maps each column group to an array over the rows: the raw level of
    a categorical, the boolean name flag, or the numeric value.  Category
    levels unseen at schema build fall back to the reference level (all-zero
    dummies) and add, per row, one count for each of that source's dummies to
    schema.unknown_level_count.
    """
    n = len(next(iter(values.values())))
    X = np.empty((n, schema.width))
    reference = {source: ref for source, ref, _ in _CATEGORICALS}
    dummies = {}
    for c in schema.columns:
        if c.kind == "onehot":
            dummies.setdefault(c.group, []).append(c.level)
    for source, encoded in dummies.items():
        known = {reference[source], *encoded}
        for value, count in zip(*np.unique(values[source], return_counts=True)):
            if value not in known:
                schema.unknown_level_count += int(count) * len(encoded)
                log.warning("unknown %s level %r mapped to reference (%d rows)",
                            source, str(value), count)
    for i, c in enumerate(schema.columns):
        if c.kind == "numeric":
            X[:, i] = (values[c.group] - c.mean) / c.sd
        elif c.kind == "onehot":
            X[:, i] = values[c.group] == c.level
        else:
            X[:, i] = values[c.group]
    return X


def encode_matrix(register: Register, schema: FeatureSchema,
                  name_table: NameFrequencyTable) -> np.ndarray:
    """Encode the register's rows into the schema's column order, one row each."""
    if not len(register):
        return np.empty((0, schema.width))
    return encode_columns(_source_values(register, name_table), schema)


def assemble_training_set(linked: LinkedDataset, schema: FeatureSchema,
                          name_table: NameFrequencyTable) -> LabeledDataset:
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
    X = encode_matrix(register, schema, name_table)
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
