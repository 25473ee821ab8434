"""Register expansion: impute the missing parental indicator, attach membership
and typology to every register record, tabulate the population, and compare
sample vs. population marginals.

Provenance of each record's membership:

* ``exact``     — determined by the register's own bp/cit indicators
* ``linked``    — pa observed via the survey linkage
* ``predicted`` — pa imputed by a fitted classifier (score retained)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .domain import KIND_LABELS, MEMBERSHIP, PA_UNOBSERVED, BackgroundKind
from .errors import DataError, HiddenPopError, SchemaMismatch
from .features import FeatureSchema, encode_matrix
from .ingest import LinkedDataset, NameFrequencyTable, Register
from .models import ForestModel, LogisticModel, predict_forest, predict_logistic

log = logging.getLogger(__name__)

PROVENANCES = ("exact", "linked", "predicted")
_EXACT, _LINKED, _PREDICTED = range(3)


@dataclass
class Imputations:
    """The imputed pa of the unlinked (bp,cit)=(1,1) register rows."""

    rows: np.ndarray    # register rows
    pa: np.ndarray      # 0 where the score exceeds the threshold, else 1
    scores: np.ndarray  # the model's P(pa=0) under the case-control training mix

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class Expanded:
    """The register in link_key order, each row with its membership and provenance."""

    register: Register
    delta: np.ndarray
    kind: np.ndarray
    provenance: np.ndarray  # index into PROVENANCES
    score: np.ndarray       # the imputation score of "predicted" rows, NaN elsewhere

    def __len__(self) -> int:
        return len(self.register)


def predict_scores(model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, LogisticModel):
        return predict_logistic(model, X)
    if isinstance(model, ForestModel):
        return predict_forest(model, X)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def impute_pa(model, schema: FeatureSchema, admin: Register, name_table: NameFrequencyTable,
              *, linked_rows=(), threshold: float = 0.5) -> Imputations:
    """Score every (bp,cit)=(1,1) register row outside linked_rows.

    The score is the model's P(pa=0) under the case-control training mix, not
    a population probability; pa_hat = 0 when the score exceeds the threshold
    (score exactly at the threshold resolves to pa_hat=1, the same tie rule
    classification uses everywhere else).
    """
    if model.width != schema.width:
        raise SchemaMismatch(
            f"model width {model.width} does not match schema width {schema.width}"
        )
    target = (admin.bp == 1) & (admin.cit == 1)
    target[np.asarray(linked_rows, dtype=np.intp)] = False
    rows = np.flatnonzero(target)
    if not len(rows):
        return Imputations(rows, np.empty(0, dtype=np.int8), np.empty(0))
    scores = predict_scores(model, encode_matrix(admin.take(rows), schema, name_table))
    pa = np.where(scores > threshold, 0, 1).astype(np.int8)
    log.info("imputed pa for %d records (%.1f%% predicted pa=0)",
             len(rows), 100 * np.mean(pa == 0))
    return Imputations(rows, pa, scores)


def expand_dataset(admin: Register, linked: LinkedDataset, imputations: Imputations) -> Expanded:
    """Every register row with its membership, ordered by link_key.

    Precedence: a survey-observed pa decides its row wherever the register's
    bp/cit alone would not: inside (1,1), where it beats an imputed one, and
    at (0,1) when it is 1, overriding the rule that an unobserved pa there
    is 0.  The register settles every other row outside (1,1).  Raises
    HiddenPopError for a (1,1) row with neither pa.
    """
    bp, cit = admin.bp, admin.cit
    inside = (bp == 1) & (cit == 1)
    pa = np.full(len(admin), PA_UNOBSERVED, dtype=np.int8)
    provenance = np.full(len(admin), _PREDICTED, dtype=np.int8)
    score = np.full(len(admin), np.nan)
    pa[imputations.rows], score[imputations.rows] = imputations.pa, imputations.scores
    pa[~inside], provenance[~inside] = PA_UNOBSERVED, _EXACT
    rows, observed = linked.rows, np.array([s.pa_observed for s in linked.survey], dtype=np.intp)
    decides = (MEMBERSHIP[bp[rows], cit[rows], observed]
               != MEMBERSHIP[bp[rows], cit[rows], PA_UNOBSERVED]).any(axis=1)
    pa[rows[decides]], provenance[rows[decides]] = observed[decides], _LINKED
    score[provenance != _PREDICTED] = np.nan
    order = np.argsort(admin.link_key, kind="stable")
    delta, kind = MEMBERSHIP[bp[order], cit[order], pa[order]].T
    if (kind < 0).any():
        key = admin.link_key[order[np.argmax(kind < 0)]]
        raise HiddenPopError(
            f"record {key!r} has (bp,cit)=(1,1) but neither a linked nor an imputed pa"
        )
    return Expanded(admin.take(order), delta, kind, provenance[order], score[order])


@dataclass
class DistributionTable:
    """Population tabulation: counts and two percentage bases per kind."""

    rows: list  # dicts: delta, kind, label, count, pct_of_all, pct_of_members
    n_total: int
    n_members: int


def tabulate_population(expanded: Expanded) -> DistributionTable:
    n_total = len(expanded)
    counts = np.bincount(expanded.kind, minlength=len(BackgroundKind)).tolist()
    n_members = n_total - counts[BackgroundKind.NO_BACKGROUND]
    rows = []
    for kind in BackgroundKind:
        count, member = counts[kind], kind != BackgroundKind.NO_BACKGROUND
        rows.append({
            "delta": int(member), "kind": int(kind), "label": KIND_LABELS[kind], "count": count,
            "pct_of_all": 100.0 * count / n_total if n_total else 0.0,
            "pct_of_members": 100.0 * count / n_members if member and n_members else None,
        })
    return DistributionTable(rows=rows, n_total=n_total, n_members=n_members)


# marginals the two sources share: a register column, or an indicator and the
# names of its levels 0 and 1
SHARED_VARIABLES = {
    "gender": "gender",
    "department": "department",
    "course_level": "course_level",
    "employment": "employment",
    "birth_place": ("bp", ["foreign", "italy"]),
    "citizenship": ("cit", ["foreign", "italian"]),
}


@dataclass
class BiasReport:
    """Per-variable, per-level population vs. sample shares and their gaps (pp)."""

    variables: dict  # variable -> {level: (population_share, sample_share, gap)}
    flagged: list    # (variable, level, gap) with |gap| >= alert threshold
    alert_threshold: float


def _shares(register: Register, variable: str) -> dict:
    """Level -> percentage of the register's rows, for the levels present."""
    source = SHARED_VARIABLES[variable]
    if isinstance(source, tuple):
        codes, levels = getattr(register, source[0]), source[1]
    else:
        codes, levels = register.codes[source], register.levels[source]
    counts = np.bincount(codes, minlength=len(levels)).tolist()
    return {lvl: 100.0 * c / len(codes) for lvl, c in zip(levels, counts) if c}


def bias_report(population: Register, sample: Register, variables: list[str], *,
                alert_threshold: float = 5.0) -> BiasReport:
    """Compare the full member population with the opt-in sample.

    gap = sample share - population share, in percentage points; descriptive
    only, no correction is attempted.
    """
    if not len(population) or not len(sample):
        raise DataError("both population and sample must be nonempty")
    out, flagged = {}, []
    for var in variables:
        if var not in SHARED_VARIABLES:
            raise DataError(f"unknown shared variable {var!r}")
        pop = _shares(population, var)
        sample_shares = _shares(sample, var)
        stray = set(sample_shares) - set(pop)
        if stray:
            raise DataError(f"{var}: sample levels {sorted(stray)} absent from population")
        table = {}
        for lvl in sorted(pop):
            p, s = pop[lvl], sample_shares.get(lvl, 0.0)
            gap = s - p
            table[lvl] = (p, s, gap)
            if abs(gap) >= alert_threshold:
                flagged.append((var, lvl, gap))
        out[var] = table
    return BiasReport(variables=out, flagged=flagged, alert_threshold=alert_threshold)
