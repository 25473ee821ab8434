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

from .domain import BackgroundKind, KIND_LABELS, compute_delta_type
from .errors import DataError, HiddenPopError, SchemaMismatch
from .features import FeatureSchema, encode_matrix
from .ingest import AdminRecord, LinkedDataset, NameFrequencyTable
from .models import ForestModel, LogisticModel, predict_forest, predict_logistic

log = logging.getLogger(__name__)

PROVENANCES = ("exact", "linked", "predicted")


@dataclass(frozen=True)
class ExpandedRecord:
    record: AdminRecord
    delta: int
    kind: BackgroundKind
    provenance: str
    predicted_score: float | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"bad provenance {self.provenance!r}")
        if self.provenance == "predicted" and self.predicted_score is None:
            raise ValueError("predicted record without a score")


def predict_scores(model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, LogisticModel):
        return np.atleast_1d(predict_logistic(model, X))
    if isinstance(model, ForestModel):
        return np.atleast_1d(predict_forest(model, X))
    raise TypeError(f"unsupported model type {type(model).__name__}")


def impute_pa(
    model,
    schema: FeatureSchema,
    admin: list[AdminRecord],
    name_table: NameFrequencyTable,
    *,
    linked_keys=frozenset(),
    threshold: float = 0.5,
) -> dict:
    """Score every unlinked (bp,cit)=(1,1) record; returns link_key -> (pa_hat, score).

    The score is the model's P(pa=0) under the case-control training mix, not
    a population probability; pa_hat = 0 when the score exceeds the threshold
    (score exactly at the threshold resolves to pa_hat=1, the same tie rule
    classification uses everywhere else).
    """
    if model.width != schema.width:
        raise SchemaMismatch(
            f"model width {model.width} does not match schema width {schema.width}"
        )
    targets = [
        r for r in admin
        if r.bp == 1 and r.cit == 1 and r.link_key not in linked_keys
    ]
    if not targets:
        return {}
    scores = predict_scores(model, encode_matrix(targets, schema, name_table))
    out = {}
    for rec, score in zip(targets, scores):
        pa_hat = 0 if score > threshold else 1
        out[rec.link_key] = (pa_hat, float(score))
    log.info(
        "imputed pa for %d records (%.1f%% predicted pa=0)",
        len(out), 100 * np.mean([v[0] == 0 for v in out.values()]),
    )
    return out


def expand_dataset(
    admin: list[AdminRecord],
    linked: LinkedDataset,
    imputations: dict,
) -> list[ExpandedRecord]:
    """One expanded record per register row, ordered by link_key.

    Precedence: register indicators settle everything outside (1,1); inside
    (1,1) a survey-observed pa beats an imputed one.
    """
    survey_pa = {s.link_key: s.pa_observed for _, s in linked.matched}
    out = []
    for rec in sorted(admin, key=lambda r: r.link_key):
        if (rec.bp, rec.cit) != (1, 1):
            # outside (1,1) the Jus Sanguinis exclusions make pa=0 the only
            # completion that matters (see domain.resolve_membership)
            bg = compute_delta_type(rec.bp, rec.cit, 0)
            out.append(ExpandedRecord(rec, bg.delta, bg.kind, "exact"))
        elif rec.link_key in survey_pa:
            bg = compute_delta_type(1, 1, survey_pa[rec.link_key])
            out.append(ExpandedRecord(rec, bg.delta, bg.kind, "linked"))
        elif rec.link_key in imputations:
            pa_hat, score = imputations[rec.link_key]
            bg = compute_delta_type(1, 1, pa_hat)
            out.append(ExpandedRecord(rec, bg.delta, bg.kind, "predicted", score))
        else:
            raise HiddenPopError(
                f"record {rec.link_key!r} has (bp,cit)=(1,1) but neither a "
                "linked nor an imputed pa"
            )
    return out


@dataclass
class DistributionTable:
    """Population tabulation: counts and two percentage bases per kind."""

    rows: list  # dicts: delta, kind, label, count, pct_of_all, pct_of_members
    n_total: int
    n_members: int


def tabulate_population(expanded: list[ExpandedRecord]) -> DistributionTable:
    n_total = len(expanded)
    counts = {k: 0 for k in BackgroundKind}
    for e in expanded:
        counts[e.kind] += 1
    n_members = sum(counts[k] for k in BackgroundKind if k != BackgroundKind.NO_BACKGROUND)
    rows = []
    for kind in BackgroundKind:
        count = counts[kind]
        rows.append({
            "delta": int(kind != BackgroundKind.NO_BACKGROUND),
            "kind": int(kind),
            "label": KIND_LABELS[kind],
            "count": count,
            "pct_of_all": 100.0 * count / n_total if n_total else 0.0,
            "pct_of_members": (
                100.0 * count / n_members
                if kind != BackgroundKind.NO_BACKGROUND and n_members
                else None
            ),
        })
    return DistributionTable(rows=rows, n_total=n_total, n_members=n_members)


# marginals the two sources share, by level extractor
SHARED_VARIABLES = {
    "gender": lambda r: r.gender,
    "department": lambda r: r.department,
    "course_level": lambda r: r.course_level,
    "employment": lambda r: r.employment,
    "birth_place": lambda r: "italy" if r.bp == 1 else "foreign",
    "citizenship": lambda r: "italian" if r.cit == 1 else "foreign",
}


@dataclass
class BiasReport:
    """Per-variable, per-level population vs. sample shares and their gaps (pp)."""

    variables: dict  # variable -> {level: (population_share, sample_share, gap)}
    flagged: list    # (variable, level, gap) with |gap| >= alert threshold
    alert_threshold: float


def _shares(records, extractor) -> dict:
    levels = {}
    for r in records:
        lvl = extractor(r)
        levels[lvl] = levels.get(lvl, 0) + 1
    total = sum(levels.values())
    return {lvl: 100.0 * c / total for lvl, c in levels.items()}


def bias_report(
    expanded_members: list[ExpandedRecord],
    survey_members: list[AdminRecord],
    variables: list[str],
    *,
    alert_threshold: float = 5.0,
) -> BiasReport:
    """Compare the full member population with the opt-in sample.

    gap = sample share - population share, in percentage points; descriptive
    only, no correction is attempted.
    """
    if not expanded_members or not survey_members:
        raise DataError("both population and sample must be nonempty")
    out = {}
    flagged = []
    for var in variables:
        if var not in SHARED_VARIABLES:
            raise DataError(f"unknown shared variable {var!r}")
        extractor = SHARED_VARIABLES[var]
        pop = _shares([e.record for e in expanded_members], extractor)
        sample = _shares(survey_members, extractor)
        stray = set(sample) - set(pop)
        if stray:
            raise DataError(f"{var}: sample levels {sorted(stray)} absent from population")
        table = {}
        for lvl in sorted(pop):
            p = pop[lvl]
            s = sample.get(lvl, 0.0)
            gap = s - p
            table[lvl] = (p, s, gap)
            if abs(gap) >= alert_threshold:
                flagged.append((var, lvl, gap))
        out[var] = table
    return BiasReport(variables=out, flagged=flagged, alert_threshold=alert_threshold)
