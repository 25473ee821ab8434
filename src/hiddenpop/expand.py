"""Register expansion: impute the missing parental indicator, attach membership
and typology to every register record, in register row order, tabulate the
population, and compare sample vs. population marginals.

Provenance of each record's membership:

* ``exact``     — determined by the register's own bp/cit indicators
* ``linked``    — pa observed via the survey linkage
* ``predicted`` — pa imputed by a fitted classifier, one score per covariate pattern
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .domain import KIND_LABELS, MEMBERSHIP, PA_UNOBSERVED, BackgroundKind, pa_open
from .errors import DataError, HiddenPopError, SchemaMismatch
from .features import FeatureSchema, distinct_rows, encode_matrix, level_codes
from .ingest import LinkedDataset, Register, code_dtype
from .models import model_type, predict_forest, predict_logistic

log = logging.getLogger(__name__)

PROVENANCES = ("exact", "linked", "predicted")
_EXACT, _LINKED, _PREDICTED = range(3)


@dataclass
class Imputations:
    """The imputed pa of the unlinked (bp,cit)=(1,1) register rows, and their scores, coded."""

    rows: np.ndarray          # register rows
    pa: np.ndarray            # 0 where the score exceeds the threshold, else 1
    score_levels: np.ndarray  # the model's P(pa=0) under the case-control training mix
    score_codes: np.ndarray   # each row's index into score_levels

    def __len__(self) -> int:
        return len(self.rows)

    scores = property(lambda self: self.score_levels[self.score_codes], doc="Each row's score.")


@dataclass
class Expanded:
    """The register, each row with its membership and provenance, in register row order."""

    register: Register
    delta: np.ndarray
    kind: np.ndarray
    provenance: np.ndarray    # index into PROVENANCES
    score_levels: np.ndarray  # the distinct imputation scores, NaN for none
    score_codes: np.ndarray = None  # each row's index into score_levels; by default, its row

    def __post_init__(self):  # without codes, score_levels holds one score per row
        if self.score_codes is None:
            self.score_codes = np.arange(len(self.score_levels))

    def __len__(self) -> int:
        return len(self.register)

    score = property(lambda self: self.score_levels[self.score_codes], doc="Each row's score.")


def predict_scores(model, X: np.ndarray) -> np.ndarray:
    # built per call, so that a wrapper set on this module's predict_* names is called
    return {"logistic": predict_logistic, "forest": predict_forest}[model_type(model)](model, X)


def impute_pa(model, schema: FeatureSchema, admin: Register, name_table: dict[str, int],
              *, linked_rows=(), threshold: float = 0.5) -> Imputations:
    """Score every (bp,cit)=(1,1) register row outside linked_rows.

    The score is the model's P(pa=0) under the case-control training mix, not
    a population probability; pa_hat = 0 when the score exceeds the threshold
    (score exactly at the threshold resolves to pa_hat=1, the same tie rule
    classification uses everywhere else).  Rows alike in every predictor group
    share a covariate pattern, which is encoded and scored once.
    """
    if model.width != schema.width:
        raise SchemaMismatch(
            f"model width {model.width} does not match schema width {schema.width}"
        )
    target = pa_open(admin.bp, admin.cit)
    target[np.asarray(linked_rows, dtype=np.intp)] = False
    rows = np.flatnonzero(target)
    groups = level_codes(admin, name_table, rows)
    first, inverse = distinct_rows([codes for _levels, codes in groups.values()])
    X = encode_matrix({group: (levels, codes[first]) for group, (levels, codes) in groups.items()},
                      schema, np.bincount(inverse))
    try:
        scores = predict_scores(model, X)
    except OverflowError:  # raised again from the rows, so that the message counts them
        predict_scores(model, X[inverse])
        raise
    pa = np.where(scores > threshold, 0, 1).astype(np.int8)[inverse]
    log.info("imputed pa for %d records, %d predicted pa=0", len(rows), np.sum(pa == 0))
    return Imputations(rows, pa, scores, inverse)


def expand_dataset(admin: Register, linked: LinkedDataset, imputations: Imputations) -> Expanded:
    """Every register row with its membership, in register row order; admin is not copied.

    Precedence: a survey-observed pa decides its row wherever the register's
    bp/cit alone would not: inside (1,1), where it beats an imputed one, and
    at (0,1) when it is 1, overriding the rule that an unobserved pa there
    is 0.  The register settles every other row outside (1,1).  Raises
    HiddenPopError for a (1,1) row with neither pa.
    """
    bp, cit = admin.bp, admin.cit
    inside = pa_open(bp, cit)
    pa = np.full(len(admin), PA_UNOBSERVED, dtype=np.int8)
    provenance = np.full(len(admin), _PREDICTED, dtype=np.int8)
    unscored = len(imputations.score_levels)  # the NaN level, after the scores
    score = np.full(len(admin), unscored, dtype=code_dtype(unscored + 1))
    pa[imputations.rows], score[imputations.rows] = imputations.pa, imputations.score_codes
    pa[~inside], provenance[~inside] = PA_UNOBSERVED, _EXACT
    rows, observed = linked.rows, np.array([s.pa_observed for s in linked.survey], dtype=np.intp)
    decides = (MEMBERSHIP[bp[rows], cit[rows], observed]
               != MEMBERSHIP[bp[rows], cit[rows], PA_UNOBSERVED]).any(axis=1)
    pa[rows[decides]], provenance[rows[decides]] = observed[decides], _LINKED
    score[provenance != _PREDICTED] = unscored
    delta, kind = MEMBERSHIP[bp, cit, pa].T
    if (kind < 0).any():  # named by the first such row in link_key order
        key = min(admin.link_key[kind < 0].tolist())
        raise HiddenPopError(
            f"record {key!r} has (bp,cit)=(1,1) but neither a linked nor an imputed pa"
        )
    return Expanded(admin, delta, kind, provenance,
                    np.append(imputations.score_levels, np.nan), score)


@dataclass
class DistributionTable:
    """Population tabulation: the count of each kind, and two percentage bases per kind."""

    counts: list  # one count per BackgroundKind, in kind order

    n_total = property(lambda self: sum(self.counts), doc="Register records.")
    n_members = property(lambda self: self.n_total - self.counts[BackgroundKind.NO_BACKGROUND],
                         doc="Estimated members: records of a kind other than NO_BACKGROUND.")

    @property
    def rows(self) -> list:
        """One dict per kind: delta, kind, label, count, pct_of_all, pct_of_members."""
        n_total, n_members = self.n_total, self.n_members
        members = [kind != BackgroundKind.NO_BACKGROUND for kind in BackgroundKind]
        return [{"delta": int(member), "kind": int(kind), "label": KIND_LABELS[kind],
                 "count": count, "pct_of_all": 100.0 * count / n_total if n_total else 0.0,
                 "pct_of_members": 100.0 * count / n_members if member and n_members else None}
                for kind, member, count in zip(BackgroundKind, members, self.counts)]


def tabulate_population(expanded: Expanded) -> DistributionTable:
    return DistributionTable(np.bincount(expanded.kind, minlength=len(BackgroundKind)).tolist())


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
    alert_threshold: float

    @property
    def flagged(self) -> list:
        """(variable, level, gap) of each level with |gap| >= the alert threshold."""
        return [(var, level, gap) for var, table in self.variables.items()
                for level, (_pop, _sample, gap) in table.items()
                if abs(gap) >= self.alert_threshold]


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
    out = {}
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
            table[lvl] = (p, s, s - p)
        out[var] = table
    return BiasReport(variables=out, alert_threshold=alert_threshold)
