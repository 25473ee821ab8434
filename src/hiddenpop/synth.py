"""Seeded synthetic stand-in for the private student register.

Emits a register CSV, an opt-in survey extract with configurable selection
bias, screened-out metadata, a given-name reference table and a ground-truth
file.  The generator is the oracle for end-to-end verification: every
membership triple it plants is admissible, the parental indicator follows a
known logistic model inside the born-Italian/citizen-Italian stratum, and
survey participation is drawn with known level offsets so the sample is
biased on purpose.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .domain import MEMBERSHIP
from .errors import DataError
from .features import NAME_FLAG, FeatureSchema, encode_matrix, feature_layout, level_codes
from .ingest import (
    ADMIN_COLUMNS,
    KEY,
    Register,
    SurveyRecord,
    atomic_open,
    code_dtype,
    read_csv,
    write_admin_csv,
    write_name_table,
    write_survey_csv,
)

_COMMON_NAMES = [
    "maria", "giuseppe", "francesca", "giovanni", "anna", "antonio", "rosa",
    "luigi", "angela", "vincenzo", "giuseppina", "pietro", "teresa", "salvatore",
    "lucia", "carlo", "carmela", "franco", "caterina", "francesco", "paola",
    "mario", "laura", "luca", "elena", "marco", "sara", "andrea", "chiara",
    "alessandro", "valentina", "davide", "silvia", "matteo", "federica",
    "simone", "alessia", "stefano", "martina", "fabio", "elisa", "riccardo",
    "giulia", "lorenzo", "roberta", "paolo", "ilaria", "daniele", "claudia",
    "nicola", "monica", "massimo", "cristina", "enrico", "serena", "giorgio",
]

_RARE_LISTED_NAMES = [
    "ermenegildo", "clotilde", "bonifacio", "tecla", "eustachio", "brigida",
    "anselmo", "prisca", "callisto", "romilda",
]

_RARE_UNLISTED_NAMES = [
    "amira", "tariq", "mei", "dragan", "yusuf", "ionela", "kofi", "svetlana",
    "rajesh", "fatima", "chen", "olena", "samir", "ngozi", "andrei", "aisha",
    "minh", "bogdan", "leila", "tenzin",
]


@dataclass
class SynthConfig:
    """All knobs of the generator; defaults shaped like the published tabulations."""

    n_register: int = 36_382
    # percent shares of kinds 0..4 in the register
    kind_shares: tuple = (84.91, 7.77, 0.36, 1.82, 5.14)
    male_share: float = 36.0
    department_shares: dict = field(default_factory=lambda: {
        "economics": 18.0, "law": 10.0, "medicine": 14.0,
        "science": 33.0, "sociology": 25.0,
    })
    course_shares: dict = field(default_factory=lambda: {
        "bachelor": 69.47, "master": 15.41, "bachelor_and_master": 15.12,
    })
    employment_shares: dict = field(default_factory=lambda: {
        "student": 71.55, "student_worker": 17.67,
        "worker_student": 10.22, "not_available": 0.56,
    })
    common_name_share_native: float = 93.2   # bp=cit=1 stratum
    common_name_share_migrant: float = 20.0  # everyone else
    years_mean: float = 2.838
    years_sd: float = 2.284
    years_max: int = 24
    ects_mean: float = 31.483
    ects_sd: float = 21.082
    ects_max: int = 113
    # generating logistic model for P(pa=0 | x) inside the (1,1) stratum;
    # intercept is calibrated so the kind-1 share comes out right
    signal: dict = field(default_factory=lambda: {
        "gender=M": 0.25,
        "employment=worker_student": 0.30,
        "employment=student_worker": 0.15,
        "employment=not_available": 0.0,
        "course_level=master": 0.25,
        "course_level=bachelor_and_master": 0.20,
        "common_italian_name": -3.70,
        "years_enrolled": 0.25,
        "ects_earned": -0.15,
    })
    # opt-in propensity log-odds offsets by level; drives the selection bias
    response_offsets: dict = field(default_factory=lambda: {
        "gender": {"M": -0.58},
        "department": {"science": 0.35, "economics": -0.30},
    })
    n_survey_native: int = 312   # eligible respondents with bp=cit=1 (kind 1)
    n_survey_migrant: int = 382  # eligible respondents from kinds 2..4
    n_screened_out: int = 402    # kind-0 opt-ins turned away by the screener
    seed: int = 3

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @property
    def level_shares(self) -> dict:
        """The drawn categorical register columns, in draw order: level -> percent share."""
        return {"gender": {"M": self.male_share, "F": 100 - self.male_share},
                "department": self.department_shares, "course_level": self.course_shares,
                "employment": self.employment_shares}

    @classmethod
    def from_json(cls, text: str) -> "SynthConfig":
        """A config from a JSON object; a value unlike its field's default raises TypeError."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise TypeError("the config must be a JSON object")
        defaults = asdict(cls())
        for key, value in payload.items():
            if key in defaults and not _conforms(value, defaults[key]):
                raise TypeError(f"{key}: expected a value like the default "
                                f"{defaults[key]!r}, got {value!r}")
        cfg = cls(**payload)
        cfg.kind_shares = tuple(cfg.kind_shares)
        return cfg

    def validate(self):
        """Raise DataError naming the first field that generate cannot draw from."""
        if not 100 <= self.n_register < 2**31:
            raise DataError(f"n_register must be >= 100 and < 2**31, got {self.n_register}")
        if len(self.kind_shares) != 5:
            raise DataError("kind_shares must hold 5 shares, one per kind 0..4")
        for name, low in _LEAST.items():
            if not low <= getattr(self, name) < math.inf:
                raise DataError(f"{name} must be finite and >= {low}, got {getattr(self, name)}")
        for name in ("years_max", "ects_max"):  # caps of int64 draws
            if getattr(self, name) >= 2**63:
                raise DataError(f"{name} must be < 2**63, got {getattr(self, name)}")
        for name in ("years_sd", "ects_sd"):  # generate z-scores by them
            if not 0 < getattr(self, name) < math.inf:
                raise DataError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in _SHARES:
            value = getattr(self, name)
            shares = list(value.values() if isinstance(value, dict) else np.atleast_1d(value))
            if not all(0 <= share <= 100 for share in shares):
                raise DataError(f"{name} must be finite and in [0, 100], got {value}")
            if name.endswith("_shares") and abs(sum(shares) - 100.0) > 0.01:  # a distribution
                raise DataError(f"{name} must sum to 100, got {sum(shares)}")
        if sorted(self.signal) != sorted(SIGNAL_COLUMNS):
            raise DataError(f"signal must hold exactly the keys {SIGNAL_COLUMNS}")
        if not set(self.response_offsets) <= set(self.level_shares):
            raise DataError(f"response_offsets may only hold {tuple(self.level_shares)}")
        for var, table in self.response_offsets.items():  # generate would draw no such row
            if stray := [level for level in table if level not in self.level_shares[var]]:
                raise DataError(f"response_offsets: {var} has no level {stray[0]!r}")
        offsets = [v for table in self.response_offsets.values() for v in table.values()]
        for name, values in [("ects_mean", [self.ects_mean]), ("signal", self.signal.values()),
                             ("response_offsets", offsets)]:
            if not np.isfinite(list(values)).all():
                raise DataError(f"{name} must hold finite numbers")
        if not all(-100 <= v <= 100 for v in offsets):  # so exp of a row's sum is finite and > 0
            raise DataError(f"response_offsets must be in [-100, 100], got {self.response_offsets}")


# the least value of each bounded field; each must also be finite
_LEAST = {"seed": 0, "n_survey_native": 0, "n_survey_migrant": 0, "n_screened_out": 0,
          "years_mean": 1, "years_max": 1, "ects_max": 0}
_SHARES = ("kind_shares", "department_shares", "course_shares", "employment_shares",
           "male_share", "common_name_share_native", "common_name_share_migrant")


def _conforms(value, default) -> bool:
    """Whether a JSON value has the type of a SynthConfig default.

    An int passes for a float; a list passes for a tuple; the items of a list
    and the values of a dict must match the default's first item or value.
    """
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_conforms(v, default[0]) for v in value)
    if isinstance(default, dict):
        first = next(iter(default.values()))
        return isinstance(value, dict) and all(_conforms(v, first) for v in value.values())
    return isinstance(value, type(default))


TRUTH_COLUMNS = ["link_key", "pa", "kind", "responded"]


@dataclass
class SyntheticBundle:
    admin_path: Path
    survey_path: Path
    screened_out_path: Path
    name_table_path: Path
    truth_path: Path
    meta_path: Path


def _draw_levels(rng, shares: dict, n: int) -> tuple:
    """(levels, codes): the share keys and each of n rows' index into them, drawn by share."""
    levels = list(shares)
    p = np.array([shares[l] for l in levels], dtype=float) / 100.0
    return np.array(levels, dtype=object), rng.choice(len(levels), size=n, p=p / p.sum())


def _generating_schema(config: SynthConfig) -> FeatureSchema:
    """The full feature layout, numerics z-scored by the config's moments."""
    return FeatureSchema(feature_layout({
        "years_enrolled": (config.years_mean, config.years_sd),
        "ects_earned": (config.ects_mean, config.ects_sd),
    }))


# encoded column order of the generating model
SIGNAL_COLUMNS = _generating_schema(SynthConfig()).names


def _calibrate_intercept(eta_slope: np.ndarray, target: float) -> float:
    """Bisection for b0 with mean(sigmoid(b0 + eta_slope)) = target."""
    lo, hi = -20.0, 20.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if np.mean(1.0 / (1.0 + np.exp(-(mid + eta_slope)))) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _weighted_sample(rng, in_pool, weights, config, count_field):
    """config.<count_field> of the rows in_pool, drawn without replacement by weight."""
    size, pool = getattr(config, count_field), np.flatnonzero(in_pool)
    if size > len(pool):
        raise DataError(f"n_register {config.n_register} is too small for {count_field} "
                        f"{size}: cannot sample {size} from a pool of {len(pool)}")
    p = weights[pool] / weights[pool].sum()
    if size > np.count_nonzero(p):  # a weight below exp(-745) of the pool's sum reads as 0
        raise DataError(f"response_offsets leave under {size} rows a weight > 0 for {count_field}")
    return rng.choice(pool, size=size, replace=False, p=p)


def generate(config: SynthConfig, out_dir, *, seed: int | None = None) -> SyntheticBundle:
    """Generate the full bundle under out_dir; same config+seed => identical bytes."""
    config.validate()
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    n = config.n_register

    # membership skeleton: kinds 2..4 drawn directly, kinds 0/1 start as one
    # native stratum whose pa follows the generating logistic model
    shares = np.array(config.kind_shares, dtype=float) / 100.0
    group_p = np.array([shares[0] + shares[1], shares[2], shares[3], shares[4]])
    group = rng.choice(4, size=n, p=group_p / group_p.sum())
    native = group == 0  # bp = cit = 1

    drawn = {var: _draw_levels(rng, table, n) for var, table in config.level_shares.items()}
    years = np.minimum(rng.geometric(p=1.0 / config.years_mean, size=n), config.years_max)
    ects = np.clip(
        np.rint(rng.normal(config.ects_mean, config.ects_sd, size=n)),
        0, config.ects_max,
    ).astype(int)
    p_common = np.where(native, config.common_name_share_native,
                        config.common_name_share_migrant) / 100.0
    common = rng.random(n) < p_common

    numerics = {c: np.unique(v, return_inverse=True) for c, v in
                [("years_enrolled", years), ("ects_earned", ects)]}
    X = encode_matrix({**drawn, NAME_FLAG: np.unique(common, return_inverse=True), **numerics},
                      _generating_schema(config))
    beta = np.array([config.signal[c] for c in SIGNAL_COLUMNS])
    eta_slope = X @ beta
    target_pa0 = shares[1] / (shares[0] + shares[1])
    intercept = _calibrate_intercept(eta_slope[native], target_pa0)
    p_pa0 = 1.0 / (1.0 + np.exp(-(intercept + eta_slope)))

    pa = np.zeros(n, dtype=int)
    pa[native] = (rng.random(native.sum()) >= p_pa0[native]).astype(int)

    bp, cit = np.array([[1, 1], [1, 0], [0, 1], [0, 0]])[group].T  # (bp, cit) of groups 0..3
    kind = MEMBERSHIP[bp, cit, pa, 1].astype(int)

    # given names consistent with the common-name flag and the reference table
    rare_names = _RARE_LISTED_NAMES + _RARE_UNLISTED_NAMES
    name_codes = np.empty(n, dtype=int)
    name_codes[common] = rng.choice(len(_COMMON_NAMES), size=int(common.sum()))
    name_codes[~common] = len(_COMMON_NAMES) + rng.choice(len(rare_names),
                                                          size=int((~common).sum()))

    keys = [f"S{i:06d}" for i in range(n)]
    year_levels, year_codes = numerics["years_enrolled"]
    countries = np.array(["XX", "IT"])
    columns = {"given_name": (np.array(_COMMON_NAMES + rare_names), name_codes),
               "birth_country": (countries, bp), "citizenship_country": (countries, cit),
               "enrollment_year": (2022 - year_levels, year_codes), **drawn, **numerics}
    admin = Register(np.array(keys, dtype=KEY), {}, {})
    for c in ADMIN_COLUMNS[1:]:  # each column's drawn levels and codes, narrowed as parsed
        levels, codes = columns[c]
        admin.codes[c], admin.levels[c] = codes.astype(code_dtype(len(levels))), levels.tolist()

    # opt-in selection with known level offsets; exact counts per stratum
    offsets = np.zeros(n)
    for var, table in config.response_offsets.items():
        levels, codes = drawn[var]
        for level, off in table.items():
            offsets += np.where(levels == level, off, 0.0)[codes]
    weights = np.exp(offsets)

    respondents_native = _weighted_sample(rng, kind == 1, weights, config, "n_survey_native")
    respondents_migrant = _weighted_sample(rng, kind >= 2, weights, config, "n_survey_migrant")
    screened = _weighted_sample(rng, kind == 0, weights, config, "n_screened_out")

    eligible = np.sort(np.concatenate([respondents_native, respondents_migrant]))
    screened = np.sort(screened)
    responded = np.zeros(n, dtype=bool)
    responded[eligible] = responded[screened] = True
    survey_rows = [SurveyRecord(keys[i], eligible=True, pa_observed=int(pa[i])) for i in eligible]
    screened_rows = [SurveyRecord(keys[i], eligible=False, pa_observed=1) for i in screened]

    # common names comfortably above the commonness cutoff, rare ones listed below it
    table = {**{nm: 120 + 37 * j for j, nm in enumerate(_COMMON_NAMES)},
             **{nm: 1 + j % 4 for j, nm in enumerate(_RARE_LISTED_NAMES)}}

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = SyntheticBundle(*(out_dir / name for name in (
        "admin.csv", "survey.csv", "screened_out.csv", "names.csv", "truth.csv",
        "synth_meta.json")))
    write_admin_csv(bundle.admin_path, admin)
    write_survey_csv(bundle.survey_path, survey_rows)
    write_survey_csv(bundle.screened_out_path, screened_rows)
    write_name_table(bundle.name_table_path, table)
    with atomic_open(bundle.truth_path) as f:
        f.write(",".join(TRUTH_COLUMNS) + "\n")
        f.writelines(f"{k},{p},{t},{r}\n" for k, p, t, r in zip(
            keys, pa.tolist(), kind.tolist(), responded.astype(int).tolist()))
    meta = {
        "seed": seed,
        "config": json.loads(config.to_json()),
        "true_model": {
            "intercept": intercept,
            "columns": SIGNAL_COLUMNS,
            "coefficients": beta.tolist(),
        },
        "counts": {
            "register": n,
            "per_kind": np.bincount(kind, minlength=5).tolist(),
            "survey": len(survey_rows),
            "screened_out": len(screened_rows),
        },
    }
    with atomic_open(bundle.meta_path) as f:
        json.dump(meta, f, indent=2, sort_keys=True)
    return bundle


def generating_design(records: Register, table: dict[str, int],
                      config: SynthConfig) -> np.ndarray:
    """Re-encode register rows exactly as the generating model saw them."""
    return encode_matrix(level_codes(records, table), _generating_schema(config))


def load_truth(path) -> dict:
    """truth.csv -> link_key: {pa, kind, responded}; a bad file raises DataError."""
    out = {}
    for lineno, row in read_csv(path, TRUTH_COLUMNS):
        try:
            out[row["link_key"]] = {"pa": int(row["pa"]), "kind": int(row["kind"]),
                                    "responded": bool(int(row["responded"]))}
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out
