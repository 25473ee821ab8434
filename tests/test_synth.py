"""Synthetic generator: determinism, marginals, truth consistency, feasibility."""

import json

import numpy as np
import pytest

from hiddenpop.errors import DataError
from hiddenpop.features import feature_layout
from hiddenpop.ingest import is_common_name
from hiddenpop.synth import (
    SIGNAL_COLUMNS,
    SynthConfig,
    _weighted_sample,
    generate,
    generating_design,
    load_truth,
)

from conftest import small_config
from register_reference import decoded


def test_same_seed_same_bytes(tmp_path):
    cfg = small_config()
    a = generate(cfg, tmp_path / "a", seed=9)
    b = generate(cfg, tmp_path / "b", seed=9)
    for name in ["admin_path", "survey_path", "screened_out_path",
                 "name_table_path", "truth_path", "meta_path"]:
        assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()


def test_different_seed_different_register(tmp_path):
    cfg = small_config()
    a = generate(cfg, tmp_path / "a", seed=1)
    b = generate(cfg, tmp_path / "b", seed=2)
    assert a.admin_path.read_bytes() != b.admin_path.read_bytes()


def test_config_json_round_trip():
    cfg = SynthConfig()
    again = SynthConfig.from_json(cfg.to_json())
    assert again == cfg


def test_validation_rejects_bad_shares():
    cfg = SynthConfig()
    cfg.kind_shares = (50.0, 10.0, 10.0, 10.0, 10.0)
    with pytest.raises(DataError, match="kind_shares must sum to 100"):
        cfg.validate()
    cfg = SynthConfig()
    cfg.n_register = 10
    with pytest.raises(DataError, match="n_register must be >= 100"):
        cfg.validate()
    cfg = SynthConfig()
    cfg.kind_shares = (84.91, 7.77, 0.36, 6.96)
    with pytest.raises(DataError, match="kind_shares must hold 5 shares"):
        cfg.validate()


def test_oversized_survey_is_infeasible(tmp_path):
    cfg = small_config()
    cfg.n_survey_migrant = 10_000
    with pytest.raises(DataError, match="cannot sample 10000 from a pool of"):
        generate(cfg, tmp_path / "x", seed=0)


def test_a_pool_whose_light_rows_weigh_0_is_infeasible():
    """Offsets of +400 and -400 on a row's total: the light row's share of the pool's
    weight, exp(-800), reads as 0, and a draw of the whole pool cannot take it."""
    with pytest.raises(DataError, match=r"^response_offsets leave under 2 rows a weight > 0 "
                                        r"for n_survey_native$"):
        _weighted_sample(np.random.default_rng(0), np.ones(2, dtype=bool),
                         np.exp([400.0, -400.0]), SynthConfig(n_survey_native=2),
                         "n_survey_native")


def test_truth_consistency(small_bundle, small_inputs):
    admin, survey, _table, _linked = small_inputs
    truth = load_truth(small_bundle.truth_path)
    assert len(truth) == len(admin)
    kind_to_bpcit = {0: (1, 1), 1: (1, 1), 2: (1, 0), 3: (0, 1), 4: (0, 0)}
    for key, bp, cit in zip(admin.link_key, admin.bp, admin.cit):
        t = truth[key]
        assert (bp, cit) == kind_to_bpcit[t["kind"]]
        if t["kind"] == 0:
            assert t["pa"] == 1
        elif t["kind"] == 1:
            assert t["pa"] == 0
    for srec in survey:
        t = truth[srec.link_key]
        assert t["responded"]
        assert srec.pa_observed == t["pa"]
        assert srec.eligible == (t["kind"] != 0)


def test_load_truth_names_the_line_of_a_bad_pa(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("link_key,pa,kind,responded\nS1,0,4,0\nS2,x,4,0\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_truth(path)
    assert str(info.value) == f"{path}:3: invalid literal for int() with base 10: 'x'"


def test_survey_counts_exact(small_inputs):
    admin, survey, _table, _linked = small_inputs
    cfg = small_config()
    eligible = [s for s in survey if s.eligible]
    screened = [s for s in survey if not s.eligible]
    assert len(screened) == cfg.n_screened_out
    assert len(eligible) == cfg.n_survey_native + cfg.n_survey_migrant
    row_of = {key: i for i, key in enumerate(admin.link_key)}
    native = [s for s in eligible if admin.bp[row_of[s.link_key]] == 1
              and admin.cit[row_of[s.link_key]] == 1]
    assert len(native) == cfg.n_survey_native


def test_marginals_near_config(small_inputs):
    admin, _survey, _table, _linked = small_inputs
    cfg = small_config()
    male = np.mean([g == "M" for g in decoded(admin, "gender")]) * 100
    assert abs(male - cfg.male_share) < 2.5
    for level, share in cfg.department_shares.items():
        observed = np.mean([d == level for d in decoded(admin, "department")]) * 100
        assert abs(observed - share) < 2.5


def test_kind_shares_near_config(small_bundle):
    cfg = small_config()
    truth = load_truth(small_bundle.truth_path)
    kinds = np.array([t["kind"] for t in truth.values()])
    for kind, share in enumerate(cfg.kind_shares):
        observed = np.mean(kinds == kind) * 100
        assert abs(observed - share) < 1.5


def test_name_flag_consistent_with_table(small_inputs):
    admin, _survey, table, _linked = small_inputs
    natives = admin.take(np.flatnonzero((admin.bp == 1) & (admin.cit == 1)))
    share = np.mean([is_common_name(name, table)
                     for name in decoded(natives, "given_name")]) * 100
    cfg = small_config()
    assert abs(share - cfg.common_name_share_native) < 2.0


def test_meta_records_true_model(small_bundle):
    meta = json.loads(small_bundle.meta_path.read_text())
    assert meta["true_model"]["columns"] == SIGNAL_COLUMNS
    assert len(meta["true_model"]["coefficients"]) == len(SIGNAL_COLUMNS)
    assert meta["counts"]["register"] == small_config().n_register


def test_generating_design_matches_signal_columns(small_inputs):
    admin, _survey, table, _linked = small_inputs
    cfg = small_config()
    X = generating_design(admin.take(np.arange(50)), table, cfg)
    assert X.shape == (50, len(SIGNAL_COLUMNS))
    # the generating model uses every column of the feature layout, in order
    full = feature_layout({"years_enrolled": (0.0, 1.0), "ects_earned": (0.0, 1.0)})
    assert SIGNAL_COLUMNS == [c.name for c in full]
    # dummies are 0/1 and numerics are finite
    assert set(np.unique(X[:, :7])) <= {0.0, 1.0}
    assert np.all(np.isfinite(X))
