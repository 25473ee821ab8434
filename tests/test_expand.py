"""Register expansion, tabulation and the selection-bias report."""

import numpy as np
import pytest

from hiddenpop.domain import BackgroundKind
from hiddenpop.errors import DataError, HiddenPopError, SchemaMismatch
from hiddenpop.expand import (
    ExpandedRecord,
    bias_report,
    expand_dataset,
    impute_pa,
    tabulate_population,
)
from hiddenpop.features import build_schema
from hiddenpop.ingest import LinkedDataset, NameFrequencyTable, SurveyRecord
from hiddenpop.models import fit_logistic
from hiddenpop.features import LabeledDataset

from test_ingest import make_admin

TABLE = NameFrequencyTable({"maria": 100, "giuseppe": 80, "tecla": 2})


def fitted_model_and_schema():
    records = [
        make_admin("T1", given_name="maria", gender="F", years_enrolled=1),
        make_admin("T2", given_name="tecla", gender="M", years_enrolled=4),
        make_admin("T3", given_name="giuseppe", gender="F", years_enrolled=2),
        make_admin("T4", given_name="tecla", gender="M", years_enrolled=5),
    ]
    schema = build_schema(records, TABLE)
    from hiddenpop.features import encode_matrix
    X = encode_matrix(records, schema, TABLE)
    y = np.array([0, 1, 0, 1])
    data = LabeledDataset(X=X, y=y, row_ids=[r.link_key for r in records])
    return fit_logistic(data), schema


def test_impute_targets_only_unlinked_native_records():
    model, schema = fitted_model_and_schema()
    admin = [
        make_admin("S1", given_name="maria"),
        make_admin("S2", given_name="tecla", gender="M", years_enrolled=5),
        make_admin("S3", birth_country="XX"),          # outside (1,1)
        make_admin("S4", given_name="maria"),          # linked
    ]
    out = impute_pa(model, schema, admin, TABLE, linked_keys={"S4"})
    assert set(out) == {"S1", "S2"}
    pa_hat, score = out["S2"]
    assert score > 0.5 and pa_hat == 0
    pa_hat, score = out["S1"]
    assert score <= 0.5 and pa_hat == 1


def test_impute_schema_mismatch():
    model, schema = fitted_model_and_schema()
    model.weights = model.weights[:-1]
    with pytest.raises(SchemaMismatch):
        impute_pa(model, schema, [make_admin("S1")], TABLE)


def test_expand_precedence_and_order():
    admin = [
        make_admin("S3", birth_country="XX", citizenship_country="XX"),
        make_admin("S2", given_name="tecla"),
        make_admin("S1", given_name="maria"),
    ]
    linked = LinkedDataset(
        matched=[(admin[2], SurveyRecord("S1", True, 0))],
        unmatched_admin=admin[:2], unmatched_survey=[],
    )
    expanded = expand_dataset(admin, linked, {"S2": (1, 0.2)})
    assert [e.record.link_key for e in expanded] == ["S1", "S2", "S3"]
    by_key = {e.record.link_key: e for e in expanded}
    assert by_key["S1"].provenance == "linked"
    assert by_key["S1"].kind == BackgroundKind.SECOND_GEN_ITALIAN
    assert by_key["S2"].provenance == "predicted"
    assert by_key["S2"].kind == BackgroundKind.NO_BACKGROUND
    assert by_key["S2"].predicted_score == 0.2
    assert by_key["S3"].provenance == "exact"
    assert by_key["S3"].kind == BackgroundKind.FOREIGN


def test_expand_coverage_gap():
    admin = [make_admin("S1")]
    linked = LinkedDataset(matched=[], unmatched_admin=admin, unmatched_survey=[])
    with pytest.raises(HiddenPopError, match="neither a linked nor an imputed pa"):
        expand_dataset(admin, linked, {})


def test_expanded_record_validation():
    rec = make_admin("S1")
    with pytest.raises(ValueError):
        ExpandedRecord(rec, 0, BackgroundKind.NO_BACKGROUND, "guessed")
    with pytest.raises(ValueError):
        ExpandedRecord(rec, 0, BackgroundKind.NO_BACKGROUND, "predicted")


def paper_fixture_records():
    counts = {0: 30_891, 1: 2_828, 2: 132, 3: 662, 4: 1_869}
    spec = {
        0: ("IT", "IT", 0), 1: ("IT", "IT", 1), 2: ("IT", "XX", 1),
        3: ("XX", "IT", 1), 4: ("XX", "XX", 1),
    }
    out = []
    i = 0
    for kind, n in counts.items():
        bpc, citc, delta = spec[kind]
        for _ in range(n):
            out.append(ExpandedRecord(
                make_admin(f"S{i}", birth_country=bpc, citizenship_country=citc),
                delta, BackgroundKind(kind), "exact",
            ))
            i += 1
    return out


def test_tabulation_on_paper_counts():
    table = tabulate_population(paper_fixture_records())
    assert table.n_total == 36_382
    assert table.n_members == 5_491
    pct = {row["kind"]: row["pct_of_all"] for row in table.rows}
    for kind, expected in zip(range(5), [84.91, 7.77, 0.36, 1.82, 5.14]):
        assert abs(pct[kind] - expected) < 0.01
    members = {row["kind"]: row["pct_of_members"] for row in table.rows}
    assert members[0] is None
    assert abs(sum(v for v in members.values() if v is not None) - 100.0) < 1e-9


def test_bias_report_gaps_and_flags():
    pop = [ExpandedRecord(make_admin(f"P{i}", gender="F" if i < 60 else "M"),
                          1, BackgroundKind.SECOND_GEN_ITALIAN, "exact")
           for i in range(100)]
    sample = [make_admin(f"Q{i}", gender="F" if i < 9 else "M") for i in range(10)]
    report = bias_report(pop, sample, variables=["gender"])
    pop_share, sample_share, gap = report.variables["gender"]["M"]
    assert (pop_share, sample_share, gap) == (40.0, 10.0, -30.0)
    assert ("gender", "M", -30.0) in report.flagged


def test_bias_report_rejects_stray_sample_levels():
    pop = [ExpandedRecord(make_admin("P1", department="science"),
                          1, BackgroundKind.SECOND_GEN_ITALIAN, "exact")]
    sample = [make_admin("Q1", department="astrology")]
    with pytest.raises(DataError, match=r"department: sample levels \['astrology'\]"):
        bias_report(pop, sample, variables=["department"])


def test_bias_report_unknown_variable():
    pop = [ExpandedRecord(make_admin("P1"), 1, BackgroundKind.SECOND_GEN_ITALIAN, "exact")]
    with pytest.raises(DataError, match="unknown shared variable 'shoe_size'"):
        bias_report(pop, [make_admin("Q1")], variables=["shoe_size"])
