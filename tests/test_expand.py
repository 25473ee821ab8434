"""Register expansion, tabulation and the selection-bias report."""

import numpy as np
import pytest

from hiddenpop.domain import BackgroundKind
from hiddenpop.errors import DataError, HiddenPopError, SchemaMismatch
from hiddenpop.expand import (
    PROVENANCES,
    Expanded,
    Imputations,
    bias_report,
    expand_dataset,
    impute_pa,
    tabulate_population,
)
from hiddenpop.features import build_schema
from hiddenpop.ingest import NameFrequencyTable, SurveyRecord, link
from hiddenpop.models import fit_logistic
from hiddenpop.features import LabeledDataset
from hiddenpop.report import read_expanded_csv, write_expanded_csv

from register_reference import register_of
from test_ingest import make_admin

TABLE = NameFrequencyTable({"maria": 100, "giuseppe": 80, "tecla": 2})


def fitted_model_and_schema():
    records = register_of([
        make_admin("T1", given_name="maria", gender="F", years_enrolled=1),
        make_admin("T2", given_name="tecla", gender="M", years_enrolled=4),
        make_admin("T3", given_name="giuseppe", gender="F", years_enrolled=2),
        make_admin("T4", given_name="tecla", gender="M", years_enrolled=5),
    ])
    schema = build_schema(records, TABLE)
    from hiddenpop.features import encode_matrix
    X = encode_matrix(records, schema, TABLE)
    y = np.array([0, 1, 0, 1])
    data = LabeledDataset(X=X, y=y, row_ids=records.link_key.tolist())
    return fit_logistic(data), schema


def test_impute_targets_only_unlinked_native_records():
    model, schema = fitted_model_and_schema()
    admin = register_of([
        make_admin("S1", given_name="maria"),
        make_admin("S2", given_name="tecla", gender="M", years_enrolled=5),
        make_admin("S3", birth_country="XX"),          # outside (1,1)
        make_admin("S4", given_name="maria"),          # linked
    ])
    out = impute_pa(model, schema, admin, TABLE, linked_rows=[3])
    assert len(out) == 2
    by_key = {admin.link_key[r]: (pa, s) for r, pa, s in zip(out.rows, out.pa, out.scores)}
    assert set(by_key) == {"S1", "S2"}
    pa_hat, score = by_key["S2"]
    assert score > 0.5 and pa_hat == 0
    pa_hat, score = by_key["S1"]
    assert score <= 0.5 and pa_hat == 1


def test_impute_schema_mismatch():
    model, schema = fitted_model_and_schema()
    model.weights = model.weights[:-1]
    with pytest.raises(SchemaMismatch):
        impute_pa(model, schema, register_of([make_admin("S1")]), TABLE)


def test_expand_precedence_and_order():
    admin = register_of([
        make_admin("S3", birth_country="XX", citizenship_country="XX"),
        make_admin("S2", given_name="tecla"),
        make_admin("S1", given_name="maria"),
    ])
    linked = link(admin, [SurveyRecord("S1", True, 0)])
    expanded = expand_dataset(admin, linked, Imputations(np.array([1]), np.array([1]),
                                                         np.array([0.2])))
    assert expanded.register.link_key.tolist() == ["S1", "S2", "S3"]
    by_key = {k: i for i, k in enumerate(expanded.register.link_key)}
    provenance = [PROVENANCES[p] for p in expanded.provenance]
    assert provenance[by_key["S1"]] == "linked"
    assert expanded.kind[by_key["S1"]] == BackgroundKind.SECOND_GEN_ITALIAN
    assert provenance[by_key["S2"]] == "predicted"
    assert expanded.kind[by_key["S2"]] == BackgroundKind.NO_BACKGROUND
    assert expanded.score[by_key["S2"]] == 0.2
    assert provenance[by_key["S3"]] == "exact"
    assert expanded.kind[by_key["S3"]] == BackgroundKind.FOREIGN


def test_expand_coverage_gap():
    admin = register_of([make_admin("S1")])
    none = Imputations(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))
    with pytest.raises(HiddenPopError, match="neither a linked nor an imputed pa"):
        expand_dataset(admin, link(admin, []), none)


def test_expanded_record_validation(tmp_path):
    # an expanded row exists only with a known provenance, and a score if predicted
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, Expanded(register_of([make_admin("S1")]),
                                      np.array([0]), np.array([0]), np.array([1]),
                                      np.array([np.nan])))
    text = path.read_text()
    for provenance, reason in [("guessed", "bad provenance 'guessed'"),
                               ("predicted", "predicted record without a score")]:
        path.write_text(text.replace("linked,", f"{provenance},"))
        with pytest.raises(DataError, match=f"expanded.csv:2: {reason}"):
            read_expanded_csv(path)


def paper_fixture_records():
    counts = {0: 30_891, 1: 2_828, 2: 132, 3: 662, 4: 1_869}
    spec = {
        0: ("IT", "IT", 0), 1: ("IT", "IT", 1), 2: ("IT", "XX", 1),
        3: ("XX", "IT", 1), 4: ("XX", "XX", 1),
    }
    records, deltas, kinds = [], [], []
    i = 0
    for kind, n in counts.items():
        bpc, citc, delta = spec[kind]
        for _ in range(n):
            records.append(make_admin(f"S{i}", birth_country=bpc, citizenship_country=citc))
            deltas.append(delta)
            kinds.append(kind)
            i += 1
    return Expanded(register_of(records), np.array(deltas), np.array(kinds),
                    np.zeros(i, dtype=int), np.full(i, np.nan))


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
    pop = register_of([make_admin(f"P{i}", gender="F" if i < 60 else "M")
                                 for i in range(100)])
    sample = register_of([make_admin(f"Q{i}", gender="F" if i < 9 else "M")
                                    for i in range(10)])
    report = bias_report(pop, sample, variables=["gender"])
    pop_share, sample_share, gap = report.variables["gender"]["M"]
    assert (pop_share, sample_share, gap) == (40.0, 10.0, -30.0)
    assert ("gender", "M", -30.0) in report.flagged


def test_bias_report_rejects_stray_sample_levels():
    pop = register_of([make_admin("P1", department="science")])
    sample = register_of([make_admin("Q1", department="astrology")])
    with pytest.raises(DataError, match=r"department: sample levels \['astrology'\]"):
        bias_report(pop, sample, variables=["department"])


def test_bias_report_unknown_variable():
    pop = register_of([make_admin("P1")])
    with pytest.raises(DataError, match="unknown shared variable 'shoe_size'"):
        bias_report(pop, register_of([make_admin("Q1")]), variables=["shoe_size"])
