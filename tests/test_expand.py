"""Register expansion, tabulation and the selection-bias report."""

import functools
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiddenpop.domain import MEMBERSHIP, PA_UNOBSERVED, BackgroundKind
from hiddenpop.errors import DataError, HiddenPopError, SchemaMismatch
from hiddenpop.expand import (
    PROVENANCES,
    Expanded,
    Imputations,
    bias_report,
    expand_dataset,
    impute_pa,
    predict_scores,
    tabulate_population,
)
from hiddenpop.features import build_schema, encode_matrix, level_codes
from hiddenpop.ingest import SurveyRecord, link
from hiddenpop.models import fit_forest, fit_logistic, predict_logistic
from hiddenpop.features import LabeledDataset
from hiddenpop.report import read_expanded_csv, write_expanded_csv

from register_reference import read_expanded_rows, register_of
from test_ingest import make_admin

TABLE = {"maria": 100, "giuseppe": 80, "tecla": 2}


def fitted_model_and_schema():
    records = register_of([
        make_admin("T1", given_name="maria", gender="F", years_enrolled=1),
        make_admin("T2", given_name="tecla", gender="M", years_enrolled=4),
        make_admin("T3", given_name="giuseppe", gender="F", years_enrolled=2),
        make_admin("T4", given_name="tecla", gender="M", years_enrolled=5),
    ])
    schema = build_schema(records, TABLE)
    X = encode_matrix(level_codes(records, TABLE), schema)
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


def _per_row_scores(model, schema, register):
    """The scores of encoding and scoring every row, the reference for impute_pa."""
    return predict_scores(model, encode_matrix(level_codes(register, TABLE), schema))


def _warnings(run):
    """run()'s result and the messages hiddenpop.features logged meanwhile."""
    records, handler, log = [], logging.Handler(), logging.getLogger("hiddenpop.features")
    handler.emit = records.append
    log.addHandler(handler)
    try:
        return run(), [r.getMessage() for r in records]
    finally:
        log.removeHandler(handler)


@functools.cache
def _schema_and_models():
    """Trained without student_worker, not_available or a second course level, so that
    those employment levels are unknown to the schema and course_level is dropped."""
    train = register_of([
        make_admin(f"T{i:02d}", gender="FM"[i % 2],
                   employment=("student", "worker_student")[i % 3 == 0],
                   given_name=("maria", "tecla", "amira")[i % 3], years_enrolled=1 + i % 4,
                   ects_earned=10 * (i % 5))
        for i in range(16)])
    schema = build_schema(train, TABLE)
    assert schema.dropped == ["course_level"]
    data = LabeledDataset(X=encode_matrix(level_codes(train, TABLE), schema),
                          y=np.array([i % 4 in (0, 3) for i in range(16)], dtype=int),
                          row_ids=train.link_key.tolist())
    return schema, (fit_logistic(data), fit_forest(data, n_trees=9, seed=2))


# a covariate pattern: gender, employment, course level, given name, years, ECTS
_PATTERN = st.tuples(st.sampled_from("FM"),
                     st.sampled_from(["student", "worker_student", "student_worker",
                                      "not_available"]),
                     st.sampled_from(["bachelor", "master"]),
                     st.sampled_from(["maria", "tecla", "amira", "giuseppe"]),
                     st.integers(1, 5), st.sampled_from([0, 20, 40]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_PATTERN, min_size=1, max_size=4).flatmap(lambda patterns: st.lists(
    st.tuples(st.sampled_from(patterns), st.sampled_from(["IT", "XX"]), st.booleans()),
    min_size=1, max_size=40)))
def test_impute_scores_each_pattern_as_its_rows(rows):
    """Rows (pattern, birth country, linked): impute_pa's scores and pa are those of
    scoring every row's own encoding, and it warns of the same unknown-level row counts;
    the expanded register reads back with the scores the row reference reads.

    The forest's scores are equal bit for bit.  The logistic model's may differ in the
    last bits, as BLAS sums a row's X @ w in an order that depends on the row's
    position in the matrix: identical rows of one matrix can already differ there.
    """
    schema, models = _schema_and_models()
    admin = register_of([
        make_admin(f"S{i:02d}", gender=g, employment=e, course_level=c, given_name=n,
                   years_enrolled=y, ects_earned=x, birth_country=country)
        for i, ((g, e, c, n, y, x), country, _linked) in enumerate(rows)])
    linked = link(admin, [SurveyRecord(f"S{i:02d}", True, i % 2)
                          for i, (_pattern, _country, on) in enumerate(rows) if on])
    target = [i for i, (_pattern, country, on) in enumerate(rows) if country == "IT" and not on]
    for model, tolerance in zip(models, (1e-12, 0.0)):
        out, warned = _warnings(lambda: impute_pa(model, schema, admin, TABLE,
                                                  linked_rows=linked.rows))
        assert out.rows.tolist() == target
        if not target:
            continue
        want, want_warned = _warnings(lambda: _per_row_scores(model, schema, admin.take(target)))
        np.testing.assert_allclose(out.scores, want, rtol=0, atol=tolerance)
        assert np.array_equal(out.pa, np.where(out.scores > 0.5, 0, 1))
        clear = np.abs(want - 0.5) > tolerance
        assert np.array_equal(out.pa[clear], np.where(want > 0.5, 0, 1)[clear])
        assert warned == want_warned
        expanded = expand_dataset(admin, linked, out)
        assert np.array_equal(expanded.score[out.rows], out.scores)
        assert np.isnan(np.delete(expanded.score, out.rows)).all()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "expanded.csv"
            write_expanded_csv(path, expanded)
            np.testing.assert_array_equal(read_expanded_csv(path).score,
                                          read_expanded_rows(path).score)


def test_impute_overflow_counts_rows_not_patterns():
    """Four rows share the one pattern whose linear predictor overflows."""
    model, schema = fitted_model_and_schema()
    model.weights[:] = 0.0
    model.weights[[schema.names.index(c) for c in ("gender=M", "common_italian_name")]] = 1e308
    rows = [("M", "maria")] * 4 + [("F", "maria")] * 2 + [("M", "tecla")]
    admin = register_of([make_admin(f"S{i}", gender=gender, given_name=name)
                         for i, (gender, name) in enumerate(rows)])
    with pytest.raises(OverflowError) as want:
        predict_logistic(model, encode_matrix(level_codes(admin, TABLE), schema))
    assert "overflows on 4 rows" in str(want.value)
    with pytest.raises(OverflowError) as got:
        impute_pa(model, schema, admin, TABLE)
    assert str(got.value) == str(want.value)


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
                                                         np.array([0.2]), np.array([0])))
    register = expanded.register
    assert register.link_key[register.key_order].tolist() == ["S1", "S2", "S3"]
    by_key = {k: i for i, k in enumerate(register.link_key)}
    provenance = [PROVENANCES[p] for p in expanded.provenance]
    assert provenance[by_key["S1"]] == "linked"
    assert expanded.kind[by_key["S1"]] == BackgroundKind.SECOND_GEN_ITALIAN
    assert provenance[by_key["S2"]] == "predicted"
    assert expanded.kind[by_key["S2"]] == BackgroundKind.NO_BACKGROUND
    assert expanded.score[by_key["S2"]] == 0.2
    assert provenance[by_key["S3"]] == "exact"
    assert expanded.kind[by_key["S3"]] == BackgroundKind.FOREIGN


def test_linked_pa_1_decides_a_foreign_born_citizen():
    """(bp, cit, pa) = (0, 1, 1): a linked pa overrides the rule that an unobserved pa is 0."""
    admin = register_of([make_admin("S1", birth_country="XX"), make_admin("S2", birth_country="XX"),
                         make_admin("S3", birth_country="XX")])
    linked = link(admin, [SurveyRecord("S1", True, 1), SurveyRecord("S2", True, 0)])
    empty = np.empty(0, dtype=int)
    none = Imputations(empty, empty, np.empty(0), empty)
    expanded = expand_dataset(admin, linked, none)
    got = [(int(d), int(k), PROVENANCES[p])
           for d, k, p in zip(expanded.delta, expanded.kind, expanded.provenance)]
    # a linked pa that agrees with the rule leaves the row settled by the register
    assert got == [(0, 0, "linked"), (1, 3, "exact"), (1, 3, "exact")]


_ADMISSIBLE = [(bp, cit, pa) for bp in (0, 1) for cit in (0, 1) for pa in (0, 1)
               if MEMBERSHIP[bp, cit, pa, 1] >= 0]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ADMISSIBLE), st.booleans()), min_size=1, max_size=24))
def test_expanded_rows_follow_the_membership_table_at_their_observed_triple(rows):
    """Each row is (triple, linked); an unlinked (1,1) row gets its pa imputed.

    The observed triple is the register's bp/cit with the linked or imputed
    pa, or with pa unobserved.  The written file reads back unchanged.
    """
    country = {0: "XX", 1: "IT"}
    admin = register_of([make_admin(f"S{i:02d}", birth_country=country[bp],
                                    citizenship_country=country[cit])
                         for i, ((bp, cit, _pa), _linked) in enumerate(rows)])
    survey = [SurveyRecord(f"S{i:02d}", True, pa)
              for i, ((_bp, _cit, pa), linked) in enumerate(rows) if linked]
    imputed = [i for i, ((bp, cit, _pa), linked) in enumerate(rows)
               if not linked and (bp, cit) == (1, 1)]
    expanded = expand_dataset(admin, link(admin, survey), Imputations(
        np.array(imputed, dtype=np.intp), np.array([rows[i][0][2] for i in imputed]),
        np.array([0.25]), np.zeros(len(imputed), dtype=int)))

    assert expanded.register.link_key.tolist() == [f"S{i:02d}" for i in range(len(rows))]
    for ((bp, cit, pa), linked), delta, kind, provenance in zip(
            rows, expanded.delta, expanded.kind, expanded.provenance):
        inside = (bp, cit) == (1, 1)
        observed = pa if linked or inside else PA_UNOBSERVED
        assert [delta, kind] == MEMBERSHIP[bp, cit, observed].tolist()
        want = ("linked" if linked and (inside or (bp, cit, pa) == (0, 1, 1))
                else "predicted" if inside else "exact")
        assert PROVENANCES[provenance] == want

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "expanded.csv"
        write_expanded_csv(path, expanded)
        again = read_expanded_csv(path)
    for column in ("delta", "kind", "provenance"):
        assert getattr(again, column).tolist() == getattr(expanded, column).tolist()


def test_expand_coverage_gap():
    admin = register_of([make_admin("S1")])
    empty = np.empty(0, dtype=int)
    none = Imputations(empty, empty, np.empty(0), empty)
    with pytest.raises(HiddenPopError, match="neither a linked nor an imputed pa"):
        expand_dataset(admin, link(admin, []), none)


def test_expand_dataset_keeps_the_register_it_was_given(tmp_path):
    """The Expanded holds admin itself, not a copy, with its arrays in admin's row order;
    a (1,1) row with neither pa is named by the first such row in link_key order, the
    order in which write_expanded_csv writes the rows."""
    admin = register_of([make_admin(key) for key in ["S3", "S10", "S2"]])
    empty = np.empty(0, dtype=int)
    with pytest.raises(HiddenPopError, match="record 'S10' has"):
        expand_dataset(admin, link(admin, []), Imputations(empty, empty, np.empty(0), empty))
    expanded = expand_dataset(admin, link(admin, []), Imputations(
        np.arange(3), np.array([1, 0, 1]), np.array([0.2, 0.7]), np.array([0, 1, 0])))
    assert expanded.register is admin
    assert expanded.kind.tolist() == [0, BackgroundKind.SECOND_GEN_ITALIAN, 0]
    assert expanded.score.tolist() == [0.2, 0.7, 0.2]
    assert admin.link_key[admin.key_order].tolist() == ["S10", "S2", "S3"]
    write_expanded_csv(tmp_path / "expanded.csv", expanded)
    lines = (tmp_path / "expanded.csv").read_text().splitlines()[1:]
    assert [(line.split(",")[0], line.split(",")[-3]) for line in lines] == \
        [("S10", str(int(BackgroundKind.SECOND_GEN_ITALIAN))), ("S2", "0"), ("S3", "0")]
    assert [line.rsplit(",", 1)[1] for line in lines] == ["0.700000", "0.200000", "0.200000"]


def test_expanded_record_validation(tmp_path):
    # an expanded row exists only with a known provenance, and a score iff predicted
    path = tmp_path / "expanded.csv"
    write_expanded_csv(path, Expanded(register_of([make_admin("S1")]),
                                      np.array([0]), np.array([0]), np.array([1]),
                                      np.array([np.nan])))
    text = path.read_text()
    for provenance, reason in [("guessed,", "bad provenance 'guessed'"),
                               ("predicted,", "predicted record without a score"),
                               ("linked,0.5", "predicted_score on a non-predicted record"),
                               *((f"predicted,{score}",
                                  f"predicted_score {score!r} is not in \\[0, 1\\]")
                                 for score in ("nan", "inf", "1e400", "-3", "7"))]:
        path.write_text(text.replace("linked,", provenance))
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


@pytest.mark.parametrize("empty", ["population", "sample"])
def test_bias_report_needs_a_nonempty_population_and_sample(empty):
    registers = {"population": register_of([make_admin("P1")]),
                 "sample": register_of([make_admin("Q1")]), empty: register_of([])}
    with pytest.raises(DataError, match="^both population and sample must be nonempty$"):
        bias_report(registers["population"], registers["sample"], variables=["gender"])


def test_bias_report_unknown_variable():
    pop = register_of([make_admin("P1")])
    with pytest.raises(DataError, match="unknown shared variable 'shoe_size'"):
        bias_report(pop, register_of([make_admin("Q1")]), variables=["shoe_size"])
