"""Encoding schema, one-hot/z-score encoding and training-set assembly."""

import json
import logging

import numpy as np
import pytest

from hiddenpop.errors import DataError
from hiddenpop.features import (
    assemble_training_set,
    build_schema,
    correlation_report,
    encode_matrix,
    FeatureSchema,
    LabeledDataset,
    level_codes,
)
from hiddenpop.ingest import SurveyRecord, is_common_name, link

from register_reference import register_of, register_rows
from test_ingest import make_admin

TABLE = {"maria": 100, "giuseppe": 80, "tecla": 2}


def varied_records():
    return register_of([
        make_admin("S1", gender="F", employment="student", course_level="bachelor",
                   given_name="maria", years_enrolled=1, ects_earned=10),
        make_admin("S2", gender="M", employment="worker_student", course_level="master",
                   given_name="tecla", years_enrolled=3, ects_earned=50),
        make_admin("S3", gender="F", employment="student_worker",
                   course_level="bachelor_and_master", given_name="giuseppe",
                   years_enrolled=5, ects_earned=90),
        make_admin("S4", gender="M", employment="not_available", course_level="bachelor",
                   given_name="amira", years_enrolled=2, ects_earned=30),
    ])


def test_schema_layout_and_width():
    schema = build_schema(varied_records(), TABLE)
    assert schema.names == [
        "gender=M",
        "employment=worker_student", "employment=student_worker",
        "employment=not_available",
        "course_level=master", "course_level=bachelor_and_master",
        "common_italian_name",
        "years_enrolled", "ects_earned",
    ]
    assert schema.width == 9
    assert schema.dropped == []
    assert schema.groups == [
        "gender", "employment", "course_level", "common_italian_name",
        "years_enrolled", "ects_earned",
    ]
    assert schema.group_indices("employment") == [1, 2, 3]


def test_schema_drops_degenerate_features():
    records = register_of([make_admin(f"S{i}", given_name="maria", years_enrolled=2)
                                     for i in range(3)])
    schema = build_schema(records, TABLE)
    # every categorical single-valued, name flag constant, years constant
    assert "gender" in schema.dropped
    assert "common_italian_name" in schema.dropped
    assert "years_enrolled" in schema.dropped
    assert "ects_earned" in schema.dropped  # also constant here
    assert schema.width == 0


def test_encode_values():
    records = varied_records()
    schema = build_schema(records, TABLE)
    X = encode_matrix(level_codes(records, TABLE), schema)
    assert X.shape == (4, 9)
    # S2: male, worker_student, master, rare listed name
    np.testing.assert_array_equal(X[1, :7], [1, 1, 0, 0, 1, 0, 0])
    # z-scores have mean 0, sd 1 over the schema-building rows
    np.testing.assert_allclose(X[:, 7:].mean(axis=0), 0, atol=1e-12)
    np.testing.assert_allclose(X[:, 7:].std(axis=0), 1, atol=1e-12)


def test_encode_matrix_matches_per_row_reference(small_inputs, small_training):
    admin, _survey, table, _linked = small_inputs
    schema = FeatureSchema.from_json(small_training[0].to_json())
    records = register_rows(admin)[:500]
    expected = [
        [float(getattr(r, c.source) == c.level) if c.kind == "onehot"
         else float(is_common_name(r.given_name, table)) if c.kind == "binary"
         else (getattr(r, c.source) - c.mean) / c.sd
         for c in schema.columns]
        for r in records
    ]
    np.testing.assert_array_equal(
        encode_matrix(level_codes(admin.take(np.arange(500)), table), schema), expected)


def test_encode_unknown_level_falls_back_to_reference(caplog):
    records = varied_records()
    schema = build_schema(records.take([0, 1]), TABLE)  # only bachelor/master observed
    # records[2] carries two unseen levels: student_worker and bachelor_and_master
    with caplog.at_level(logging.WARNING, logger="hiddenpop.features"):
        x = encode_matrix(level_codes(records.take([2]), TABLE), schema)[0]
    for group in ("course_level", "employment"):
        assert all(x[i] == 0.0 for i in schema.group_indices(group))
    assert sorted(r.getMessage() for r in caplog.records) == [
        "unknown course_level level 'bachelor_and_master' mapped to reference (1 rows)",
        "unknown employment level 'student_worker' mapped to reference (1 rows)"]


def test_subset_sharing_level_lists_counts_only_its_rows(caplog):
    """A take subset's level lists hold levels none of its rows use; the schema,
    its warnings and the unknown-level warnings must match a register of those rows alone."""
    records = varied_records()
    train, scored = records.take([0, 2]), records.take([1])

    def warned(run, register):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hiddenpop.features"):
            result = run(register)
        return result, [r.getMessage() for r in caplog.records]

    schema, schema_warnings = warned(lambda r: build_schema(r, TABLE), train)
    alone, alone_warnings = warned(lambda r: build_schema(r, TABLE),
                                   register_of(register_rows(train)))
    assert schema.to_json() == alone.to_json()
    assert schema_warnings == alone_warnings
    assert schema.dropped == ["gender", "common_italian_name"]
    # worker_student, not_available and master are in the shared lists, not in train's rows
    assert [n for n in schema.names if "=" in n] == ["employment=student_worker",
                                                     "course_level=bachelor_and_master"]
    assert "feature 'gender' degenerate (only {'F'} observed), dropped" in schema_warnings
    X, encode_warnings = warned(lambda r: encode_matrix(level_codes(r, TABLE), schema), scored)
    X_alone, alone_warnings = warned(lambda r: encode_matrix(level_codes(r, TABLE), schema),
                                     register_of(register_rows(scored)))
    np.testing.assert_array_equal(X, X_alone)
    # not_available is in the shared list and unknown to the schema, but no scored row uses it
    assert encode_warnings == alone_warnings == [
        "unknown employment level 'worker_student' mapped to reference (1 rows)",
        "unknown course_level level 'master' mapped to reference (1 rows)"]


def test_schema_json_round_trip():
    schema = build_schema(varied_records(), TABLE)
    again = FeatureSchema.from_json(schema.to_json())
    assert again.to_json() == schema.to_json()
    assert json.loads(schema.to_json())["name_rule"] == {"min_count": 5, "top_k": None}
    x0 = encode_matrix(level_codes(varied_records().take([0]), TABLE), schema)[0]
    x1 = encode_matrix(level_codes(varied_records().take([0]), TABLE), again)[0]
    np.testing.assert_array_equal(x0, x1)


def test_assemble_training_set_filters_and_labels():
    records = register_rows(varied_records())
    # S4 is outside the (1,1) stratum and must be skipped
    records[3] = make_admin("S4", gender="M", birth_country="XX",
                            employment="not_available", given_name="amira")
    records = register_of(records)
    linked = link(records, [
        SurveyRecord("S1", True, 1),
        SurveyRecord("S2", True, 0),
        SurveyRecord("S3", False, 1),
        SurveyRecord("S4", True, 0),
    ])
    schema = build_schema(records.take([0, 1, 2]), TABLE)
    data = assemble_training_set(linked, schema, TABLE)
    assert data.row_ids == ["S1", "S2", "S3"]
    np.testing.assert_array_equal(data.y, [0, 1, 0])  # positive class is pa=0


def test_assemble_training_set_requires_both_classes():
    records = varied_records().take([0, 1])
    linked = link(records, [SurveyRecord(k, True, 0) for k in records.link_key])
    schema = build_schema(records, TABLE)
    with pytest.raises(DataError, match="training labels are all 1"):
        assemble_training_set(linked, schema, TABLE)


def test_labeled_dataset_needs_one_label_per_row():
    with pytest.raises(ValueError, match="^X and y length mismatch$"):
        LabeledDataset(X=np.zeros((3, 2)), y=np.zeros(2, dtype=int), row_ids=["a", "b"])


def test_correlation_report_shape_and_diagonal(small_training):
    schema, data = small_training
    corr = correlation_report(data, schema)
    matrix = np.array(corr["matrix"])
    assert corr["names"] == schema.names
    np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-9)
    np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)


def test_small_training_set_has_exact_class_split(small_training):
    _schema, data = small_training
    assert len(data.y) == 714
    assert int(data.y.sum()) == 312          # eligible natives, pa=0
    assert int((data.y == 0).sum()) == 402   # screened-out, pa=1


def test_schema_accepts_only_a_null_top_k():
    payload = json.loads(build_schema(varied_records(), TABLE).to_json())
    payload["name_rule"]["top_k"] = 2
    with pytest.raises(ValueError, match="^schema name_rule top_k is 2 but loads as null$"):
        FeatureSchema.from_json(json.dumps(payload))
