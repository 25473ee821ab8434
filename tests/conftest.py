"""Shared fixtures: synthetic bundles and their parsed forms."""

import pytest

from hiddenpop.features import assemble_training_set, build_schema
from hiddenpop.ingest import build_name_table, link, parse_admin, parse_survey
from hiddenpop.synth import SynthConfig, generate


def small_config() -> SynthConfig:
    """A reduced register that still supports the default survey counts."""
    cfg = SynthConfig()
    cfg.n_register = 6_000
    return cfg


@pytest.fixture(scope="session")
def small_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_bundle")
    return generate(small_config(), out)


@pytest.fixture(scope="session")
def small_inputs(small_bundle):
    admin = parse_admin(small_bundle.admin_path)
    survey = parse_survey(small_bundle.survey_path, small_bundle.screened_out_path)
    table = build_name_table(small_bundle.name_table_path)
    linked = link(admin, survey)
    return admin, survey, table, linked


@pytest.fixture(scope="session")
def small_training(small_inputs):
    admin, _survey, table, linked = small_inputs
    schema = build_schema(admin.take(linked.rows[linked.native()]), table)
    data = assemble_training_set(linked, schema, table)
    return schema, data
