"""Bad input exits 3 with a one-line message naming the file, never a traceback."""

import itertools
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiddenpop.cli import main
from hiddenpop.errors import DataError
from hiddenpop.models import load_model
from hiddenpop.synth import SynthConfig, generate

INPUTS = ["admin.csv", "survey.csv", "screened_out.csv", "names.csv"]
MODELS = ["model_logistic.json", "model_forest.json"]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A 600-row bundle, and a logistic and a 5-tree forest model trained on it."""
    root = tmp_path_factory.mktemp("bad_input")
    cfg = SynthConfig(n_register=600, n_survey_native=20, n_survey_migrant=20,
                      n_screened_out=40)
    generate(cfg, root / "data")
    for model, extra in [("logistic", []), ("forest", ["--trees", "5"])]:
        assert main(["train", "--data-dir", str(root / "data"), "--out",
                     str(root / f"train_{model}"), "--model", model, "--k", "0", *extra]) == 0
    return root


def _case_dir(bundle, case):
    """A fresh copy of the inputs and the model, for one corruption."""
    case.mkdir()
    for name in INPUTS:
        shutil.copy(bundle / "data" / name, case / name)
    for kind in ("logistic", "forest"):
        shutil.copy(bundle / f"train_{kind}" / f"model_{kind}.json", case)
    return case


def _set_field(path, lineno, field, value):
    lines = path.read_text().split("\n")
    cells = lines[lineno - 1].split(",")
    cells[field] = value
    lines[lineno - 1] = ",".join(cells)
    path.write_text("\n".join(lines))


def _ingest(d):
    return ["ingest", "--data-dir", str(d), "--out", str(d / "out")]


def _impute(d, model):
    return ["impute", "--data-dir", str(d), "--out", str(d / "out"),
            "--model-file", str(model)]


def missing_names(d):
    (d / "names.csv").unlink()
    return _ingest(d), f"{d / 'names.csv'}: FileNotFoundError"


def missing_admin(d):
    (d / "admin.csv").unlink()
    return _ingest(d), f"{d / 'admin.csv'}: FileNotFoundError"


def eligible_maybe(d):
    _set_field(d / "survey.csv", 3, 1, "maybe")
    return _ingest(d), f"{d / 'survey.csv'}:3: unrecognized boolean 'maybe'"


def pa_observed_x(d):
    _set_field(d / "survey.csv", 4, 2, "x")
    return _ingest(d), f"{d / 'survey.csv'}:4: invalid literal for int()"


def truncated_model(d):
    model = d / "model_logistic.json"
    model.write_bytes(model.read_bytes()[:500])
    return _impute(d, model), f"{model}: JSONDecodeError"


def model_without_weights(d):
    model = d / "model_logistic.json"
    payload = json.loads(model.read_text())
    del payload["model"]["weights"]
    model.write_text(json.dumps(payload))
    return _impute(d, model), f"{model}: KeyError: 'weights'"


def missing_model_file(d):
    model = d / "nope.json"
    return _impute(d, model), f"{model}: FileNotFoundError"


def misspelt_config_key(d):
    config = d / "config.json"
    config.write_text(json.dumps({"n_registr": 600}))
    return (["synth", "--config", str(config), "--out", str(d / "out")],
            f"{config}: TypeError: SynthConfig.__init__() got an unexpected keyword "
            "argument 'n_registr'")


def config_value_wrong_type(d):
    config = d / "config.json"
    config.write_text(json.dumps({"n_register": "600"}))
    return (["synth", "--config", str(config), "--out", str(d / "out")],
            f"{config}: TypeError: n_register: expected a value like the default")


def config_shares_not_100(d):
    config = d / "config.json"
    config.write_text(json.dumps({"kind_shares": [84.91, 7.77, 0.36, 1.82, 4.14]}))
    return (["synth", "--config", str(config), "--out", str(d / "out")],
            f"error: DataError: {config}: kind_shares must sum to 100, got ")


def config_not_json(d):
    config = d / "config.json"
    config.write_text("n_register = 600\n")
    return (["pipeline", "--config", str(config), "--out", str(d / "out")],
            f"{config}: JSONDecodeError")


def expanded_without_register_columns(d):
    expanded = d / "expanded.csv"
    expanded.write_text("delta,kind,provenance,predicted_score\n1,4,exact,\n")
    return (["report", "--data-dir", str(d), "--out", str(d / "out"),
             "--expanded", str(expanded)],
            f"{expanded}: missing column(s) ['link_key'")


def names_not_utf8(d):
    names = d / "names.csv"
    names.write_bytes(names.read_bytes() + "niccolò,7\n".encode("latin-1"))
    return _ingest(d), f"{names}: UnicodeDecodeError"


def foreign_born_foreigner_with_italian_parents(d):
    # an eligible respondent with pa=1 whose register row has bp=0, cit=0: (0,0,1)
    surveyed = {line.split(",")[0] for name in ("survey.csv", "screened_out.csv")
                for line in (d / name).read_text().splitlines()}
    key = next(cells[0] for cells in (line.split(",") for line in
                                      (d / "admin.csv").read_text().splitlines()[1:])
               if cells[3] != "IT" and cells[4] != "IT" and cells[0] not in surveyed)
    with open(d / "survey.csv", "a") as f:
        f.write(f"{key},1,1\n")
    return (_ingest(d),
            f"error: ExcludedCombination: link_key {key!r}: (bp=0, cit=0, pa=1) cannot occur")


@pytest.mark.parametrize("corrupt", [
    missing_names, missing_admin, eligible_maybe, pa_observed_x, truncated_model,
    model_without_weights, missing_model_file, misspelt_config_key, config_value_wrong_type,
    config_shares_not_100, config_not_json, expanded_without_register_columns, names_not_utf8,
    foreign_born_foreigner_with_italian_parents,
])
def test_bad_input_exits_3_naming_the_file(bundle, tmp_path, capsys, corrupt):
    argv, fragment = corrupt(_case_dir(bundle, tmp_path / "case"))
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


def _cycle_at_root(m):
    m["trees"][0]["left"][0] = 0


def _orphan_below_root(m):
    tree = m["trees"][0]
    tree["right"][0] = tree["left"][0]  # both children the same node: the other is orphaned


def _feature_out_of_range(m):
    m["trees"][0]["feature"][0] = 99


def _truncated_counts(m):
    m["trees"][1]["counts"] = m["trees"][1]["counts"][:-1]


def _trees_missing(m):
    m["trees"] = m["trees"][:2]


def _fractional_feature(m):
    m["trees"][0]["feature"][0] += 0.9


def _fractional_counts(m):
    m["trees"][0]["counts"][0] = [c + 0.7 for c in m["trees"][0]["counts"][0]]


def _string_threshold(m):
    m["trees"][0]["threshold"][0] = str(m["trees"][0]["threshold"][0])


@pytest.mark.parametrize("edit, fragment", [
    pytest.param(_cycle_at_root, "a child index does not point forward", id="cycle_at_root"),
    pytest.param(_orphan_below_root, "a node other than the root is not the child of exactly one",
                 id="orphan_below_root"),
    pytest.param(_feature_out_of_range, "a split feature is outside 0..",
                 id="feature_out_of_range"),
    pytest.param(_truncated_counts, "counts must hold one pair of non-negative counts",
                 id="truncated_counts"),
    pytest.param(_trees_missing, "n_trees is 5 but the file holds 2 trees", id="trees_missing"),
    pytest.param(_fractional_feature, "feature must hold integers", id="fractional_feature"),
    pytest.param(_fractional_counts, "counts must hold integers", id="fractional_counts"),
    pytest.param(_string_threshold, "threshold must hold numbers", id="string_threshold"),
])
def test_malformed_forest_exits_3_naming_the_file(bundle, tmp_path, capsys, edit, fragment):
    case = _case_dir(bundle, tmp_path / "case")
    model = case / "model_forest.json"
    payload = json.loads(model.read_text())
    edit(payload["model"])
    model.write_text(json.dumps(payload))
    # checked on load, before any tree is walked: a cycle would never end
    with pytest.raises(DataError, match=fragment):
        load_model(model)
    capsys.readouterr()
    assert main(_impute(case, model)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: DataError: {model}: ValueError: ") and err.count("\n") == 1
    assert fragment in err


_counter = itertools.count()
_FILES = ["admin.csv", "survey.csv", "names.csv", *MODELS]
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=8), st.lists(st.integers(), max_size=3))


def _leaves(node, path=()):
    """Paths to every scalar in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _leaves(child, path + (key,))]


def _replace_cell(blob, name, data):
    if name.endswith(".json"):
        payload = json.loads(blob)
        *parents, last = data.draw(st.sampled_from(_leaves(payload)))
        node = payload
        for key in parents:
            node = node[key]
        node[last] = data.draw(_JSON_VALUES)
        return json.dumps(payload).encode()
    lines = blob.split(b"\n")
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(b",")
    cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.text(max_size=12)).encode()
    lines[row] = b",".join(cells)
    return b"\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_corrupted_input_exits_0_or_3(bundle, data):
    case = _case_dir(bundle, bundle / f"fuzz{next(_counter)}")
    name = data.draw(st.sampled_from(_FILES))
    path = case / name
    blob = path.read_bytes()
    how = data.draw(st.sampled_from(["truncate", "flip", "cell"]))
    if how == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif how == "flip":
        i = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:i] + bytes([data.draw(st.integers(0, 255))]) + blob[i + 1:]
    else:
        blob = _replace_cell(blob, name, data)
    path.write_bytes(blob)
    command = "impute" if name in MODELS else data.draw(
        st.sampled_from(["ingest", "impute"]))
    argv = [command, "--data-dir", str(case), "--out", str(case / "out")]
    if command == "impute":
        model = name if name in MODELS else data.draw(st.sampled_from(MODELS))
        argv += ["--model-file", str(case / model)]
    assert main(argv) in (0, 3)
