"""Bad input exits 3 with a one-line message naming the file, never a traceback."""

import base64
import itertools
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiddenpop.cli import main
from hiddenpop.errors import DataError
from hiddenpop.models import load_model
from hiddenpop.synth import SynthConfig, generate

INPUTS = ["admin.csv", "survey.csv", "screened_out.csv", "names.csv"]
MODELS = ["model_logistic.json", "model_forest.json"]
EXPANDED = "expanded_register.csv"


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A 600-row bundle, a logistic and a 5-tree forest model trained on it, and the
    register the logistic model expands."""
    root = tmp_path_factory.mktemp("bad_input")
    cfg = SynthConfig(n_register=600, n_survey_native=20, n_survey_migrant=20,
                      n_screened_out=40)
    generate(cfg, root / "data")
    for model, extra in [("logistic", []), ("forest", ["--trees", "5"])]:
        assert main(["train", "--data-dir", str(root / "data"), "--out",
                     str(root / f"train_{model}"), "--model", model, "--k", "0", *extra]) == 0
    assert main(["impute", "--data-dir", str(root / "data"), "--out", str(root / "impute"),
                 "--model-file", str(root / "train_logistic" / "model_logistic.json")]) == 0
    return root


def _case_dir(bundle, case):
    """A fresh copy of the inputs, the models and the expanded register, for one corruption."""
    case.mkdir()
    for name in INPUTS:
        shutil.copy(bundle / "data" / name, case / name)
    for kind in ("logistic", "forest"):
        shutil.copy(bundle / f"train_{kind}" / f"model_{kind}.json", case)
    shutil.copy(bundle / "impute" / EXPANDED, case)
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


def pa_observed_2(d):
    _set_field(d / "survey.csv", 2, 2, "2")
    return _ingest(d), f"error: DataError: {d / 'survey.csv'}:2: pa_observed must be 0/1"


def _survey_header_only(d):
    survey = d / "survey.csv"
    survey.write_text(survey.read_text().splitlines(keepends=True)[0])


def evaluate_without_native_rows(d):
    """No survey respondent and no screened_out.csv: nothing linked to score."""
    _survey_header_only(d)
    (d / "screened_out.csv").unlink()
    return (["evaluate", "--data-dir", str(d), "--out", str(d / "out"),
             "--model-file", str(d / "model_logistic.json")],
            "error: DataError: no linked rows with bp=cit=1\n")


def report_without_eligible_rows(d):
    """Only the screened-out rows link, and none of them is eligible."""
    _survey_header_only(d)
    return (["report", "--data-dir", str(d), "--out", str(d / "out"),
             "--expanded", str(d / EXPANDED)],
            "error: DataError: no eligible linked survey respondents for the bias report\n")


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


def version_1_forest(d):
    """The forest in format 1's layout: per-tree dicts of JSON lists."""
    model = d / "model_forest.json"
    payload = json.loads(model.read_text())
    m = payload["model"]
    nodes, cuts = _nodes(m), np.cumsum(m.pop("n_nodes"))[:-1]
    nodes["counts"] = nodes["counts"].reshape(-1, 2)
    m["trees"] = [{name: a.tolist() for name, a in zip(nodes, tree)}
                  for tree in zip(*(np.split(a, cuts) for a in nodes.values()))]
    for name in nodes:
        del m[name]
    payload["format_version"] = 1
    model.write_text(json.dumps(payload))
    return _impute(d, model), f"error: SchemaMismatch: {model}: unsupported model format 1"


def _edit_model(d, name, edit):
    model = d / name
    payload = json.loads(model.read_text())
    edit(payload)
    model.write_text(json.dumps(payload))  # a non-finite float is written as NaN or Infinity
    return model


def infinite_logistic_weight(d):
    model = _edit_model(d, "model_logistic.json",
                        lambda p: p["model"]["weights"].__setitem__(0, float("inf")))
    return _impute(d, model), f"{model}: ValueError: intercept and weights must be finite"


def nan_logistic_intercept(d):
    model = _edit_model(d, "model_logistic.json",
                        lambda p: p["model"].__setitem__("intercept", float("nan")))
    return _impute(d, model), f"{model}: ValueError: intercept and weights must be finite"


def model_type_tree(d):
    model = _edit_model(d, "model_forest.json", lambda p: p.__setitem__("model_type", "tree"))
    return _impute(d, model), f"error: SchemaMismatch: {model}: unknown model_type 'tree'\n"


def logistic_weight_missing(d):
    model = _edit_model(d, "model_logistic.json", lambda p: p["model"]["weights"].pop())
    return (_impute(d, model),
            f"error: SchemaMismatch: {model}: schema width does not match model width\n")


def forest_first_tree_two_nodes_longer(d):
    def grow(p):
        p["model"]["n_nodes"][0] += 2
    model = _edit_model(d, "model_forest.json", grow)
    return _impute(d, model), f"{model}: ValueError: n_nodes must be counts >= 1 that sum to the "


def forest_threshold_one_short(d):
    def shorten(p):  # threshold items are 8-byte floats
        raw = base64.b64decode(p["model"]["threshold"])
        p["model"]["threshold"] = base64.b64encode(raw[:-8]).decode("ascii")
    model = _edit_model(d, "model_forest.json", shorten)
    return (_impute(d, model), f"{model}: ValueError: feature, threshold, left and right must "
                               "hold one value per node")


def _numeric_column(payload):
    return next(c for c in payload["schema"]["columns"] if c["kind"] == "numeric")


def schema_sd_zero(d):
    model = _edit_model(d, "model_logistic.json",
                        lambda p: _numeric_column(p).__setitem__("sd", 0))
    return _impute(d, model), f"{model}: ValueError: feature column 'years_enrolled' has mean"


def schema_mean_nan(d):
    model = _edit_model(d, "model_forest.json",
                        lambda p: _numeric_column(p).__setitem__("mean", float("nan")))
    return _impute(d, model), "both must be finite and sd positive"


def _schema_edit(edit, message):
    """A forest model whose embedded schema edit(schema) changed."""
    def corrupt(d):
        model = _edit_model(d, "model_forest.json", lambda p: edit(p["schema"]))
        return _impute(d, model), f"{model}: ValueError: schema {message}"
    return corrupt


# the bundle's schema holds the full layout: column 8 is ects_earned, the last
SCHEMA_EDITS = [
    pytest.param(_schema_edit(lambda s: s["name_rule"].update(min_count=1000),
                              "name_rule min_count is 1000 but loads as 5"), id="min_count_1000"),
    pytest.param(_schema_edit(lambda s: s["name_rule"].update(min_count=True),
                              "name_rule min_count is true but loads as 5"), id="min_count_true"),
    pytest.param(_schema_edit(lambda s: s["columns"][8].update(sd=True),
                              "columns[8] sd is true but loads as 1.0"), id="ects_sd_true"),
    pytest.param(_schema_edit(lambda s: s["columns"][8].update(mean="31.5"),
                              'columns[8] mean is "31.5" but loads as 31.5'), id="ects_mean_text"),
    pytest.param(_schema_edit(lambda s: s.update(version=7), "version is 7 but loads as 1"),
                 id="version_7"),
    # scored in file order, swapped columns would feed each weight the other's values
    pytest.param(_schema_edit(lambda s: s["columns"].insert(0, s["columns"].pop(1)),
                              'columns[0] group is "employment" but loads as "gender"'),
                 id="columns_swapped"),
    pytest.param(_schema_edit(lambda s: s["columns"][8].update(name="ects"),
                              "columns[8] is {"), id="column_not_in_layout"),
]


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


def config_not_an_object(d):
    config = d / "config.json"
    config.write_text("[1, 2]")
    return (["synth", "--config", str(config), "--out", str(d / "out")],
            f"error: DataError: {config}: TypeError: the config must be a JSON object\n")


def config_not_json(d):
    config = d / "config.json"
    config.write_text("n_register = 600\n")
    return (["pipeline", "--config", str(config), "--out", str(d / "out")],
            f"{config}: JSONDecodeError")


_DEEP = "[" * 5000 + "]" * 5000  # nested past the JSON decoder's recursion limit
_LONG = "1" + "0" * 5000  # past Python's 4,300-digit limit on int()


def config_nested_too_deep(d):
    config = d / "config.json"
    config.write_text(f'{{"seed": {_DEEP}}}')
    return (["synth", "--config", str(config), "--out", str(d / "out")],
            f"error: DataError: {config}: RecursionError: ")


def config_integer_too_long(d):
    config = d / "config.json"
    config.write_text(f'{{"seed": {_LONG}}}')
    return (["pipeline", "--config", str(config), "--out", str(d / "out")],
            f"error: DataError: {config}: ValueError: Exceeds the limit (4300 digits)")


def model_nested_too_deep(d):
    model = d / "model_logistic.json"
    text = model.read_text()
    at = text.index('"dropped": [') + len('"dropped": [')
    model.write_text(text[:at] + _DEEP + ("" if text[at] == "]" else ", ") + text[at:])
    return _impute(d, model), f"error: DataError: {model}: RecursionError: "


def _manifest_beside_expanded(d, value):
    (d / "run_manifest.json").write_text(f'{{"inputs": {{}}, "outputs": {value}}}')
    return ["report", "--data-dir", str(d), "--out", str(d / "out"),
            "--expanded", str(d / EXPANDED)]


def manifest_nested_too_deep(d):
    return (_manifest_beside_expanded(d, _DEEP),
            f"error: DataError: {d / 'run_manifest.json'}: RecursionError: ")


def manifest_integer_too_long(d):
    return (_manifest_beside_expanded(d, _LONG),
            f"error: DataError: {d / 'run_manifest.json'}: ValueError: Exceeds the limit")


# a value that generate would draw from, out of range, and the start of its message
_CONFIG_CASES = [
    ({"seed": -1}, "seed must be finite and >= 0, got -1"),
    ({"n_survey_native": -5}, "n_survey_native must be finite and >= 0, got -5"),
    ({"n_survey_migrant": -1}, "n_survey_migrant must be finite and >= 0, got -1"),
    ({"male_share": 150}, "male_share must be finite and in [0, 100], got 150"),
    ({"male_share": float("nan")}, "male_share must be finite and in [0, 100], got nan"),
    ({"department_shares": {"law": -10, "science": 110}},
     "department_shares must be finite and in [0, 100], got {'law': -10, 'science': 110}"),
    ({"years_mean": 0.5}, "years_mean must be finite and >= 1, got 0.5"),
    ({"ects_sd": -3}, "ects_sd must be finite and > 0, got -3"),
    ({"years_sd": 0}, "years_sd must be finite and > 0, got 0"),
    ({"years_max": 0}, "years_max must be finite and >= 1, got 0"),
    ({"ects_max": -1}, "ects_max must be finite and >= 0, got -1"),
    ({"ects_mean": float("inf")}, "ects_mean must hold finite numbers"),
    ({"signal": {"gender=M": 1.0}}, "signal must hold exactly the keys ['gender=M', "),
    ({"response_offsets": {"shoe_size": {"42": 1.0}}}, "response_offsets may only hold ("),
    ({"response_offsets": {"gender": {"M": float("inf")}}},
     "response_offsets must hold finite numbers"),
    ({"response_offsets": {"department": {"Science": 5.0}}},
     "response_offsets: department has no level 'Science'\n"),
    ({"seed": True}, "TypeError: seed: expected a value like the default 3, got True"),
    ({"n_register": 10**20}, f"n_register must be >= 100 and < 2**31, got {10**20}"),
    ({"n_register": 2**31}, "n_register must be >= 100 and < 2**31, got 2147483648"),
    ({"years_max": 10**29}, f"years_max must be < 2**63, got {10**29}"),
    ({"ects_max": 10**29}, f"ects_max must be < 2**63, got {10**29}"),
    ({"response_offsets": {"gender": {"M": 1000}}},
     "response_offsets must be in [-100, 100], got {'gender': {'M': 1000}}"),
    ({"response_offsets": {"gender": {"M": -1000, "F": -1000}}},
     "response_offsets must be in [-100, 100], got {'gender': {'M': -1000, 'F': -1000}}"),
]


@pytest.mark.parametrize("config, message", _CONFIG_CASES,
                         ids=[json.dumps(config) for config, _ in _CONFIG_CASES])
@pytest.mark.parametrize("n_register", ["2000", "6000"])
def test_config_value_out_of_range_exits_3_naming_it(tmp_path, capsys, config, message,
                                                     n_register):
    """Each value that generate draws from is checked before it draws."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["synth", "--config", str(path), "--n-register", n_register,
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: DataError: {path}: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("config", [config for config, _ in _CONFIG_CASES], ids=json.dumps)
def test_a_rejected_config_leaves_no_out_directory(tmp_path, config):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    assert main(["synth", "--config", str(path), "--n-register", "2000", "--out", str(out)]) == 3
    assert not out.exists()


def test_response_offsets_at_their_bounds_draw_a_bundle(tmp_path):
    """+100 and -100 in turn on the levels of each variable: a row's weight lies
    between exp(-400) and exp(400), finite and above 0."""
    defaults = SynthConfig()
    levels = {"gender": ["M", "F"], "department": defaults.department_shares,
              "course_level": defaults.course_shares, "employment": defaults.employment_shares}
    offsets = {var: {level: (100, -100)[i % 2] for i, level in enumerate(names)}
               for var, names in levels.items()}
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"response_offsets": offsets, "n_survey_native": 20,
                                "n_survey_migrant": 20, "n_screened_out": 40}))
    assert main(["synth", "--config", str(path), "--n-register", "2000", "--out", str(out)]) == 0
    assert len((out / "survey.csv").read_text().splitlines()) == 1 + 40


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
    model_without_weights, version_1_forest, infinite_logistic_weight, nan_logistic_intercept,
    schema_sd_zero, schema_mean_nan, missing_model_file, misspelt_config_key,
    config_value_wrong_type, config_shares_not_100, config_not_json,
    expanded_without_register_columns, names_not_utf8, foreign_born_foreigner_with_italian_parents,
    *SCHEMA_EDITS, model_type_tree, logistic_weight_missing, forest_first_tree_two_nodes_longer,
    forest_threshold_one_short, pa_observed_2, config_not_an_object, evaluate_without_native_rows,
    report_without_eligible_rows, config_nested_too_deep, config_integer_too_long,
    model_nested_too_deep, manifest_nested_too_deep, manifest_integer_too_long,
])
def test_bad_input_exits_3_naming_the_file(bundle, tmp_path, capsys, corrupt):
    argv, fragment = corrupt(_case_dir(bundle, tmp_path / "case"))
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


@pytest.mark.parametrize("argv, blocked, make", [
    (["pipeline", "--k", "0", "--trees", "5"], "train", "file"),  # a stage's directory
    (["synth", "--n-register", "6000"], "admin.csv", "directory"),  # an artifact
    (["pipeline", "--k", "0", "--trees", "5"], "impute", "file"),  # a later stage's directory
])
def test_blocked_artifact_path_exits_3_naming_it(bundle, tmp_path, capsys, argv, blocked, make):
    """A file or directory where the run must write exits 3, not with a traceback, before
    any stage runs; the message names the blocked path, not a temp file, so a rerun repeats it."""
    out = tmp_path / "out"
    out.mkdir()
    if make == "file":
        (out / blocked).touch()
    else:
        (out / blocked).mkdir()
    data = ["--data-dir", str(bundle / "data")] if argv[0] == "pipeline" else []
    capsys.readouterr()
    errs = []
    for _ in range(2):
        assert main([argv[0], *data, "--out", str(out), *argv[1:]]) == 3
        errs.append(capsys.readouterr().err)
    err = errs[0]
    assert errs[1] == err and err.startswith("error: ") and err.count("\n") == 1, errs
    assert f"'{out / blocked}'" in err and f".{blocked}." not in err and "Traceback" not in err
    assert not (out / "run_manifest.json").exists()
    assert not list(out.glob(".*")) and not list(out.glob("train/model_*.json"))


def _evaluate(d, model):
    return ["evaluate", "--data-dir", str(d), "--out", str(d / "out"),
            "--model-file", str(model)]


@pytest.mark.parametrize("command", [_impute, _evaluate], ids=["impute", "evaluate"])
def test_huge_logistic_weights_exit_3_naming_the_file(bundle, tmp_path, capsys, command):
    """Finite weights whose linear predictor overflows: a bad model file, not scores of 0 and 1."""
    model = _edit_model(_case_dir(bundle, tmp_path / "case"), "model_logistic.json",
                        lambda p: p["model"]["weights"].__setitem__(slice(-2, None),
                                                                    [1e308, -1e308]))
    capsys.readouterr()
    assert main(command(tmp_path / "case", model)) == 3  # a RuntimeWarning would raise here
    err = capsys.readouterr().err
    assert err.startswith(f"error: DataError: {model}: OverflowError: the logistic model's "
                          "linear predictor overflows on ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name, field, value, holds, message", [
    ("model_forest.json", "n_trees", 5.9, "an integer", "model n_trees is 5.9 but loads as 5"),
    ("model_forest.json", "n_trees", True, "an integer", "model n_trees is true but loads as 5"),
    ("model_forest.json", "n_features", 9.7, "an integer",
     "model n_features is 9.7 but loads as 9"),
    ("model_forest.json", "mtry", "abc", "an integer", 'model mtry is "abc" but loads as 3'),
    ("model_forest.json", "seed", "x", "an integer",
     "seed: invalid literal for int() with base 10: 'x'"),
    ("model_forest.json", "min_leaf", None, "an integer", "model min_leaf is null but loads as 1"),
    ("model_forest.json", "max_depth", "deep", "an integer or null",
     'model max_depth is "deep" but loads as null'),
    ("model_forest.json", "oob_error", [1], "a number",
     "oob_error: float() argument must be a string or a real number, not 'list'"),
    ("model_forest.json", "oob_error", "0.1", "a number",
     'model oob_error is "0.1" but loads as 0.1'),
    ("model_logistic.json", "intercept", "1.5", "a number",
     'model intercept is "1.5" but loads as 1.5'),
    ("model_logistic.json", "intercept", False, "a number",
     "model intercept is false but loads as 0.0"),
    ("model_logistic.json", "ridge_lambda", "x", "a number",
     "ridge_lambda: could not convert string to float: 'x'"),
    ("model_logistic.json", "converged", "yes", "true or false",
     'model converged is "yes" but loads as true'),
    ("model_logistic.json", "converged", 1, "true or false",
     "model converged is 1 but loads as true"),
    ("model_logistic.json", "iterations", 2.5, "an integer",
     "model iterations is 2.5 but loads as 2"),
    ("model_logistic.json", "max_abs_gradient", None, "a number",
     "max_abs_gradient: float() argument must be a string or a real number, not 'NoneType'"),
    # values of the right JSON type that save_model would not write back
    ("model_forest.json", "n_trees", 5.0, "an integer", "model n_trees is 5.0 but loads as 5"),
    ("model_forest.json", "mtry", 99, "ceil(sqrt(p))", "model mtry is 99 but loads as 3"),
    ("model_forest.json", "min_leaf", 0, "1", "model min_leaf is 0 but loads as 1"),
    ("model_forest.json", "max_depth", -5, "null", "model max_depth is -5 but loads as null"),
    ("model_forest.json", "colour", "red", "no such key",
     'model colour is "red" but loads as absent'),
    ("model_logistic.json", "converged", False, "max_abs_gradient < 1e-8",
     "model converged is false but loads as true"),
    ("model_logistic.json", "intercept", 10**400, "a float",
     "intercept: int too large to convert to float"),
    ("model_logistic.json", "iterations", 2**80, "0..100",
     f"iterations must be in [0, 100], not {2**80}"),
    ("model_logistic.json", "ridge_lambda", 0.5, "1e-06..0.01",
     "ridge_lambda must be in [1e-06, 0.01], not 0.5"),
    ("model_logistic.json", "max_abs_gradient", -1.0, "a number >= 0",
     "max_abs_gradient must be in [0, inf], not -1.0"),
    # checked before mtry, ceil(sqrt(n_features)), is read
    ("model_forest.json", "n_features", -4, "an integer >= 1", "n_features must be >= 1, not -4"),
    ("model_forest.json", "n_features", 0, "an integer >= 1", "n_features must be >= 1, not 0"),
])
def test_model_value_of_the_wrong_type_exits_3(bundle, tmp_path, capsys, name, field, value,
                                               holds, message):
    """A stored value loads only if save_model would write it back (holds says what it
    writes there) after the cast to its field's type and the range check; else exit 3."""
    case = _case_dir(bundle, tmp_path / "case")
    model = _edit_model(case, name, lambda p: p["model"].__setitem__(field, value))
    fragment = f"{model}: ValueError: {message}"
    with pytest.raises(DataError, match=re.escape(fragment)):
        load_model(model)
    capsys.readouterr()
    assert main(_impute(case, model)) == 3
    err = capsys.readouterr().err
    assert err == f"error: DataError: {fragment}\n", f"{field} holds {holds}"


@pytest.mark.parametrize("weights, message", [
    (lambda w: ["1"] * len(w), 'model weights[0] is "1" but loads as 1.0'),
    (lambda w: [True] * len(w), "model weights[0] is true but loads as 1.0"),
    (lambda w: {"0": w[0]}, "weights: float() argument must be a string or a real number, "
                            "not 'dict'"),
    (lambda w: [w], "model weights[0] is ["),
], ids=["strings", "bools", "object", "nested"])
def test_logistic_weights_not_numbers_exit_3(bundle, tmp_path, capsys, weights, message):
    case = _case_dir(bundle, tmp_path / "case")
    model = _edit_model(case, "model_logistic.json",
                        lambda p: p["model"].__setitem__("weights", weights(p["model"]["weights"])))
    capsys.readouterr()
    assert main(_impute(case, model)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: DataError: {model}: ValueError: {message}"), err
    assert err.count("\n") == 1


def test_forest_with_nan_oob_error_loads(bundle, tmp_path):
    """fit_forest writes NaN when no row is out of bag; the file stays loadable."""
    model = _edit_model(_case_dir(bundle, tmp_path / "case"), "model_forest.json",
                        lambda p: p["model"].__setitem__("oob_error", float("nan")))
    forest, _schema = load_model(model)
    assert np.isnan(forest.oob_error)


# the format-2 forest layout: each node field of all trees as base64 of these items
_NODE_FIELDS = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4",
                "counts": "<i4"}


def _nodes(m):
    """The decoded node fields of a saved forest's model block; counts stays flat."""
    return {name: np.frombuffer(base64.b64decode(m[name]), dtype).copy()
            for name, dtype in _NODE_FIELDS.items()}


def _edit_nodes(edit):
    """An edit of the decoded node fields, written back re-encoded."""
    def apply(m):
        nodes = _nodes(m)
        edit(m, nodes)
        m.update({name: base64.b64encode(a.astype(_NODE_FIELDS[name]).tobytes()).decode("ascii")
                  for name, a in nodes.items()})
    return apply


@_edit_nodes
def _cycle_at_root(m, nodes):
    nodes["left"][0] = 0


@_edit_nodes
def _orphan_below_root(m, nodes):
    nodes["right"][0] = nodes["left"][0]  # both children the same node: the other is orphaned


@_edit_nodes
def _feature_out_of_range(m, nodes):
    nodes["feature"][0] = 99


@_edit_nodes
def _truncated_counts(m, nodes):
    last = m["n_nodes"][0] + m["n_nodes"][1] - 1  # the last node of the second tree
    nodes["counts"] = np.delete(nodes["counts"], [2 * last, 2 * last + 1])


@_edit_nodes
def _trees_missing(m, nodes):
    m["n_nodes"] = m["n_nodes"][:2]
    kept = sum(m["n_nodes"])
    for name in nodes:
        nodes[name] = nodes[name][:2 * kept if name == "counts" else kept]


def _not_base64(m):
    m["counts"] = m["counts"][:-8] + "0.5,1.5="


def _partial_item(m):
    m["feature"] = base64.b64encode(base64.b64decode(m["feature"]) + b"\0").decode("ascii")


def _list_not_string(m):
    m["threshold"] = _nodes(m)["threshold"].tolist()  # the per-tree lists of format 1


@pytest.mark.parametrize("edit, fragment", [
    pytest.param(_cycle_at_root, "ValueError: a child index does not point forward",
                 id="cycle_at_root"),
    pytest.param(_orphan_below_root,
                 "ValueError: a node other than the root is not the child of exactly one",
                 id="orphan_below_root"),
    pytest.param(_feature_out_of_range, "ValueError: a split feature is outside 0..",
                 id="feature_out_of_range"),
    pytest.param(_truncated_counts, "ValueError: counts must hold one pair of non-negative counts",
                 id="truncated_counts"),
    pytest.param(_trees_missing, "ValueError: model n_trees is 5 but loads as 2",
                 id="trees_missing"),
    pytest.param(_not_base64, "ValueError: counts is not base64", id="not_base64"),
    pytest.param(_partial_item, "ValueError: feature is not a whole number of <i4 items",
                 id="partial_item"),
    pytest.param(_list_not_string, "TypeError: threshold must be a base64 string",
                 id="list_not_string"),
])
def test_malformed_forest_exits_3_naming_the_file(bundle, tmp_path, capsys, edit, fragment):
    case = _case_dir(bundle, tmp_path / "case")
    model = case / "model_forest.json"
    payload = json.loads(model.read_text())
    edit(payload["model"])
    model.write_text(json.dumps(payload))
    # checked on load, before any tree is walked: a cycle would never end
    with pytest.raises(DataError, match=re.escape(fragment)):
        load_model(model)
    capsys.readouterr()
    assert main(_impute(case, model)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: DataError: {model}: {fragment}") and err.count("\n") == 1


_counter = itertools.count()
_FILES = ["admin.csv", "survey.csv", "names.csv", *MODELS, EXPANDED]
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
    how = data.draw(st.sampled_from(["truncate", "flip", "cell"]
                                    + (["node"] if name == "model_forest.json" else [])))
    if how == "node":  # a byte of one decoded node field, which the JSON leaves hide
        payload = json.loads(blob)
        field = data.draw(st.sampled_from(list(_NODE_FIELDS)))
        raw = bytearray(base64.b64decode(payload["model"][field]))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        payload["model"][field] = base64.b64encode(bytes(raw)).decode("ascii")
        blob = json.dumps(payload).encode()
    elif how == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif how == "flip":
        i = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:i] + bytes([data.draw(st.integers(0, 255))]) + blob[i + 1:]
    else:
        blob = _replace_cell(blob, name, data)
    path.write_bytes(blob)
    command = ("impute" if name in MODELS else "report" if name == EXPANDED
               else data.draw(st.sampled_from(["ingest", "impute", "report"])))
    argv = [command, "--data-dir", str(case), "--out", str(case / "out")]
    if command == "impute":
        model = name if name in MODELS else data.draw(st.sampled_from(MODELS))
        argv += ["--model-file", str(case / model)]
    elif command == "report":
        argv += ["--expanded", str(case / EXPANDED)]
    assert main(argv) in (0, 3)
