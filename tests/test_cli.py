"""CLI subcommands: artifacts, manifests, exit codes, schema digest guard."""

import csv
import json
import shutil

import pytest

import hiddenpop.cli
from hiddenpop.cli import build_parser, main
from conftest import small_config


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One synth+train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--n-register", "6000"]) == 0
    train = root / "train"
    assert main([
        "train", "--data-dir", str(data), "--out", str(train),
        "--trees", "30", "--k", "5", "--seed", "0",
    ]) == 0
    return root, data, train


def test_synth_artifacts_and_manifest(cli_run):
    _root, data, _train = cli_run
    for name in ["admin.csv", "survey.csv", "screened_out.csv", "names.csv",
                 "truth.csv", "synth_meta.json", "run_manifest.json"]:
        assert (data / name).exists()
    manifest = json.loads((data / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == small_config().seed  # config default, not 0
    assert all(len(d) == 64 for d in manifest["outputs"].values())


def test_train_artifacts(cli_run):
    _root, _data, train = cli_run
    for name in ["schema.json", "correlation.csv", "model_logistic.json",
                 "model_forest.json", "roc_logistic.csv", "cv_logistic.csv",
                 "importance_forest.csv", "metrics.csv", "metrics.md",
                 "run_manifest.json"]:
        assert (train / name).exists()
    manifest = json.loads((train / "run_manifest.json").read_text())
    assert manifest["inputs"]  # digests of the data files


def test_ingest_summary(cli_run, tmp_path):
    _root, data, _train = cli_run
    out = tmp_path / "ingest"
    assert main(["ingest", "--data-dir", str(data), "--out", str(out)]) == 0
    text = (out / "linkage_summary.csv").read_text()
    assert "matched,1096" in text  # 312 + 382 + 402


def test_evaluate_impute_report_chain(cli_run, tmp_path):
    _root, data, train = cli_run
    ev = tmp_path / "eval"
    assert main(["evaluate", "--data-dir", str(data), "--out", str(ev),
                 "--model-file", str(train / "model_logistic.json")]) == 0
    assert (ev / "metrics.csv").exists()

    imp = tmp_path / "impute"
    assert main(["impute", "--data-dir", str(data), "--out", str(imp),
                 "--model-file", str(train / "model_logistic.json")]) == 0
    assert (imp / "expanded_register.csv").exists()
    assert (imp / "distribution.csv").exists()

    rep = tmp_path / "report"
    assert main(["report", "--data-dir", str(data), "--out", str(rep),
                 "--expanded", str(imp / "expanded_register.csv")]) == 0
    assert (rep / "bias_report.csv").exists()
    assert (rep / "bias_plots" / "bias_gender.csv").exists()


def _tampered_model(train, tmp_path):
    """A copy of the logistic model beside a schema.json that disagrees with it."""
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    model = tampered / "model_logistic.json"
    model.write_bytes((train / "model_logistic.json").read_bytes())
    sidecar = (train / "schema.json").read_text()
    (tampered / "schema.json").write_text(sidecar.replace("gender=M", "gender=X"))
    return model


def test_schema_digest_guard(cli_run, tmp_path):
    _root, data, train = cli_run
    model = _tampered_model(train, tmp_path)
    out = tmp_path / "eval"
    code = main(["evaluate", "--data-dir", str(data), "--out", str(out),
                 "--model-file", str(model)])
    assert code == 3


def test_schema_digest_guard_on_impute(cli_run, tmp_path, capsys):
    _root, data, train = cli_run
    model = _tampered_model(train, tmp_path)
    out = tmp_path / "impute"
    capsys.readouterr()
    code = main(["impute", "--data-dir", str(data), "--out", str(out),
                 "--model-file", str(model)])
    assert code == 3
    assert "does not match the model's embedded schema" in capsys.readouterr().err
    assert not (out / "expanded_register.csv").exists()


def test_missing_data_dir_is_data_error(tmp_path, monkeypatch):
    monkeypatch.delenv("HIDDENPOP_DATA_DIR", raising=False)
    assert main(["train", "--out", str(tmp_path / "o")]) == 3
    assert main(["train", "--data-dir", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == 3


def test_data_dir_environment_variable_is_ignored(cli_run, tmp_path, monkeypatch, capsys):
    """--data-dir is the one way to name the inputs: a stage without it fails, and a
    pipeline without it generates its own data, whatever the environment says."""
    _root, data, _train = cli_run
    monkeypatch.setenv("HIDDENPOP_DATA_DIR", str(data))
    capsys.readouterr()
    assert main(["ingest", "--out", str(tmp_path / "ingest")]) == 3
    assert capsys.readouterr().err == "error: DataError: no data directory: pass --data-dir\n"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_register": 600, "n_survey_native": 20,
                                  "n_survey_migrant": 20, "n_screened_out": 40}))
    out = tmp_path / "pipe"
    assert main(["pipeline", "--out", str(out), "--config", str(config),
                 "--model", "logistic", "--k", "0"]) == 0
    inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
    assert inputs and all(path.startswith(str(out / "data")) for path in inputs)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("subcommand, flag, value", [
    pytest.param(subcommand, flag, value, id=f"{flag}-{value}-{subcommand}")
    for subcommand in ["train", "pipeline"] for flag, value in [
        ("--trees", "0"), ("--trees", "-3"), ("--ratio", "1.5"), ("--ratio", "0"),
        ("--k", "1"), ("--k", "-1"), ("--seed", "-1"),
    ]
] + [
    pytest.param("synth", "--n-register", value, id=f"--n-register-{value}-synth")
    for value in ["0", "-5", "99"]
] + [
    pytest.param(subcommand, "--threshold", value, id=f"--threshold-{value}-{subcommand}")
    for subcommand in ["train", "evaluate", "impute", "pipeline"] for value in ["7", "-0.1", "nan"]
] + [
    pytest.param(subcommand, "--alert-threshold", value, id=f"--alert-threshold-{value}-{subcommand}")
    for subcommand in ["report", "pipeline"] for value in ["100.5", "-1"]
])
def test_out_of_range_option_is_usage_error(tmp_path, capsys, subcommand, flag, value):
    required = {"evaluate": ["--model-file", "m.json"], "impute": ["--model-file", "m.json"],
                "report": ["--expanded", "e.csv"]}.get(subcommand, [])
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--out", str(tmp_path / "o"), *required, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_synth_register_too_small_for_the_survey_names_both(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--n-register", "1500"]) == 3
    err = capsys.readouterr().err
    assert "n_register 1500 is too small for n_survey_native 312" in err


@pytest.mark.parametrize("argv", [
    ["synth"], ["ingest"], ["train"], ["evaluate", "--model-file", "m.json"],
    ["impute", "--model-file", "m.json"], ["report", "--expanded", "e.csv"], ["pipeline"],
], ids=lambda argv: argv[0])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, argv):
    plain = tmp_path / "plainfile"
    plain.write_text("not a directory\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--data-dir", str(tmp_path), "--out", str(plain)])
    assert exc.value.code == 2
    assert "argument --out" in capsys.readouterr().err
    assert plain.read_text() == "not a directory\n"


def test_pipeline_with_config_override(tmp_path):
    cfg = small_config()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "pipe"
    assert main(["pipeline", "--out", str(out), "--config", str(cfg_path),
                 "--model", "logistic", "--k", "0"]) == 0
    assert (out / "impute" / "expanded_register.csv").exists()
    assert (out / "report" / "bias_report.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == cfg.seed


def test_pipeline_parses_inputs_once(cli_run, tmp_path, monkeypatch):
    _root, data, _train = cli_run
    calls = []
    parse_admin = hiddenpop.cli.parse_admin

    def counting_parse_admin(*args, **kwargs):
        calls.append(args)
        return parse_admin(*args, **kwargs)

    monkeypatch.setattr(hiddenpop.cli, "parse_admin", counting_parse_admin)
    assert main(["pipeline", "--data-dir", str(data), "--out", str(tmp_path / "pipe"),
                 "--model", "logistic", "--k", "0"]) == 0
    assert len(calls) == 1


def _impute(data, train, out):
    assert main(["impute", "--data-dir", str(data), "--out", str(out),
                 "--model-file", str(train / "model_logistic.json")]) == 0
    return out / "expanded_register.csv"


def _manifest(out):
    return json.loads((out / "run_manifest.json").read_text())


def test_report_manifest_lists_only_what_it_wrote(cli_run, tmp_path):
    _root, data, train = cli_run
    expanded = _impute(data, train, tmp_path / "impute")
    rep = tmp_path / "report"
    for variables in (["gender", "department", "birth_place", "citizenship"], ["gender"]):
        assert main(["report", "--data-dir", str(data), "--out", str(rep),
                     "--expanded", str(expanded), "--variables", *variables]) == 0
    assert (rep / "bias_plots" / "bias_department.csv").exists()  # left by the first run
    assert sorted(_manifest(rep)["outputs"]) == ["bias_plots/bias_gender.csv",
                                                  "bias_report.csv"]


def test_manifest_config_records_the_options(cli_run, tmp_path):
    _root, data, train = cli_run
    ev = tmp_path / "eval"
    assert main(["evaluate", "--data-dir", str(data), "--out", str(ev), "--threshold", "0.3",
                 "--model-file", str(train / "model_logistic.json")]) == 0
    assert _manifest(ev)["config"]["threshold"] == 0.3
    rep = tmp_path / "report"
    assert main(["report", "--data-dir", str(data), "--out", str(rep),
                 "--expanded", str(_impute(data, train, tmp_path / "impute")),
                 "--variables", "gender", "department", "--alert-threshold", "2.5"]) == 0
    config = _manifest(rep)["config"]
    assert config["variables"] == ["gender", "department"]
    assert config["alert_threshold"] == 2.5


@pytest.mark.parametrize("layout", ["impute", "pipeline"])
def test_report_checks_expanded_came_from_its_data(cli_run, tmp_path, capsys, layout):
    _root, data, train = cli_run
    if layout == "impute":  # the manifest sits beside expanded_register.csv
        expanded = _impute(data, train, tmp_path / "impute")
    else:  # one directory above it
        assert main(["pipeline", "--data-dir", str(data), "--out", str(tmp_path / "pipe"),
                     "--model", "logistic", "--k", "0"]) == 0
        expanded = tmp_path / "pipe" / "impute" / "expanded_register.csv"
    copy = tmp_path / "copy"
    shutil.copytree(data, copy)
    assert main(["report", "--data-dir", str(copy), "--out", str(tmp_path / "same"),
                 "--expanded", str(expanded)]) == 0

    with open(copy / "names.csv", "a", encoding="utf-8") as f:
        f.write("zebedeo,9\n")
    capsys.readouterr()
    assert main(["report", "--data-dir", str(copy), "--out", str(tmp_path / "other"),
                 "--expanded", str(expanded)]) == 3
    err = capsys.readouterr().err
    assert str(data / "names.csv") in err and str(copy / "names.csv") in err
    assert not (tmp_path / "other" / "bias_report.csv").exists()


def test_pipeline_writes_a_linked_pa_1_of_a_foreign_born_citizen(cli_run, tmp_path):
    """A survey row with pa = 1 for a register row born abroad with Italian
    citizenship, the admissible triple (0,1,1), is written as kind 0, linked."""
    _root, data, _train = cli_run
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    def rows(path):
        return csv.DictReader(path.read_text(encoding="utf-8").splitlines())

    surveyed = {row["link_key"] for name in ("survey.csv", "screened_out.csv")
                for row in rows(copy / name)}
    key = next(row["link_key"] for row in rows(copy / "admin.csv")
               if row["birth_country"] != "IT" and row["citizenship_country"] == "IT"
               and row["link_key"] not in surveyed)
    with open(copy / "survey.csv", "a", encoding="utf-8") as f:
        f.write(f"{key},1,1\n")
    out = tmp_path / "pipe"
    assert main(["pipeline", "--data-dir", str(copy), "--out", str(out),
                 "--model", "logistic", "--k", "0"]) == 0
    expanded = out / "impute" / "expanded_register.csv"
    row = next(row for row in rows(expanded) if row["link_key"] == key)
    assert (row["delta"], row["kind"], row["provenance"]) == ("0", "0", "linked")
    assert main(["report", "--data-dir", str(copy), "--out", str(tmp_path / "report"),
                 "--expanded", str(expanded)]) == 0


_COMMON = {"seed": (None, None, False), "out": (None, None, True)}
_DATA_DIR = {"data_dir": (None, None, False)}
_TRAIN = {"model": ("both", ["logistic", "forest", "both"], False),
          "ratio": (0.75, None, False), "k": (10, None, False),
          "threshold": (0.5, None, False), "trees": (500, None, False)}
_BIAS = {"variables": (["gender", "department", "birth_place", "citizenship"], None, False),
         "alert_threshold": (5.0, None, False)}
_MODEL_FILE = {"model_file": (None, None, True), "threshold": (0.5, None, False)}


def test_cli_surface():
    """Each subcommand's option dests, with their defaults, choices and required flags."""
    expected = {
        "synth": {"config": (None, None, False), "n_register": (None, None, False)},
        "ingest": _DATA_DIR,
        "train": {**_DATA_DIR, **_TRAIN},
        "evaluate": {**_DATA_DIR, **_MODEL_FILE},
        "impute": {**_DATA_DIR, **_MODEL_FILE},
        "report": {**_DATA_DIR, "expanded": (None, None, True), **_BIAS},
        "pipeline": {**_DATA_DIR, "config": (None, None, False), **_TRAIN, **_BIAS},
    }
    parser = build_parser()
    [sub] = [a for a in parser._actions if a.dest == "subcommand"]
    assert list(sub.choices) == list(expected)
    for name, options in expected.items():
        found = {a.dest: (a.default, a.choices, a.required)
                 for a in sub.choices[name]._actions if a.dest != "help"}
        assert found == {**_COMMON, **options}, name
    assert [a.dest for a in parser._actions] == ["help", "verbose", "subcommand"]
