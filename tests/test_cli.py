"""CLI subcommands: artifacts, manifests, exit codes, schema digest guard."""

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hiddenpop.cli
from hiddenpop.cli import build_parser, main
from hiddenpop.errors import HiddenPopError
from hiddenpop.synth import generate
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


def test_formats_doc_names_every_written_file(tmp_path):
    """docs/formats.md has a section or a mention for each file pipeline and ingest write."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text("utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_register": 600, "n_survey_native": 20,
                                  "n_survey_migrant": 20, "n_screened_out": 40}))
    pipe, ingest = tmp_path / "pipe", tmp_path / "ingest"
    assert main(["pipeline", "--out", str(pipe), "--config", str(config),
                 "--trees", "5", "--k", "2"]) == 0
    assert main(["ingest", "--data-dir", str(pipe / "data"), "--out", str(ingest)]) == 0
    written = {"bias_<variable>.csv" if p.parent.name == "bias_plots" else p.name
               for p in [*pipe.rglob("*"), *ingest.rglob("*")] if p.is_file()}
    assert "linkage_summary.csv" in written and "bias_<variable>.csv" in written
    assert {name for name in written
            if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", doc)} == set()


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
    others = [path for path in inputs if path != str(config)]
    assert str(config) in inputs
    assert others and all(path.startswith(str(out / "data")) for path in others)


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
    for value in ["0", "-5", "99", "2147483648"]
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


def test_unknown_bias_variable_is_usage_error_before_any_stage(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--out", str(out), "--trees", "5", "--k", "0", "--variables", "foo"])
    assert exc.value.code == 2
    assert "argument --variables: invalid choice: 'foo'" in capsys.readouterr().err
    assert not out.exists()


def test_synth_register_too_small_for_the_survey_names_both(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--n-register", "1500"]) == 3
    err = capsys.readouterr().err
    assert "n_register 1500 is too small for n_survey_native 312" in err


def test_a_failed_synth_leaves_no_out_directory(tmp_path, capsys):
    out = tmp_path / "o3"
    assert main(["synth", "--out", str(out), "--n-register", "600"]) == 3
    assert "n_register 600 is too small for n_survey_native 312" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raise_it", [
    lambda: np.empty(2**60, dtype=np.int8),  # a MemoryError subclass, raised before allocating
    lambda: [0] * 2**62,
], ids=["numpy", "python"])
def test_a_register_too_large_for_memory_exits_3_in_one_line(tmp_path, capsys, monkeypatch,
                                                            raise_it):
    def generate(config, out_dir):
        raise_it()

    monkeypatch.setattr(hiddenpop.cli, "generate", generate)
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), "--n-register", str(2**31 - 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_synth_seed_overrides_the_config_seed(tmp_path):
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), "--seed", "9", "--n-register", "6000"]) == 0
    config = small_config()
    config.seed = 9
    for path in vars(generate(config, tmp_path / "generated")).values():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    assert _manifest(out)["seed"] == 9


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


def test_out_longer_than_the_file_system_allows_is_usage_error(tmp_path, capsys):
    out = tmp_path / ("a" * 300) / "x"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--n-register", "6000", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --out" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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


def test_manifest_records_the_config_read(cli_run, tmp_path):
    """synth reads --config, and so does a pipeline that generates its data; a pipeline
    given --data-dir reads none, and records none."""
    _root, data, _train = cli_run
    config = tmp_path / "config.json"
    config.write_text(small_config().to_json())
    digest = hashlib.sha256(config.read_bytes()).hexdigest()
    assert main(["synth", "--out", str(tmp_path / "synth"), "--config", str(config)]) == 0
    assert _manifest(tmp_path / "synth")["inputs"] == {str(config): digest}
    pipe = tmp_path / "pipe"
    assert main(["pipeline", "--data-dir", str(data), "--out", str(pipe), "--config", str(config),
                 "--model", "logistic", "--k", "0"]) == 0
    assert _manifest(pipe)["inputs"] and str(config) not in _manifest(pipe)["inputs"]


def test_pipeline_parses_inputs_once(cli_run, tmp_path, monkeypatch):
    _root, data, _train = cli_run
    calls = []
    parse_admin = hiddenpop.cli.parse_admin

    def counting_parse_admin(*args, **kwargs):
        calls.append(args)
        return parse_admin(*args, **kwargs)

    monkeypatch.setattr(hiddenpop.cli, "parse_admin", counting_parse_admin)
    loads = []
    load_model = hiddenpop.cli.load_model

    def counting_load_model(*args, **kwargs):
        loads.append(args)
        return load_model(*args, **kwargs)

    monkeypatch.setattr(hiddenpop.cli, "load_model", counting_load_model)
    assert main(["pipeline", "--data-dir", str(data), "--out", str(tmp_path / "pipe"),
                 "--model", "logistic", "--k", "0"]) == 0
    assert len(calls) == 1
    assert loads == []  # it imputes with the model it fitted


@pytest.mark.parametrize("model, extra", [("forest", ["--trees", "20"]), ("logistic", [])])
def test_pipeline_imputes_as_impute_does_from_its_saved_model(cli_run, tmp_path, model, extra):
    """pipeline imputes with the model it fitted, into the bytes impute writes from its file."""
    _root, data, _train = cli_run
    pipe, imp = tmp_path / "pipe", tmp_path / "impute"
    assert main(["pipeline", "--data-dir", str(data), "--out", str(pipe), "--model", model,
                 "--k", "0", *extra]) == 0
    assert main(["impute", "--data-dir", str(data), "--out", str(imp),
                 "--model-file", str(pipe / "train" / f"model_{model}.json")]) == 0
    for name in ("expanded_register.csv", "distribution.csv"):
        assert (pipe / "impute" / name).read_bytes() == (imp / name).read_bytes(), name


def _impute(data, train, out):
    assert main(["impute", "--data-dir", str(data), "--out", str(out),
                 "--model-file", str(train / "model_logistic.json")]) == 0
    return out / "expanded_register.csv"


def _manifest(out):
    return json.loads((out / "run_manifest.json").read_text())


@pytest.mark.parametrize("subcommand", ["impute", "evaluate", "pipeline"])
def test_manifest_digests_are_those_of_the_files_on_disk(cli_run, tmp_path, subcommand):
    """Each digest is the SHA-256 of its file as the run left it, and outputs lists
    exactly the files the run wrote under --out."""
    _root, data, train = cli_run
    out, config = tmp_path / "out", tmp_path / "config.json"
    config.write_text(json.dumps({"n_register": 600, "n_survey_native": 20,
                                  "n_survey_migrant": 20, "n_screened_out": 40}))
    options = (["--config", str(config), "--trees", "5", "--k", "2"] if subcommand == "pipeline"
               else ["--data-dir", str(data), "--model-file", str(train / "model_forest.json")])
    assert main([subcommand, "--out", str(out), *options]) == 0

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    manifest = _manifest(out)
    assert manifest["inputs"] == {p: sha256(Path(p)) for p in manifest["inputs"]}
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert manifest["outputs"] == {p: sha256(out / p) for p in written - {"run_manifest.json"}}
    assert str(config if subcommand == "pipeline" else data / "survey.csv") in manifest["inputs"]


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


def test_report_reads_only_the_survey_and_expanded(cli_run, tmp_path, monkeypatch):
    """report links the survey to the register of --expanded: it parses neither
    admin.csv nor names.csv, and its manifest lists only what it read."""
    _root, data, train = cli_run
    expanded = _impute(data, train, tmp_path / "impute")

    def refuse(path):
        raise AssertionError(f"report parsed {path}")

    monkeypatch.setattr(hiddenpop.cli, "parse_admin", refuse)
    monkeypatch.setattr(hiddenpop.cli, "build_name_table", refuse)
    rep = tmp_path / "report"
    assert main(["report", "--data-dir", str(data), "--out", str(rep),
                 "--expanded", str(expanded)]) == 0
    assert sorted(_manifest(rep)["inputs"]) == sorted(
        str(p) for p in [data / "survey.csv", data / "screened_out.csv", expanded])


def test_report_without_admin_and_names_writes_the_same_report(cli_run, tmp_path):
    _root, data, train = cli_run
    expanded = _impute(data, train, tmp_path / "impute")
    survey_only = tmp_path / "survey_only"
    survey_only.mkdir()
    for name in ("survey.csv", "screened_out.csv"):
        shutil.copy(data / name, survey_only)
    for data_dir, out in [(data, "full"), (survey_only, "survey_only_report")]:
        assert main(["report", "--data-dir", str(data_dir), "--out", str(tmp_path / out),
                     "--expanded", str(expanded)]) == 0
    assert ((tmp_path / "survey_only_report" / "bias_report.csv").read_bytes()
            == (tmp_path / "full" / "bias_report.csv").read_bytes())


def test_train_without_native_respondents_exits_3(cli_run, tmp_path, capsys):
    """A survey of kind 2-4 respondents only, and no screened_out.csv: nothing to train on."""
    _root, data, _train = cli_run
    copy = tmp_path / "data"
    copy.mkdir()
    for name in ("admin.csv", "names.csv"):
        shutil.copy(data / name, copy)
    admin = (data / "admin.csv").read_text(encoding="utf-8").splitlines()
    native = {row["link_key"] for row in csv.DictReader(admin)
              if row["birth_country"] == row["citizenship_country"] == "IT"}
    survey = (data / "survey.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in survey[1:] if line.split(",")[0] not in native]
    assert kept and len(kept) < len(survey) - 1
    (copy / "survey.csv").write_text("".join(survey[:1] + kept), encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--data-dir", str(copy), "--out", str(tmp_path / "train")]) == 3
    err = capsys.readouterr().err
    assert err == "error: DataError: no linked records with bp=cit=1 to train on\n"


def test_ratio_leaving_a_class_out_of_validation_exits_3_before_any_fit(cli_run, tmp_path,
                                                                       capsys):
    """Of the 714 linked bp=cit=1 rows, ratio 0.999 trains on 713: every row of one class."""
    _root, data, _train = cli_run
    out = tmp_path / "train"
    capsys.readouterr()
    assert main(["train", "--data-dir", str(data), "--out", str(out), "--ratio", "0.999",
                 "--trees", "5", "--k", "0"]) == 3
    assert capsys.readouterr().err == ("error: DataError: ratio 0.999 leaves a class out of "
                                       "the 1 validation rows\n")
    assert not list(out.glob("model_*.json"))


def test_internal_error_exits_4_without_a_manifest(cli_run, tmp_path, capsys, monkeypatch):
    """A broken invariant inside a stage is not the input's fault: exit 4, one line."""
    _root, data, _train = cli_run

    def broken_evaluate(scores, labels, threshold):
        raise HiddenPopError("no predictions to evaluate")

    monkeypatch.setattr(hiddenpop.cli, "evaluate", broken_evaluate)
    out = tmp_path / "train"
    capsys.readouterr()
    assert main(["train", "--data-dir", str(data), "--out", str(out), "--model", "logistic",
                 "--k", "0"]) == 4
    assert capsys.readouterr().err == "internal error: HiddenPopError: no predictions to evaluate\n"
    assert not (out / "run_manifest.json").exists()


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv, code, last_line", [
    (["synth", "--n-register", "6000"], 0, None),
    (["train", "--trees", "0"], 2,
     "hiddenpop train: error: argument --trees: '0' is not an integer >= 1"),
    (["synth", "--n-register", "600"], 3,
     "error: DataError: n_register 600 is too small for n_survey_native 312: "),
], ids=["synth", "usage", "data"])
def test_module_run_exits_with_the_code_main_returns(tmp_path, argv, code, last_line):
    """python -m hiddenpop.cli, as perfbench/run.py starts each run, exits with main's code
    and ends a failure with one error line, never a traceback."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "hiddenpop.cli", argv[0],
                           "--out", str(tmp_path / "o"), *argv[1:]],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == code and "Traceback" not in done.stderr, done.stderr
    if last_line is None:
        assert done.stderr == "" and (tmp_path / "o" / "run_manifest.json").exists()
    else:  # argparse prints its usage above a usage error
        *usage, line = done.stderr.splitlines()
        assert line.startswith(last_line) and bool(usage) == (code == 2), done.stderr
        assert not any("error" in text for text in usage)


def _added_admin_row(path):
    """A copy of admin.csv's last row under a new link_key."""
    last = path.read_text(encoding="utf-8").splitlines()[-1]
    return "Z" + last[last.index(","):] + "\n"


@pytest.mark.parametrize("layout", ["impute", "pipeline"])
def test_report_checks_expanded_came_from_its_data(cli_run, tmp_path, capsys, layout):
    """Each data file the producing run read must be unchanged, admin.csv and
    names.csv too, which report itself does not read."""
    _root, data, train = cli_run
    if layout == "impute":  # the manifest sits beside expanded_register.csv
        expanded = _impute(data, train, tmp_path / "impute")
    else:  # one directory above it
        assert main(["pipeline", "--data-dir", str(data), "--out", str(tmp_path / "pipe"),
                     "--model", "logistic", "--k", "0"]) == 0
        expanded = tmp_path / "pipe" / "impute" / "expanded_register.csv"
    for changed, added in [("names.csv", lambda path: "zebedeo,9\n"),
                           ("admin.csv", _added_admin_row)]:
        copy = tmp_path / f"copy_{changed}"
        shutil.copytree(data, copy)
        assert main(["report", "--data-dir", str(copy), "--out", str(tmp_path / "same"),
                     "--expanded", str(expanded)]) == 0

        row = added(copy / changed)
        with open(copy / changed, "a", encoding="utf-8") as f:
            f.write(row)
        capsys.readouterr()
        other = tmp_path / f"other_{changed}"
        assert main(["report", "--data-dir", str(copy), "--out", str(other),
                     "--expanded", str(expanded)]) == 3
        err = capsys.readouterr().err
        assert str(data / changed) in err and str(copy / changed) in err, err
        assert not (other / "bias_report.csv").exists()


def test_report_passes_over_a_manifest_beside_expanded_that_does_not_list_it(
        cli_run, tmp_path, capsys):
    """An unrelated run_manifest.json beside --expanded is passed over for the pipeline's
    one directory up, which still finds a changed names.csv."""
    _root, data, _train = cli_run
    pipe = tmp_path / "pipe"
    assert main(["pipeline", "--data-dir", str(data), "--out", str(pipe),
                 "--model", "logistic", "--k", "0"]) == 0
    shutil.copy(data / "run_manifest.json", pipe / "impute")
    copy = tmp_path / "copy"
    shutil.copytree(data, copy)
    with open(copy / "names.csv", "a", encoding="utf-8") as f:
        f.write("zebedeo,9\n")
    capsys.readouterr()
    assert main(["report", "--data-dir", str(copy), "--out", str(tmp_path / "report"),
                 "--expanded", str(pipe / "impute" / "expanded_register.csv")]) == 3
    err = capsys.readouterr().err
    assert f"({pipe / 'run_manifest.json'})" in err and str(copy / "names.csv") in err, err


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
_BIAS = {"variables": (["gender", "department", "birth_place", "citizenship"],
                       ["gender", "department", "course_level", "employment", "birth_place",
                        "citizenship"], False),
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
