"""Command-line pipeline: synth / ingest / train / evaluate / impute / report,
plus `pipeline` which chains them all.  Every stage writes its artifacts
atomically and a run manifest with input digests for reproducibility.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, HiddenPopError, SchemaMismatch
from .eval import evaluate, kfold_cv, roc, split_train_validate
from .expand import (
    bias_report,
    expand_dataset,
    impute_pa,
    predict_scores,
    tabulate_population,
)
from .features import assemble_training_set, build_schema, correlation_report
from .ingest import atomic_open, build_name_table, link, parse_admin, parse_survey, reading
from .models import (
    fit_forest,
    fit_logistic,
    load_model,
    logistic_trainer,
    model_type,
    permutation_importance,
    predict_forest,
    predict_logistic,
    save_model,
)
from .report import (
    read_expanded_csv,
    write_bias_csv,
    write_correlation_csv,
    write_cv_csv,
    write_distribution_csv,
    write_distribution_markdown,
    write_expanded_csv,
    write_importance_csv,
    write_metrics_csv,
    write_metrics_markdown,
    write_roc_csv,
)
from .synth import SynthConfig, generate

log = logging.getLogger(__name__)

DATA_DIR_ENV = "HIDDENPOP_DATA_DIR"
DEFAULT_BIAS_VARIABLES = ["gender", "department", "birth_place", "citizenship"]


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, subcommand, config, seed, inputs, outputs):
    out_dir = Path(out_dir)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(Path(p).relative_to(out_dir)): _sha256(p) for p in outputs},
        "versions": {
            "hiddenpop": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with atomic_open(out_dir / "run_manifest.json") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return out_dir / "run_manifest.json"


def _resolve_data_dir(args) -> Path:
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise DataError(f"no data directory: pass --data-dir or set {DATA_DIR_ENV}")
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory {data_dir} does not exist")
    return data_dir


def _load_inputs(data_dir: Path):
    admin = parse_admin(data_dir / "admin.csv")
    survey_files = [data_dir / "survey.csv"]
    screened = data_dir / "screened_out.csv"
    if screened.exists():
        survey_files.append(screened)
    survey = parse_survey(*survey_files)
    table = build_name_table(data_dir / "names.csv")
    linked = link(admin, survey)
    return admin, survey, table, linked


def _input_files(data_dir: Path):
    names = ["admin.csv", "survey.csv", "screened_out.csv", "names.csv"]
    return [data_dir / n for n in names if (data_dir / n).exists()]


def _synth_config(args) -> SynthConfig:
    """SynthConfig defaults, overridden by --config's JSON and then --seed."""
    config = SynthConfig()
    if args.config:
        with reading(args.config, TypeError):
            config = SynthConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
            try:
                config.validate()
            except DataError as exc:
                raise DataError(f"{args.config}: {exc}") from exc
    if args.seed is not None:
        config.seed = args.seed
    return config


def cmd_synth(args) -> int:
    config = _synth_config(args)
    if args.n_register:
        config.n_register = args.n_register
    out = Path(args.out)
    outputs = list(vars(generate(config, out)).values())
    write_manifest(out, "synth", json.loads(config.to_json()), config.seed, [], outputs)
    print(f"synthetic bundle written to {out}")
    return 0


def cmd_ingest(args) -> int:
    data_dir = _resolve_data_dir(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    admin, survey, table, linked = _load_inputs(data_dir)
    summary_path = out / "linkage_summary.csv"
    with atomic_open(summary_path) as f:
        f.write("quantity,count\n")
        f.write(f"admin_records,{len(admin)}\n")
        f.write(f"survey_records,{len(survey)}\n")
        f.write(f"matched,{len(linked.rows)}\n")
        f.write(f"unmatched_admin,{len(admin) - len(linked.rows)}\n")
        f.write(f"unmatched_survey,{len(linked.unmatched_survey)}\n")
        f.write(f"name_table_entries,{table.total_names}\n")
    write_manifest(out, "ingest", {}, args.seed, _input_files(data_dir), [summary_path])
    print(f"linkage: {len(linked.rows)} matched, "
          f"{len(linked.unmatched_survey)} survey rows unmatched")
    return 0


def _train_stage(inputs, out, *, model_kind, seed, ratio, k, threshold, n_trees):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    admin, _survey, table, linked = inputs
    train_rows = linked.rows[linked.native()]
    if not len(train_rows):
        raise DataError("no linked records with bp=cit=1 to train on")
    schema = build_schema(admin.take(train_rows), table)
    data = assemble_training_set(linked, schema, table)
    train, val = split_train_validate(data, ratio=ratio, seed=seed)
    outputs, reports, models = [], {}, {}

    schema_path = out / "schema.json"
    with atomic_open(schema_path) as f:
        f.write(schema.to_json())
    outputs.append(schema_path)

    corr_path = out / "correlation.csv"
    write_correlation_csv(corr_path, correlation_report(data, schema))
    outputs.append(corr_path)

    if model_kind in ("logistic", "both"):
        lm = fit_logistic(train)
        models["logistic"] = lm
        scores = predict_logistic(lm, val.X)
        reports["logistic"] = evaluate(scores, val.y, threshold)
        path = out / "model_logistic.json"
        save_model(path, lm, schema)
        outputs.append(path)
        roc_path = out / "roc_logistic.csv"
        write_roc_csv(roc_path, roc(scores, val.y))
        outputs.append(roc_path)
        if k:
            cv = kfold_cv(data, logistic_trainer(), k=k, seed=seed, threshold=threshold)
            cv_path = out / "cv_logistic.csv"
            write_cv_csv(cv_path, cv)
            outputs.append(cv_path)

    if model_kind in ("forest", "both"):
        fm = fit_forest(train, n_trees=n_trees, seed=seed)
        models["forest"] = fm
        scores = predict_forest(fm, val.X)
        reports["forest"] = evaluate(scores, val.y, threshold)
        path = out / "model_forest.json"
        save_model(path, fm, schema)
        outputs.append(path)
        groups = [(g, schema.group_indices(g)) for g in schema.groups]
        imp = permutation_importance(fm, train, seed=seed, groups=groups,
                                     threshold=threshold)
        imp_path = out / "importance_forest.csv"
        write_importance_csv(imp_path, imp)
        outputs.append(imp_path)

    metrics_csv = out / "metrics.csv"
    write_metrics_csv(metrics_csv, reports)
    metrics_md = out / "metrics.md"
    write_metrics_markdown(metrics_md, reports)
    outputs.extend([metrics_csv, metrics_md])
    return outputs, reports, models, schema


def cmd_train(args) -> int:
    data_dir = _resolve_data_dir(args)
    outputs, reports, _, _ = _train_stage(
        _load_inputs(data_dir), args.out, model_kind=args.model, seed=args.seed,
        ratio=args.ratio, k=args.k, threshold=args.threshold, n_trees=args.trees,
    )
    config = {k: v for k, v in vars(args).items() if k != "func"}
    write_manifest(Path(args.out), "train", config,
                   args.seed, _input_files(data_dir), outputs)
    for name, r in reports.items():
        print(f"{name}: accuracy={r.accuracy:.3f} "
              f"precision={'-' if r.precision is None else f'{r.precision:.3f}'} "
              f"tpr={'-' if r.true_positive_rate is None else f'{r.true_positive_rate:.3f}'}")
    return 0


def _check_schema_digest(model_path, schema):
    """The train stage leaves schema.json beside the model; if present it must match."""
    sidecar = Path(model_path).parent / "schema.json"
    if sidecar.exists():
        with reading(sidecar):
            text = sidecar.read_text(encoding="utf-8")
        if text != schema.to_json():
            raise SchemaMismatch(
                f"schema in {sidecar} does not match the model's embedded schema"
            )


def cmd_evaluate(args) -> int:
    """Score a saved model on every linked bp=cit=1 row.

    Those rows include the ones the model was trained on, so the figures are
    not a held-out estimate; train's validation split gives that.
    """
    data_dir = _resolve_data_dir(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, schema = load_model(args.model_file)
    _check_schema_digest(args.model_file, schema)
    admin, survey, table, linked = _load_inputs(data_dir)
    data = assemble_training_set(linked, schema, table)
    scores = predict_scores(model, data.X)
    name = model_type(model)
    report = evaluate(scores, data.y, args.threshold)
    metrics_csv = out / "metrics.csv"
    write_metrics_csv(metrics_csv, {name: report})
    write_metrics_markdown(out / "metrics.md", {name: report})
    write_manifest(out, "evaluate", {"model_file": str(args.model_file)},
                   args.seed, _input_files(data_dir) + [Path(args.model_file)],
                   [metrics_csv, out / "metrics.md"])
    print(f"{name}: accuracy={report.accuracy:.3f} on all {len(data.y)} linked rows, "
          "training rows included")
    return 0


def _impute_stage(inputs, out, model_file, threshold):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    model, schema = load_model(model_file)
    admin, _survey, table, linked = inputs
    imputations = impute_pa(model, schema, admin, table,
                            linked_rows=linked.rows, threshold=threshold)
    expanded = expand_dataset(admin, linked, imputations)
    outputs = []
    exp_path = out / "expanded_register.csv"
    write_expanded_csv(exp_path, expanded)
    outputs.append(exp_path)
    dist = tabulate_population(expanded)
    write_distribution_csv(out / "distribution.csv", dist)
    write_distribution_markdown(out / "distribution.md", dist)
    outputs.extend([out / "distribution.csv", out / "distribution.md"])
    return outputs, expanded, dist, linked


def cmd_impute(args) -> int:
    data_dir = _resolve_data_dir(args)
    outputs, expanded, dist, _ = _impute_stage(
        _load_inputs(data_dir), args.out, args.model_file, args.threshold)
    write_manifest(Path(args.out), "impute",
                   {"model_file": str(args.model_file), "threshold": args.threshold},
                   args.seed, _input_files(data_dir) + [Path(args.model_file)], outputs)
    print(f"expanded {dist.n_total} records; estimated members: {dist.n_members}")
    return 0


def _report_stage(out, expanded, linked, variables, alert_threshold):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    members = expanded.register.take(np.flatnonzero(expanded.delta == 1))
    eligible = np.array([s.eligible for s in linked.survey], dtype=bool)
    sample = linked.register.take(linked.rows[eligible])
    if not len(sample):
        raise DataError("no eligible linked survey respondents for the bias report")
    br = bias_report(members, sample, variables, alert_threshold=alert_threshold)
    bias_path = out / "bias_report.csv"
    write_bias_csv(bias_path, br, plot_data_dir=out / "bias_plots")
    outputs = [bias_path] + sorted((out / "bias_plots").glob("bias_*.csv"))
    return outputs, br


def cmd_report(args) -> int:
    data_dir = _resolve_data_dir(args)
    admin, survey, table, linked = _load_inputs(data_dir)
    expanded = read_expanded_csv(args.expanded)
    outputs, br = _report_stage(args.out, expanded, linked,
                                args.variables, args.alert_threshold)
    write_manifest(Path(args.out), "report", {"expanded": str(args.expanded)},
                   args.seed, _input_files(data_dir) + [Path(args.expanded)], outputs)
    for var, level, gap in br.flagged:
        print(f"flagged: {var}={level} gap {gap:+.1f} pp")
    return 0


def cmd_pipeline(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_outputs = []
    seed = args.seed if args.seed is not None else 0

    if args.data_dir or os.environ.get(DATA_DIR_ENV):
        data_dir = _resolve_data_dir(args)
    else:
        config = _synth_config(args)
        seed = config.seed
        data_dir = out / "data"
        all_outputs += vars(generate(config, data_dir)).values()

    inputs = _load_inputs(data_dir)
    train_out = out / "train"
    outputs, reports, models, schema = _train_stage(
        inputs, train_out, model_kind=args.model, seed=seed,
        ratio=args.ratio, k=args.k, threshold=args.threshold, n_trees=args.trees,
    )
    all_outputs += outputs

    impute_model = train_out / (
        "model_logistic.json" if args.model in ("logistic", "both") else "model_forest.json"
    )
    outputs, expanded, dist, linked = _impute_stage(
        inputs, out / "impute", impute_model, args.threshold)
    all_outputs += outputs

    outputs, br = _report_stage(out / "report", expanded, linked,
                                args.variables, args.alert_threshold)
    all_outputs += outputs

    write_manifest(out, "pipeline",
                   {k: v for k, v in vars(args).items() if k != "func"},
                   seed, _input_files(data_dir), all_outputs)
    print(f"pipeline complete: {dist.n_total} records, "
          f"{dist.n_members} estimated members, artifacts in {out}")
    for name, r in reports.items():
        print(f"  {name}: accuracy={r.accuracy:.3f}")
    return 0


def _checked(convert, allowed, expected):
    """An argparse type: convert the text, then reject values outside `allowed`."""

    def parse(text):
        value = convert(text)
        if not allowed(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {expected}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_trees = _checked(int, lambda v: v >= 1, "an integer >= 1")
_ratio = _checked(float, lambda v: 0 < v < 1, "a fraction strictly between 0 and 1")
_folds = _checked(int, lambda v: v == 0 or v >= 2, "0 (no CV) or an integer >= 2")


def _makeable_dir(path) -> bool:
    """Whether path is a directory, or can become one: its nearest existing ancestor is."""
    return next(p for p in [Path(path), *Path(path).parents] if p.exists()).is_dir()


_out = _checked(str, _makeable_dir, "a directory or a path where one can be made")


def _add_common(p):
    p.add_argument("--seed", type=_seed, default=None,
                   help="RNG seed (default: SynthConfig seed when generating, else 0)")
    p.add_argument("--data-dir", default=None,
                   help=f"input directory (or ${DATA_DIR_ENV})")
    p.add_argument("--out", type=_out, required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiddenpop",
        description="identify a hidden migrant-background subpopulation in a "
                    "student register",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic data bundle")
    _add_common(p)
    p.add_argument("--config", default=None, help="SynthConfig JSON file")
    p.add_argument("--n-register", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse, standardize and link the inputs")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit and validate the classifiers")
    _add_common(p)
    p.add_argument("--model", choices=["logistic", "forest", "both"], default="both")
    p.add_argument("--ratio", type=_ratio, default=0.75)
    p.add_argument("--k", type=_folds, default=10, help="CV folds (0 disables)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--trees", type=_trees, default=500)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on labeled data")
    _add_common(p)
    p.add_argument("--model-file", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("impute", help="impute pa and expand the register")
    _add_common(p)
    p.add_argument("--model-file", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("report", help="sample vs population bias report")
    _add_common(p)
    p.add_argument("--expanded", required=True, help="expanded register CSV")
    p.add_argument("--variables", nargs="+", default=DEFAULT_BIAS_VARIABLES)
    p.add_argument("--alert-threshold", type=float, default=5.0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    _add_common(p)
    p.add_argument("--config", default=None, help="SynthConfig JSON file")
    p.add_argument("--model", choices=["logistic", "forest", "both"], default="both")
    p.add_argument("--ratio", type=_ratio, default=0.75)
    p.add_argument("--k", type=_folds, default=10)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--trees", type=_trees, default=500)
    p.add_argument("--variables", nargs="+", default=DEFAULT_BIAS_VARIABLES)
    p.add_argument("--alert-threshold", type=float, default=5.0)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # synth/pipeline fall back to the SynthConfig seed; everything else to 0
    if args.seed is None and args.subcommand not in ("synth", "pipeline"):
        args.seed = 0
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except HiddenPopError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
