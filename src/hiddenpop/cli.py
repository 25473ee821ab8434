"""Command-line pipeline: synth / ingest / train / evaluate / impute / report,
plus `pipeline` which chains them all.  Every invocation writes its artifacts
atomically, each through its Run, and one run manifest with the digests of
the files it read and wrote, for reproducibility.

Exit codes: 0 success, 2 usage error, 3 data error or an artifact that cannot be
written, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, HiddenPopError, SchemaMismatch
from .eval import evaluate, kfold_cv, roc, split_train_validate
from .expand import (
    SHARED_VARIABLES,
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
    write_bias_plot,
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


def _sha256(path) -> str:
    import hashlib  # here, not at the top: its libcrypto is 3.5 MB that only digests need
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


class Run:
    """One invocation: its options, out dir and seed, its inputs (each loaded once, when
    first used) and the files it reads and writes, digested into one manifest once it is freed."""

    def __init__(self, args):
        self.args = args
        self.out = Path(args.out)
        self.seed = 0 if args.seed is None else args.seed  # a synth stage takes its config's
        self.inputs, self.outputs = [], []

    @cached_property
    def data_dir(self) -> Path:
        """--data-dir; a pipeline that generates its data sets it."""
        data_dir = self.args.data_dir
        if not data_dir:
            raise DataError("no data directory: pass --data-dir")
        if not Path(data_dir).is_dir():
            raise DataError(f"data directory {data_dir} does not exist")
        return Path(data_dir)

    @cached_property
    def register(self):
        """The standardized register of admin.csv; report sets the one of --expanded."""
        self.inputs.append(self.data_dir / "admin.csv")
        return parse_admin(self.data_dir / "admin.csv")

    @cached_property
    def names(self):
        """The name frequency table of names.csv."""
        self.inputs.append(self.data_dir / "names.csv")
        return build_name_table(self.data_dir / "names.csv")

    @cached_property
    def linked(self):
        """survey.csv, and screened_out.csv when there is one, linked to the register."""
        files = [self.data_dir / "survey.csv"]
        files += [f for f in [self.data_dir / "screened_out.csv"] if f.exists()]
        self.inputs += files
        return link(self.register, parse_survey(*files))

    @cached_property
    def model(self):
        """(model, schema, path) of --model-file, whose schema.json beside it, if any, must
        hold the same schema; a pipeline sets the first model it fits."""
        path = self.args.model_file
        model, schema = load_model(path)
        sidecar = Path(path).parent / "schema.json"
        with reading(sidecar):
            if sidecar.exists() and sidecar.read_text(encoding="utf-8") != schema.to_json():
                raise SchemaMismatch(
                    f"schema in {sidecar} does not match the model's embedded schema")
        self.inputs.append(Path(path))
        return model, schema, path

    def write(self, rel, writer, *values):
        """Write the artifact out/rel as writer(path, *values) and record it."""
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(path, *values)
        self.outputs.append(path)


def _write_text(path, text):
    with atomic_open(path) as f:
        f.write(text)


def _synth(run, rel) -> Path:
    """Generate a bundle in rel from the SynthConfig defaults, overridden by
    --config's JSON, then --seed and (synth only) --n-register; the run takes its seed."""
    args = run.args
    config = SynthConfig()
    if args.config:
        with reading(args.config, TypeError, ValueError):
            config = SynthConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
            run.inputs.append(Path(args.config))
            try:
                config.validate()
            except DataError as exc:
                raise DataError(f"{args.config}: {exc}") from exc
    if args.seed is not None:
        config.seed = args.seed
    if getattr(args, "n_register", None) is not None:
        config.n_register = args.n_register
    run.seed = config.seed
    data_dir = run.out / rel
    run.outputs += vars(generate(config, data_dir)).values()
    return data_dir


def _train(run, rel) -> dict:
    """Fit the --model classifiers on the linked bp=cit=1 rows; model name -> validation report."""
    args, seed = run.args, run.seed
    register, linked, names = run.register, run.linked, run.names
    schema = build_schema(register.take(linked.rows[linked.native()]), names)
    data = assemble_training_set(linked, schema, names)
    train, val = split_train_validate(data, ratio=args.ratio, seed=seed)
    run.write(rel + "schema.json", _write_text, schema.to_json())
    run.write(rel + "correlation.csv", write_correlation_csv, correlation_report(data, schema))
    reports = {}

    if args.model in ("logistic", "both"):
        lm = fit_logistic(train)
        scores = predict_logistic(lm, val.X)
        reports["logistic"] = evaluate(scores, val.y, args.threshold)
        run.write(rel + "model_logistic.json", save_model, lm, schema)
        vars(run).setdefault("model", (lm, schema, run.outputs[-1]))
        run.write(rel + "roc_logistic.csv", write_roc_csv, roc(scores, val.y))
        if args.k:
            cv = kfold_cv(data, logistic_trainer(), k=args.k, seed=seed,
                          threshold=args.threshold)
            run.write(rel + "cv_logistic.csv", write_cv_csv, cv)

    if args.model in ("forest", "both"):
        fm = fit_forest(train, n_trees=args.trees, seed=seed)
        scores = predict_forest(fm, val.X)
        reports["forest"] = evaluate(scores, val.y, args.threshold)
        run.write(rel + "model_forest.json", save_model, fm, schema)
        vars(run).setdefault("model", (fm, schema, run.outputs[-1]))
        groups = [(g, schema.group_indices(g)) for g in schema.groups]
        imp = permutation_importance(fm, train, seed=seed, groups=groups,
                                     threshold=args.threshold)
        run.write(rel + "importance_forest.csv", write_importance_csv, imp)

    run.write(rel + "metrics.csv", write_metrics_csv, reports)
    run.write(rel + "metrics.md", write_metrics_markdown, reports)
    return reports


def _impute(run, rel):
    """Impute pa for the unlinked bp=cit=1 rows and write the expanded register."""
    register, linked, names = run.register, run.linked, run.names
    model, schema, model_file = run.model
    with reading(model_file, OverflowError):
        imputations = impute_pa(model, schema, register, names,
                                linked_rows=linked.rows, threshold=run.args.threshold)
    expanded = expand_dataset(register, linked, imputations)
    run.write(rel + "expanded_register.csv", write_expanded_csv, expanded)
    dist = tabulate_population(expanded)
    run.write(rel + "distribution.csv", write_distribution_csv, dist)
    run.write(rel + "distribution.md", write_distribution_markdown, dist)
    return expanded, dist


def _report(run, rel, expanded):
    """Compare the estimated members with the eligible linked survey respondents."""
    linked = run.linked
    members = expanded.register.take(np.flatnonzero(expanded.delta == 1))
    eligible = np.array([s.eligible for s in linked.survey], dtype=bool)
    sample = linked.register.take(linked.rows[eligible])
    if not len(sample):
        raise DataError("no eligible linked survey respondents for the bias report")
    br = bias_report(members, sample, run.args.variables,
                     alert_threshold=run.args.alert_threshold)
    run.write(rel + "bias_report.csv", write_bias_csv, br)
    for var, table in br.variables.items():
        run.write(f"{rel}bias_plots/bias_{var}.csv", write_bias_plot, table)
    return br


def cmd_synth(run):
    _synth(run, "")
    print(f"synthetic bundle written to {run.out}")


def cmd_ingest(run):
    register, linked, names = run.register, run.linked, run.names
    counts = {
        "admin_records": len(register),
        "survey_records": len(linked.survey) + len(linked.unmatched_survey),
        "matched": len(linked.rows),
        "unmatched_admin": len(register) - len(linked.rows),
        "unmatched_survey": len(linked.unmatched_survey),
        "name_table_entries": len(names),
    }
    run.write("linkage_summary.csv", _write_text,
              "quantity,count\n" + "".join(f"{k},{v}\n" for k, v in counts.items()))
    print(f"linkage: {len(linked.rows)} matched, "
          f"{len(linked.unmatched_survey)} survey rows unmatched")


def cmd_train(run):
    reports = _train(run, "")
    for name, r in reports.items():
        print(f"{name}: accuracy={r.accuracy:.3f} "
              f"precision={'-' if r.precision is None else f'{r.precision:.3f}'} "
              f"tpr={'-' if r.true_positive_rate is None else f'{r.true_positive_rate:.3f}'}")


def cmd_evaluate(run):
    """Score a saved model on every linked bp=cit=1 row.

    Those rows include the ones the model was trained on, so the figures are
    not a held-out estimate; train's validation split gives that.
    """
    run.data_dir  # a missing data directory is reported before a bad model
    model, schema, model_file = run.model
    data = assemble_training_set(run.linked, schema, run.names)
    name = model_type(model)
    with reading(model_file, OverflowError):
        scores = predict_scores(model, data.X)
    report = evaluate(scores, data.y, run.args.threshold)
    run.write("metrics.csv", write_metrics_csv, {name: report})
    run.write("metrics.md", write_metrics_markdown, {name: report})
    print(f"{name}: accuracy={report.accuracy:.3f} on all {len(data.y)} linked rows, "
          "training rows included")


def cmd_impute(run):
    _expanded, dist = _impute(run, "")
    print(f"expanded {dist.n_total} records; estimated members: {dist.n_members}")


def _check_expanded_inputs(run, expanded_file):
    """When a run manifest beside --expanded, or one directory up, lists it among its
    outputs, each file it read must have the digest of the --data-dir file of that name, if any."""
    path = Path(expanded_file).resolve()
    digest = _sha256(path)
    for out_dir in path.parents[:2]:
        manifest = out_dir / "run_manifest.json"
        if not manifest.is_file():
            continue
        with reading(manifest, AttributeError, KeyError, TypeError, ValueError):
            recorded = json.loads(manifest.read_text(encoding="utf-8"))
            if recorded["outputs"].get(path.relative_to(out_dir).as_posix()) != digest:
                continue
            for source, source_digest in recorded["inputs"].items():
                data_file = run.data_dir / Path(source).name
                if data_file.is_file() and source_digest != _sha256(data_file):
                    raise DataError(f"{expanded_file} was made from {source} ({manifest}), "
                                    f"which differs from {data_file}")
        return


def cmd_report(run):
    run.data_dir  # a missing data directory is reported before a bad --expanded
    expanded = read_expanded_csv(run.args.expanded)
    _check_expanded_inputs(run, run.args.expanded)
    run.inputs.append(Path(run.args.expanded))
    run.register = expanded.register  # the survey links to the register it expanded, as read
    br = _report(run, "", expanded)
    for var, level, gap in br.flagged:
        print(f"flagged: {var}={level} gap {gap:+.1f} pp")


def cmd_pipeline(run):
    args = run.args
    for stage in ("train", "impute", "report", "report/bias_plots"):  # fail before any training
        (run.out / stage).mkdir(parents=True, exist_ok=True)
    if not args.data_dir:
        run.data_dir = _synth(run, "data/")
    reports = _train(run, "train/")
    expanded, dist = _impute(run, "impute/")
    _report(run, "report/", expanded)
    print(f"pipeline complete: {dist.n_total} records, "
          f"{dist.n_members} estimated members, artifacts in {run.out}")
    for name, r in reports.items():
        print(f"  {name}: accuracy={r.accuracy:.3f}")


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
_n_register = _checked(int, lambda v: 100 <= v < 2**31, "an integer in [100, 2**31)")
_threshold = _checked(float, lambda v: 0 <= v <= 1, "a number between 0 and 1")
_gap = _checked(float, lambda v: 0 <= v <= 100, "a gap between 0 and 100 percentage points")


def _makeable_dir(path) -> bool:
    """Whether path is a directory, or can become one: its nearest existing ancestor is."""
    try:
        return next(p for p in [Path(path), *Path(path).parents] if p.exists()).is_dir()
    except OSError:  # a name longer than the file system allows
        return False


_out = _checked(str, _makeable_dir, "a directory or a path where one can be made")


OPTIONS = {
    "--seed": dict(type=_seed, default=None,
                   help="RNG seed (default: SynthConfig seed when generating, else 0)"),
    "--data-dir": dict(default=None, help="input directory"),
    "--out": dict(type=_out, required=True, help="output directory"),
    "--config": dict(default=None, help="SynthConfig JSON file"),
    "--n-register": dict(type=_n_register, default=None),
    "--model": dict(choices=["logistic", "forest", "both"], default="both"),
    "--ratio": dict(type=_ratio, default=0.75),
    "--k": dict(type=_folds, default=10, help="CV folds (0 disables)"),
    "--threshold": dict(type=_threshold, default=0.5),
    "--trees": dict(type=_trees, default=500),
    "--model-file": dict(required=True),
    "--expanded": dict(required=True, help="expanded register CSV"),
    "--variables": dict(nargs="+", choices=list(SHARED_VARIABLES),
                        default=["gender", "department", "birth_place", "citizenship"]),
    "--alert-threshold": dict(type=_gap, default=5.0),
}
_TRAIN = ["--data-dir", "--model", "--ratio", "--k", "--threshold", "--trees"]
_SCORE = ["--data-dir", "--model-file", "--threshold"]
_BIAS = ["--variables", "--alert-threshold"]
# subcommand -> (function, help, options besides --seed and --out)
SUBCOMMANDS = {
    "synth": (cmd_synth, "generate a synthetic data bundle", ["--config", "--n-register"]),
    "ingest": (cmd_ingest, "parse, standardize and link the inputs", ["--data-dir"]),
    "train": (cmd_train, "fit and validate the classifiers", _TRAIN),
    "evaluate": (cmd_evaluate, "evaluate a saved model on labeled data", _SCORE),
    "impute": (cmd_impute, "impute pa and expand the register", _SCORE),
    "report": (cmd_report, "sample vs population bias report", ["--data-dir", "--expanded", *_BIAS]),
    "pipeline": (cmd_pipeline, "run every stage end to end", ["--config", *_TRAIN, *_BIAS]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiddenpop",
        description="identify a hidden migrant-background subpopulation in a "
                    "student register",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_text, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in ["--seed", "--out", *options]:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    run = Run(args)
    try:
        args.func(run)
        out, seed, inputs, outputs = run.out, run.seed, run.inputs, run.outputs
        del run  # frees all the run loaded (the model, the register) before any digest
        write_manifest(out, args.subcommand, {k: v for k, v in vars(args).items() if k != "func"},
                       seed, inputs, outputs)
    except (DataError, OSError, MemoryError) as exc:  # an unwritable artifact; a huge register
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except HiddenPopError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
