"""Run one `hiddenpop` CLI invocation in this process with its layers traced.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <hiddenpop argv>

Each traced function is replaced, at every module where the program looks it
up, by a wrapper that records a span (name, start, end, parent) and, for some
functions, counts taken from the return value or the file written.  Spans are
kept in memory and written to SPANS_JSON when the invocation ends; the exit
code is the CLI's.  A name missing at its site is reported in the JSON and on
stderr, and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# module -> names the program looks up there at call time
SITES = {
    "hiddenpop.cli": [
        "parse_admin", "parse_survey", "build_name_table", "link",
        "assemble_training_set", "fit_logistic", "kfold_cv", "fit_forest",
        "predict_forest", "permutation_importance", "save_model", "load_model",
        "impute_pa", "expand_dataset", "bias_report", "write_expanded_csv",
        "write_manifest",
    ],
    # logistic_trainer's closure, used by kfold_cv
    "hiddenpop.models": ["fit_logistic"],
    # permutation_importance scores every permuted copy through this name
    "hiddenpop.models.forest": ["predict_forest"],
    # impute_pa encodes and scores the imputation targets through these
    "hiddenpop.expand": ["encode_matrix", "predict_forest", "predict_logistic"],
}


def _file_bytes(path_arg):
    return {"bytes": os.path.getsize(path_arg)}


def _predict_forest_counts(a, result):
    rows = 1 if isinstance(result, float) else len(result)
    return {"tree_rows": rows * len(a["model"].trees)}


# span name -> counts(bound arguments, return value)
COUNTERS = {
    "ingest.parse_admin": lambda a, r: {"rows": len(r)},
    "features.encode_matrix": lambda a, r: {"rows": int(r.shape[0])},
    "models.forest.fit_forest": lambda a, r: {
        "nodes": sum(len(t.feature) for t in r.trees),
        "oob_error": r.oob_error,
    },
    "models.forest.predict_forest": _predict_forest_counts,
    "models.io.save_model": lambda a, r: _file_bytes(a["path"]),
    "models.io.load_model": lambda a, r: _file_bytes(a["path"]),
    "models.logistic.fit_logistic": lambda a, r: {"iterations": r.iterations},
    "expand.impute_pa": lambda a, r: {"rows": len(r)},
    "report.write_expanded_csv": lambda a, r: _file_bytes(a["path"]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.warnings = []
        self.uncounted = set()  # span names whose counts could not be taken
        self._stack = []
        self._wrappers = {}

    def wrap(self, fn):
        """One wrapper per function, shared by every site that looks it up."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = fn.__module__.removeprefix("hiddenpop.") + "." + fn.__name__
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span["counts"] = counter(bound, result)
                except (AttributeError, KeyError, TypeError, OSError) as exc:
                    self.uncounted.add(name)
                    self.warn(f"count of {name} unavailable: {type(exc).__name__}: {exc}")
            return result

        self._wrappers[fn] = traced
        return traced

    def warn(self, message):
        if message not in self.warnings:
            self.warnings.append(message)
            print(f"tracer warning: {message}", file=sys.stderr)

    def install(self):
        """Wrap every site; returns the sites whose name could not be found."""
        missing = []
        for module_name, names in SITES.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            for attr in names:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    missing.append(f"{module_name}.{attr}")
                    self.warn(f"{module_name}.{attr} not found; its layer is not traced")
                    continue
                setattr(module, attr, self.wrap(fn))
        return missing


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    import hiddenpop

    where = Path(hiddenpop.__file__).resolve()
    if not where.is_relative_to(SRC):
        print(f"tracer: hiddenpop imported from {where}, outside {SRC}", file=sys.stderr)
        return 2
    import hiddenpop.cli

    tracer = Tracer()
    missing = tracer.install()
    try:
        rc = hiddenpop.cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"exit_code": rc, "spans": tracer.spans, "missing": missing,
                   "uncounted": sorted(tracer.uncounted)}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
