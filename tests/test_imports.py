"""Every name a module under src/ imports is used there, a package's __init__ re-exports,
every private module-level name is read somewhere in src/, and a run imports no more of
NumPy than it uses, and OpenSSL only once it has freed its data."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import small_config

from hiddenpop.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def unused_imports(source: str) -> list:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).partition(".")[0]: node.lineno
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport re\n"
              "from .eval import CvResult, MetricsReport as Metrics\n"
              "def f(r: CvResult):\n    \"\"\"Metrics\"\"\"\n    return os.path.join(r)\n")
    assert unused_imports(source) == [(3, "re"), (4, "Metrics")]


@pytest.mark.parametrize("path", sorted(p.relative_to(SRC).as_posix()
                                        for p in SRC.rglob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name that nothing reads.

    sources maps a module name to its source.  A name is read where its own module
    loads it, or where any module imports it by name or reads an attribute of that name.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    elsewhere = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom):
            elsewhere.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            elsewhere.add(node.attr)
    unread = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store)]
            else:
                continue
            unread += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in loaded | elsewhere]
    return sorted(unread)


def test_unread_private_names_are_found():
    sources = {"a": ("_A, _B = 1, 2\n_unread: int = 3\n_read_in_b = 4\n__dunder__ = 5\n"
                     "def _helper():\n    return _A\nclass _Spare:\n    pass\n"),
               "b": "from .a import _read_in_b\n"}
    assert unread_private_names(sources) == [("a", 1, "_B"), ("a", 2, "_unread"),
                                             ("a", 5, "_helper"), ("a", 7, "_Spare")]


def test_every_private_name_is_read():
    assert unread_private_names({p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
                                 for p in sorted(SRC.rglob("*.py"))}) == []


_FOREST_RUN = """
import sys
from hiddenpop.cli import main
out, config = sys.argv[1:]
assert main(["pipeline", "--out", out + "/pipe", "--config", config, "--model", "both",
             "--trees", "5", "--k", "2"]) == 0
assert main(["impute", "--data-dir", out + "/pipe/data", "--out", out + "/impute",
             "--model-file", out + "/pipe/train/model_forest.json"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_forest_runs_do_not_import_numpy_ma(tmp_path):
    """A bare np.unique call imports numpy.ma, which costs start-up time and memory."""
    config = tmp_path / "config.json"
    config.write_text(small_config().to_json())
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", _FOREST_RUN, str(tmp_path), str(config)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


_FIRST_DIGEST = """
import gc, sys
import hiddenpop.cli as cli
from hiddenpop.ingest import Register
from hiddenpop.models import ForestModel
print("_hashlib" in sys.modules)
sha256, first = cli._sha256, []


def digest(path):
    if not first:
        first.append(("_hashlib" in sys.modules,
                      sum(isinstance(o, (ForestModel, Register)) for o in gc.get_objects())))
    return sha256(path)


cli._sha256 = digest
assert cli.main(["impute", "--data-dir", sys.argv[1], "--model-file", sys.argv[2],
                 "--out", sys.argv[3]]) == 0
print(*first[0])
"""


def test_openssl_loads_only_after_an_impute_run_frees_its_data(tmp_path):
    """hashlib's libcrypto adds 3.5 MB to the peak; it loads at the first digest, and
    by then no model or register is live.  A fresh process, since pytest imports hashlib."""
    config = tmp_path / "config.json"
    config.write_text(small_config().to_json())
    pipe = tmp_path / "pipe"
    assert main(["pipeline", "--out", str(pipe), "--config", str(config), "--model", "forest",
                 "--trees", "5", "--k", "0"]) == 0
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", _FIRST_DIGEST, str(pipe / "data"),
                           str(pipe / "train" / "model_forest.json"), str(tmp_path / "impute")],
                          env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False 0")
