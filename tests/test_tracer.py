"""The benchmark's traced call graph: every site perfbench/tracer.py wraps, every count it takes."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hiddenpop.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites(tracer_module):
    for module_name, names in tracer_module.SITES.items():
        module = importlib.import_module(module_name)
        for name in names:
            yield module, name


def test_every_traced_site_is_callable(tracer_module):
    for module, name in _sites(tracer_module):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_every_count_is_taken_from_a_small_run(tracer_module, tmp_path, monkeypatch):
    """A traced 5-tree pipeline, then an impute with its forest: each COUNTERS entry counts."""
    for module, name in _sites(tracer_module):
        monkeypatch.setattr(module, name, getattr(module, name))  # unwrapped after the test
    tracer = tracer_module.Tracer()
    assert tracer.install() == []
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["synth", "--out", str(data), "--n-register", "6000"]) == 0
    assert main(["pipeline", "--data-dir", str(data), "--out", str(out), "--model", "both",
                 "--trees", "5", "--k", "2"]) == 0
    assert main(["impute", "--data-dir", str(data), "--out", str(tmp_path / "impute"),
                 "--model-file", str(out / "train" / "model_forest.json")]) == 0
    assert tracer.warnings == []
    assert tracer.uncounted == set()
    counted = {span["name"] for span in tracer.spans if span["counts"]}
    assert set(tracer_module.COUNTERS) <= counted
