"""Every name a module under src/ imports is used there; a package's __init__ re-exports."""

import ast
from pathlib import Path

import pytest

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
