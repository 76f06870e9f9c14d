"""The runtime stays stdlib-only: no third-party import, no dependency.
Its source lines stay within 100 characters."""

import ast
import sys
import types

import pytest

from conftest import ROOT

tomllib = pytest.importorskip("tomllib")

SOURCES = sorted((ROOT / "src" / "qtmlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    outside = {m for m in modules if m.split(".")[0] not in sys.stdlib_module_names}
    assert not outside


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_lines_are_at_most_100_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, start=1) if len(line) > 100] == []


def test_no_runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []


def test_all_lists_exactly_the_public_names():
    import qtmlab

    public = {
        name for name, value in vars(qtmlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(qtmlab.__all__)
