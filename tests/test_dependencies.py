"""The runtime stays stdlib-only: no third-party import, no dependency.
Its source lines stay within 100 characters, every name a module imports
is used there, and no module reads another's private names."""

import ast
import sys
import types

import pytest

from conftest import ROOT

SOURCES = sorted((ROOT / "src" / "qtmlab").glob("*.py"))

# (module file, name) imported but not used: perfbench's tracer rebinds these
# names to count the calls made through them
REBOUND = {("measurement.py", "step"), ("experiments.py", "step")}


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


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export; test_all_lists_exactly_the_public_names
    # covers it
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert imported - used == {name for f, name in REBOUND if f == path.name}


# private by name, but namedtuple's public API
NAMEDTUPLE_METHODS = {"_make"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_a_siblings_private_names(path):
    # a private name is one with a leading underscore that is not a dunder;
    # a module may read one it defines (a def, class, assigned name or
    # attribute) on anything, and any one on ``self`` or ``cls``
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    nodes = list(ast.walk(tree))
    defined = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    defined |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    defined |= {
        n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
    }

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    reads = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            reads += [
                f"line {node.lineno}: imports {a.name} from {'.' * node.level}{node.module or ''}"
                for a in node.names if private(a.name)
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and private(node.attr)
            and node.attr not in defined | NAMEDTUPLE_METHODS
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            reads.append(f"line {node.lineno}: reads {ast.unparse(node)}")
    assert reads == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_lines_are_at_most_100_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, start=1) if len(line) > 100] == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []


def test_all_lists_exactly_the_public_names():
    import qtmlab

    public = {
        name for name, value in vars(qtmlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(qtmlab.__all__)
