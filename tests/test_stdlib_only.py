"""fabboo needs nothing beyond the standard library: every absolute import
in its source, at module level or inside a function, names a
standard-library module. The tests need exactly the packages of the
`test` extra in pyproject.toml."""

import ast
import sys
from pathlib import Path

import pytest

import fabboo

TESTS = Path(__file__).resolve().parent


def absolute_imports(path):
    """The modules that the absolute imports of the file at `path` name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_from_the_standard_library():
    sources = sorted(Path(fabboo.__file__).parent.glob("*.py"))
    imported, outside = set(), []
    for path in sources:
        for name in absolute_imports(path):
            top = name.partition(".")[0]
            imported.add(top)
            if top not in sys.stdlib_module_names:
                outside.append(f"{path.name}: {name}")
    assert len(sources) > 10
    assert {"csv", "pickle", "multiprocessing"} <= imported
    assert outside == []


def test_only_the_pipeline_forks_signals_or_pickles():
    """pipeline.py is the one module that imports multiprocessing, pickle
    or signal, and the one that uses os.fork, os.kill, os.waitpid or
    os._exit, so a change of the helpers' channel stays in one module."""
    watched = {"multiprocessing", "pickle", "signal",
               "os.fork", "os.kill", "os.waitpid", "os._exit"}
    users = {}
    for path in sorted(Path(fabboo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                used = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used = {node.module.partition(".")[0]}
                if node.module == "os":
                    used |= {f"os.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "os":
                used = {f"os.{node.attr}"}
            else:
                continue
            for name in used & watched:
                users.setdefault(name, set()).add(path.name)
    assert users == {name: {"pipeline.py"} for name in watched}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_the_test_extra_names_the_tests_third_party_imports():
    import tomllib
    with open(TESTS.parent / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    local = {"fabboo"} | {path.stem for path in TESTS.glob("*.py")}
    imported = {name.partition(".")[0] for path in TESTS.glob("*.py")
                for name in absolute_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party == set(extra)
