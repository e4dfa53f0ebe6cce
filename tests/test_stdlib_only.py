"""fabboo needs nothing beyond the standard library: every absolute import
in its source, at module level or inside a function, names a
standard-library module."""

import ast
import sys
from pathlib import Path

import fabboo


def test_every_import_is_from_the_standard_library():
    sources = sorted(Path(fabboo.__file__).parent.glob("*.py"))
    imported, outside = set(), []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
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
