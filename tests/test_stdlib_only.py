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
