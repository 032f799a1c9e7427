import ast
import sys
from pathlib import Path

import ergodec

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ergodec").glob("*.py"))


def test_library_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_export_resolves():
    assert [name for name in ergodec.__all__ if not hasattr(ergodec, name)] == []
