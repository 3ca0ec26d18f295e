"""Package-wide guards: no assert statements in the library, and an
export list that matches what the package imports."""
import ast
import importlib
from pathlib import Path

import tscc

PACKAGE = Path(tscc.__file__).parent


def test_library_has_no_assert_statements():
    """Runtime invariants must raise: python -O strips assert statements."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_all_is_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"tscc.{node.module}")
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert len(tscc.__all__) == len(set(tscc.__all__))
    assert set(tscc.__all__) == set(imported)
    for name in tscc.__all__:
        assert getattr(tscc, name) is imported[name]
