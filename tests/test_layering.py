"""Module boundaries inside the package."""

import ast
from pathlib import Path

import marsdust

PACKAGE = Path(marsdust.__file__).parent


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "marsdust"
            if internal:
                for alias in node.names:
                    yield node.lineno, node.module, alias.name


def test_no_private_names_imported_across_modules():
    reaches = [
        f"{path.relative_to(PACKAGE)}:{lineno}: {name} from {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for lineno, module, name in _imported_names(ast.parse(path.read_text()))
        if name.startswith("_")
    ]
    assert reaches == []
