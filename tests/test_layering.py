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


def _file_reads(tree):
    """Line numbers of calls to a function or method named ``open``,
    ``read_bytes`` or ``read_text``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name in {"open", "read_bytes", "read_text"}:
                yield node.lineno


def test_only_atomic_opens_files():
    # atomic.read_input opens every input file and write_atomic every output
    opens = [
        f"{path.relative_to(PACKAGE)}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "atomic.py"
        for lineno in _file_reads(ast.parse(path.read_text()))
    ]
    assert opens == []


def _grad_stores(node, in_tensor=False):
    """Line numbers of assignments to an attribute named ``grad`` below
    ``node`` that lie outside ``class Tensor``."""
    for child in ast.iter_child_nodes(node):
        inside = in_tensor or (isinstance(child, ast.ClassDef) and child.name == "Tensor")
        stored = isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store)
        if stored and child.attr == "grad" and not inside:
            yield child.lineno
        yield from _grad_stores(child, inside)


def test_only_tensor_methods_assign_grad():
    # ops return their parents' gradients; Tensor.backward alone stores them
    stores = [
        f"{path.relative_to(PACKAGE)}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for lineno in _grad_stores(ast.parse(path.read_text()))
    ]
    assert stores == []
