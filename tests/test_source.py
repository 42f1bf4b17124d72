import ast
from pathlib import Path

import polysing

SRC = Path(polysing.__file__).parent


def test_no_assert_statements_in_package():
    """Invariant checks raise InternalCheck; `assert` would vanish under python -O."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _referenced_names(node) -> set:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    return set()


def test_double_description_is_referenced_only_in_polyhedra():
    """Every normal cone and half-space description goes through polyhedra."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "polyhedra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "_dd_halfspaces" in _referenced_names(node):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found
