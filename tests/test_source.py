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
