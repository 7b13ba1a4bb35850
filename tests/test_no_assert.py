"""No invariant outside the test modules is kept in an assert statement.

``python -O`` strips assert statements, and pytest rewrites those of the
test modules only; the CI job that runs the suite under ``-O`` relies on
this test.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qclass").glob("*.py")) + [
    ROOT / "tests" / "helpers.py",
    ROOT / "tests" / "strategies.py",
    *(p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")),
]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(p.parents[1]).as_posix())
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"
