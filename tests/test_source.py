"""Checks on the library's source text.

Runtime checks in `projlab` are real checks: an `assert` vanishes under
`python -O`, and a bare `AssertionError` says nothing a caller can catch by
kind.  Every failure the library reports is one of its own exception types.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "projlab"


def _assertions(source: str) -> list[int]:
    """Line numbers of every `assert` statement and every use of the name
    `AssertionError`, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
        or (isinstance(node, ast.Attribute) and node.attr == "AssertionError")
    )


@pytest.mark.parametrize("source, lines", [
    ("x = 1\nassert x\n", [2]),
    ("def f():\n    raise AssertionError('no')\n", [2]),
    ("import builtins\ntry:\n    pass\nexcept builtins.AssertionError:\n    pass\n", [4]),
    ("assert_count = 1\nname = 'AssertionError'\n", []),
])
def test_finder_sees_asserts_and_assertion_errors(source, lines):
    assert _assertions(source) == lines


def test_library_has_no_assert_and_no_assertion_error():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {
        path.name: lines
        for path in files
        if (lines := _assertions(path.read_text(encoding="utf-8")))
    }
    assert found == {}
