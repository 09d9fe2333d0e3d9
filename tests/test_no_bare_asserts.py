"""Checks that guard the output must survive ``python -O``, which strips
every ``assert`` statement; the package raises typed AtspErrors instead."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "atsp"


def test_package_has_no_assert_statements():
    found = []
    assert (PACKAGE / "__init__.py").is_file()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found, f"bare asserts in atsp: {found}"
