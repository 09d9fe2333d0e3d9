"""The package has one accuracy constant, instance.TOL; every comparison
at that accuracy reads it, in the unit of what it compares, rather than
a literal or a module's own copy."""

from __future__ import annotations

import ast
from pathlib import Path

from atsp import instance

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "atsp"


def tiny_float_literals(path: Path) -> list[tuple[str, str, float]]:
    """(file, top-level name, value) of every nonzero float literal below
    1e-8 in a module; the name is the function or class that holds it, or
    the target of a module-level assignment."""
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            name = top.name
        elif isinstance(top, ast.Assign):
            name = ", ".join(ast.unparse(target) for target in top.targets)
        else:
            name = type(top).__name__
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value < 1e-8:
                found.append((path.name, name, node.value))
    return found


def test_the_only_tiny_float_literals_are_tol_and_a_printed_threshold():
    found = [hit for path in sorted(PACKAGE.rglob("*.py")) for hit in tiny_float_literals(path)]
    # verify prints its thresholds, so its cut-balance bound is its output
    assert found == [("cli.py", "cmd_verify", 2e-9), ("instance.py", "TOL", 1e-9)]
    assert instance.TOL == 1e-9


def test_the_guard_sees_literals_in_functions_and_assignments(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("EPS = 1e-12\nBIG = 1e-6\n\n\ndef f(x):\n    return x > -5e-10 and x != 0.0\n")
    assert tiny_float_literals(path) == [("mod.py", "EPS", 1e-12), ("mod.py", "f", 5e-10)]
