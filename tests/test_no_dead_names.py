"""No module of the package keeps a name that nothing uses: every name a
module imports is read in it or exported by its __all__, and every
private module-level function, class or constant is referenced in its
module beyond its definition. No linter is a dependency, so the guard
reads the AST."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "atsp"


def dead_names(source: str) -> list[str]:
    """The imports and private module-level names that a module's source
    never reads, as "unused import x" and "unreferenced _x", sorted."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    exported: set[str] = set()
    defined: list[str] = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names = [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]
            defined += names
            if "__all__" in names:
                exported = {node.value for node in ast.walk(top.value) if isinstance(node, ast.Constant)}
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    unused = [f"unused import {name}" for name in imported if name not in read | exported]
    unreferenced = [f"unreferenced {name}" for name in defined
                    if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unused + unreferenced)


def test_every_import_and_private_name_of_the_package_is_used():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    assert {path.name: dead_names(path.read_text()) for path in paths} == {path.name: [] for path in paths}


def test_the_guard_sees_an_unused_import_and_an_unreferenced_helper():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom math import inf, pi\n\n"
        "__all__ = ['pi']\n_LIMIT = 3\n_used = 1\n\n\n"
        "def _helper():\n    return np.zeros(_used)\n\n\n"
        "def _left_behind(x: int) -> int:\n    return x + inf\n"
    )
    assert dead_names(source) == [
        "unreferenced _LIMIT", "unreferenced _helper", "unreferenced _left_behind",
        "unused import os",
    ]
