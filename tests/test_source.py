"""Checks on the package source itself."""

import ast
from pathlib import Path

import lftdom

PACKAGE = Path(lftdom.__file__).parent


def imported_names(tree):
    """Map each name an import statement binds to the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import scipy.linalg` binds `scipy`
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_every_imported_name_is_used():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
