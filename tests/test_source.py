"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sparsehg"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names listed in __all__
    count as read (re-exports)."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_unused_import_check_sees_the_cases_it_claims():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\n__all__ = ['a']\nnp.zeros"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


def test_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
