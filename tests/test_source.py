"""Static checks on the package source."""

import ast
import io
import re
import tokenize
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


def self_calling_nested_functions(source: str) -> list[str]:
    """Functions defined inside another function that call themselves by
    name.  Such a closure refers to itself, a reference cycle that keeps
    whatever it captures alive until the cyclic garbage collector runs."""
    found = {}
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == inner.name
                for node in ast.walk(inner)
            ):
                found[inner.lineno] = inner.name
    return [f"line {line}: {name}" for line, name in sorted(found.items())]


def test_self_calling_nested_function_check_sees_the_cases_it_claims():
    source = (
        "def top(n):\n    return top(n - 1)\n"
        "def outer():\n    def rec(k):\n        return rec(k - 1)\n"
        "    def plain(k):\n        return top(k)\n"
        "    def deep():\n        def walk():\n            walk()\n"
        "class C:\n    def method(self):\n        return self.method()\n"
    )
    assert self_calling_nested_functions(source) == ["line 4: rec", "line 9: walk"]


def test_no_self_calling_nested_functions():
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := self_calling_nested_functions(path.read_text()))
    }
    assert found == {}



def unreferenced_functions(defining: dict[str, str], referring: list[str]) -> list[str]:
    """Functions, methods and properties defined in the `defining` sources
    (by file name) whose name no source in `referring` reads, as a name, an
    attribute or an imported name (re-exports).  Dunder methods are called
    by Python itself.  Names match by spelling alone, so the check errs on
    the side of passing."""
    defined = {}
    for file, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defined.setdefault(node.name, f"{file} line {node.lineno}")
    read = set()
    for source in referring:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.asname or node.name)
    return [f"{where}: {name}" for name, where in defined.items() if name not in read]


def test_unreferenced_function_check_sees_the_cases_it_claims():
    source = (
        "def used():\n    pass\n"
        "def dead():\n    pass\n"
        "class C:\n    def __init__(self):\n        pass\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def method(self):\n        return used()\n"
    )
    caller = "from m import C as Alias\nAlias().method()\n"
    assert unreferenced_functions({"m.py": source}, [source, caller]) == [
        "m.py line 3: dead",
        "m.py line 9: size",
    ]


def test_every_function_is_referenced():
    # every function, method and property of the package is read somewhere
    # in the package or its tests
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    tests = [path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))]
    assert unreferenced_functions(sources, [*sources.values(), *tests]) == []


PRIVATE_NAME = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def undefined_private_names(sources: dict[str, str], readme: str) -> list[str]:
    """`_name`s that the README puts in backticks, or that a docstring or
    comment of the `sources` (by file name) mentions, which no source
    defines as a function, class, argument, variable or attribute.  Dunder
    names are Python's own."""
    defined = set()
    mentioned = {}
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        texts = [
            (ast.get_docstring(node), getattr(node, "lineno", 1))
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        texts += [
            (tok.string, tok.start[0])
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
        for text, line in texts:
            for name in PRIVATE_NAME.findall(text or ""):
                mentioned.setdefault(name, f"{file} line {line}")
    for span in re.findall(r"`([^`\n]+)`", readme):
        for name in PRIVATE_NAME.findall(span):
            mentioned.setdefault(name, "README.md")
    return [
        f"{where}: {name}"
        for name, where in mentioned.items()
        if name not in defined and not (name.startswith("__") and name.endswith("__"))
    ]


def test_undefined_private_name_check_sees_the_cases_it_claims():
    source = (
        '"""Uses _helper and _gone."""\n'
        "_LIMIT = 3\n"
        "def _helper(_arg):\n"
        '    """See __init__ and _arg."""\n'
        "    return _arg  # unlike _stale or level_2\n"
        "class _Box:\n    def __init__(self):\n        self._slot = 0\n"
    )
    readme = "Calls `_helper(_LIMIT)`, `x._slot` and `_missing`; _bare is prose.\n"
    assert undefined_private_names({"m.py": source}, readme) == [
        "m.py line 1: _gone",
        "m.py line 5: _stale",
        "README.md: _missing",
    ]


def test_docs_name_only_defined_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readme = (SRC.parent.parent / "README.md").read_text()
    assert undefined_private_names(sources, readme) == []


def unread_public_names(modules: dict[str, str], readme: str) -> list[str]:
    """Names in the `__all__` of `__init__.py` (among `modules`, by file
    name) that no other module reads, as a name or an attribute, and that
    no ```python block of the README calls.  Names match by spelling
    alone, so the check errs on the side of passing."""
    exported = []
    for node in ast.walk(ast.parse(modules["__init__.py"])):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = [elt.value for elt in node.value.elts]
    read = set()
    for file, source in modules.items():
        if file == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Call):
                read.add(getattr(node.func, "attr", getattr(node.func, "id", None)))
    return [name for name in exported if name not in read]


def test_unread_public_name_check_sees_the_cases_it_claims():
    modules = {
        "__init__.py": (
            "from .m import Box, helper, shown, spare, unused\n"
            "__all__ = ['Box', 'helper', 'shown', 'spare', 'unused']\nspare()\n"
        ),
        "m.py": (
            "class Box:\n    def helper(self):\n        pass\n"
            "def shown():\n    pass\n"
            "def spare():\n    pass\n"
            "def unused():\n    unused = 1\n"
            "def use(b: Box):\n    return b.helper()\n"
        ),
    }
    readme = "```python\nimport m\nm.shown()\nprint(m.spare)\n```\n`unused()` is prose.\n"
    assert unread_public_names(modules, readme) == ["spare", "unused"]


def test_every_public_name_is_read():
    # what the package exports serves its commands, its other modules or the
    # README's examples; a name only the tests read moves to them or goes
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readme = (SRC.parent.parent / "README.md").read_text()
    assert unread_public_names(modules, readme) == []
