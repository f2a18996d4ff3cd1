"""Static checks on the source tree (the repository has no linter step)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "nilseq").glob("*.py"))
MODULES = [p for p in LIBRARY if p.name != "__init__.py"] + sorted(
    (ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def unnamed_private_defs(source: str) -> list[str]:
    """Module-level _private functions and classes the module never names."""
    tree = ast.parse(source)
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(defined - used)


def test_unused_imports_are_found():
    source = "import os, re.sub\nfrom a import b as c, d\nos.x(d)\n"
    assert unused_imports(source) == ["c", "re"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unnamed_private_defs_are_found():
    source = ("def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
              "class _Base: pass\nclass Kept(_Base): pass\n"
              "def __getattr__(name): pass\ndef public(): return _used()\n")
    assert unnamed_private_defs(source) == ["_Gone", "_dead"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unnamed_private_defs(path):
    assert unnamed_private_defs(path.read_text()) == []


def unnamed_nested_defs(source: str) -> list[str]:
    """Functions defined in a function body that the enclosing function
    never names (methods of a class body are not nested functions)."""
    tree = ast.parse(source)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, funcs):
            continue
        used = {n.id for n in ast.walk(outer) if isinstance(n, ast.Name)}
        # the defs of outer's own body, not those of a nested scope
        todo = list(ast.iter_child_nodes(outer))
        while todo:
            node = todo.pop()
            if isinstance(node, funcs):
                if node.name not in used:
                    found.append(f"{outer.name}.{node.name}")
            elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_unnamed_nested_defs_are_found():
    source = ("def f():\n"
              "    def used(): pass\n"
              "    def dead(): pass\n"
              "    if True:\n"
              "        def dead_in_branch(): pass\n"
              "    class C:\n"
              "        def method(self): pass\n"
              "    def g():\n"
              "        def inner(): pass\n"
              "        return 1\n"
              "    return used, g, C\n")
    assert unnamed_nested_defs(source) == ["f.dead", "f.dead_in_branch",
                                           "g.inner"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unnamed_nested_defs(path):
    assert unnamed_nested_defs(path.read_text()) == []


def unreferenced_public_defs(modules: dict[str, str],
                             sources: list[str]) -> list[str]:
    """Public functions and methods of the modules (name -> source) whose
    name no source reads as a name or an attribute; dunders are exempt,
    and a mention in a string or docstring does not count."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            defs = [(node.name, node)] if isinstance(node, funcs) else []
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, funcs)]
            for qualname, d in defs:
                if not d.name.startswith("_") and d.name not in used:
                    found.append(f"{module}:{qualname}")
    return sorted(found)


def test_unreferenced_public_defs_are_found():
    module = ("def used(): pass\ndef dead(): pass\ndef _private(): pass\n"
              "class C:\n"
              "    \"\"\"dead, gone: a docstring is no reference.\"\"\"\n"
              "    def called(self): pass\n"
              "    def gone(self): pass\n"
              "    def __repr__(self): pass\n")
    caller = "from m import used\nused()\nC().called()\nprint('gone')\n"
    assert unreferenced_public_defs({"m": module}, [module, caller]) == [
        "m:C.gone", "m:dead"]


def test_no_unreferenced_public_defs():
    sources = [p.read_text() for d in ("src", "scripts", "perfbench", "tests")
               for p in sorted((ROOT / d).rglob("*.py"))]
    modules = {p.name: p.read_text() for p in LIBRARY}
    assert unreferenced_public_defs(modules, sources) == []


def function_local_relative_imports(source: str) -> list[int]:
    """Lines of the relative imports made inside a function body."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted({node.lineno for func in ast.walk(ast.parse(source))
                   if isinstance(func, funcs) for node in ast.walk(func)
                   if isinstance(node, ast.ImportFrom) and node.level > 0})


def test_function_local_relative_imports_are_found():
    source = ("from . import a\nfrom .b import c\nimport os\n"
              "def f():\n    from .d import e\n    import json\n"
              "    from os import path\n"
              "    def g():\n        from .. import h\n    return e, g\n"
              "class C:\n    def m(self):\n        from .i import j\n")
    assert function_local_relative_imports(source) == [5, 9, 13]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_function_local_relative_imports(path):
    assert function_local_relative_imports(path.read_text()) == []
