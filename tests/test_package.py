"""Library code exists only because the library uses it.

Every public module-level function or class of the package must be
referenced by another module of the package, by its own module outside its
definition, or by an __all__ list. Code that only the tests use lives in
tests/ (oracle.py, sensitivity.py, properties.py).
"""

import ast
import importlib
from pathlib import Path

import pytest

import tppat

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def referenced_names(tree, skip=None):
    """Every name tree refers to (names, attributes, imported names), not
    counting the subtree skip."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def exported_names(tree):
    """The strings of the module's __all__ assignments."""
    return {const.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for const in ast.walk(node.value) if isinstance(const, ast.Constant)}


def unused_public_names(package_dir):
    """'module.name' for each public module-level function or class of the
    package in package_dir that nothing in the package refers to."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(package_dir).glob("*.py"))}
    exported = set().union(*map(exported_names, trees.values()))
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(referenced_names(other)
                                  for name, other in trees.items() if name != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in elsewhere | exported
                    and node.name not in referenced_names(tree, skip=node)):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_function_and_class_has_a_user_in_the_package():
    for package_dir in tppat.__path__:
        assert unused_public_names(package_dir) == []


def test_the_scan_reports_exactly_the_names_nothing_refers_to(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import exported\n__all__ = ['exported']\n")
    (tmp_path / "a.py").write_text(
        "def exported(): pass\n"
        "def imported(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def _private(): pass\n"
        "class Local: pass\n"
        "def caller(): return Local()\n"
        "class Orphan:\n    def method(self): return Orphan\n")
    (tmp_path / "b.py").write_text(
        "from .a import imported\nfrom . import a\n"
        "def attribute_user(): return imported(), a.caller()\n")
    assert unused_public_names(tmp_path) == [
        "a.recursive", "a.Orphan", "b.attribute_user"]


def traced_names():
    """The names of LAYERS and JOB_LAYERS in bench/tracer.py, read without
    importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in ("LAYERS", "JOB_LAYERS")
                    for t in node.targets)
            for name in ast.literal_eval(node.value)]


@pytest.mark.parametrize("name", traced_names())
def test_every_name_the_benchmark_traces_resolves_in_the_package(name):
    # the benchmark's tracer wraps these at their binding sites; a renamed or
    # deleted one fails only there, in a run the test suite does not make.
    # As the tracer reads them, "module.Class.method" is looked up in the
    # class __dict__, with init meaning __init__
    module, *path = name.split(".")
    owner = importlib.import_module(f"tppat.{module}")
    if len(path) == 2:
        owner = getattr(owner, path[0])
        assert {"init": "__init__"}.get(path[1], path[1]) in owner.__dict__
    else:
        assert callable(getattr(owner, path[0], None))
