"""The package's public surface."""

import ast
import importlib
import inspect
import pkgutil
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import flowescape


def test_all_lists_every_public_function_and_class():
    # Every public function and class that a library module defines is
    # exported, and nothing else is; the CLI is an entry point, not library.
    defined = set()
    for info in pkgutil.iter_modules(flowescape.__path__):
        if info.name.startswith("_") or info.name == "cli":
            continue
        module = importlib.import_module(f"flowescape.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or not (inspect.isfunction(value) or inspect.isclass(value)):
                continue
            if value.__module__ == module.__name__:
                defined.add(name)
    exported = {
        name
        for name in flowescape.__all__
        if inspect.isfunction(getattr(flowescape, name)) or inspect.isclass(getattr(flowescape, name))
    }
    assert exported == defined


def _intra_package_imports(tree, modules):
    """The modules of the package that the import statements of ``tree``
    name: ``from . import x`` and ``from .x import y`` both name module x,
    and any other name of the package is its ``__init__``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"flowescape.{node.module or ''}".rstrip(".") if node.level else node.module
            names += [f"{base}.{a.name}" for a in node.names] if base == "flowescape" else [base]
    parts = [name.split(".") + ["__init__"] for name in names]
    return {p[1] if p[1] in modules else "__init__" for p in parts if p[0] == "flowescape"}


def test_imports_sit_at_module_level_and_form_no_cycle():
    # Every import of the library runs when its module loads, so a module's
    # dependencies read off its header, and no two modules depend on each
    # other, directly or through others.
    root = Path(flowescape.__file__).parent
    modules = {path.stem for path in root.glob("*.py")}
    graph, nested = {}, set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
        graph[path.stem] = _intra_package_imports(tree, modules)
    assert not nested, f"imports inside functions: {sorted(nested)}"
    cycle = None
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as error:
        cycle = error.args[1]
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"
