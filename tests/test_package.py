"""The package's public surface."""

import ast
import importlib
import inspect
import pkgutil
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import flowescape

ROOT = Path(__file__).resolve().parents[1]


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


def _identifiers(tree):
    """Every identifier that ``tree`` names: variables, attributes, imported
    names, and the names inside annotations, string annotations included."""
    names, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= _identifiers(ast.parse(note.value, mode="eval"))
    return names


def _library_definitions():
    """The top-level functions, classes and assignments of each library
    module, by name; the CLI is an entry point, not library."""
    definitions = {}
    for path in sorted((ROOT / "src" / "flowescape").glob("*.py")):
        if path.stem in ("__init__", "__main__", "cli"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                definitions.setdefault(name, []).append(node)
    return definitions


def test_every_public_name_is_reached_from_a_route():
    # A public name is reached when the CLI, a demo, an acceptance criterion,
    # a property suite, the benchmark or README's Python blocks name it, or
    # when a reached library definition names it (in its body or its
    # annotations). Error classes are exempt.
    sources = [
        ROOT / "src" / "flowescape" / "cli.py",
        ROOT / "tests" / "test_acceptance.py",
        ROOT / "tests" / "property_suites.py",
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "bench").glob("*.py")),
    ]
    reached = set()
    for path in sources:
        reached |= _identifiers(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        reached |= _identifiers(ast.parse(block))
    definitions = _library_definitions()
    todo = sorted(reached & set(definitions))
    while todo:
        for node in definitions[todo.pop()]:
            new = _identifiers(node) & set(definitions) - reached
            reached |= new
            todo += sorted(new)
    values = {name: getattr(flowescape, name) for name in flowescape.__all__}
    errors = {
        name
        for name, value in values.items()
        if inspect.isclass(value) and issubclass(value, Exception)
    }
    unreached = [name for name in values if name not in reached | errors]
    assert not unreached, f"public names that nothing reaches: {unreached}"
