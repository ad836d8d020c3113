"""The package's public surface."""

import ast
import importlib
import inspect
import pkgutil
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import flowescape
from flowescape import errors

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


def _package_aliases(tree):
    """The names under which ``tree`` imports the package itself."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "flowescape"
    }


def _references(tree, aliases=frozenset()):
    """What ``tree`` names, as (names, attributes).

    A module-level definition is named only by a bare name, an imported name
    or an attribute of the package itself (``fe.x``, with ``fe`` in
    ``aliases``); the names inside annotations, string annotations included,
    are bare names. A class member is named by any attribute of its name,
    since the type of the object before the dot is not known here."""
    names, attributes, annotations = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            inner_names, inner_attributes = _references(ast.parse(note.value, mode="eval"))
            names |= inner_names
            attributes |= inner_attributes
    return names, attributes


def _library_definitions():
    """The top-level functions, classes and assignments of each library
    module, by name, and the public methods, properties and class-level
    assignments of its public classes, by ``Class.member``; the CLI is an
    entry point, not library. Dataclass fields are data, not members."""
    definitions, members = {}, {}
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
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    for member in _member_names(item):
                        members[f"{node.name}.{member}"] = item
    return definitions, members


def _member_names(node):
    """The public member names that a statement of a class body defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _reached():
    """The names and class members (``Class.member``) that a route reaches.

    A route is the CLI, a demo, an acceptance criterion, a property suite,
    the benchmark or one of README's Python blocks. A reached definition
    reaches what its body and annotations name; a reached class reaches what
    its body names outside its public members, and a reached member what its
    own body names."""
    sources = [
        ROOT / "src" / "flowescape" / "cli.py",
        ROOT / "tests" / "test_acceptance.py",
        ROOT / "tests" / "property_suites.py",
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "bench").glob("*.py")),
    ]
    trees = [ast.parse(path.read_text()) for path in sources]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    definitions, members = _library_definitions()
    names, attributes = set(), set()
    for tree in trees:
        tree_names, tree_attributes = _references(tree, _package_aliases(tree))
        names |= tree_names
        attributes |= tree_attributes
    reached = set()
    while True:
        todo = sorted(names & set(definitions) - reached)
        todo += sorted(
            key for key in members if key.split(".")[1] in attributes and key not in reached
        )
        if not todo:
            return reached | names
        for key in todo:
            reached.add(key)
            nodes = [members[key]] if key in members else []
            for node in definitions.get(key, []):
                if isinstance(node, ast.ClassDef):
                    nodes += node.decorator_list + node.bases
                    nodes += [item for item in node.body if not _member_names(item)]
                else:
                    nodes.append(node)
            for node in nodes:
                node_names, node_attributes = _references(node)
                names |= node_names
                attributes |= node_attributes


def _error_classes():
    return {
        name
        for name in flowescape.__all__
        if inspect.isclass(getattr(flowescape, name))
        and issubclass(getattr(flowescape, name), Exception)
    }


def test_every_public_name_is_reached_from_a_route():
    # Error classes are exempt: ``test_every_domain_error_is_raised_by_the_library``
    # ties each to its raisers.
    reached = _reached()
    unreached = [name for name in flowescape.__all__ if name not in reached | _error_classes()]
    assert not unreached, f"public names that nothing reaches: {unreached}"


def test_every_public_member_is_reached_from_a_route():
    # The public methods and properties of the exported classes, and their
    # class-level attributes, under the same walk; error classes are exempt.
    reached = _reached()
    _, members = _library_definitions()
    exempt = _error_classes()
    unreached = [
        key for key in members if key not in reached and key.split(".")[0] not in exempt
    ]
    assert not unreached, f"public members that nothing reaches: {unreached}"


def test_every_domain_error_is_raised_by_the_library():
    # A DomainError subclass that no ``raise`` of the library names has
    # outlived its last raiser.
    classes = {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, errors.DomainError)
        and value is not errors.DomainError
    }
    raised = set()
    for path in (ROOT / "src" / "flowescape").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    assert classes, "no DomainError subclass found"
    assert not classes - raised, f"error classes that nothing raises: {sorted(classes - raised)}"
