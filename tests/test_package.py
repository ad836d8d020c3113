"""The package's public surface."""

import importlib
import inspect
import pkgutil

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
