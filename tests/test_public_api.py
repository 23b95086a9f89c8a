"""The public names: every ``__all__`` entry resolves, the package
namespace re-exports only names that some module lists, and every
docstring cross-reference names something that exists."""

import importlib
import inspect
import pkgutil
import re
import types

import pytest

import fhjm

MODULES = sorted(m.name for m in pkgutil.iter_modules(fhjm.__path__, "fhjm."))
PUBLIC = [name for name in MODULES if not name.rpartition(".")[2].startswith("_")]


@pytest.mark.parametrize("name", PUBLIC)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_reexports_only_listed_names():
    listed = {}
    for name in PUBLIC:
        module = importlib.import_module(name)
        for attr in module.__all__:
            listed.setdefault(attr, []).append(getattr(module, attr))
    exported = {
        attr: value for attr, value in vars(fhjm).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported
    unlisted = sorted(
        attr for attr, value in exported.items()
        if not any(value is candidate for candidate in listed.get(attr, []))
    )
    assert not unlisted, f"fhjm re-exports names no module lists: {unlisted}"


ROLE = re.compile(r":(?:func|class|meth|mod):`~?([\w.]+)`")


def _resolve(module, target):
    """The object ``target`` names from ``module``, or None.

    An absolute ``fhjm.`` path, a (dotted) name in ``module`` itself, or a
    member of a class defined in ``module``.
    """
    if target.startswith("fhjm."):
        parts = target.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            for attr in parts[cut:]:
                obj = getattr(obj, attr, None)
            return obj
        return None
    head, *rest = target.split(".")
    obj = getattr(module, head, None)
    if obj is None:
        classes = [value for value in vars(module).values()
                   if inspect.isclass(value) and value.__module__ == module.__name__]
        obj = next((getattr(c, head) for c in classes if hasattr(c, head)), None)
    for attr in rest:
        obj = getattr(obj, attr, None)
    return obj


@pytest.mark.parametrize("name", ["fhjm"] + MODULES)
def test_docstring_cross_references_resolve(name):
    module = importlib.import_module(name)
    source = inspect.getsource(module)
    dangling = sorted({target for target in ROLE.findall(source)
                       if _resolve(module, target) is None})
    assert not dangling, f"{name} refers to {dangling}, which do not resolve"
