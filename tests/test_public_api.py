"""The public names: every ``__all__`` entry resolves, and the package
namespace re-exports only names that some module lists."""

import importlib
import pkgutil
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
