"""Lazy public names for package ``__init__`` modules (PEP 562).

A read-only ``repro serve`` should import what it serves, not the
trainer and ``scipy.sparse``.  The packages whose ``__init__`` used to
import every submodule (``repro``, ``repro.core``, ``repro.dynamic``,
``repro.serving``, ``repro.serving.wal``) declare their public names as
a table instead, and the defining module is imported the first time a
name is asked for::

    __all__ = ["PANE", "PANEConfig"]
    __getattr__, __dir__ = lazy_exports(
        __name__, {"repro.core.pane": ("PANE",), "repro.core.config": ("PANEConfig",)}
    )

The resolved object is stored in the package's namespace, so the second
access is an ordinary attribute read and ``__getattr__`` is not called
again.  ``from package import name``, ``from package import *`` (driven
by ``__all__``) and ``dir(package)`` behave as they did with eager
imports.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType


class _ExportWinsOverSubmodule(ModuleType):
    """Package type for a lazy name that is also a submodule's name.

    After loading ``repro.core.randsvd`` the import system binds that
    module as ``repro.core.randsvd``, which would hide the exported
    *function* of the same name from ``__getattr__`` for good.  The eager
    ``from repro.core.randsvd import randsvd`` rebound the name to the
    function; binding the function in the first place keeps that.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if (
            isinstance(value, ModuleType)
            and self.__lazy_exports__.get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(package: str, sources: dict[str, tuple[str, ...]]):
    """Return ``(__getattr__, __dir__)`` importing ``sources`` on first use.

    ``sources`` maps a module to the names the package re-exports from
    it — what ``from module import (names)`` said eagerly.
    """
    exports = {name: source for source, names in sources.items() for name in names}
    module = sys.modules[package]
    namespace = module.__dict__

    def __getattr__(name: str):
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(source), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    if any(source == f"{package}.{name}" for name, source in exports.items()):
        namespace["__lazy_exports__"] = exports
        module.__class__ = _ExportWinsOverSubmodule
    return __getattr__, __dir__
