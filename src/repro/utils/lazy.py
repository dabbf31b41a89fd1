"""Deferred package re-exports: one PEP 562 module ``__getattr__`` for every package.

A package ``__init__`` re-exports names from modules that most processes never
run: the numpy-backed functional layer, the cycle-accurate ``ooo`` core, the
assembler.  Importing them eagerly would make ``import repro`` (and so every
sweep, CLI command and pool worker) pay for numpy.  Such a package lists them
in a :class:`DeferredExports` table instead; the first attribute access
imports the defining module and caches the name on the package, so later
look-ups are plain attribute reads, and ``from repro.tile import TileMemory``
works as before.  The package also imports the names under
``typing.TYPE_CHECKING`` so static checkers still see their types.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Dict, Iterable, Mapping


class DeferredExports:
    """A package's module ``__getattr__``: loads each listed name on first use.

    Usage, in a package ``__init__``::

        __getattr__ = DeferredExports(__name__, {
            "repro.tile.memory": ("TileMemory",),
        })

    Args:
        package: the package's ``__name__``.
        modules: each defining module, mapped to the names the package
            re-exports from it.
    """

    def __init__(self, package: str, modules: Mapping[str, Iterable[str]]) -> None:
        self.package = package
        #: ``{name: defining module}``.
        self.owners: Dict[str, str] = {
            name: module for module, names in modules.items() for name in names
        }

    def __call__(self, name: str) -> Any:
        module = self.owners.get(name)
        if module is None:
            raise AttributeError(f"module {self.package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[self.package], name, value)
        return value
