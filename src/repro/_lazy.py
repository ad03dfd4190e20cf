"""Lazy package exports (PEP 562), after scientific-python SPEC 1.

A package ``__init__`` names what it re-exports and from which submodule;
nothing is imported until the first attribute access, so a process loads
only the modules it runs::

    __getattr__, __dir__ = attach(__name__, {
        "admm": ["ADMMConfig", "ADMMTrainer"],
        "phase2": ["PhaseIIConfig"],
    })

Submodule keys are relative to the package.  ``submodules`` names
submodules that resolve as attributes themselves (``repro.runtime``).
A resolved value is cached on the package, so ``__getattr__`` runs once
per name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__all__ = ["attach"]


def attach(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazily exporting package."""
    origin = {name: f"{package}.{module}"
              for module, names in exports.items() for name in names}
    submodules = frozenset(submodules)

    def __getattr__(name: str) -> object:
        if name in origin:
            value = getattr(importlib.import_module(origin[name]), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin)
                      | submodules)

    return __getattr__, __dir__
