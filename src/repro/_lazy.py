"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package names the submodule that defines each of its public names; a
name's submodule is imported on first attribute access and the value is
then cached in the package namespace.  Importing a package therefore
loads none of its submodules, and a command pays only for the layers it
touches (DESIGN §6).  Submodules not listed stay reachable as attributes
too (``repro.core.campaign`` after a bare ``import repro``), as they were
when every package imported its submodules eagerly.
"""

from __future__ import annotations

import importlib
from typing import Callable


def lazy_exports(
    package: str, namespace: dict, exports: dict[str, tuple[str, ...]],
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a relative submodule name (``".campaign"``) to the
    public names it defines, which make up ``__all__``; ``namespace`` is
    the package's ``globals()``.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
