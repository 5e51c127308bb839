"""Lazy package exports (PEP 562).

A package ``__init__`` that imported every submodule to re-export its public
names made each ``import repro.<package>.<module>`` pay for the whole package,
numpy included, and tied the package and its submodules into an import
cycle.  :func:`lazy_exports` keeps the same public names but imports the
module that defines one only when the name is first read::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.analysis.fairness": ("jains_index", "lexicographic_min"),
    })

``from package import name``, ``package.name`` and ``from package import *``
work as before; a name the table does not hold falls through to a submodule
import, as it always did.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps each defining module to the names it exports.  A name
    read once is cached in the package namespace, so later reads are plain
    attribute lookups.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, sorted(home)
