"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports every submodule to re-export their public
names makes importing any one of them load all of them: a one-shot
``repro analyze`` would pay for the guideline rules, the concrete
interpreter and the process pool it never runs.  Instead each package lists
its public names in a ``{name: submodule}`` table and installs the
``__getattr__`` built here, so a name's submodule is imported on first use::

    _EXPORTS = {"Program": "program", "Interpreter": "interpreter"}
    __all__ = list(_EXPORTS)
    __getattr__ = lazy_exports(__name__, _EXPORTS)

A table entry whose name *is* its submodule's name exports that submodule.
A name that is also a submodule but denotes something else (the function
``repro.arith.ldivmod`` in the module of the same name) cannot be lazy:
importing the submodule binds the package attribute to the module object,
and ``__getattr__`` is then never consulted.  Bind such names eagerly.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable[[str], Any]:
    """A module-level ``__getattr__`` for ``package`` resolving each name of
    ``exports`` from its submodule on first access, then caching it as a
    plain package attribute."""

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
