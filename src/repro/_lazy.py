"""Lazy package exports (PEP 562): a public name imports its submodule on first use.

Each package ``__init__`` lists every export once, as the
``from repro.x.y import name`` lines of its ``if TYPE_CHECKING:`` block,
which type checkers and readers see, and resolves them at run time with::

    if TYPE_CHECKING:
        from repro.sim.counters import Counters
    else:
        __getattr__, __dir__ = lazy_exports(globals())

:func:`lazy_exports` reads those import lines with :mod:`ast`, so the
map from name to defining module has that one source.  The first access
to a name imports its module and stores the value on the package, so
later accesses never reach ``__getattr__``.  A name that is no export
but names a submodule imports the submodule, so ``import repro`` then
``repro.sim.Counters`` works.

A name that is both an export and a submodule of the same package
(``repro.perf.occupancy``) cannot be lazy: once the submodule is
imported, the import system binds the package attribute to the module
and ``__getattr__`` never runs.  Such a package imports that name
eagerly, outside the ``TYPE_CHECKING`` block.
"""

from __future__ import annotations

import ast
import sys
from types import ModuleType
from typing import Any, Callable


def _exports(init_path: str) -> dict[str, tuple[str, str]]:
    """Map each name the ``if TYPE_CHECKING:`` block imports to its (module, attribute)."""
    with open(init_path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), init_path)
    table: dict[str, tuple[str, str]] = {}
    for node in tree.body:
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            continue
        for statement in node.body:
            if isinstance(statement, ast.ImportFrom) and statement.module:
                for alias in statement.names:
                    table[alias.asname or alias.name] = (statement.module, alias.name)
    return table


def _import(name: str) -> ModuleType:
    """Import the module *name*; ``-X importtime`` lists it, unlike ``importlib.import_module``."""
    __import__(name)
    return sys.modules[name]


def lazy_exports(
    namespace: dict[str, Any],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package with ``globals()`` *namespace*."""
    package = namespace["__name__"]
    table = _exports(namespace["__file__"])

    def __getattr__(name: str) -> Any:
        if name in table:
            module, attribute = table[name]
            value = getattr(_import(module), attribute)
        else:
            submodule = f"{package}.{name}"
            try:
                value = _import(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
