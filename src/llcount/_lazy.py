"""Module attributes that import their home module on first use (PEP 562).

The projector stack (``projectors``, ``qsat``, ``oracles``) loads numpy, which
no CNF, events or weights command needs, and no CNF command reads a spec
(``formats``).  Modules that re-export these names resolve them through
``lazy_getattr``, so importing them loads none of it.
A module ``__getattr__`` serves attribute lookups from outside the module
only; code inside it imports what it uses at the point of use.
"""

from __future__ import annotations

import importlib


def lazy_getattr(module: str, homes: dict[str, str]):
    """A module ``__getattr__`` for ``module``.  ``homes`` maps each lazy name
    to the llcount submodule that defines it; a submodule's own name maps to
    itself and resolves to the submodule."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        loaded = importlib.import_module(f"llcount.{home}")
        return loaded if name == home else getattr(loaded, name)

    return __getattr__
