"""Linear finite-difference operators with constant coefficients acting on
polynomials, and the machinery to track where their zeros go: operator
classification, the de Bruijn family T_{theta,h}, Walsh convolution, mesh and
root-interval bounds, large-h root asymptotics, and a seeded property suite.

The package exports what each module lists in its `__all__` (every exception
class of `errors`, which has none), so that list is the one declaration of a
module's public names.  The package resolves each module's names on first
use (PEP 562): `import fdzeros` loads only `errors`, and `fdzeros.roots` or
`fdzeros.harness` imports the module that holds it.
"""

from importlib import import_module as _import_module

from .errors import *

__version__ = "0.1.0"

# The modules whose `__all__` the package exports, in lookup order.
_MODULES = ("poly", "rootfind", "operators", "debruijn", "walsh",
            "asymptotics", "harness")


def __getattr__(name):
    # Runs only for names missing from the package namespace.  A resolved name
    # is returned, not stored here, so it always reads the module's current
    # binding: a caller that swaps a module attribute and restores it later
    # leaves nothing stale behind in the package.
    if name == "__all__":
        return _public_names()
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _MODULES or name == "cli":
        return _import_module(f".{name}", __name__)
    for module in _MODULES:
        m = _import_module(f".{module}", __name__)
        if name in m.__all__:
            return getattr(m, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _public_names() -> list[str]:
    names = [k for k in vars(errors) if not k.startswith("_")]
    for module in _MODULES:
        names += _import_module(f".{module}", __name__).__all__
    return names + ["errors", *_MODULES]


def __dir__():
    return sorted(set(globals()) | set(_public_names()))
