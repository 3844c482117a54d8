import importlib
import types

import fdzeros

MODULES = ("errors", "poly", "rootfind", "operators", "debruijn", "walsh",
           "asymptotics", "harness")


def _public(name):
    module = importlib.import_module(f"fdzeros.{name}")
    if name == "errors":  # no __all__: every exception class it defines
        return module, [k for k, v in vars(module).items()
                        if isinstance(v, type) and issubclass(v, Exception)]
    return module, module.__all__


def test_package_exports_each_module_all_and_nothing_else():
    # The package resolves names on first use, so its namespace need not hold
    # them yet; dir() and a star import list every one.
    star = {}
    exec("from fdzeros import *", star)
    exported = set()
    for name in MODULES:
        module, names = _public(name)
        for attr in names:
            assert getattr(fdzeros, attr) is getattr(module, attr), f"{name}.{attr}"
            assert star[attr] is getattr(module, attr), f"{name}.{attr}"
        exported.update(names)
    # no name is declared by two modules, where the first module to list it
    # would hide a later one
    assert len(exported) == sum(len(_public(name)[1]) for name in MODULES)
    # submodules (cli among them, once imported) are attributes too
    for names in (dir(fdzeros), star):
        public = {k for k in names if not k.startswith("_")
                  and not isinstance(getattr(fdzeros, k), types.ModuleType)}
        assert public == exported
    assert {"RealnessVerdict", "RealCoeffReport", "SIN_ZERO_TOL"} <= exported
    assert len(_public("errors")[1]) == 13


def test_aberth_batch_is_private_to_rootfind():
    assert not hasattr(fdzeros, "aberth_batch")
    assert callable(fdzeros.rootfind.aberth_batch)
