"""Derivation Lie algebras and first Hochschild cohomology of acyclic
quiver path algebras, in exact rational arithmetic.

A process runs only the modules it uses.  Every submodule but ``cli`` is
registered lazily: ``quiverdiff.linalg`` is in ``sys.modules`` and is an
attribute of the package from the start, but its code runs on its first
attribute read.  The public names resolve the same way, on first use.
``cli`` is the ``python -m`` entry point, which runpy must find not yet
imported, so it loads as usual, on import.
"""

import importlib.util
import sys
from importlib.machinery import PathFinder

__version__ = "0.1.0"

# every submodule but cli, with the public names it defines
_PUBLIC = {
    "algebra": ("AlgebraElement",),
    "cohomology": ("combinatorial_report", "happel_dimension", "hh1_basis", "hh1_structure"),
    "derivations": ("canonical_basis", "derivation_space_oracle"),
    "embedding": ("RotationSystem", "genus", "trace_faces"),
    "errors": ("QuiverError",),
    "linalg": (),
    "quiver": ("Path", "Quiver"),
    "quiverfile": ("QuiverFile",),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def _lazy(name: str):
    """The submodule ``name``, in sys.modules, its code run on first use."""
    fullname = f"{__name__}.{name}"
    spec = PathFinder.find_spec(fullname, __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _PUBLIC:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
