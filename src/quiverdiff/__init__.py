"""Derivation Lie algebras and first Hochschild cohomology of acyclic
quiver path algebras, in exact rational arithmetic."""

from .algebra import AlgebraElement
from .cohomology import (
    combinatorial_report,
    happel_dimension,
    hh1_basis,
    hh1_structure,
)
from .derivations import canonical_basis, derivation_space_oracle
from .embedding import RotationSystem, genus, trace_faces
from .errors import QuiverError
from .quiver import Path, Quiver
from .quiverfile import QuiverFile

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "Path",
    "Quiver",
    "QuiverError",
    "QuiverFile",
    "RotationSystem",
    "canonical_basis",
    "combinatorial_report",
    "derivation_space_oracle",
    "genus",
    "happel_dimension",
    "hh1_basis",
    "hh1_structure",
    "trace_faces",
]
