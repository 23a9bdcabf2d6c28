"""Exact arithmetic in the path algebra kGamma.

Elements are finite rational linear combinations of paths.  The
product of two basis paths is their concatenation when the head of the
first meets the tail of the second and zero otherwise; everything else
is bilinear extension.  Zero coefficients are pruned eagerly so
equality is plain structural equality.  A coefficient is an int when
integral, else a Fraction; results stay pruned without a normalising pass.
"""

from __future__ import annotations

from numbers import Rational

from .errors import QuiverMismatchError
from .linalg import _ZERO, Scalar, _exact, _merged
from .quiver import Path, Quiver


class AlgebraElement:
    """A finitely supported map from paths to nonzero rationals."""

    __slots__ = ("quiver", "_terms")

    def __init__(self, quiver: Quiver, terms=()):
        self.quiver = quiver
        acc: dict[Path, Scalar] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for path, coeff in items:
            c = _exact(acc.get(path, _ZERO) + _exact(coeff))
            if c:
                acc[path] = c
            else:
                acc.pop(path, None)
        self._terms = acc

    @classmethod
    def _of(cls, quiver: Quiver, terms: dict[Path, Scalar]) -> "AlgebraElement":
        # terms already pruned, every coefficient nonzero and exact
        elem = cls.__new__(cls)
        elem.quiver = quiver
        elem._terms = terms
        return elem

    @classmethod
    def zero(cls, quiver: Quiver) -> "AlgebraElement":
        return cls(quiver)

    @classmethod
    def from_path(cls, quiver: Quiver, path: Path, coeff=1) -> "AlgebraElement":
        c = _exact(coeff)
        return cls._of(quiver, {path: c} if c else {})

    @classmethod
    def identity(cls, quiver: Quiver) -> "AlgebraElement":
        """The unit e = sum of all trivial vertex-paths."""
        return cls(quiver, [(Path(v), 1) for v in range(quiver.num_vertices)])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, path: Path) -> Scalar:
        return self._terms.get(path, _ZERO)

    def items(self) -> list[tuple[Path, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].key)

    def support(self) -> tuple[Path, ...]:
        return tuple(p for p, _ in self.items())

    def _check(self, other: "AlgebraElement") -> None:
        if self.quiver is not other.quiver and self.quiver != other.quiver:
            raise QuiverMismatchError("elements live over different quivers")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement._of(self.quiver, _merged(self._terms, other._terms))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of(self.quiver, {p: -c for p, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            concat = self.quiver.concat
            acc: dict[Path, Scalar] = {}
            for p, cp in self._terms.items():
                for r, cr in other._terms.items():
                    s = concat(p, r)
                    if s is not None:
                        a = acc.get(s)
                        acc[s] = cp * cr if a is None else a + cp * cr
            return AlgebraElement._of(self.quiver, {s: c for s, c in acc.items() if c})
        return self.__rmul__(other)

    def __rmul__(self, scalar):
        if not isinstance(scalar, Rational):
            return NotImplemented
        c = _exact(scalar)
        terms = {p: c * v for p, v in self._terms.items()} if c else {}
        return AlgebraElement._of(self.quiver, terms)

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        return self * other - other * self

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.quiver == other.quiver and self._terms == other._terms

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for path, coeff in self.items():
            name = self.quiver.path_display(path)
            if coeff == 1:
                term = name
            elif coeff == -1:
                term = f"-{name}"
            else:
                term = f"{coeff}*{name}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out
